"""End-to-end orchestration: split, augment, train, annotate, evaluate.

The two-stage scheme: a deep annotator is trained on perfect density labels,
its predictions become "imperfect" labels for the whole dataset, and
lightweight target models are trained once per label regime (perfect /
imperfect / missing). Model selection and final metrics always use perfect
ground truth, whatever the training labels were.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import dataio
from .dataio import DatasetManifest, ManifestEntry
from .density import (
    DEFAULT_SIGMA,
    DotAnnotation,
    downsample_sum,
    drop_annotations,
    render_density,
)
from .metrics import GameConfig, MetricsReport, evaluate, render_table
from .models import OUTPUT_STRIDE, build_model, predict_density
from .nn import Adam, Network, TrainingDiverged, mse_loss, save_checkpoint
from .scenes import SceneConfig, generate_dataset
from .seeding import derive_seed

REGIMES = ("perfect", "imperfect", "missing")


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 8
    max_epochs: int = 100
    patience: int = 20
    seed: int = 0
    augment_brightness: bool = True
    augment_contrast: bool = True
    augment_flip: bool = True

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")


@dataclass
class TrainingCurves:
    train_loss: list[float] = field(default_factory=list)
    val_mae: list[float] = field(default_factory=list)
    best_epoch: int = -1


@dataclass
class Sample:
    """One training example: image, regime label, and perfect-GT count."""

    image: np.ndarray     # (H, W) in [0, 1]
    label: np.ndarray     # (Hq, Wq) density target at the model output stride
    gt_count: float       # count from the perfect ground truth
    dots: DotAnnotation


def split_dataset(manifest: DatasetManifest, train_fraction: float = 0.7,
                  seed: int = 0) -> tuple[DatasetManifest, DatasetManifest]:
    """Seeded permutation then prefix split into (train, val) manifests."""
    n = len(manifest)
    if n < 2:
        raise ValueError(f"need at least 2 images to split, got {n}")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    perm = np.random.default_rng(seed).permutation(n)
    k = int(train_fraction * n + 1e-9)
    train = [manifest.images[i] for i in perm[:k]]
    val = [manifest.images[i] for i in perm[k:]]
    return (
        DatasetManifest(train, root=manifest.root, regime=manifest.regime),
        DatasetManifest(val, root=manifest.root, regime=manifest.regime),
    )


def pad_or_crop(image: np.ndarray, density: np.ndarray,
                stride: int = OUTPUT_STRIDE) -> tuple[np.ndarray, np.ndarray]:
    """Zero-pad right/bottom so dims become multiples of stride.

    Accepts the density either at full image resolution or already at
    1/stride resolution; zero padding never changes its total mass.
    """
    h, w = image.shape
    hp = (stride - h % stride) % stride
    wp = (stride - w % stride) % stride
    if density.shape == image.shape:
        if hp or wp:
            image = np.pad(image, ((0, hp), (0, wp)))
            density = np.pad(density, ((0, hp), (0, wp)))
        return image, density
    if (h % stride == 0 and w % stride == 0
            and density.shape == (h // stride, w // stride)):
        return image, density  # already aligned at output resolution
    raise ValueError(
        f"density shape {density.shape} aligns with neither image {image.shape} "
        f"nor its 1/{stride} resolution"
    )


def augment(image: np.ndarray, density: np.ndarray, dots: DotAnnotation,
            seed, *, brightness: bool = True, contrast: bool = True,
            flip: bool = True) -> tuple[np.ndarray, np.ndarray, DotAnnotation]:
    """Seeded photometric + flip augmentation, each applied with probability 1/2.

    Brightness and contrast touch only the image (clamped to [0, 1]); a
    horizontal flip is applied consistently to image, density map and dots,
    so the density sum never changes.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    image = image.copy()
    density = density.copy()
    points = dots.points.copy()
    if brightness and rng.uniform() < 0.5:
        delta = rng.uniform(-0.2, 0.2)
        np.clip(image + delta, 0.0, 1.0, out=image)
    if contrast and rng.uniform() < 0.5:
        gamma = rng.uniform(0.8, 1.2)
        mean = image.mean()
        np.clip(mean + gamma * (image - mean), 0.0, 1.0, out=image)
    if flip and rng.uniform() < 0.5:
        image = image[:, ::-1].copy()
        density = density[:, ::-1].copy()
        points[:, 0] = np.maximum(image.shape[1] - 1 - points[:, 0], 0.0)
    return image, density, DotAnnotation(points, dots.image_id)


def load_samples(manifest: DatasetManifest,
                 label_manifest: DatasetManifest | None = None) -> list[Sample]:
    """Load samples with labels from `label_manifest` (perfect GT if None).

    The perfect-GT count always comes from `manifest`, keeping validation
    and evaluation independent of the training-label regime.
    """
    labels_by_id = None
    if label_manifest is not None:
        labels_by_id = {e.id: e for e in label_manifest.images}
    samples = []
    for entry in manifest.images:
        image = dataio.read_pgm(manifest.resolve(entry.image_path))
        perfect_q = dataio.read_dmap(manifest.resolve(entry.density_q_path))
        if labels_by_id is None:
            label = perfect_q
        else:
            if entry.id not in labels_by_id:
                raise ValueError(f"label manifest has no entry for image {entry.id!r}")
            le = labels_by_id[entry.id]
            label = dataio.read_dmap(label_manifest.resolve(le.density_q_path))
        dots = dataio.read_annotation(manifest.resolve(entry.annotation_path), entry.id)
        image, label = pad_or_crop(image, label)
        samples.append(Sample(image=image, label=label,
                              gt_count=float(perfect_q.sum()), dots=dots))
    return samples


def _batches(n: int, batch_size: int, order=None):
    idx = np.arange(n) if order is None else order
    for start in range(0, n, batch_size):
        yield idx[start : start + batch_size]


def _stack(samples: list[Sample], indices, dtype) -> tuple[np.ndarray, np.ndarray]:
    xs = [samples[i].image for i in indices]
    ys = [samples[i].label for i in indices]
    x = np.ascontiguousarray(np.stack(xs)[:, None], dtype=dtype)
    y = np.ascontiguousarray(np.stack(ys)[:, None], dtype=dtype)
    return x, y


def predicted_counts(model: Network, samples: list[Sample],
                     batch_size: int = 16) -> np.ndarray:
    """Clamped predicted counts for each sample, batched for speed."""
    dtype = model.parameters()[0].data.dtype
    counts = np.empty(len(samples), dtype=np.float64)
    for batch in _batches(len(samples), batch_size):
        x, _ = _stack(samples, batch, dtype)
        out = model.forward(x)
        clamped = np.maximum(out.astype(np.float64), 0.0)
        counts[batch] = clamped.sum(axis=(1, 2, 3))
    return counts


def train(model: Network, train_samples: list[Sample], val_samples: list[Sample],
          config: TrainConfig) -> tuple[Network, TrainingCurves]:
    """Minimize batch MSE with Adam; keep the checkpoint with best val MAE.

    Validation MAE is measured against perfect ground-truth counts whatever
    labels are being trained on. Deterministic for a fixed config seed.
    """
    curves = TrainingCurves()
    if config.max_epochs == 0:
        return model, curves
    if not train_samples:
        raise ValueError("no training samples")
    optimizer = Adam(model.parameters(), lr=config.lr)
    dtype = model.parameters()[0].data.dtype
    n = len(train_samples)
    gt_counts = np.array([s.gt_count for s in val_samples], dtype=np.float64)

    best_mae = np.inf
    best_state = None
    epochs_since_best = 0
    step = 0
    for epoch in range(config.max_epochs):
        order = np.random.default_rng([config.seed, 0, epoch]).permutation(n)
        epoch_losses = []
        for batch in _batches(n, config.batch_size, order):
            auged = []
            for i in batch:
                s = train_samples[i]
                img, lbl, _ = augment(
                    s.image, s.label, s.dots,
                    np.random.default_rng([config.seed, 1, epoch, int(i)]),
                    brightness=config.augment_brightness,
                    contrast=config.augment_contrast,
                    flip=config.augment_flip,
                )
                auged.append(Sample(img, lbl, s.gt_count, s.dots))
            x = np.ascontiguousarray(np.stack([s.image for s in auged])[:, None], dtype=dtype)
            y = np.ascontiguousarray(np.stack([s.label for s in auged])[:, None], dtype=dtype)
            step += 1
            pred = model.forward(x)
            loss, grad = mse_loss(pred, y)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}", step=step)
            model.backward(grad)
            optimizer.step()
            epoch_losses.append(loss)
        val_mae = float("nan")
        if val_samples:
            counts = predicted_counts(model, val_samples)
            val_mae = float(np.mean(np.abs(counts - gt_counts)))
        curves.train_loss.append(float(np.mean(epoch_losses)))
        curves.val_mae.append(val_mae)
        if val_samples and val_mae < best_mae:
            best_mae = val_mae
            best_state = model.get_state()
            curves.best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if val_samples and epochs_since_best >= config.patience:
                break
    if best_state is not None:
        model.set_state(best_state)
    return model, curves


def _relative_path(target: Path, start: Path) -> str:
    return os.path.relpath(target, start)


def annotate(annotator: Network, manifest: DatasetManifest,
             out_dir: Path) -> DatasetManifest:
    """Predict a density map per image and write them as imperfect labels.

    The returned manifest mirrors the input but points density_q_path at
    the predicted (clamped, 1/4 resolution) maps under out_dir.
    """
    out_dir = Path(out_dir)
    (out_dir / "density_q").mkdir(parents=True, exist_ok=True)
    entries = []
    for entry in manifest.images:
        image = dataio.read_pgm(manifest.resolve(entry.image_path))
        pred = predict_density(annotator, image)
        rel_q = f"density_q/{entry.id}.dmap"
        dataio.write_dmap(pred, out_dir / rel_q)
        entries.append(ManifestEntry(
            id=entry.id,
            image_path=_relative_path(manifest.resolve(entry.image_path), out_dir),
            annotation_path=_relative_path(manifest.resolve(entry.annotation_path), out_dir),
            density_path=_relative_path(manifest.resolve(entry.density_path), out_dir),
            density_q_path=rel_q,
            count=entry.count,
        ))
    labeled = DatasetManifest(entries, root=out_dir, regime="imperfect")
    dataio.write_manifest(labeled, out_dir / "manifest.json")
    return labeled


def make_missing_labels(manifest: DatasetManifest, fraction: float = 0.3,
                        seed: int = 0, out_dir: Path = Path("labels_missing"),
                        sigma: float = DEFAULT_SIGMA) -> DatasetManifest:
    """Regenerate stride-4 ground truth after randomly deleting dots per image."""
    out_dir = Path(out_dir)
    (out_dir / "density_q").mkdir(parents=True, exist_ok=True)
    entries = []
    for entry in manifest.images:
        dots = dataio.read_annotation(manifest.resolve(entry.annotation_path), entry.id)
        survivors = drop_annotations(dots, fraction, derive_seed(seed, "missing", entry.id))
        image = dataio.read_pgm(manifest.resolve(entry.image_path))
        h, w = image.shape
        density = render_density(survivors, h, w, sigma)
        rel_q = f"density_q/{entry.id}.dmap"
        dataio.write_dmap(downsample_sum(density, OUTPUT_STRIDE), out_dir / rel_q)
        entries.append(ManifestEntry(
            id=entry.id,
            image_path=_relative_path(manifest.resolve(entry.image_path), out_dir),
            annotation_path=_relative_path(manifest.resolve(entry.annotation_path), out_dir),
            density_path=_relative_path(manifest.resolve(entry.density_path), out_dir),
            density_q_path=rel_q,
            count=entry.count,
        ))
    labeled = DatasetManifest(entries, root=out_dir, regime="missing")
    dataio.write_manifest(labeled, out_dir / "manifest.json")
    return labeled


# --- full experiment -------------------------------------------------------

@dataclass
class ModelChoice:
    arch: str
    width: float = 1.0

    @property
    def name(self) -> str:
        return f"{self.arch}-{self.width:g}x"


@dataclass
class ExperimentConfig:
    annotator: ModelChoice
    targets: list[ModelChoice]
    scene: SceneConfig | None = None
    n_images: int = 200
    dataset: str | None = None          # path to an existing manifest instead
    name: str = "synthetic"
    sigma: float = DEFAULT_SIGMA
    regimes: tuple[str, ...] = REGIMES
    missing_fraction: float = 0.3
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 1

    def __post_init__(self):
        if (self.scene is None) == (self.dataset is None):
            raise ValueError("config needs exactly one of 'scene' or 'dataset'")
        for regime in self.regimes:
            if regime not in REGIMES:
                raise ValueError(f"unknown regime {regime!r}; choose from {REGIMES}")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        obj = dict(obj)
        scene = obj.pop("scene", None)
        train_obj = dict(obj.pop("train", {}))
        aug = train_obj.pop("augment", True)
        if isinstance(aug, bool):
            aug = {"brightness": aug, "contrast": aug, "flip": aug}
        train_cfg = TrainConfig(
            **train_obj,
            augment_brightness=aug.get("brightness", True),
            augment_contrast=aug.get("contrast", True),
            augment_flip=aug.get("flip", True),
        )
        annotator = ModelChoice(**obj.pop("annotator"))
        targets = [ModelChoice(**t) for t in obj.pop("targets")]
        regimes = tuple(obj.pop("regimes", REGIMES))
        known = {"dataset", "n_images", "name", "sigma", "missing_fraction", "seed"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown experiment config keys: {sorted(unknown)}")
        return cls(
            annotator=annotator,
            targets=targets,
            scene=None if scene is None else SceneConfig.from_dict(scene),
            regimes=regimes,
            train=train_cfg,
            **obj,
        )


@dataclass
class ExperimentReport:
    config: dict
    seed: int
    dataset_id: str
    n_images: int
    n_train: int
    n_val: int
    metrics: list[MetricsReport]
    curves: dict[str, TrainingCurves]
    wall_clock_seconds: float

    def to_dict(self) -> dict:
        # wall clock is deliberately left out: the canonical report must be
        # byte-identical across reruns with the same seed
        return {
            "config": self.config,
            "seed": self.seed,
            "dataset": {
                "id": self.dataset_id,
                "n_images": self.n_images,
                "n_train": self.n_train,
                "n_val": self.n_val,
            },
            "metrics": [m.to_dict() for m in self.metrics],
            "curves": {name: asdict(c) for name, c in self.curves.items()},
        }


def _train_stage(arch: str, width: float, stage: str, train_manifest,
                 val_manifest, label_manifest, cfg: ExperimentConfig,
                 quiet: bool) -> tuple[Network, TrainingCurves]:
    model = build_model(arch, width, in_channels=1,
                        seed=derive_seed(cfg.seed, "init", stage))
    train_samples = load_samples(train_manifest, label_manifest)
    val_samples = load_samples(val_manifest)
    stage_cfg = TrainConfig(
        lr=cfg.train.lr, batch_size=cfg.train.batch_size,
        max_epochs=cfg.train.max_epochs, patience=cfg.train.patience,
        seed=derive_seed(cfg.seed, "train", stage),
        augment_brightness=cfg.train.augment_brightness,
        augment_contrast=cfg.train.augment_contrast,
        augment_flip=cfg.train.augment_flip,
    )
    model, curves = train(model, train_samples, val_samples, stage_cfg)
    if not quiet:
        best = min(curves.val_mae) if curves.val_mae else float("nan")
        print(f"  [{stage}] {len(curves.val_mae)} epochs, best val MAE {best:.3f}")
    return model, curves


def run_experiment(cfg: ExperimentConfig, out_dir: Path, config_echo: dict | None = None,
                   quiet: bool = False) -> ExperimentReport:
    """Run the full two-stage experiment and write all artifacts under out_dir.

    Stages: dataset synthesis (or load), split, annotator training on perfect
    labels, imperfect-label generation, per-regime target training, and
    evaluation of every model against perfect ground truth.
    """
    started = time.monotonic()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "checkpoints").mkdir(exist_ok=True)
    (out_dir / "curves").mkdir(exist_ok=True)

    def log(msg: str) -> None:
        if not quiet:
            print(msg)

    if cfg.dataset is not None:
        manifest = dataio.read_manifest(Path(cfg.dataset))
        log(f"stage dataset: loaded {len(manifest)} images from {cfg.dataset}")
    else:
        scene = cfg.scene
        if scene.seed is None:
            scene = replace(scene, seed=derive_seed(cfg.seed, "scene"))
        manifest = generate_dataset(scene, cfg.n_images, out_dir / "dataset", cfg.sigma)
        log(f"stage dataset: generated {len(manifest)} images "
            f"({scene.height}x{scene.width})")

    train_manifest, val_manifest = split_dataset(
        manifest, 0.7, derive_seed(cfg.seed, "split"))
    log(f"stage split: {len(train_manifest)} train / {len(val_manifest)} val")

    curves: dict[str, TrainingCurves] = {}
    log("stage annotator: training on perfect labels")
    annotator, curves["annotator"] = _train_stage(
        cfg.annotator.arch, cfg.annotator.width, "annotator",
        train_manifest, val_manifest, None, cfg, quiet)
    save_checkpoint(annotator, out_dir / "checkpoints" / "annotator.nnck")

    log("stage annotate: generating imperfect labels")
    imperfect = annotate(annotator, manifest, out_dir / "labels_imperfect")
    missing = make_missing_labels(
        manifest, cfg.missing_fraction, derive_seed(cfg.seed, "missing"),
        out_dir / "labels_missing", cfg.sigma)
    label_manifests = {"perfect": None, "imperfect": imperfect, "missing": missing}

    game_config = GameConfig(grid=4)
    val_gts = [dataio.read_dmap(val_manifest.resolve(e.density_q_path))
               for e in val_manifest.images]
    reports = []
    for target in cfg.targets:
        for regime in cfg.regimes:
            stage = f"{target.name}/{regime}"
            log(f"stage target: training {stage}")
            model, stage_curves = _train_stage(
                target.arch, target.width, stage, train_manifest, val_manifest,
                label_manifests[regime], cfg, quiet)
            curves[stage] = stage_curves
            save_checkpoint(
                model, out_dir / "checkpoints" / f"{target.name}_{regime}.nnck")
            preds = [predict_density(
                model, dataio.read_pgm(val_manifest.resolve(e.image_path)))
                for e in val_manifest.images]
            reports.append(evaluate(preds, val_gts, game_config,
                                    model=target.name, regime=regime,
                                    dataset=cfg.name))

    report = ExperimentReport(
        config=config_echo if config_echo is not None else {},
        seed=cfg.seed,
        dataset_id=cfg.name,
        n_images=len(manifest),
        n_train=len(train_manifest),
        n_val=len(val_manifest),
        metrics=reports,
        curves=curves,
        wall_clock_seconds=time.monotonic() - started,
    )
    dataio.dump_json(report.to_dict(), out_dir / "report.json")
    table = render_table(reports)
    (out_dir / "report.txt").write_text(table + "\n", encoding="utf-8")
    for name, c in curves.items():
        lines = ["epoch,train_loss,val_mae"]
        for epoch, (loss, vm) in enumerate(zip(c.train_loss, c.val_mae)):
            lines.append(f"{epoch},{loss!r},{vm!r}")
        safe = name.replace("/", "_")
        (out_dir / "curves" / f"{safe}.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8")
    dataio.dump_json({"wall_clock_seconds": report.wall_clock_seconds},
                     out_dir / "run_info.json")
    log(table)
    return report
