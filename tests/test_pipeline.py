"""Training pipeline: splits, augmentation, label generation, the train loop.

Training tests run a thin MCNN on 16x16 or 32x32 scenes so the whole module
stays in the seconds range.
"""

import numpy as np
import pytest

from crowdcount import dataio
from crowdcount.dataio import DatasetManifest, ManifestEntry
from crowdcount.density import DotAnnotation
from crowdcount.models import build_mcnn
from crowdcount.nn import TrainingDiverged
from crowdcount.pipeline import (
    REGIMES,
    ExperimentConfig,
    ExperimentReport,
    ModelChoice,
    Sample,
    TrainConfig,
    TrainingCurves,
    annotate,
    augment,
    load_samples,
    make_missing_labels,
    pad_or_crop,
    predicted_counts,
    split_dataset,
    train,
)
from crowdcount.scenes import SceneConfig, generate_dataset, generate_scene


def fake_manifest(n):
    entries = [
        ManifestEntry(
            id=f"img_{i:03d}",
            image_path=f"images/img_{i:03d}.pgm",
            annotation_path=f"annotations/img_{i:03d}.json",
            density_path=f"density/img_{i:03d}.dmap",
            density_q_path=f"density_q/img_{i:03d}.dmap",
            count=i,
        )
        for i in range(n)
    ]
    return DatasetManifest(entries, root=None, regime="perfect")


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinyset")
    cfg = SceneConfig(height=32, width=32, count_min=2, count_max=6, seed=7)
    manifest = generate_dataset(cfg, 8, root, sigma=2.0)
    return root, manifest


# ---------------------------------------------------------------------------
# split_dataset


def test_split_sizes_ten():
    train_m, val_m = split_dataset(fake_manifest(10), 0.7, seed=0)
    assert len(train_m) == 7
    assert len(val_m) == 3


def test_split_sizes_two_hundred():
    train_m, val_m = split_dataset(fake_manifest(200), 0.7, seed=0)
    assert len(train_m) == 140
    assert len(val_m) == 60


def test_split_is_disjoint_partition():
    manifest = fake_manifest(23)
    train_m, val_m = split_dataset(manifest, 0.7, seed=5)
    train_ids = {e.id for e in train_m.images}
    val_ids = {e.id for e in val_m.images}
    assert train_ids.isdisjoint(val_ids)
    assert train_ids | val_ids == {e.id for e in manifest.images}


def test_split_deterministic():
    a = split_dataset(fake_manifest(20), 0.7, seed=3)
    b = split_dataset(fake_manifest(20), 0.7, seed=3)
    assert [e.id for e in a[0].images] == [e.id for e in b[0].images]
    assert [e.id for e in a[1].images] == [e.id for e in b[1].images]


def test_split_varies_with_seed():
    a, _ = split_dataset(fake_manifest(20), 0.7, seed=3)
    b, _ = split_dataset(fake_manifest(20), 0.7, seed=4)
    assert [e.id for e in a.images] != [e.id for e in b.images]


def test_split_carries_root_and_regime(tiny_dataset):
    _, manifest = tiny_dataset
    train_m, val_m = split_dataset(manifest, 0.7, seed=0)
    assert train_m.root == manifest.root
    assert val_m.regime == manifest.regime


def test_split_rejects_tiny_or_bad_fraction():
    with pytest.raises(ValueError):
        split_dataset(fake_manifest(1))
    with pytest.raises(ValueError):
        split_dataset(fake_manifest(10), train_fraction=1.0)
    with pytest.raises(ValueError):
        split_dataset(fake_manifest(10), train_fraction=0.0)


# ---------------------------------------------------------------------------
# pad_or_crop


def test_pad_full_resolution_density():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, size=(30, 30))
    den = rng.uniform(0, 1, size=(30, 30))
    img2, den2 = pad_or_crop(img, den, stride=4)
    assert img2.shape == (32, 32)
    assert den2.shape == (32, 32)
    # padding goes to the right/bottom and is zero
    assert np.array_equal(img2[:30, :30], img)
    assert img2[30:, :].sum() == 0 and img2[:, 30:].sum() == 0
    assert den2.sum() == den.sum()


def test_pad_noop_when_aligned():
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, size=(32, 32))
    den = rng.uniform(0, 1, size=(32, 32))
    img2, den2 = pad_or_crop(img, den, stride=4)
    assert img2 is img and den2 is den


def test_pad_accepts_quarter_resolution_density():
    rng = np.random.default_rng(2)
    img = rng.uniform(0, 1, size=(32, 32))
    den = rng.uniform(0, 1, size=(8, 8))
    img2, den2 = pad_or_crop(img, den, stride=4)
    assert img2 is img and den2 is den


def test_pad_rejects_unalignable_density():
    with pytest.raises(ValueError):
        pad_or_crop(np.zeros((32, 32)), np.zeros((9, 9)), stride=4)


# ---------------------------------------------------------------------------
# augment


def make_augment_inputs():
    rng = np.random.default_rng(100)
    img = rng.uniform(0.1, 0.9, size=(16, 16))
    den = rng.uniform(0, 1, size=(16, 16))
    dots = DotAnnotation(np.array([[2.0, 3.0], [10.5, 7.0]]), "t")
    return img, den, dots


def test_augment_all_off_is_identity():
    img, den, dots = make_augment_inputs()
    out_img, out_den, out_dots = augment(
        img, den, dots, 0, brightness=False, contrast=False, flip=False
    )
    assert np.array_equal(out_img, img)
    assert np.array_equal(out_den, den)
    assert np.array_equal(out_dots.points, dots.points)


def test_augment_does_not_mutate_inputs():
    img, den, dots = make_augment_inputs()
    img0, den0, pts0 = img.copy(), den.copy(), dots.points.copy()
    for seed in range(10):
        augment(img, den, dots, seed)
    assert np.array_equal(img, img0)
    assert np.array_equal(den, den0)
    assert np.array_equal(dots.points, pts0)


def test_augment_deterministic_per_seed():
    img, den, dots = make_augment_inputs()
    a = augment(img, den, dots, 42)
    b = augment(img, den, dots, 42)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2].points, b[2].points)


def find_seed(fires):
    for seed in range(200):
        if fires(seed):
            return seed
    raise AssertionError("no seed fired in 200 tries")


def test_augment_flip_geometry():
    img, den, dots = make_augment_inputs()

    def flipped(seed):
        out, _, _ = augment(img, den, dots, seed,
                            brightness=False, contrast=False, flip=True)
        return not np.array_equal(out, img)

    seed = find_seed(flipped)
    out_img, out_den, out_dots = augment(
        img, den, dots, seed, brightness=False, contrast=False, flip=True
    )
    assert np.array_equal(out_img, img[:, ::-1])
    assert np.array_equal(out_den, den[:, ::-1])
    # x -> W-1-x, y untouched
    w = img.shape[1]
    assert np.array_equal(out_dots.points[:, 0], w - 1 - dots.points[:, 0])
    assert np.array_equal(out_dots.points[:, 1], dots.points[:, 1])
    # flipping again with the same seed restores everything
    back = augment(out_img, out_den, out_dots, seed,
                   brightness=False, contrast=False, flip=True)
    assert np.array_equal(back[0], img)
    assert np.array_equal(back[1], den)
    assert np.array_equal(back[2].points, dots.points)


def test_augment_density_sum_invariant():
    img, den, dots = make_augment_inputs()
    for seed in range(30):
        _, out_den, _ = augment(img, den, dots, seed)
        assert out_den.sum() == den.sum()


def test_augment_image_stays_in_unit_range():
    img, den, dots = make_augment_inputs()
    for seed in range(30):
        out_img, _, _ = augment(img, den, dots, seed)
        assert out_img.min() >= 0.0
        assert out_img.max() <= 1.0


def test_augment_brightness_shifts_mean():
    img, den, dots = make_augment_inputs()

    def brightened(seed):
        out, _, _ = augment(img, den, dots, seed,
                            brightness=True, contrast=False, flip=False)
        return not np.array_equal(out, img)

    seed = find_seed(brightened)
    out_img, _, _ = augment(img, den, dots, seed,
                            brightness=True, contrast=False, flip=False)
    shift = out_img - img
    # uniform shift wherever no clamping happened
    interior = (out_img > 0) & (out_img < 1)
    deltas = shift[interior]
    assert deltas.size > 0
    assert np.allclose(deltas, deltas.flat[0], atol=1e-12)
    assert abs(deltas.flat[0]) <= 0.2


# ---------------------------------------------------------------------------
# load_samples / predicted_counts


def test_load_samples_perfect_labels(tiny_dataset):
    root, manifest = tiny_dataset
    samples = load_samples(manifest)
    assert len(samples) == 8
    for entry, s in zip(manifest.images, samples):
        assert s.image.shape == (32, 32)
        assert s.label.shape == (8, 8)
        assert s.gt_count == pytest.approx(entry.count, abs=1e-3)
        assert len(s.dots) == entry.count


def test_load_samples_with_label_manifest(tiny_dataset, tmp_path):
    root, manifest = tiny_dataset
    alt = make_missing_labels(manifest, 0.5, seed=9, out_dir=tmp_path / "alt",
                              sigma=2.0)
    samples = load_samples(manifest, alt)
    perfect = load_samples(manifest)
    changed = 0
    for s, p, entry in zip(samples, perfect, manifest.images):
        # labels may differ, the reference count must not
        assert s.gt_count == p.gt_count
        assert s.gt_count == pytest.approx(entry.count, abs=1e-3)
        if not np.array_equal(s.label, p.label):
            changed += 1
    assert changed > 0


def test_load_samples_rejects_missing_label_id(tiny_dataset, tmp_path):
    root, manifest = tiny_dataset
    alt = make_missing_labels(manifest, 0.0, seed=0, out_dir=tmp_path / "alt2",
                              sigma=2.0)
    alt_short = DatasetManifest(alt.images[:-1], root=alt.root, regime=alt.regime)
    with pytest.raises(ValueError, match="no entry"):
        load_samples(manifest, alt_short)


def test_predicted_counts_match_manual_forward(tiny_dataset):
    _, manifest = tiny_dataset
    samples = load_samples(manifest)[:5]
    model = build_mcnn(0.125, in_channels=1, seed=3)
    counts = predicted_counts(model, samples, batch_size=2)
    assert counts.shape == (5,)
    for s, c in zip(samples, counts):
        out = model.forward(
            np.ascontiguousarray(s.image[None, None], dtype=np.float32))
        expected = np.maximum(out.astype(np.float64), 0.0).sum()
        assert c == pytest.approx(expected, rel=1e-6)
    assert (counts >= 0).all()


# ---------------------------------------------------------------------------
# train loop


def train_val_samples(manifest, n_train=6, n_val=2):
    samples = load_samples(manifest)
    return samples[:n_train], samples[n_train : n_train + n_val]


def quick_config(**overrides):
    base = dict(lr=1e-3, batch_size=4, max_epochs=3, patience=20, seed=11)
    base.update(overrides)
    return TrainConfig(**base)


def test_train_zero_epochs_returns_initial_model(tiny_dataset):
    _, manifest = tiny_dataset
    tr, va = train_val_samples(manifest)
    model = build_mcnn(0.125, in_channels=1, seed=3)
    before = [p.data.copy() for p in model.parameters()]
    model, curves = train(model, tr, va, quick_config(max_epochs=0))
    assert curves.train_loss == [] and curves.val_mae == []
    assert curves.best_epoch == -1
    for p, b in zip(model.parameters(), before):
        assert np.array_equal(p.data, b)


def test_train_deterministic(tiny_dataset):
    _, manifest = tiny_dataset
    tr, va = train_val_samples(manifest)
    runs = []
    for _ in range(2):
        model = build_mcnn(0.125, in_channels=1, seed=3)
        model, curves = train(model, tr, va, quick_config())
        runs.append((curves, [p.data.copy() for p in model.parameters()]))
    assert runs[0][0].train_loss == runs[1][0].train_loss
    assert runs[0][0].val_mae == runs[1][0].val_mae
    for a, b in zip(runs[0][1], runs[1][1]):
        assert np.array_equal(a, b)


def test_train_returns_best_validation_checkpoint(tiny_dataset):
    _, manifest = tiny_dataset
    tr, va = train_val_samples(manifest)
    model = build_mcnn(0.125, in_channels=1, seed=3)
    model, curves = train(model, tr, va, quick_config(max_epochs=6))
    assert len(curves.val_mae) == 6
    gt = np.array([s.gt_count for s in va])
    restored_mae = float(np.mean(np.abs(predicted_counts(model, va) - gt)))
    assert restored_mae == min(curves.val_mae)
    assert curves.val_mae[curves.best_epoch] == min(curves.val_mae)


def test_train_loss_decreases(tiny_dataset):
    _, manifest = tiny_dataset
    tr, va = train_val_samples(manifest)
    model = build_mcnn(0.125, in_channels=1, seed=3)
    _, curves = train(model, tr, va, quick_config(max_epochs=8))
    assert curves.train_loss[-1] < curves.train_loss[0]


def test_train_patience_bounds_epochs_after_best(tiny_dataset):
    _, manifest = tiny_dataset
    tr, va = train_val_samples(manifest)
    model = build_mcnn(0.125, in_channels=1, seed=3)
    _, curves = train(model, tr, va, quick_config(max_epochs=12, patience=2))
    assert len(curves.val_mae) <= 12
    if curves.best_epoch >= 0:
        assert len(curves.val_mae) - 1 - curves.best_epoch <= 2


def test_train_without_validation_runs_all_epochs(tiny_dataset):
    _, manifest = tiny_dataset
    tr, _ = train_val_samples(manifest)
    model = build_mcnn(0.125, in_channels=1, seed=3)
    _, curves = train(model, tr, [], quick_config(max_epochs=3, patience=1))
    assert len(curves.train_loss) == 3
    assert all(np.isnan(v) for v in curves.val_mae)
    assert curves.best_epoch == -1


def test_train_diverges_with_absurd_lr(tiny_dataset):
    _, manifest = tiny_dataset
    tr, va = train_val_samples(manifest)
    model = build_mcnn(0.125, in_channels=1, seed=3)
    with np.errstate(over="ignore"), pytest.raises(TrainingDiverged):
        train(model, tr, va, quick_config(lr=1e8, max_epochs=5))


def test_train_rejects_empty_training_set(tiny_dataset):
    _, manifest = tiny_dataset
    _, va = train_val_samples(manifest)
    model = build_mcnn(0.125, in_channels=1, seed=3)
    with pytest.raises(ValueError):
        train(model, [], va, quick_config())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=-1)


# ---------------------------------------------------------------------------
# label generation


def test_annotate_writes_imperfect_labels(tiny_dataset, tmp_path):
    _, manifest = tiny_dataset
    model = build_mcnn(0.125, in_channels=1, seed=5)
    labeled = annotate(model, manifest, tmp_path / "imp")
    assert labeled.regime == "imperfect"
    assert [e.id for e in labeled.images] == [e.id for e in manifest.images]
    for orig, e in zip(manifest.images, labeled.images):
        assert e.count == orig.count
        pred = dataio.read_dmap(labeled.resolve(e.density_q_path))
        assert pred.shape == (8, 8)
        assert pred.min() >= 0.0
        # original image remains reachable through the new manifest
        img = dataio.read_pgm(labeled.resolve(e.image_path))
        assert img.shape == (32, 32)


def test_annotate_deterministic(tiny_dataset, tmp_path):
    _, manifest = tiny_dataset
    model = build_mcnn(0.125, in_channels=1, seed=5)
    annotate(model, manifest, tmp_path / "a")
    annotate(model, manifest, tmp_path / "b")
    for e in manifest.images:
        pa = (tmp_path / "a" / "density_q" / f"{e.id}.dmap").read_bytes()
        pb = (tmp_path / "b" / "density_q" / f"{e.id}.dmap").read_bytes()
        assert pa == pb


def test_missing_labels_fraction_zero_matches_perfect(tiny_dataset, tmp_path):
    root, manifest = tiny_dataset
    labeled = make_missing_labels(manifest, 0.0, seed=4,
                                  out_dir=tmp_path / "m0", sigma=2.0)
    assert labeled.regime == "missing"
    for orig, e in zip(manifest.images, labeled.images):
        regen = (tmp_path / "m0" / e.density_q_path).read_bytes()
        perfect = (root / orig.density_q_path).read_bytes()
        assert regen == perfect


def test_missing_labels_remove_mass(tiny_dataset, tmp_path):
    _, manifest = tiny_dataset
    labeled = make_missing_labels(manifest, 0.5, seed=4,
                                  out_dir=tmp_path / "m5", sigma=2.0)
    kept = []
    for orig, e in zip(manifest.images, labeled.images):
        mass = dataio.read_dmap(labeled.resolve(e.density_q_path)).sum()
        kept.append(mass / max(orig.count, 1))
    assert 0.3 < float(np.mean(kept)) < 0.7


def test_missing_labels_deterministic(tiny_dataset, tmp_path):
    _, manifest = tiny_dataset
    make_missing_labels(manifest, 0.3, seed=4, out_dir=tmp_path / "x", sigma=2.0)
    make_missing_labels(manifest, 0.3, seed=4, out_dir=tmp_path / "y", sigma=2.0)
    make_missing_labels(manifest, 0.3, seed=5, out_dir=tmp_path / "z", sigma=2.0)
    same = diff = 0
    for e in manifest.images:
        x = (tmp_path / "x" / "density_q" / f"{e.id}.dmap").read_bytes()
        y = (tmp_path / "y" / "density_q" / f"{e.id}.dmap").read_bytes()
        z = (tmp_path / "z" / "density_q" / f"{e.id}.dmap").read_bytes()
        assert x == y
        same += x == z
        diff += x != z
    assert diff > 0  # a different seed must drop different dots somewhere


# ---------------------------------------------------------------------------
# experiment config / report


def reference_dict():
    return {
        "name": "blobs",
        "scene": {"height": 32, "width": 32, "count_min": 2, "count_max": 6},
        "n_images": 8,
        "sigma": 2.0,
        "annotator": {"arch": "csrnet_lite", "width": 0.25},
        "targets": [{"arch": "mcnn", "width": 0.5}],
        "regimes": ["perfect", "imperfect", "missing"],
        "missing_fraction": 0.3,
        "train": {"lr": 0.001, "batch_size": 4, "max_epochs": 2, "patience": 2},
        "seed": 1,
    }


def test_experiment_config_from_dict():
    cfg = ExperimentConfig.from_dict(reference_dict())
    assert cfg.annotator.arch == "csrnet_lite"
    assert cfg.annotator.width == 0.25
    assert [t.name for t in cfg.targets] == ["mcnn-0.5x"]
    assert cfg.scene.height == 32
    assert cfg.regimes == REGIMES
    assert cfg.train.lr == 0.001
    assert cfg.train.augment_flip is True
    assert cfg.seed == 1


def test_experiment_config_augment_toggle():
    d = reference_dict()
    d["train"]["augment"] = False
    cfg = ExperimentConfig.from_dict(d)
    assert cfg.train.augment_brightness is False
    assert cfg.train.augment_contrast is False
    assert cfg.train.augment_flip is False

    d["train"]["augment"] = {"flip": False}
    cfg = ExperimentConfig.from_dict(d)
    assert cfg.train.augment_brightness is True
    assert cfg.train.augment_flip is False


def test_experiment_config_needs_scene_or_dataset():
    d = reference_dict()
    del d["scene"]
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig.from_dict(d)
    d["scene"] = reference_dict()["scene"]
    d["dataset"] = "somewhere/manifest.json"
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig.from_dict(d)


def test_experiment_config_rejects_unknown_keys():
    d = reference_dict()
    d["n_imges"] = 10
    with pytest.raises(ValueError, match="unknown"):
        ExperimentConfig.from_dict(d)


def test_experiment_config_rejects_unknown_regime():
    d = reference_dict()
    d["regimes"] = ["perfect", "noisy"]
    with pytest.raises(ValueError, match="regime"):
        ExperimentConfig.from_dict(d)


def test_model_choice_name():
    assert ModelChoice("mcnn", 0.5).name == "mcnn-0.5x"
    assert ModelChoice("csrnet_lite", 0.25).name == "csrnet_lite-0.25x"
    assert ModelChoice("mcnn", 1.0).name == "mcnn-1x"


def test_experiment_report_excludes_wall_clock():
    report = ExperimentReport(
        config={}, seed=1, dataset_id="d", n_images=8, n_train=5, n_val=3,
        metrics=[], curves={"annotator": TrainingCurves([0.5], [1.0], 0)},
        wall_clock_seconds=12.5,
    )
    d = report.to_dict()
    flat = str(d)
    assert "wall_clock" not in flat
    assert "12.5" not in flat
    assert d["curves"]["annotator"]["best_epoch"] == 0


def test_experiment_keeps_explicit_scene_seed_zero(tmp_path):
    from crowdcount.pipeline import run_experiment

    d = reference_dict()
    d["scene"].update(height=48, width=48, seed=0)  # SSIM needs maps of 11x11 or more
    d.update(n_images=4, regimes=["perfect"], annotator={"arch": "mcnn", "width": 0.125},
             targets=[{"arch": "mcnn", "width": 0.125}])
    d["train"].update(max_epochs=1, patience=1)
    cfg = ExperimentConfig.from_dict(d)
    run_experiment(cfg, tmp_path / "run", quiet=True)
    manifest = dataio.read_manifest(tmp_path / "run" / "dataset" / "manifest.json")
    scene = SceneConfig(**d["scene"])
    for i, entry in enumerate(manifest.images):
        image, _ = generate_scene(scene, i)
        dataio.write_pgm(image, tmp_path / "expect.pgm")
        assert (manifest.resolve(entry.image_path).read_bytes()
                == (tmp_path / "expect.pgm").read_bytes())
