"""The two workloads: the CLI calls one round makes, and the checks on them.

A round is a fixed list of ``crowdcount`` command lines run in process
through ``cli.main``. Every input comes from the workload seed: the configs
and scene seeds are written here, the program generates the rest.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks
import refnet

MISSING_FRACTION = 0.3
CROP = 32  # side of the image patch used for the finite-difference check


def program_seed(seed: int) -> int:
    """Map any integer workload seed to the non-negative seeds the CLI takes."""
    return seed % 2**31


def _crop_pair(manifest_path: Path) -> tuple[np.ndarray, np.ndarray]:
    root, entries = refnet.read_manifest(manifest_path)
    image = refnet.read_pgm(root / entries[0]["image_path"])[:CROP, :CROP]
    target = refnet.read_dmap(root / entries[0]["density_q_path"])[:CROP // 4, :CROP // 4]
    return image, target


def _same_bytes(rounds: list[Path], rel: str) -> list[str]:
    first = (rounds[0] / rel).read_bytes()
    return [f"{r / rel} differs from round 0 (same seed, same inputs)"
            for r in rounds[1:] if (r / rel).read_bytes() != first]


class Experiment:
    """`crowdcount experiment` on the reference scene config, fixed epoch budget."""

    name = "experiment"
    # the least rounds a run makes: timings keep each piece of work at its
    # best round (measures.stage_seconds), and the 0.1-0.2 s datagen and
    # missing-label stages spread less across runs with a fourth round
    rounds = 4

    def __init__(self, seed: int, small: bool = False):
        self.seed = program_seed(seed)
        self.n_images = 48 if small else 200
        # patience >= max_epochs: every run trains exactly this many epochs,
        # so a float-order change cannot alter the amount of work; two keep
        # a round short enough for four rounds in a run
        self.epochs = 2

    def config(self) -> dict:
        return {
            "name": "blobs48",
            "scene": {"height": 48, "width": 48, "count_min": 5, "count_max": 25,
                      "blob_radius_min": 1.0, "blob_radius_max": 2.5, "noise": 0.05},
            "n_images": self.n_images,
            "sigma": 7.0,
            "annotator": {"arch": "csrnet_lite", "width": 0.25},
            "targets": [{"arch": "mcnn", "width": 0.5}],
            "regimes": ["perfect", "imperfect", "missing"],
            "missing_fraction": MISSING_FRACTION,
            "train": {"lr": 0.001, "batch_size": 8, "max_epochs": self.epochs,
                      "patience": self.epochs},
            "seed": self.seed,
        }

    def prepare(self, work: Path) -> None:
        (work / "experiment.json").write_text(json.dumps(self.config(), indent=2))

    def commands(self, work: Path, out: Path) -> list[list[str]]:
        return [["experiment", "--config", str(work / "experiment.json"),
                 "--out", str(out), "--quiet"]]

    def check(self, rounds: list[Path]) -> list[str]:
        out = rounds[-1]
        dataset = out / "dataset" / "manifest.json"
        problems = checks.gt_counts(dataset)
        problems += checks.missing_counts(out / "labels_missing" / "manifest.json",
                                          MISSING_FRACTION)
        annotator = out / "checkpoints" / "annotator.nnck"
        problems += checks.annotated_maps(out / "labels_imperfect" / "manifest.json",
                                          *refnet.read_nnck(annotator))
        image, target = _crop_pair(dataset)
        for ckpt in (annotator, out / "checkpoints" / "mcnn-0.5x_perfect.nnck"):
            problems += checks.gradients(ckpt, image, target, self.seed)
        report = json.loads((out / "report.json").read_text())
        problems += checks.metric_rows(report["metrics"], str(out / "report.json"))
        zero_mae = self._zero_prediction_mae(dataset)
        for stage, c in report["curves"].items():
            if len(c["val_mae"]) != self.epochs or len(c["train_loss"]) != self.epochs:
                problems.append(f"stage {stage} ran {len(c['val_mae'])} epochs, "
                                f"budget {self.epochs}")
            elif not min(c["val_mae"]) < zero_mae:
                problems.append(f"stage {stage} best val MAE {min(c['val_mae'])!r} does "
                                f"not beat the all-zero prediction ({zero_mae!r})")
        return problems + _same_bytes(rounds, "report.json")

    def _zero_prediction_mae(self, dataset: Path) -> float:
        """MAE of predicting 0 everywhere on the validation split: its mean count."""
        from crowdcount import dataio
        from crowdcount.pipeline import split_dataset
        from crowdcount.seeding import derive_seed

        manifest = dataio.read_manifest(dataset)
        _, val = split_dataset(manifest, 0.7, derive_seed(self.seed, "split"))
        return float(np.mean([refnet.dot_count(val.resolve(e.annotation_path))
                              for e in val.images]))


class Relabel:
    """Train a small annotator, then label, drop dots from and score a large set."""

    name = "relabel"
    rounds = 3  # its stages hold ten times the experiment's non-training work

    def __init__(self, seed: int, small: bool = False):
        self.seed = program_seed(seed)
        self.n_labelled = 16 if small else 40
        self.n_scenes = 12 if small else 240
        self.epochs = 1 if small else 2
        self.scene_args = ["--height", "96", "--width", "96",
                           "--count-min", "20", "--count-max", "100"]

    def prepare(self, work: Path) -> None:
        pass

    def commands(self, work: Path, out: Path) -> list[list[str]]:
        labelled = out / "labelled" / "manifest.json"
        scenes = out / "scenes" / "manifest.json"
        ckpt = out / "annotator" / "checkpoint.nnck"
        return [
            ["gen-data", "--out", str(out / "labelled"), "--n-images", str(self.n_labelled),
             *self.scene_args, "--seed", str(self.seed), "--quiet"],
            ["gen-data", "--out", str(out / "scenes"), "--n-images", str(self.n_scenes),
             *self.scene_args, "--seed", str(self.seed + 2**31), "--quiet"],
            ["train", "--dataset", str(labelled), "--arch", "csrnet_lite", "--width", "0.25",
             "--lr", "1e-3", "--batch-size", "8", "--epochs", str(self.epochs),
             "--patience", str(self.epochs), "--out", str(out / "annotator"),
             "--seed", str(self.seed), "--quiet"],
            ["annotate", "--checkpoint", str(ckpt), "--dataset", str(scenes),
             "--out", str(out / "labels_imperfect"), "--quiet"],
            ["make-labels", "--dataset", str(scenes), "--kind", "missing",
             "--fraction", str(MISSING_FRACTION), "--out", str(out / "labels_missing"),
             "--seed", str(self.seed), "--quiet"],
            ["eval", "--dataset", str(scenes), "--checkpoint", str(ckpt),
             "--out", str(out / "eval_checkpoint")],
            ["eval", "--dataset", str(scenes), "--pred-manifest",
             str(out / "labels_imperfect" / "manifest.json"), "--out", str(out / "eval_imperfect")],
            ["eval", "--dataset", str(scenes), "--pred-manifest",
             str(out / "labels_missing" / "manifest.json"), "--out", str(out / "eval_missing")],
        ]

    def check(self, rounds: list[Path]) -> list[str]:
        out = rounds[-1]
        scenes = out / "scenes" / "manifest.json"
        ckpt = out / "annotator" / "checkpoint.nnck"
        problems = checks.gt_counts(out / "labelled" / "manifest.json")
        problems += checks.gt_counts(scenes)
        problems += checks.missing_counts(out / "labels_missing" / "manifest.json",
                                          MISSING_FRACTION)
        problems += checks.annotated_maps(out / "labels_imperfect" / "manifest.json",
                                          *refnet.read_nnck(ckpt))
        problems += checks.gradients(ckpt, *_crop_pair(scenes), self.seed)

        rows = {}
        for kind in ("checkpoint", "imperfect", "missing"):
            path = out / f"eval_{kind}" / "metrics.json"
            rows[kind] = json.loads(path.read_text())
            problems += checks.metric_rows([rows[kind]], str(path))
            problems += _same_bytes(rounds, f"eval_{kind}/metrics.json")
        # the stored imperfect labels are the checkpoint's float32 outputs, so
        # scoring either must give the same numbers
        for key in ("mae", "game", "ssim", "psnr", "n_images"):
            if rows["checkpoint"][key] != rows["imperfect"][key]:
                problems.append(f"eval {key}: checkpoint {rows['checkpoint'][key]!r} "
                                f"vs its stored labels {rows['imperfect'][key]!r}")
        root, entries = refnet.read_manifest(scenes)
        expected = float(np.mean([checks.dropped(refnet.dot_count(root / e["annotation_path"]),
                                                 MISSING_FRACTION) for e in entries]))
        if abs(rows["missing"]["mae"] - expected) > 1e-4:
            problems.append(f"missing-label MAE {rows['missing']['mae']!r}, expected the "
                            f"mean dropped-dot count {expected!r}")

        curves = (out / "annotator" / "curves.csv").read_text().splitlines()
        if len(curves) - 1 != self.epochs:
            problems.append(f"annotator ran {len(curves) - 1} epochs, budget {self.epochs}")
        return problems


WORKLOADS = {w.name: w for w in (Experiment, Relabel)}
