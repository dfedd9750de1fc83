"""Tests of the benchmark itself: small runs, and checks that catch bad outputs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import refnet  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", "5", "--seconds", "0",
         "--small", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_run(workload, trace):
    result = run_bench("--workload", workload, "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        if trace == "0":
            assert got["value"] > 0


def test_setup_only_reports_one_cold_set_up():
    result = run_bench("--workload", "relabel", "--trace", "0", "--setup-only")
    assert list(result) == ["setup_s"]
    assert 0 < result["setup_s"] < 60
    assert not list((BENCH / "out").glob("relabel-s5-p*"))


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relabel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def labelled(tmp_path_factory):
    """A tiny dataset, its missing labels, and an annotator's labels."""
    from crowdcount import cli

    out = tmp_path_factory.mktemp("labelled")
    data = out / "data" / "manifest.json"
    ckpt = out / "model.nnck"
    for argv in (
        ["gen-data", "--out", str(out / "data"), "--n-images", "4", "--height", "48",
         "--width", "48", "--seed", "3"],
        ["make-labels", "--dataset", str(data), "--kind", "missing",
         "--out", str(out / "missing"), "--seed", "3"],
    ):
        assert cli.main(argv + ["--quiet"]) == 0
    from crowdcount.models import build_model
    from crowdcount.nn import save_checkpoint

    save_checkpoint(build_model("csrnet_lite", 0.25, seed=2), ckpt)
    assert cli.main(["annotate", "--checkpoint", str(ckpt), "--dataset", str(data),
                     "--out", str(out / "annotated"), "--quiet"]) == 0
    return out


def _add_one_head(manifest: Path) -> None:
    root, entries = refnet.read_manifest(manifest)
    path = root / entries[1]["density_q_path"]
    density = refnet.read_dmap(path)
    density[2, 3] += 1.0
    refnet.write_dmap(density, path)


def test_gt_counts_catch_a_dmap_off_by_one_head(labelled, tmp_path):
    import shutil

    data = tmp_path / "data"
    shutil.copytree(labelled / "data", data)
    assert checks.gt_counts(data / "manifest.json") == []
    _add_one_head(data / "manifest.json")
    assert len(checks.gt_counts(data / "manifest.json")) == 1


def test_missing_counts_catch_a_map_off_by_one_head(labelled, tmp_path):
    import shutil

    shutil.copytree(labelled / "data", tmp_path / "data")
    shutil.copytree(labelled / "missing", tmp_path / "missing")
    manifest = tmp_path / "missing" / "manifest.json"
    assert checks.missing_counts(manifest, 0.3) == []
    _add_one_head(manifest)
    assert len(checks.missing_counts(manifest, 0.3)) == 1


def test_forward_comparison_catches_a_perturbed_weight(labelled):
    spec, params = refnet.read_nnck(labelled / "model.nnck")
    manifest = labelled / "annotated" / "manifest.json"
    assert checks.annotated_maps(manifest, spec, params) == []
    params[4][0, 0, 1, 1] += 0.05
    assert checks.annotated_maps(manifest, spec, params) != []


def test_gradient_check_catches_a_wrong_backward(labelled, monkeypatch):
    import crowdcount.nn.layers as layers

    image = refnet.read_pgm(labelled / "data" / "images" / "scene_0000.pgm")[:32, :32]
    target = refnet.read_dmap(labelled / "data" / "density_q" / "scene_0000.dmap")[:8, :8]
    ckpt = labelled / "model.nnck"
    assert checks.gradients(ckpt, image, target, seed=0) == []

    original = layers.conv2d_backward

    def off_by_a_percent(*args, **kwargs):
        gx, gw, gb = original(*args, **kwargs)
        return gx, gw * 1.01, gb

    monkeypatch.setattr(layers, "conv2d_backward", off_by_a_percent)
    assert checks.gradients(ckpt, image, target, seed=0) != []


def test_metric_rows_catch_game_below_mae():
    row = {"model": "m", "regime": "perfect", "mae": 2.0, "game": 3.0,
           "game_grid": 4, "ssim": 0.8}
    assert checks.metric_rows([row], "row") == []
    assert checks.metric_rows([{**row, "game": 1.5}], "row") != []
    assert checks.metric_rows([{**row, "ssim": 1.01}], "row") != []
