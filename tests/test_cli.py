"""Command-line interface: exit codes, artifact layout, flag handling.

Most tests drive `main()` in-process to keep the suite fast; one subprocess
test covers the installed entry point end to end.
"""

import json
import os
import subprocess
import sys

import pytest

from crowdcount import dataio
from crowdcount.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small 48x48 dataset (large enough for SSIM on quarter maps)."""
    root = tmp_path_factory.mktemp("cliset")
    rc = run_cli(
        "gen-data", "--out", root, "--n-images", 8,
        "--height", 48, "--width", 48, "--count-min", 2, "--count-max", 6,
        "--seed", 7, "--quiet",
    )
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("clitrain")
    rc = run_cli(
        "train", "--dataset", dataset / "manifest.json",
        "--arch", "mcnn", "--width", 0.125,
        "--epochs", 2, "--batch-size", 4, "--no-augment",
        "--seed", 3, "--out", out, "--quiet",
    )
    assert rc == 0
    return out / "checkpoint.nnck"


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    out = capsys.readouterr().out
    assert out.startswith("crowdcount ")
    assert "checkpoint format" in out


def test_no_command_shows_help():
    assert run_cli() == 2


def test_gen_data_layout(dataset):
    manifest = dataio.read_manifest(dataset / "manifest.json")
    assert len(manifest.images) == 8
    assert manifest.regime == "perfect"
    for sub in ("images", "annotations", "density", "density_q"):
        assert (dataset / sub).is_dir()


def test_gen_data_seed_position_irrelevant(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    common = ["--n-images", 2, "--height", 32, "--width", 32,
              "--count-min", 2, "--count-max", 4, "--quiet"]
    assert run_cli("--seed", 5, "gen-data", "--out", a, *common) == 0
    assert run_cli("gen-data", "--seed", 5, "--out", b, *common) == 0
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    img = "images/scene_0000.pgm"
    assert (a / img).read_bytes() == (b / img).read_bytes()


def test_gen_data_rejects_bad_scene(tmp_path):
    rc = run_cli("gen-data", "--out", tmp_path / "bad",
                 "--count-min", 9, "--count-max", 3, "--quiet")
    assert rc == 2


def test_gen_data_requires_out():
    assert run_cli("gen-data", "--n-images", 2) == 2


def test_train_artifacts(checkpoint):
    assert checkpoint.exists()
    curves = (checkpoint.parent / "curves.csv").read_text()
    lines = curves.strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_mae"
    assert len(lines) == 3  # header + 2 epochs


def test_train_missing_dataset_is_runtime_error(tmp_path):
    rc = run_cli("train", "--dataset", tmp_path / "nope" / "manifest.json",
                 "--arch", "mcnn", "--out", tmp_path / "o", "--quiet")
    assert rc == 1


def test_train_bad_arch_is_usage_error(dataset, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("train", "--dataset", dataset / "manifest.json",
                "--arch", "resnet", "--out", tmp_path / "o")
    assert err.value.code == 2


def test_annotate_writes_labels(dataset, checkpoint, tmp_path):
    out = tmp_path / "ann"
    rc = run_cli("annotate", "--checkpoint", checkpoint,
                 "--dataset", dataset / "manifest.json",
                 "--out", out, "--quiet")
    assert rc == 0
    labeled = dataio.read_manifest(out / "manifest.json")
    assert labeled.regime == "imperfect"
    assert len(labeled.images) == 8


def test_make_labels_missing(dataset, tmp_path):
    out = tmp_path / "miss"
    rc = run_cli("make-labels", "--dataset", dataset / "manifest.json",
                 "--kind", "missing", "--fraction", 0.3, "--seed", 4,
                 "--out", out, "--quiet")
    assert rc == 0
    labeled = dataio.read_manifest(out / "manifest.json")
    assert labeled.regime == "missing"
    assert len(labeled.images) == 8


def test_make_labels_annotator_requires_checkpoint(dataset, tmp_path):
    rc = run_cli("make-labels", "--dataset", dataset / "manifest.json",
                 "--kind", "annotator", "--out", tmp_path / "x", "--quiet")
    assert rc == 2


def test_eval_with_checkpoint(dataset, checkpoint, tmp_path, capsys):
    out = tmp_path / "metrics"
    rc = run_cli("eval", "--dataset", dataset / "manifest.json",
                 "--checkpoint", checkpoint, "--out", out)
    assert rc == 0
    table = capsys.readouterr().out
    assert "MAE" in table and "PSNR" in table
    assert "mcnn-0.125x" in table
    saved = json.loads((out / "metrics.json").read_text())
    assert saved["n_images"] == 8
    assert saved["game_grid"] == 4


def test_eval_with_perfect_predictions(dataset, capsys):
    # the dataset manifest doubles as a prediction manifest whose
    # predictions are the ground truth itself
    rc = run_cli("eval", "--dataset", dataset / "manifest.json",
                 "--pred-manifest", dataset / "manifest.json")
    assert rc == 0
    table = capsys.readouterr().out
    assert "0.00" in table  # zero MAE
    assert "inf" in table   # infinite PSNR


def test_eval_needs_exactly_one_source(dataset, checkpoint):
    assert run_cli("eval", "--dataset", dataset / "manifest.json") == 2
    assert run_cli("eval", "--dataset", dataset / "manifest.json",
                   "--checkpoint", checkpoint,
                   "--pred-manifest", dataset / "manifest.json") == 2


def assert_clean_error(rc, capsys, *needles):
    """Exit code 1 with an `error:` line naming each needle, no traceback."""
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith("error: ") and "Traceback" not in err, err
    for needle in needles:
        assert str(needle) in err, err


def prediction_manifest(dataset, root):
    """A copy of the dataset manifest under root, for predictions written there."""
    obj = json.loads((dataset / "manifest.json").read_text())
    root.mkdir()
    (root / "manifest.json").write_text(json.dumps(obj))
    return root / "manifest.json", obj["images"]


def test_eval_truncated_dmap_header_is_error(dataset, tmp_path, capsys):
    pm, images = prediction_manifest(dataset, tmp_path / "pred")
    first = tmp_path / "pred" / images[0]["density_q_path"]
    first.parent.mkdir(parents=True)
    whole = (dataset / images[0]["density_q_path"]).read_bytes()
    for cut in range(16):
        first.write_bytes(whole[:cut])
        rc = run_cli("eval", "--dataset", dataset / "manifest.json",
                     "--pred-manifest", pm)
        assert_clean_error(rc, capsys, first)


def test_eval_truncated_checkpoint_is_error(dataset, tmp_path, capsys):
    from crowdcount.nn import Conv2d, Network, Sequential, save_checkpoint

    net = Network("tiny", [Sequential([Conv2d(1, 1, 1)])], Sequential([]), 1)
    whole_path = tmp_path / "whole.nnck"
    save_checkpoint(net, whole_path)
    whole = whole_path.read_bytes()
    cut_path = tmp_path / "cut.nnck"
    for cut in range(len(whole)):  # fixed header, structure and every tensor
        cut_path.write_bytes(whole[:cut])
        rc = run_cli("eval", "--dataset", dataset / "manifest.json",
                     "--checkpoint", cut_path)
        assert_clean_error(rc, capsys, cut_path)


def test_eval_manifest_missing_key_is_error(dataset, tmp_path, capsys):
    pm, images = prediction_manifest(dataset, tmp_path / "pred")
    del images[0]["density_q_path"]
    pm.write_text(json.dumps({"images": images, "regime": "perfect"}))
    rc = run_cli("eval", "--dataset", dataset / "manifest.json", "--pred-manifest", pm)
    assert_clean_error(rc, capsys, pm, "'density_q_path'")


def experiment_config(tmp_path):
    cfg = {
        "name": "cli_smoke",
        "scene": {"height": 48, "width": 48, "count_min": 2, "count_max": 6},
        "n_images": 8,
        "annotator": {"arch": "csrnet_lite", "width": 0.03125},
        "targets": [{"arch": "mcnn", "width": 0.125}],
        "train": {"lr": 0.001, "batch_size": 4, "max_epochs": 1, "patience": 1},
        "seed": 1,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path


def test_experiment_end_to_end(tmp_path):
    config = experiment_config(tmp_path)
    out = tmp_path / "run"
    rc = run_cli("experiment", "--config", config, "--out", out, "--quiet")
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["dataset"]["n_images"] == 8
    assert report["dataset"]["n_train"] == 5
    assert report["dataset"]["n_val"] == 3
    regimes = {m["regime"] for m in report["metrics"]}
    assert regimes == {"perfect", "imperfect", "missing"}
    assert (out / "report.txt").exists()
    assert (out / "checkpoints" / "annotator.nnck").exists()
    assert (out / "curves" / "annotator.csv").exists()
    assert (out / "curves" / "mcnn-0.125x_perfect.csv").exists()
    info = json.loads((out / "run_info.json").read_text())
    assert info["wall_clock_seconds"] > 0
    # wall clock lives in run_info only, never in the canonical report
    assert "wall_clock" not in (out / "report.json").read_text()


def test_experiment_requires_config(tmp_path):
    assert run_cli("experiment", "--out", tmp_path / "r") == 2


def test_experiment_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": }')
    rc = run_cli("experiment", "--config", bad, "--out", tmp_path / "r")
    assert rc == 2
    err = capsys.readouterr().err
    assert "broken.json:1:" in err


def test_experiment_unknown_key_is_usage_error(tmp_path, capsys):
    cfg_path = experiment_config(tmp_path)
    obj = json.loads(cfg_path.read_text())
    obj["regims"] = ["perfect"]
    cfg_path.write_text(json.dumps(obj))
    rc = run_cli("experiment", "--config", cfg_path, "--out", tmp_path / "r")
    assert rc == 2
    assert "unknown" in capsys.readouterr().err


def test_threads_flag_sets_env():
    saved = {k: os.environ.get(k) for k in
             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        assert run_cli("--threads", 2, "--version") == 0
        for k in saved:
            assert os.environ[k] == "2"
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def test_threads_flag_rejects_nonpositive():
    assert run_cli("--threads", 0, "--version") == 2


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "crowdcount.cli", "--version"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("crowdcount ")
