"""Benchmark entry point.

    python3 perfbench/run.py --workload experiment|relabel --seed N \
        --seconds S --trace 0|1

Runs whole rounds of the workload in this one process, through
``crowdcount.cli.main``, at least the workload's ``rounds`` and until S seconds
have passed, then checks the last round's outputs. The last line of stdout is
one JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (which also writes every span to
perfbench/out/trace-<workload>-s<seed>.json).

After each round a few fresh processes run this script with ``--setup-only``:
each makes the same cold set-up as the main process, prints its age and
exits. ``setup_s`` is the shortest of these set-ups and the main process's own.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one BLAS thread, set before numpy is first imported anywhere in the process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROGRAM_MODULES = ("nn", "dataio", "density", "scenes", "models", "metrics",
                   "seeding", "pipeline", "cli")
# cold set-ups sampled in fresh processes after each round: one start-up
# varies 0.16-0.41 s with the shared host's speed, so one a run is too few
SETUP_SAMPLES_PER_ROUND = 2


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("experiment", "relabel"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="make the set-up, print its seconds as JSON and exit")
    return p.parse_args(argv)


def import_program():
    """Import crowdcount from this checkout's src/, and only from there."""
    if not (SRC / "crowdcount" / "__init__.py").is_file():
        raise SystemExit(f"error: no crowdcount package under {SRC}")
    sys.path.insert(0, str(SRC))
    # load every module up front so the wrappers can replace from-imported names
    for name in PROGRAM_MODULES:
        module = importlib.import_module(f"crowdcount.{name}")
    if Path(module.__file__).resolve().parent != SRC / "crowdcount":
        raise SystemExit(f"error: imported crowdcount from {module.__file__}")
    return sys.modules["crowdcount.cli"]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_command(cli, argv: list[str]) -> bool:
    """One CLI call; True when it exits 0. Its own stdout is discarded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # a crash is a failed operation, reported, not fatal
        traceback.print_exc()
        return False
    if code != 0:
        print(f"command failed with exit code {code}: crowdcount {' '.join(argv)}",
              file=sys.stderr)
    return code == 0


def set_up(args):
    """Everything before the first timed call: imports, wrappers, work dir."""
    cli = import_program()
    import measures  # noqa: F401  (its import counts as set-up)
    import probe  # noqa: F401
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, small=args.small)
    work = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    tracer = tracing.Tracer()
    tracer.install(tracing.targets(bool(args.trace)))
    try:
        workload.prepare(work)
    except BaseException:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        raise
    return cli, workload, work, tracer


def sample_setup(argv: list[str]) -> float:
    """Seconds of one cold set-up, made by a fresh copy of this script."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv,
                           "--setup-only"],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    cli, workload, work, tracer = set_up(args)
    setup_s = process_age()
    if args.setup_only:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import measures
    import probe

    setups = [setup_s]
    try:
        rounds, dirs = [], []
        attempted = failed = 0
        started = time.perf_counter_ns()
        while True:
            out = work / f"round{len(rounds)}"
            lo = tracer.mark()
            t0 = time.perf_counter_ns()
            for command in workload.commands(work, out):
                attempted += 1
                failed += not run_command(cli, command)
            t1 = time.perf_counter_ns()
            rounds.append(measures.Round(lo, tracer.mark(), t0, t1))
            print(measures.describe_round(tracer.spans, rounds[-1]), file=sys.stderr)
            dirs.append(out)
            if len(rounds) == 1:
                # later rounds repeat the same work; their peak would only
                # add heap fragmentation that depends on the round count
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setups += [sample_setup(argv) for _ in range(SETUP_SAMPLES_PER_ROUND)]
            if len(rounds) >= workload.rounds and (t1 - started) / 1e9 >= args.seconds:
                break

        probe_info = probe.run(tracer, work, args.seed) if args.trace else None
        tracer.uninstall()
        try:
            problems = workload.check(dirs)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"check could not read an output: {exc!r}"]
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)

        e2e = measures.end_to_end(tracer.spans, rounds, min(setups), peak_rss_mb)
        if args.trace:
            metrics = measures.workload_layers(tracer.spans, rounds)
            metrics.update(measures.probe_layers(tracer.spans, probe_info))
            write_trace(args, tracer, rounds, probe_info, metrics, e2e)
            metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}
        else:
            metrics = e2e
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def write_trace(args, tracer, rounds, probe_info, metrics, e2e) -> None:
    labels = {}
    for info in probe_info["models"].values():
        labels.update(info["labels"])
    spans = []
    for name, start, end, parent, tag in tracer.spans:
        if name.startswith("nn.layers.conv."):
            tag = labels.get(tag[0] if isinstance(tag, list) else tag)
        spans.append([name, start, end, parent, tag])
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "rounds": [[r.lo, r.hi, r.seconds] for r in rounds],
        "probe": {arch: {"steps": info["steps"],
                         "convs": {label: layer.spec() for label, layer in info["layers"].items()}}
                  for arch, info in probe_info["models"].items()},
        "end_to_end_traced": e2e,
        "per_layer": metrics,
        "span_fields": ["name", "start_ns", "end_ns", "parent", "tag"],
        "spans": spans,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-s{args.seed}.json"
    path.write_text(json.dumps(doc))
    print(f"trace written to {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
