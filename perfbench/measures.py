"""Turn recorded spans into the end-to-end and per-layer metrics."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from tracing import END, NAME, PARENT, START, TAG, has_ancestor

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_samples_per_s": "1/s",
    "datagen_images_per_s": "1/s",
    "annotate_images_per_s": "1/s",
    "missing_labels_images_per_s": "1/s",
    "eval_images_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# span -> the stage it belongs to; the span's tag counts the stage's items
STAGE_SPANS = {
    "scenes.generate_dataset": "datagen",
    "pipeline.train": "train",
    "pipeline.annotate": "annotate",
    "pipeline.make_missing_labels": "missing_labels",
    "metrics.evaluate": "eval",
}
STAGES = ("datagen", "train", "annotate", "missing_labels", "eval")


# per-call medians of workload spans: metric -> (span, scale to the unit, unit)
PER_CALL = {
    "nn.loss.mse_ms": ("nn.loss.mse_loss", 1e3, "ms"),
    "models.predict_density_ms": ("models.predict_density", 1e3, "ms"),
    "pipeline.augment_ms": ("pipeline.augment", 1e3, "ms"),
    "pipeline.load_samples_ms": ("pipeline.load_samples", 1e3, "ms"),
    "pipeline.train.get_state_ms": ("nn.network.get_state", 1e3, "ms"),
    "scenes.generate_scene_ms": ("scenes.generate_scene", 1e3, "ms"),
    "density.render_density_ms": ("density.render_density", 1e3, "ms"),
    "density.downsample_sum_us": ("density.downsample_sum", 1e6, "us"),
    "dataio.read_pgm_us": ("dataio.read_pgm", 1e6, "us"),
    "dataio.write_pgm_us": ("dataio.write_pgm", 1e6, "us"),
    "dataio.read_dmap_us": ("dataio.read_dmap", 1e6, "us"),
    "dataio.write_dmap_us": ("dataio.write_dmap", 1e6, "us"),
    "dataio.read_annotation_us": ("dataio.read_annotation", 1e6, "us"),
    "dataio.write_annotation_us": ("dataio.write_annotation", 1e6, "us"),
    "dataio.write_manifest_us": ("dataio.write_manifest", 1e6, "us"),
    "metrics.ssim_us": ("metrics.ssim", 1e6, "us"),
    "metrics.game_us": ("metrics.game", 1e6, "us"),
    "metrics.psnr_us": ("metrics.psnr", 1e6, "us"),
    "metrics.evaluate_ms": ("metrics.evaluate", 1e3, "ms"),
}

KINDS = ("conv", "maxpool", "relu")


@dataclass
class Round:
    lo: int          # first span index of the round
    hi: int          # one past its last span
    start_ns: int    # perf_counter_ns at the round's start
    end_ns: int      # and at its end

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _dur(span) -> float:
    return (span[END] - span[START]) / 1e9


def _stage_of(spans, i: int) -> str | None:
    """Stage of span i: its own or its nearest ancestor's.

    Predictions outside annotate are scoring, so they count as eval.
    """
    while i >= 0:
        name = spans[i][NAME]
        if name in STAGE_SPANS:
            return STAGE_SPANS[name]
        if name == "models.predict_density" \
                and not has_ancestor(spans, i, "pipeline.annotate"):
            return "eval"
        i = spans[i][PARENT]
    return None


def _intervals(spans, r: Round) -> list[tuple[int, int]]:
    """The round cut at every span start and end, in the order they happen.

    Each piece is (nanoseconds, owner): the owner is the innermost span open
    during the piece, relative to the round's first span, or -1. The order
    comes from the call tree, so identical rounds give aligned lists.
    """
    out = []
    stack: list[int] = []
    last = r.start_ns

    def cut(now: int, owner: int) -> None:
        nonlocal last
        out.append((now - last, owner - r.lo if owner >= 0 else -1))
        last = now

    for i in range(r.lo, r.hi):
        while stack and stack[-1] != spans[i][PARENT]:
            j = stack.pop()
            cut(spans[j][END], j)
        cut(spans[i][START], stack[-1] if stack else -1)
        stack.append(i)
    while stack:
        j = stack.pop()
        cut(spans[j][END], j)
    cut(r.end_ns, -1)
    return out


def _signature(spans, r: Round) -> list:
    return [(s[NAME], s[PARENT] - r.lo if s[PARENT] >= 0 else -1) for s in spans[r.lo:r.hi]]


def stage_seconds(spans, rounds: list[Round]) -> tuple[float, dict[str, float]]:
    """Wall and per-stage seconds, each piece of work at its best round.

    The rounds repeat identical work, so their span trees match piece for
    piece. Each piece keeps its shortest duration over the rounds: host
    slowdowns only ever add time and seldom hit the same piece twice. The
    stage figures leave out time inside the file writers: on the reference
    host a file create costs 40 to 600 us depending on a file-system state
    that lasts for seconds, so writes are reported per layer instead.
    Rounds whose calls differ (a failed command) are not paired: each figure
    then comes from its best round.
    """
    signature = _signature(spans, rounds[0])
    if any(_signature(spans, r) != signature for r in rounds[1:]):
        single = [stage_seconds(spans, [r]) for r in rounds]
        return (min(wall for wall, _ in single),
                {stage: min(sec[stage] for _, sec in single) for stage in STAGES})
    pieces = [_intervals(spans, r) for r in rounds]
    best = [min(p[k][0] for p in pieces) for k in range(len(pieces[0]))]
    lo = rounds[0].lo
    stage = [_stage_of(spans, lo + j) for j in range(len(signature))]
    write = [name.startswith("dataio.write_") for name, _ in signature]
    per_stage = dict.fromkeys(STAGES, 0.0)
    for ns, (_, owner) in zip(best, pieces[0]):
        if owner >= 0 and stage[owner] is not None and not write[owner]:
            per_stage[stage[owner]] += ns / 1e9
    return sum(best) / 1e9, per_stage


def stage_items(spans, r: Round) -> dict[str, int]:
    """Samples trained, images generated, labelled and scored in one round."""
    items = dict.fromkeys(STAGES, 0)
    for s in spans[r.lo:r.hi]:
        stage = STAGE_SPANS.get(s[NAME])
        if stage is not None:
            items[stage] += s[TAG]["samples"] if stage == "train" else s[TAG]
    return items


def describe_round(spans, r: Round) -> str:
    _, seconds = stage_seconds(spans, [r])
    items = stage_items(spans, r)
    return ", ".join([f"round {r.seconds:.3f}s"] + [
        f"{stage} {items[stage]}/{seconds[stage]:.3f}s" for stage in STAGES])


def end_to_end(spans, rounds: list[Round], setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics, named as in BENCHMARK.json."""
    wall, seconds = stage_seconds(spans, rounds)
    items = stage_items(spans, rounds[0])
    rate = {stage: items[stage] / seconds[stage] if seconds[stage] > 0 else 0.0
            for stage in STAGES}
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "train_samples_per_s": rate["train"],
        "datagen_images_per_s": rate["datagen"],
        "annotate_images_per_s": rate["annotate"],
        "missing_labels_images_per_s": rate["missing_labels"],
        "eval_images_per_s": rate["eval"],
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def _metric(value, unit, n) -> dict:
    return {"value": float(value), "unit": unit, "n": int(n)}


def _train_steps(spans, lo, hi):
    """(step seconds, input wait seconds, batch size) for every training step.

    A step runs from the Network.forward that pipeline.train calls directly to
    the Adam.step that follows; its wait is the gap since the previous step
    or validation ended (augmentation and batch stacking).
    """
    steps = []
    for t in range(lo, hi):
        if spans[t][NAME] != "pipeline.train":
            continue
        last_end = spans[t][START]
        fwd = None
        for i in range(t + 1, hi):
            s = spans[i]
            if s[START] >= spans[t][END]:
                break
            if s[PARENT] != t:
                continue
            if s[NAME] == "nn.network.forward":
                fwd = s
            elif s[NAME] == "nn.optim.adam_step" and fwd is not None:
                steps.append(((s[END] - fwd[START]) / 1e9,
                              (fwd[START] - last_end) / 1e9, fwd[TAG][1]))
                last_end = s[END]
                fwd = None
            elif s[NAME] in ("pipeline.predicted_counts", "nn.network.get_state"):
                last_end = s[END]
    return steps


def workload_layers(spans, rounds: list[Round]) -> dict:
    """Per-layer metrics measured on the workload's own calls."""
    lo, hi = rounds[0].lo, rounds[-1].hi
    durs: dict[str, list[float]] = {}
    validate = []
    written = [0] * len(rounds)
    state_calls = [0] * len(rounds)
    for ri, r in enumerate(rounds):
        for i in range(r.lo, r.hi):
            s = spans[i]
            durs.setdefault(s[NAME], []).append(_dur(s))
            if s[NAME].startswith("dataio.write_"):
                written[ri] += s[TAG]
            elif s[NAME] == "nn.network.get_state":
                state_calls[ri] += 1
            elif s[NAME] == "pipeline.predicted_counts" \
                    and spans[s[PARENT]][NAME] == "pipeline.train":
                validate.append(_dur(s))
    out = {}
    for metric, (span, scale, unit) in PER_CALL.items():
        d = durs.get(span, [])
        out[metric] = _metric(np.median(d) * scale if d else 0.0, unit, len(d))
    steps = _train_steps(spans, lo, hi)
    full = [t for t, _, b in steps if b == 8]
    out["pipeline.train.step_ms_b8.p50"] = _metric(np.percentile(full, 50) * 1e3, "ms", len(full))
    out["pipeline.train.step_ms_b8.p90"] = _metric(np.percentile(full, 90) * 1e3, "ms", len(full))
    out["pipeline.train.batch_wait_ms"] = _metric(
        np.median([w for _, w, _ in steps]) * 1e3, "ms", len(steps))
    out["pipeline.train.validate_ms"] = _metric(np.median(validate) * 1e3, "ms", len(validate))
    out["pipeline.train.get_state_count"] = _metric(
        statistics.median(state_calls), "count", len(rounds))
    out["dataio.written_mb"] = _metric(statistics.median(written) / 1e6, "MB", len(rounds))
    _, seconds = stage_seconds(spans, rounds)
    for stage, t in seconds.items():
        out[f"pipeline.stage_s.{stage}"] = _metric(t, "s", len(rounds))
    return out


def conv_flops(layer, x_shape) -> int:
    """Forward multiply-adds times two for one conv call on input x_shape."""
    n, cin, h, w = x_shape
    k, p, d = layer.kernel, layer.padding, layer.dilation
    oh = h + 2 * p - d * (k - 1)
    ow = w + 2 * p - d * (k - 1)
    return 2 * n * layer.out_channels * oh * ow * cin * k * k


def probe_layers(spans, probe: dict) -> dict:
    """Per-layer metrics from the fixed-shape probe of each reference model.

    Conv backward computes both the weight and the input gradient, each a
    GEMM the size of the forward one, so a step's conv work is 3x forward.
    """
    out = {}
    for arch, info in probe["models"].items():
        labels = info["labels"]     # id(layer) -> conv label
        layers = info["layers"]     # conv label -> layer object
        per_step: dict[str, list[float]] = {}
        flops = 0
        for si, (lo, hi) in enumerate(info["steps"]):
            acc: dict[str, float] = {}
            for i in range(lo, hi):
                s = spans[i]
                name = s[NAME]
                d = _dur(s)
                if name.startswith("nn.layers."):
                    _, _, kind, direction = name.split(".")
                    key = f"{kind}.{direction}"
                    acc[key] = acc.get(key, 0.0) + d
                    if kind == "conv":
                        ident = s[TAG][0] if direction == "fwd" else s[TAG]
                        label = labels[ident]
                        acc[f"{label}.{direction}"] = d
                        if direction == "fwd" and si == 0:
                            flops += 3 * conv_flops(layers[label], s[TAG][1])
                elif name in ("nn.network.forward", "nn.network.backward",
                              "nn.optim.adam_step"):
                    acc[name] = acc.get(name, 0.0) + d
            for key, d in acc.items():
                per_step.setdefault(key, []).append(d)
        n = len(info["steps"])

        def med_ms(key):
            return float(np.median(per_step.get(key, [0.0]))) * 1e3

        for kind in KINDS:
            for direction in ("fwd", "bwd"):
                out[f"nn.layers.{kind}.{direction}_ms.{arch}"] = _metric(
                    med_ms(f"{kind}.{direction}"), "ms", n)
        for label in layers:
            for direction in ("fwd", "bwd"):
                out[f"nn.layers.{arch}.{label}.{direction}_ms"] = _metric(
                    med_ms(f"{label}.{direction}"), "ms", n)
        conv_ms = med_ms("conv.fwd") + med_ms("conv.bwd")
        out[f"nn.layers.conv.gflops.{arch}"] = _metric(flops / conv_ms / 1e6, "GFLOP/s", n)
        out[f"nn.network.forward_ms.{arch}"] = _metric(med_ms("nn.network.forward"), "ms", n)
        out[f"nn.network.backward_ms.{arch}"] = _metric(med_ms("nn.network.backward"), "ms", n)
        out[f"nn.optim.adam_step_ms.{arch}"] = _metric(med_ms("nn.optim.adam_step"), "ms", n)
    lo, hi = probe["checkpoint"]
    for which in ("save", "load"):
        d = [_dur(spans[i]) for i in range(lo, hi) if spans[i][NAME] == f"nn.checkpoint.{which}"]
        out[f"nn.checkpoint.{which}_ms"] = _metric(np.median(d) * 1e3, "ms", len(d))
    return out
