"""Fixed-shape layer probe for the traced run.

Trains each reference model for a few steps at the reference shape (batch 8,
1x48x48) through the program's own classes, so the wrapped layer methods
record per-layer spans on identical work in every workload, and round-trips
an annotator checkpoint.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

REFERENCE_MODELS = {"csrnet_lite": 0.25, "mcnn": 0.5}
BATCH, SIDE = 8, 48
WARMUP_STEPS, STEPS = 2, 10
CHECKPOINT_TRIPS = 5


def conv_labels(model) -> dict[str, object]:
    """conv00, conv01, ... in parameter order: columns first, then the head."""
    convs = [layer for seq in (*model.columns, model.head) for layer in seq.layers
             if layer.kind == "conv"]
    return {f"conv{i:02d}": layer for i, layer in enumerate(convs)}


def run(tracer, work: Path, seed: int) -> dict:
    import crowdcount.nn as nn
    from crowdcount.models import build_model

    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (BATCH, 1, SIDE, SIDE)).astype(np.float32)
    y = rng.uniform(0.0, 0.05, (BATCH, 1, SIDE // 4, SIDE // 4)).astype(np.float32)
    info = {"models": {}}
    for arch, width in REFERENCE_MODELS.items():
        model = build_model(arch, width, in_channels=1, seed=0)
        opt = nn.Adam(model.parameters(), lr=1e-3)
        steps = []
        for step in range(WARMUP_STEPS + STEPS):
            lo = tracer.mark()
            _, grad = nn.mse_loss(model.forward(x), y)
            model.backward(grad)
            opt.step()
            if step >= WARMUP_STEPS:
                steps.append((lo, tracer.mark()))
        layers = conv_labels(model)
        info["models"][arch] = {
            "steps": steps,
            "layers": layers,
            "labels": {id(layer): label for label, layer in layers.items()},
        }
        if arch == "csrnet_lite":
            lo = tracer.mark()
            path = work / "probe.nnck"
            for _ in range(CHECKPOINT_TRIPS):
                nn.save_checkpoint(model, path)
                nn.load_checkpoint(path)
            info["checkpoint"] = (lo, tracer.mark())
    return info
