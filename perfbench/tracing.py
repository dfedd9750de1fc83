"""Spans recorded around calls into crowdcount's public functions and methods.

The wrappers are installed from outside the program: each target attribute is
replaced, in every loaded ``crowdcount`` module that holds the same object, by
a wrapper that appends one span (name, start ns, end ns, parent span, tag) to
an in-memory list. Nothing is written until the benchmark asks for it.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (dotted target, span name, tag function). A tag function gets
# (args, kwargs, result) and returns a small JSON-able value or None.


def _len_result(args, kwargs, result):
    return len(result)


def _train_tag(args, kwargs, result):
    model, curves = result
    return {"model": model.name, "epochs": len(curves.val_mae),
            "samples": len(curves.val_mae) * len(args[1])}


def _n_images(args, kwargs, result):
    return result.n_images


def _self_id(args, kwargs, result):
    return id(args[0])


def _conv_fwd_tag(args, kwargs, result):
    return [id(args[0]), list(args[1].shape)]


def _net_tag(args, kwargs, result):
    return [args[0].name, int(args[1].shape[0])]


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[1])


# spans the end-to-end metrics need; cheap enough to leave on in untraced runs
E2E_TARGETS = (
    ("crowdcount.pipeline.train", "pipeline.train", _train_tag),
    ("crowdcount.scenes.generate_dataset", "scenes.generate_dataset", _len_result),
    ("crowdcount.pipeline.annotate", "pipeline.annotate", _len_result),
    ("crowdcount.pipeline.make_missing_labels", "pipeline.make_missing_labels", _len_result),
    ("crowdcount.metrics.evaluate", "metrics.evaluate", _n_images),
    ("crowdcount.models.predict_density", "models.predict_density", None),
    # calls made once per image, batch or metric: they cut each stage into
    # small pieces that can be paired across rounds
    ("crowdcount.scenes.generate_scene", "scenes.generate_scene", None),
    ("crowdcount.density.drop_annotations", "density.drop_annotations", None),
    ("crowdcount.nn.network.Network.forward", "nn.network.forward", _net_tag),
    ("crowdcount.metrics.ssim", "metrics.ssim", None),
    ("crowdcount.metrics.game", "metrics.game", None),
    ("crowdcount.metrics.psnr", "metrics.psnr", None),
)

# file writers: their time is taken out of the stage throughputs, and the
# traced run also records the bytes each one wrote
WRITERS = ("write_pgm", "write_dmap", "write_annotation", "write_manifest")


def targets(trace: bool):
    """Everything to wrap for an untraced (end-to-end) or a traced run."""
    writers = tuple((f"crowdcount.dataio.{w}", f"dataio.{w}",
                     _bytes_written if trace else None) for w in WRITERS)
    return E2E_TARGETS + writers + (LAYER_TARGETS if trace else ())


# every layer boundary, for the traced run
LAYER_TARGETS = (
    ("crowdcount.nn.layers.Conv2d.forward", "nn.layers.conv.fwd", _conv_fwd_tag),
    ("crowdcount.nn.layers.Conv2d.backward", "nn.layers.conv.bwd", _self_id),
    ("crowdcount.nn.layers.MaxPool2d.forward", "nn.layers.maxpool.fwd", None),
    ("crowdcount.nn.layers.MaxPool2d.backward", "nn.layers.maxpool.bwd", None),
    ("crowdcount.nn.layers.ReLU.forward", "nn.layers.relu.fwd", None),
    ("crowdcount.nn.layers.ReLU.backward", "nn.layers.relu.bwd", None),
    ("crowdcount.nn.network.Network.backward", "nn.network.backward", None),
    ("crowdcount.nn.network.Network.get_state", "nn.network.get_state", None),
    ("crowdcount.nn.loss.mse_loss", "nn.loss.mse_loss", None),
    ("crowdcount.nn.optim.Adam.step", "nn.optim.adam_step", None),
    ("crowdcount.nn.checkpoint.save_checkpoint", "nn.checkpoint.save", None),
    ("crowdcount.nn.checkpoint.load_checkpoint", "nn.checkpoint.load", None),
    ("crowdcount.pipeline.augment", "pipeline.augment", None),
    ("crowdcount.pipeline.load_samples", "pipeline.load_samples", None),
    ("crowdcount.pipeline.predicted_counts", "pipeline.predicted_counts", None),
    ("crowdcount.density.render_density", "density.render_density", None),
    ("crowdcount.density.downsample_sum", "density.downsample_sum", None),
    ("crowdcount.dataio.read_pgm", "dataio.read_pgm", None),
    ("crowdcount.dataio.read_dmap", "dataio.read_dmap", None),
    ("crowdcount.dataio.read_annotation", "dataio.read_annotation", None),
    ("crowdcount.dataio.read_manifest", "dataio.read_manifest", None),
)

# span record fields
NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    """Owns the span list and the patched attributes it must restore."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def mark(self) -> int:
        """Index of the next span, for slicing the list into phases."""
        return len(self.spans)

    def _wrap(self, name: str, fn, tag):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if tag is not None:
                span[TAG] = tag(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets) -> None:
        for dotted, name, tag in targets:
            self._install_one(dotted, name, tag)

    def _install_one(self, dotted: str, name: str, tag) -> None:
        parts = dotted.split(".")
        # longest importable module prefix, then attributes (class, method)
        for cut in range(len(parts) - 1, 0, -1):
            module = sys.modules.get(".".join(parts[:cut]))
            if module is not None:
                break
        else:
            raise LookupError(f"module of {dotted} is not loaded")
        owner = module
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        attr = parts[-1]
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = self._wrap(name, original, tag)
        if isinstance(owner, type):
            self._set(owner, attr, wrapped)
            return
        # a function may also be bound by name in other modules (from-imports)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "crowdcount" or mod_name.startswith("crowdcount.")) \
                    and mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def has_ancestor(spans: list[list], i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False
