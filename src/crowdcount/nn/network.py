"""Networks as parallel columns fused by channel concat plus a small head.

Single-column architectures use one column; the multi-column counting nets
concatenate their column outputs before the 1x1 fusion convolution.
Parameter order (columns first, then head, conv weight before bias) is the
declaration order used by the checkpoint format.
"""

from __future__ import annotations

import numpy as np

from .layers import Conv2d, Param, layer_from_spec


class Sequential:
    def __init__(self, layers: list):
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> list[Param]:
        params = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def spec(self) -> list[dict]:
        return [layer.spec() for layer in self.layers]

    def pool_stride(self) -> int:
        stride = 1
        for layer in self.layers:
            if layer.kind == "maxpool":
                stride *= layer.stride
            elif layer.kind == "conv":
                stride *= layer.stride
        return stride


class Network:
    def __init__(self, name: str, columns: list[Sequential], head: Sequential,
                 output_stride: int):
        if not columns:
            raise ValueError("network needs at least one column")
        strides = {col.pool_stride() for col in columns}
        declared = strides.pop() * head.pool_stride()
        if strides:
            raise ValueError("columns disagree on composed stride")
        if declared != output_stride:
            raise ValueError(
                f"declared output stride {output_stride} != composed stride {declared}"
            )
        for col in columns:
            # nothing consumes d(loss)/d(input), so the first conv skips it
            if col.layers and col.layers[0].kind == "conv":
                col.layers[0].input_grad = False
        self.name = name
        self.columns = columns
        self.head = head
        self.output_stride = output_stride
        self._split = None  # per-column channel widths at the fusion point

    def forward(self, x: np.ndarray) -> np.ndarray:
        outs = [col.forward(x) for col in self.columns]
        dims = {o.shape[2:] for o in outs}
        if len(dims) != 1:
            raise ValueError(f"column outputs disagree on spatial dims: {dims}")
        self._split = [o.shape[1] for o in outs]
        fused = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)
        return self.head.forward(fused)

    def backward(self, grad: np.ndarray) -> None:
        """Set every parameter's gradient; the input gradient is not computed."""
        if self._split is None:
            raise RuntimeError("network backward called before forward")
        grad = self.head.backward(grad)
        offset = 0
        for col, width in zip(self.columns, self._split):
            col.backward(grad[:, offset : offset + width])
            offset += width

    def parameters(self) -> list[Param]:
        params = []
        for col in self.columns:
            params.extend(col.parameters())
        params.extend(self.head.parameters())
        return params

    def param_count(self) -> int:
        return sum(int(p.data.size) for p in self.parameters())

    def spec(self) -> dict:
        return {
            "name": self.name,
            "columns": [col.spec() for col in self.columns],
            "head": self.head.spec(),
            "output_stride": self.output_stride,
        }

    def get_state(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.parameters()]

    def set_state(self, state: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(f"state has {len(state)} tensors, expected {len(params)}")
        for p, arr in zip(params, state):
            if p.data.shape != arr.shape:
                raise ValueError(f"state shape {arr.shape} != param shape {p.data.shape}")
            p.data = arr.astype(p.data.dtype).copy()

    def describe(self) -> str:
        """Audit listing: each layer with its shape plan and parameter count."""
        lines = [f"network {self.name} (output stride {self.output_stride}, "
                 f"{self.param_count():,} parameters)"]
        for ci, col in enumerate(self.columns):
            lines.append(f"  column {ci}:")
            for li, layer in enumerate(col.layers):
                lines.append(f"    {li:2d} {_layer_line(layer)}")
        lines.append("  head:")
        for li, layer in enumerate(self.head.layers):
            lines.append(f"    {li:2d} {_layer_line(layer)}")
        return "\n".join(lines)


def _layer_line(layer) -> str:
    if layer.kind == "conv":
        extra = f", dilation {layer.dilation}" if layer.dilation != 1 else ""
        return (f"conv {layer.in_channels}->{layer.out_channels} "
                f"{layer.kernel}x{layer.kernel}, pad {layer.padding}{extra} "
                f"({layer.param_count():,} params)")
    if layer.kind == "maxpool":
        return f"maxpool {layer.window}x{layer.window} stride {layer.stride}"
    return "relu"


def network_from_spec(spec: dict, dtype=np.float32) -> Network:
    columns = [Sequential([layer_from_spec(s, dtype) for s in col])
               for col in spec["columns"]]
    head = Sequential([layer_from_spec(s, dtype) for s in spec["head"]])
    return Network(spec["name"], columns, head, spec["output_stride"])
