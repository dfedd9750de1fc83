"""Conv / maxpool / ReLU primitives with exact analytic backward passes.

Tensors are contiguous (N, C, H, W) numpy arrays. Convolution is
cross-correlation with zero padding, lowered by im2col to matrix products.
The columns are channel-major, (Cin*k*k, N*OH*OW): row (c, ki, kj) holds one
kernel tap of one input channel, and each sample owns a contiguous block of
OH*OW columns. They are gathered from a (C, N, H, W) transposed view of the
padded input; col2im sums column gradients into a channel-major padded
buffer and transposes back once. Backward rebuilds the columns rather than
keeping them from forward, so only one layer's columns are alive at a time.

The products run once per sample, in a fixed order: forward W @ cols_i, the
weight gradient accumulated as g_0 @ cols_0.T + g_1 @ cols_1.T + ..., and
the column gradient W.T @ g_i. One product over all N*OH*OW columns would
round differently and change trained weights in the last bits; the
per-sample order makes runs repeat bit-identically for a fixed BLAS build
and thread count.

Max pooling supports only 2x2 windows with stride 2, which every model uses.
"""

from __future__ import annotations

import numpy as np


class Param:
    """A learnable tensor and its most recent gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.grad = None


def conv_output_size(size: int, kernel: int, stride: int, padding: int, dilation: int) -> int:
    span = size + 2 * padding - dilation * (kernel - 1) - 1
    if span < 0 or span % stride:
        raise ValueError(
            f"conv output size not a positive integer for input {size}, "
            f"kernel {kernel}, stride {stride}, padding {padding}, dilation {dilation}"
        )
    return span // stride + 1


def _channel_major(x: np.ndarray, padding: int) -> np.ndarray:
    """(C, N, H+2p, W+2p) zero-padded copy of x, or its transposed view if p=0."""
    xt = x.transpose(1, 0, 2, 3)
    if not padding:
        return xt
    c, n, h, w = xt.shape
    xp = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = xt
    return xp


def _im2col(xp: np.ndarray, kernel: int, stride: int, dilation: int,
            oh: int, ow: int) -> np.ndarray:
    """Channel-major columns (C*k*k, N*oh*ow) of a (C, N, Hp, Wp) input."""
    c, n, _, _ = xp.shape
    cols = np.empty((c, kernel, kernel, n, oh, ow), dtype=xp.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            r = ki * dilation
            s = kj * dilation
            cols[:, ki, kj] = xp[:, :, r : r + (oh - 1) * stride + 1 : stride,
                                 s : s + (ow - 1) * stride + 1 : stride]
    return cols.reshape(c * kernel * kernel, n * oh * ow)


def _col2im(gcols: np.ndarray, shape: tuple[int, int, int, int], kernel: int,
            stride: int, padding: int, dilation: int, oh: int, ow: int
            ) -> np.ndarray:
    """Sum channel-major column gradients back onto an (N, C, H, W) input."""
    n, c, h, w = shape
    gcols = gcols.reshape(c, kernel, kernel, n, oh, ow)
    gxp = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=gcols.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            r = ki * dilation
            s = kj * dilation
            gxp[:, :, r : r + (oh - 1) * stride + 1 : stride,
                s : s + (ow - 1) * stride + 1 : stride] += gcols[:, ki, kj]
    gx = gxp[:, :, padding : padding + h, padding : padding + w]
    return np.ascontiguousarray(gx.transpose(1, 0, 2, 3))


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                   stride: int = 1, padding: int = 0, dilation: int = 1) -> np.ndarray:
    """Cross-correlate (N,Cin,H,W) with (Cout,Cin,k,k) weights plus bias."""
    n, cin, h, w = x.shape
    cout, wcin, k, k2 = weight.shape
    if k != k2:
        raise ValueError(f"kernel must be square, got {k}x{k2}")
    if cin != wcin:
        raise ValueError(
            f"channel mismatch: input {x.shape} vs weight {weight.shape}"
        )
    oh = conv_output_size(h, k, stride, padding, dilation)
    ow = conv_output_size(w, k, stride, padding, dilation)
    cols = _im2col(_channel_major(x, padding), k, stride, dilation, oh, ow)
    w2 = weight.reshape(cout, cin * k * k)
    p = oh * ow
    out = np.empty((n, cout, p), dtype=np.result_type(w2, cols))
    for i in range(n):
        np.matmul(w2, cols[:, i * p : (i + 1) * p], out=out[i])
    out += bias.reshape(1, cout, 1)
    return out.reshape(n, cout, oh, ow)


def conv2d_backward(x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray,
                    stride: int = 1, padding: int = 0, dilation: int = 1,
                    input_grad: bool = True
                    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of conv2d_forward w.r.t. (input, weight, bias).

    With input_grad=False the input gradient is skipped and returned as None.
    """
    n, cin, h, w = x.shape
    cout, _, k, _ = weight.shape
    gn, gc, oh, ow = grad_out.shape
    if gn != n or gc != cout:
        raise ValueError(
            f"upstream grad shape {grad_out.shape} does not match forward "
            f"output (n={n}, cout={cout})"
        )
    p = oh * ow
    g2 = grad_out.reshape(n, cout, p)
    grad_bias = g2.sum(axis=(0, 2))

    cols = _im2col(_channel_major(x, padding), k, stride, dilation, oh, ow)
    grad_weight = g2[0] @ cols[:, :p].T
    for i in range(1, n):
        grad_weight += g2[i] @ cols[:, i * p : (i + 1) * p].T
    grad_weight = grad_weight.reshape(weight.shape)
    del cols
    if not input_grad:
        return None, grad_weight, grad_bias

    w2t = weight.reshape(cout, cin * k * k).T
    gcols = np.empty((cin * k * k, n * p), dtype=np.result_type(w2t, g2))
    for i in range(n):
        np.matmul(w2t, g2[i], out=gcols[:, i * p : (i + 1) * p])
    grad_x = _col2im(gcols, x.shape, k, stride, padding, dilation, oh, ow)
    return grad_x, grad_weight, grad_bias


def _check_pool(window: int, stride: int) -> None:
    if window != 2 or stride != 2:
        raise ValueError(
            f"only 2x2 max pooling with stride 2 is supported, "
            f"got window {window}, stride {stride}"
        )


def maxpool_forward(x: np.ndarray, window: int = 2, stride: int = 2
                    ) -> tuple[np.ndarray, np.ndarray]:
    """2x2, stride-2 window maximum. Returns (output, uint8 window index).

    The index is the position of each window's first maximum in row-major
    order: 0 top-left, 1 top-right, 2 bottom-left, 3 bottom-right.
    """
    _check_pool(window, stride)
    n, c, h, w = x.shape
    if h % 2 or w % 2 or not h or not w:
        raise ValueError(f"input dims {h}x{w} not divisible by stride 2")
    x6 = x.reshape(n, c, h // 2, 2, w // 2, 2)
    left, right = x6[..., 0], x6[..., 1]
    rows = np.maximum(right, left)   # (n, c, oh, 2, ow): max of each window row
    top, bottom = rows[:, :, :, 0], rows[:, :, :, 1]
    out = np.maximum(bottom, top)
    # a later cell wins only if strictly greater
    go_right = right > left
    go_down = bottom > top
    idx = np.where(go_down, go_right[:, :, :, 1], go_right[:, :, :, 0]).view(np.uint8)
    idx |= go_down.view(np.uint8) << 1
    return out, idx


def maxpool_backward(idx: np.ndarray, grad_out: np.ndarray,
                     input_shape: tuple[int, int, int, int]) -> np.ndarray:
    """Route upstream gradient to each window's maximum cell."""
    n, c, h, w = input_shape
    if idx.shape != grad_out.shape:
        raise RuntimeError(
            f"stale argmax indices: shape {idx.shape} vs upstream {grad_out.shape}"
        )
    grad_x = np.empty((n, c, h // 2, 2, w // 2, 2), dtype=grad_out.dtype)
    for slot in range(4):
        np.multiply(grad_out, idx == slot, out=grad_x[:, :, :, slot // 2, :, slot % 2])
    return grad_x.reshape(n, c, h, w)


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Mask upstream by x > 0 (subgradient 0 at x == 0)."""
    return grad_out * (x > 0)


# --- layer objects ----------------------------------------------------------

class Conv2d:
    """Convolution layer owning its weight/bias and cached forward input."""

    kind = "conv"

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0, dilation: int = 1,
                 dtype=np.float32, rng: np.random.Generator | None = None):
        if kernel % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {kernel}")
        if dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {dilation}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        if rng is None:
            rng = np.random.default_rng(0)
        fan_in = kernel * kernel * in_channels
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                       size=(out_channels, in_channels, kernel, kernel))
        self.weight = Param(w.astype(dtype))
        self.bias = Param(np.zeros(out_channels, dtype=dtype))
        self.input_grad = True  # False: backward returns None, not d(loss)/dx
        self._x = None

    def parameters(self) -> list[Param]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return conv2d_forward(x, self.weight.data, self.bias.data,
                              self.stride, self.padding, self.dilation)

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        if self._x is None:
            raise RuntimeError("conv backward called before forward")
        gx, gw, gb = conv2d_backward(self._x, self.weight.data, grad_out,
                                     self.stride, self.padding, self.dilation,
                                     input_grad=self.input_grad)
        self.weight.grad = gw
        self.bias.grad = gb
        return gx

    def spec(self) -> dict:
        return {
            "kind": "conv",
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel": self.kernel,
            "stride": self.stride,
            "padding": self.padding,
            "dilation": self.dilation,
        }

    def param_count(self) -> int:
        return self.kernel * self.kernel * self.in_channels * self.out_channels \
            + self.out_channels


class MaxPool2d:
    kind = "maxpool"

    def __init__(self, window: int = 2, stride: int = 2):
        _check_pool(window, stride)
        self.window = window
        self.stride = stride
        self._idx = None
        self._shape = None

    def parameters(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, idx = maxpool_forward(x, self.window, self.stride)
        self._idx = idx
        self._shape = x.shape
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._idx is None:
            raise RuntimeError("maxpool backward called before forward")
        return maxpool_backward(self._idx, grad_out, self._shape)

    def spec(self) -> dict:
        return {"kind": "maxpool", "window": self.window, "stride": self.stride}

    def param_count(self) -> int:
        return 0


class ReLU:
    kind = "relu"

    def __init__(self):
        self._x = None

    def parameters(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return relu_forward(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("relu backward called before forward")
        return relu_backward(self._x, grad_out)

    def spec(self) -> dict:
        return {"kind": "relu"}

    def param_count(self) -> int:
        return 0


def layer_from_spec(spec: dict, dtype=np.float32):
    kind = spec["kind"]
    if kind == "conv":
        return Conv2d(spec["in_channels"], spec["out_channels"], spec["kernel"],
                      spec["stride"], spec["padding"], spec["dilation"], dtype=dtype)
    if kind == "maxpool":
        return MaxPool2d(spec["window"], spec["stride"])
    if kind == "relu":
        return ReLU()
    raise ValueError(f"unknown layer kind {kind!r}")
