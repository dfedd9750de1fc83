"""Independent readers and a direct-convolution forward pass for the checks.

Nothing here calls crowdcount: the file formats are parsed from their
documented layouts, and the forward pass shifts and accumulates each kernel
tap in float64 instead of lowering to im2col, so agreement with the program
is evidence and not a tautology.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np


def read_pgm(path: Path) -> np.ndarray:
    """Binary 8-bit PGM as written by the program ("P5\\nW H\\n255\\n")."""
    data = Path(path).read_bytes()
    magic, size, maxval, rest = data.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: unexpected PGM header")
    w, h = (int(v) for v in size.split())
    pixels = np.frombuffer(rest, dtype=np.uint8, count=h * w)
    return pixels.reshape(h, w).astype(np.float64) / 255.0


def read_dmap(path: Path) -> np.ndarray:
    """'DMAP', u32 version, u32 H, u32 W, then H*W float32 LE values."""
    data = Path(path).read_bytes()
    if data[:4] != b"DMAP":
        raise ValueError(f"{path}: bad DMAP magic")
    _, h, w = struct.unpack_from("<III", data, 4)
    return np.frombuffer(data, dtype="<f4", count=h * w, offset=16) \
        .reshape(h, w).astype(np.float64)


def write_dmap(density: np.ndarray, path: Path) -> None:
    h, w = density.shape
    with open(path, "wb") as f:
        f.write(b"DMAP" + struct.pack("<III", 1, h, w))
        f.write(np.ascontiguousarray(density, dtype="<f4").tobytes())


def read_manifest(path: Path) -> tuple[Path, list[dict]]:
    path = Path(path)
    return path.parent, json.loads(path.read_text(encoding="utf-8"))["images"]


def dot_count(path: Path) -> int:
    return len(json.loads(Path(path).read_text(encoding="utf-8")))


def read_nnck(path: Path) -> tuple[dict, list[np.ndarray]]:
    """Network structure and float64 parameters, columns first, then head."""
    data = Path(path).read_bytes()
    if data[:4] != b"NNCK":
        raise ValueError(f"{path}: bad NNCK magic")
    (spec_len,) = struct.unpack_from("<Q", data, 8)
    spec = json.loads(data[16 : 16 + spec_len])
    offset = 16 + spec_len
    params = []
    while offset < len(data):
        (rank,) = struct.unpack_from("<I", data, offset)
        dims = struct.unpack_from(f"<{rank}I", data, offset + 4)
        offset += 4 + 4 * rank
        count = int(np.prod(dims))
        params.append(np.frombuffer(data, dtype="<f4", count=count, offset=offset)
                      .reshape(dims).astype(np.float64))
        offset += 4 * count
    return spec, params


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, pad: int, dil: int) -> np.ndarray:
    c, h, wd = x.shape
    cout, _, k, _ = w.shape
    oh = h + 2 * pad - dil * (k - 1)
    ow = wd + 2 * pad - dil * (k - 1)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out = np.empty((cout, oh, ow))
    out[:] = b[:, None, None]
    for i in range(k):
        for j in range(k):
            tap = xp[:, i * dil : i * dil + oh, j * dil : j * dil + ow]
            out += np.tensordot(w[:, :, i, j], tap, axes=1)
    return out


def forward(spec: dict, params: list[np.ndarray], image: np.ndarray):
    """Unclamped (H/4, W/4) output and the ReLU / max-pool decisions taken.

    The decisions (sign masks and pooled-window argmaxes) fix the linear
    region the parameters sit in; two passes with equal decisions lie on
    one quadratic piece of the squared-error loss.
    """
    it = iter(params)
    decisions = []

    def run(layers, x):
        for layer in layers:
            kind = layer["kind"]
            if kind == "conv":
                if layer["stride"] != 1:
                    raise ValueError("reference forward supports stride 1 only")
                w, b = next(it), next(it)
                x = _conv(x, w, b, layer["padding"], layer["dilation"])
            elif kind == "relu":
                decisions.append(x > 0)
                x = np.maximum(x, 0.0)
            elif kind == "maxpool":
                if layer["window"] != 2 or layer["stride"] != 2:
                    raise ValueError("reference forward supports 2x2/2 pooling only")
                c, h, wd = x.shape
                win = x.reshape(c, h // 2, 2, wd // 2, 2).transpose(0, 1, 3, 2, 4) \
                    .reshape(c, h // 2, wd // 2, 4)
                decisions.append(win.argmax(axis=-1))
                x = win.max(axis=-1)
            else:
                raise ValueError(f"unknown layer kind {kind!r}")
        return x

    x0 = image[None].astype(np.float64)
    fused = np.concatenate([run(col, x0) for col in spec["columns"]], axis=0)
    out = run(spec["head"], fused)
    return out[0], decisions


def same_decisions(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))
