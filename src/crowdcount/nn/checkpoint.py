"""Network checkpoint file: magic 'NNCK', JSON structure, float32 tensors.

Layout: magic (4 bytes), u32 version, u64 byte length of the UTF-8 JSON
network structure, the JSON itself, then every parameter tensor in
declaration order as (u32 rank, u32 dims..., float32 LE values).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .network import Network, network_from_spec

NNCK_MAGIC = b"NNCK"
NNCK_VERSION = 1


def save_checkpoint(network: Network, path: Path) -> None:
    spec_bytes = json.dumps(network.spec(), sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(NNCK_MAGIC)
        f.write(struct.pack("<I", NNCK_VERSION))
        f.write(struct.pack("<Q", len(spec_bytes)))
        f.write(spec_bytes)
        for p in network.parameters():
            dims = p.data.shape
            f.write(struct.pack("<I", len(dims)))
            f.write(struct.pack(f"<{len(dims)}I", *dims))
            f.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


def load_checkpoint(path: Path, dtype=np.float32) -> Network:
    data = Path(path).read_bytes()

    def need(offset: int, size: int) -> None:
        if offset + size > len(data):
            raise ValueError(f"{path}: truncated checkpoint "
                             f"({len(data)} bytes, needs {offset + size})")

    if data[:4] != NNCK_MAGIC:
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    need(0, 16)
    (version,) = struct.unpack_from("<I", data, 4)
    if version != NNCK_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (spec_len,) = struct.unpack_from("<Q", data, 8)
    offset = 16
    need(offset, spec_len)
    spec = json.loads(data[offset : offset + spec_len].decode("utf-8"))
    offset += spec_len

    network = network_from_spec(spec, dtype=dtype)
    state = []
    for p in network.parameters():
        need(offset, 4)
        (rank,) = struct.unpack_from("<I", data, offset)
        offset += 4
        need(offset, 4 * rank)
        dims = struct.unpack_from(f"<{rank}I", data, offset)
        offset += 4 * rank
        count = int(np.prod(dims)) if rank else 1
        need(offset, 4 * count)
        values = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        offset += 4 * count
        state.append(values.reshape(dims))
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes")
    network.set_state(state)
    return network
