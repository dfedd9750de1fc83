"""On-disk formats: PGM images, DMAP density maps, annotation and manifest JSON.

All writers are byte-deterministic for identical inputs; JSON is emitted
with sorted keys and a fixed layout so regeneration is reproducible.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .density import DotAnnotation

DMAP_MAGIC = b"DMAP"
DMAP_VERSION = 1


def dump_json(obj, path: Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# --- PGM (binary P5, 8-bit) ------------------------------------------------

def write_pgm(image: np.ndarray, path: Path) -> None:
    """Write a [0,1] grayscale image as binary 8-bit PGM."""
    if image.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {image.shape}")
    q = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = q.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(q.tobytes())


def read_pgm(path: Path) -> np.ndarray:
    """Read a binary 8-bit PGM into a [0,1] float64 array."""
    data = Path(path).read_bytes()
    # header = magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comment lines allowed
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    pos += 1  # single whitespace after maxval
    pixels = np.frombuffer(data, dtype=np.uint8, count=h * w, offset=pos)
    return pixels.reshape(h, w).astype(np.float64) / 255.0


# --- DMAP (density map) ----------------------------------------------------

def write_dmap(density: np.ndarray, path: Path) -> None:
    """Write a density map: 'DMAP', u32 version, u32 H, u32 W, f32 LE values."""
    if density.ndim != 2:
        raise ValueError(f"expected a 2D density map, got shape {density.shape}")
    h, w = density.shape
    with open(path, "wb") as f:
        f.write(DMAP_MAGIC)
        f.write(struct.pack("<III", DMAP_VERSION, h, w))
        f.write(np.ascontiguousarray(density, dtype="<f4").tobytes())


def read_dmap(path: Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != DMAP_MAGIC:
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 16:
        raise ValueError(f"{path}: truncated DMAP header ({len(data)} of 16 bytes)")
    version, h, w = struct.unpack_from("<III", data, 4)
    if version != DMAP_VERSION:
        raise ValueError(f"{path}: unsupported DMAP version {version}")
    available = (len(data) - 16) // 4
    if available < h * w:
        raise ValueError(f"{path}: truncated DMAP ({available} of {h * w} values)")
    values = np.frombuffer(data, dtype="<f4", count=h * w, offset=16)
    return values.reshape(h, w).astype(np.float64)


# --- annotations -----------------------------------------------------------

def write_annotation(dots: DotAnnotation, path: Path) -> None:
    """Write dots as a JSON array of [x, y] pairs (row coordinate second)."""
    pairs = [[float(x), float(y)] for x, y in dots.points]
    Path(path).write_text(json.dumps(pairs) + "\n", encoding="utf-8")


def read_annotation(path: Path, image_id: str = "") -> DotAnnotation:
    pairs = json.loads(Path(path).read_text(encoding="utf-8"))
    return DotAnnotation(np.asarray(pairs, dtype=np.float64).reshape(-1, 2), image_id)


# --- dataset manifest ------------------------------------------------------

@dataclass
class ManifestEntry:
    id: str
    image_path: str
    annotation_path: str
    density_path: str
    density_q_path: str
    count: int


@dataclass
class DatasetManifest:
    """Index of one dataset: per-image file paths (relative to its directory)."""

    images: list[ManifestEntry]
    root: Path
    regime: str = "perfect"

    def __len__(self) -> int:
        return len(self.images)

    def resolve(self, relpath: str) -> Path:
        return self.root / relpath


def write_manifest(manifest: DatasetManifest, path: Path) -> None:
    obj = {
        "images": [
            {
                "id": e.id,
                "image_path": e.image_path,
                "annotation_path": e.annotation_path,
                "density_path": e.density_path,
                "density_q_path": e.density_q_path,
                "count": e.count,
            }
            for e in manifest.images
        ],
        "regime": manifest.regime,
    }
    dump_json(obj, path)


def read_manifest(path: Path) -> DatasetManifest:
    path = Path(path)
    obj = load_json(path)
    try:
        entries = [
            ManifestEntry(
                id=e["id"],
                image_path=e["image_path"],
                annotation_path=e["annotation_path"],
                density_path=e["density_path"],
                density_q_path=e["density_q_path"],
                count=int(e["count"]),
            )
            for e in obj["images"]
        ]
    except KeyError as exc:
        raise ValueError(f"{path}: manifest lacks key {exc.args[0]!r}") from None
    return DatasetManifest(entries, root=path.parent, regime=obj.get("regime", "perfect"))
