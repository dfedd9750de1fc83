"""Seeded synthetic crowd scenes: bright blobs on a noisy background.

Every scene is a pure function of (config, index), so datasets regenerate
bit-identically and per-image generation can run in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataio
from .density import DEFAULT_SIGMA, DotAnnotation, render_density, downsample_sum

OUTPUT_STRIDE = 4


@dataclass
class SceneConfig:
    height: int = 48
    width: int = 48
    count_min: int = 5
    count_max: int = 25
    blob_radius_min: float = 1.0
    blob_radius_max: float = 2.5
    noise: float = 0.05
    seed: int | None = None  # None: not chosen; an experiment derives one

    def __post_init__(self):
        if self.count_min > self.count_max:
            raise ValueError(
                f"count_min {self.count_min} > count_max {self.count_max}"
            )
        if self.count_min < 0:
            raise ValueError(f"count_min must be >= 0, got {self.count_min}")
        if self.blob_radius_min <= 0 or self.blob_radius_max < self.blob_radius_min:
            raise ValueError(
                f"invalid blob radius range "
                f"[{self.blob_radius_min}, {self.blob_radius_max}]"
            )
        blob_area = math.pi * self.blob_radius_max**2
        if self.count_max * blob_area > self.height * self.width:
            raise ValueError(
                f"scene unrenderable: {self.count_max} blobs of area "
                f"{blob_area:.1f} exceed the {self.height}x{self.width} image"
            )

    @classmethod
    def from_dict(cls, obj: dict) -> "SceneConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown scene config keys: {sorted(unknown)}")
        return cls(**obj)


def generate_scene(config: SceneConfig, index: int) -> tuple[np.ndarray, DotAnnotation]:
    """Render scene `index`: returns ([0,1] grayscale image, dot annotation)."""
    if config.seed is None:
        raise ValueError("scene seed is not set")
    h, w = config.height, config.width
    rng = np.random.default_rng([config.seed, index])
    n = int(rng.integers(config.count_min, config.count_max + 1))
    xs = rng.uniform(0.0, w, size=n)
    ys = rng.uniform(0.0, h, size=n)
    radii = rng.uniform(config.blob_radius_min, config.blob_radius_max, size=n)
    amps = rng.uniform(0.6, 1.0, size=n)

    image = 0.1 + config.noise * rng.uniform(-1.0, 1.0, size=(h, w))
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    for x, y, r, a in zip(xs, ys, radii, amps):
        s = r / 2.0
        image += a * np.exp(-((xx - x) ** 2 + (yy - y) ** 2) / (2.0 * s * s))
    np.clip(image, 0.0, 1.0, out=image)

    points = np.stack([xs, ys], axis=1)
    return image, DotAnnotation(points, image_id=f"scene_{index:04d}")


def generate_dataset(
    config: SceneConfig,
    n_images: int,
    out_dir: Path,
    sigma: float = DEFAULT_SIGMA,
) -> dataio.DatasetManifest:
    """Write a full synthetic dataset and return its manifest.

    Per image: PGM grayscale, annotation JSON, full-resolution density map
    and the stride-4 sum-pooled density map used as the training target.
    """
    if n_images < 1:
        raise ValueError(f"n_images must be >= 1, got {n_images}")
    out_dir = Path(out_dir)
    for sub in ("images", "annotations", "density", "density_q"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)

    entries = []
    for i in range(n_images):
        image, dots = generate_scene(config, i)
        sid = dots.image_id
        rel = {
            "image": f"images/{sid}.pgm",
            "annotation": f"annotations/{sid}.json",
            "density": f"density/{sid}.dmap",
            "density_q": f"density_q/{sid}.dmap",
        }
        dataio.write_pgm(image, out_dir / rel["image"])
        dataio.write_annotation(dots, out_dir / rel["annotation"])
        den = render_density(dots, config.height, config.width, sigma)
        dataio.write_dmap(den, out_dir / rel["density"])
        dataio.write_dmap(downsample_sum(den, OUTPUT_STRIDE), out_dir / rel["density_q"])
        entries.append(
            dataio.ManifestEntry(
                id=sid,
                image_path=rel["image"],
                annotation_path=rel["annotation"],
                density_path=rel["density"],
                density_q_path=rel["density_q"],
                count=len(dots),
            )
        )

    manifest = dataio.DatasetManifest(entries, root=out_dir, regime="perfect")
    dataio.write_manifest(manifest, out_dir / "manifest.json")
    return manifest
