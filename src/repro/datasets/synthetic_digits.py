"""Procedural MNIST-like digits: stroke-rendered numerals 0-9.

A third dataset family for the model zoo and examples.  Each digit is
drawn as a set of line/arc strokes on a dark background, with
per-instance jitter in position, thickness, slant and noise -- the
classic easy-but-not-trivial benchmark shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.datasets.base import ImageDataset
from repro.errors import DatasetError
from repro.metrics.ssim import gaussian_filter

# Each digit: list of strokes in a unit square; a stroke is either
# ("line", (x0, y0), (x1, y1)) or ("arc", (cx, cy), r, a0_deg, a1_deg).
_DIGIT_STROKES = {
    0: [("arc", (0.5, 0.5), 0.32, 0, 360)],
    1: [("line", (0.5, 0.15), (0.5, 0.85)), ("line", (0.38, 0.28), (0.5, 0.15))],
    2: [("arc", (0.5, 0.32), 0.22, 180, 420),
        ("line", (0.66, 0.45), (0.3, 0.85)), ("line", (0.3, 0.85), (0.72, 0.85))],
    3: [("arc", (0.48, 0.33), 0.19, 150, 400), ("arc", (0.48, 0.67), 0.19, 320, 570)],
    4: [("line", (0.62, 0.15), (0.62, 0.85)), ("line", (0.62, 0.15), (0.3, 0.6)),
        ("line", (0.3, 0.6), (0.75, 0.6))],
    5: [("line", (0.68, 0.15), (0.34, 0.15)), ("line", (0.34, 0.15), (0.32, 0.47)),
        ("arc", (0.5, 0.63), 0.21, 220, 500)],
    6: [("arc", (0.5, 0.62), 0.22, 0, 360), ("line", (0.33, 0.5), (0.52, 0.14))],
    7: [("line", (0.3, 0.15), (0.72, 0.15)), ("line", (0.72, 0.15), (0.45, 0.85))],
    8: [("arc", (0.5, 0.32), 0.17, 0, 360), ("arc", (0.5, 0.68), 0.2, 0, 360)],
    9: [("arc", (0.5, 0.36), 0.2, 0, 360), ("line", (0.68, 0.44), (0.52, 0.86))],
}


@dataclass(frozen=True)
class SyntheticDigitsConfig:
    """Configuration for :func:`make_synthetic_digits`."""

    num_images: int = 500
    image_size: int = 20
    noise_sigma: float = 8.0
    stroke_sigma: float = 0.7
    seed: int = 0

    def validate(self) -> None:
        if self.num_images < 10:
            raise DatasetError("need at least one image per digit class")
        if self.image_size < 12:
            raise DatasetError("digits need image_size >= 12")


def _stroke_points(stroke, jitter: np.ndarray, count: int = 80) -> Tuple[np.ndarray, np.ndarray]:
    kind = stroke[0]
    if kind == "line":
        (x0, y0), (x1, y1) = stroke[1], stroke[2]
        t = np.linspace(0.0, 1.0, count)
        xs = x0 + (x1 - x0) * t
        ys = y0 + (y1 - y0) * t
    else:  # arc
        (cx, cy), radius, a0, a1 = stroke[1], stroke[2], stroke[3], stroke[4]
        angles = np.radians(np.linspace(a0, a1, count))
        xs = cx + radius * np.cos(angles)
        ys = cy + radius * np.sin(angles)
    # Affine jitter: slant + shift.
    slant, dx, dy = jitter
    xs = xs + slant * (ys - 0.5) + dx
    ys = ys + dy
    return xs, ys


def make_synthetic_digits(
    config: SyntheticDigitsConfig = SyntheticDigitsConfig(),
) -> ImageDataset:
    """Generate the stroke-rendered digits dataset (grayscale NHWC).

    Each image draws its jitter, ink and noise from the generator in
    that order; every canvas is then blurred in one call.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    labels = np.arange(config.num_images) % 10
    rng.shuffle(labels)
    size = config.image_size
    canvases = np.zeros((config.num_images, size, size))
    ink = np.empty(config.num_images)
    noise = np.empty((config.num_images, size, size))
    for index, digit in enumerate(labels):
        jitter = np.array([rng.normal(0, 0.08), rng.normal(0, 0.04), rng.normal(0, 0.04)])
        for stroke in _DIGIT_STROKES[int(digit)]:
            xs, ys = _stroke_points(stroke, jitter)
            cols = np.clip((xs * (size - 1)).round().astype(int), 0, size - 1)
            rows = np.clip((ys * (size - 1)).round().astype(int), 0, size - 1)
            canvases[index, rows, cols] = 1.0
        ink[index] = rng.uniform(180, 255)
        noise[index] = rng.normal(0, config.noise_sigma, size=(size, size))
    # Thicken and soften the strokes, then scale to ink intensity.
    canvases = gaussian_filter(canvases, config.stroke_sigma)
    peak = canvases.max(axis=(1, 2), keepdims=True)
    np.divide(canvases, peak, out=canvases, where=peak > 0)
    images = np.clip(canvases * ink[:, None, None] + noise, 0, 255)
    class_names = [str(d) for d in range(10)]
    return ImageDataset(images.astype(np.uint8)[..., None],
                        labels.astype(np.int64), class_names)
