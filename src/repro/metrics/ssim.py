"""Structural similarity index (Wang et al., IEEE TIP 2004).

Gaussian-windowed SSIM with the standard constants (K1=0.01, K2=0.03,
sigma=1.5, dynamic range 255).  The paper uses SSIM to quantify how much
face texture survives extraction (Table IV, Fig. 5); SSIM > 0.5 counts
as a high-quality reconstruction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

_K1, _K2 = 0.01, 0.03
_SIGMA = 1.5
_DYNAMIC_RANGE = 255.0


# planes per pass: each working buffer holds about this many float64s
# (256 KiB), so the 3 * radius passes per axis run out of cache
_BLOCK_ELEMENTS = 1 << 15


def _reflect_index(size: int, radius: int) -> np.ndarray:
    """Source index of each padded position in scipy's ``reflect`` mode
    (``d c b a | a b c d | d c b a``, repeating past short sides)."""
    folded = np.arange(-radius, size + radius) % (2 * size)
    return np.where(folded < size, folded, 2 * size - 1 - folded)


def gaussian_filter(images: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of every (H, W) plane over the last two axes.

    Bit-identical to ``scipy.ndimage.gaussian_filter(plane, sigma)`` on a
    float64 plane: scipy's normalised kernel of radius
    ``int(4 * sigma + 0.5)``, scipy's ``reflect`` padding, and its
    accumulation order per axis, rows first -- the centre tap, then
    ``(left + right) * w`` for each symmetric pair from the outermost in.
    Planes are filtered in cache-sized blocks into preallocated buffers.
    Returns a new float64 array.
    """
    radius = int(4.0 * float(sigma) + 0.5)
    taps = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    taps = taps / taps.sum()
    source = np.asarray(images, dtype=np.float64)
    height, width = source.shape[-2:]
    planes = source.reshape(-1, height, width)
    out = np.empty(planes.shape)
    block = max(1, _BLOCK_ELEMENTS // (height * width))
    pair = np.empty((block, height, width))
    passes = [  # (axis, reflect index, padded buffer)
        (1, _reflect_index(height, radius),
         np.empty((block, height + 2 * radius, width))),
        (2, _reflect_index(width, radius),
         np.empty((block, height, width + 2 * radius))),
    ]
    for first in range(0, len(planes), block):
        src = planes[first:first + block]
        dst = out[first:first + block]
        acc = pair[:len(dst)]
        for axis, index, buffer in passes:
            padded = buffer[:len(dst)]
            np.take(src, index, axis=axis, out=padded, mode="clip")
            lead, size = (slice(None),) * axis, dst.shape[axis]

            def shifted(start: int) -> np.ndarray:
                return padded[lead + (slice(start, start + size),)]

            np.multiply(shifted(radius), taps[radius], out=dst)
            for offset in range(radius, 0, -1):
                np.add(shifted(radius - offset), shifted(radius + offset), out=acc)
                acc *= taps[radius - offset]
                dst += acc
            src = dst
    return out.reshape(source.shape)


def ssim(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """SSIM between two images (H, W) or (H, W, C); channel-averaged."""
    x = np.asarray(original)
    y = np.asarray(reconstructed)
    if x.shape != y.shape:
        raise ShapeError(f"image shapes differ: {x.shape} vs {y.shape}")
    return float(batch_ssim(x[None], y[None])[0])


def batch_ssim(originals: np.ndarray, reconstructions: np.ndarray) -> np.ndarray:
    """Per-image SSIM over matched batches (n, H, W, C) or (n, H, W).

    x, y, x², y² and xy of every image and channel are stacked into one
    (5, n, C, H, W) array and windowed in a single :func:`gaussian_filter`
    call.  Each channel's map is averaged over its contiguous H*W row and
    each image's channels with ``np.mean``, the order per-image code uses.
    """
    originals = np.asarray(originals)
    reconstructions = np.asarray(reconstructions)
    if originals.shape != reconstructions.shape:
        raise ShapeError(
            f"batch shapes differ: {originals.shape} vs {reconstructions.shape}"
        )
    if originals.ndim == 3:
        originals, reconstructions = originals[..., None], reconstructions[..., None]
    elif originals.ndim != 4:
        raise ShapeError(
            f"ssim expects 2-D or 3-D images, got shape {originals.shape[1:]}")
    c1 = (_K1 * _DYNAMIC_RANGE) ** 2
    c2 = (_K2 * _DYNAMIC_RANGE) ** 2
    n, height, width, channels = originals.shape
    stack = np.empty((5, n, channels, height, width))
    stack[0] = originals.transpose(0, 3, 1, 2)
    stack[1] = reconstructions.transpose(0, 3, 1, 2)
    np.multiply(stack[0], stack[0], out=stack[2])
    np.multiply(stack[1], stack[1], out=stack[3])
    np.multiply(stack[0], stack[1], out=stack[4])
    mu_x, mu_y, xx, yy, xy = gaussian_filter(stack, _SIGMA)
    mu_x_sq = mu_x * mu_x
    mu_y_sq = mu_y * mu_y
    mu_xy = mu_x * mu_y
    sigma_x = xx - mu_x_sq
    sigma_y = yy - mu_y_sq
    sigma_xy = xy - mu_xy
    numerator = (2 * mu_xy + c1) * (2 * sigma_xy + c2)
    denominator = (mu_x_sq + mu_y_sq + c1) * (sigma_x + sigma_y + c2)
    per_channel = (numerator / denominator).reshape(
        n, channels, height * width).mean(axis=-1)
    return np.array([np.mean(row) for row in per_channel])


def count_above_threshold(
    originals: np.ndarray, reconstructions: np.ndarray, threshold: float = 0.5
) -> int:
    """How many reconstructions reach SSIM > threshold (Table IV metric)."""
    return int((batch_ssim(originals, reconstructions) > threshold).sum())
