"""Terminal visualization helpers (ASCII images and sparklines).

They give a direct visual check of images and metric series without any
plotting dependency; the monitor report draws its trends as sparklines.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

_LEVELS = " .:-=+*#%@"

_SPARK_TICKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """Render a numeric series as a one-line unicode trend.

    Values map linearly onto an 8-step bar ramp between the series min
    and max.  Degenerate inputs stay printable: an empty series renders
    as ``""``, a constant series as a flat mid-level line, and NaN/inf
    samples as ``·`` placeholders (they are excluded from the scale).
    When ``width`` is given and the series is longer, it is subsampled
    to ``width`` points (first and last samples always survive).
    """
    series = [float(v) for v in values]
    if not series:
        return ""
    if width is not None and width > 0 and len(series) > width:
        if width == 1:
            series = [series[-1]]
        else:
            idx = np.linspace(0, len(series) - 1, width)
            series = [series[int(round(i))] for i in idx]
    finite = [v for v in series if np.isfinite(v)]
    if not finite:
        return "·" * len(series)
    low, high = min(finite), max(finite)
    span = high - low
    out = []
    for value in series:
        if not np.isfinite(value):
            out.append("·")
        elif span <= 0:
            out.append(_SPARK_TICKS[len(_SPARK_TICKS) // 2])
        else:
            step = int((value - low) / span * (len(_SPARK_TICKS) - 1))
            out.append(_SPARK_TICKS[min(step, len(_SPARK_TICKS) - 1)])
    return "".join(out)


def trend(values: Sequence[float]) -> str:
    """Compact ``first -> last`` label for a series (finite values only)."""
    finite = [float(v) for v in values if np.isfinite(v)]
    if not finite:
        return "n/a"
    if len(finite) == 1:
        return f"{finite[0]:.4g}"
    return f"{finite[0]:.4g} -> {finite[-1]:.4g}"


def ascii_image(image: np.ndarray, max_width: int = 48) -> str:
    """Render a grayscale or RGB image as ASCII art.

    Each pixel becomes two characters (terminal cells are ~2:1), mapped
    through a 10-step brightness ramp.  Wide images are subsampled to
    ``max_width`` pixels.
    """
    image = np.asarray(image)
    if image.ndim == 3:
        if image.shape[2] == 3:
            gray = image.astype(float) @ np.array([0.299, 0.587, 0.114])
        else:
            gray = image[..., 0].astype(float)
    else:
        gray = image.astype(float)
    step = max(1, int(np.ceil(gray.shape[1] / max_width)))
    gray = gray[::step, ::step]
    rows = []
    for row in gray:
        cells = (np.clip(row, 0, 255) / 256.0 * len(_LEVELS)).astype(int)
        rows.append("".join(_LEVELS[min(c, len(_LEVELS) - 1)] * 2 for c in cells))
    return "\n".join(rows)
