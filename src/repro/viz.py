"""Terminal sparklines: a metric series as one line of unicode bars.

They give a direct visual check of a series without any plotting
dependency; the monitor report draws its trends with them.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

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
