"""Weight initializers (the Kaiming family).

All initializers take an explicit ``numpy.random.Generator`` so that
model construction is fully deterministic given a seed.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def _fan_in(shape: Tuple[int, ...]) -> int:
    if len(shape) == 2:  # Linear: (out, in)
        return shape[1]
    if len(shape) == 4:  # Conv: (out, in, kh, kw)
        return shape[1] * shape[2] * shape[3]
    return int(np.prod(shape))


def kaiming_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He-normal init, appropriate before ReLU nonlinearities."""
    fan_in = _fan_in(shape)
    std = math.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def kaiming_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in = _fan_in(shape)
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)
