"""Per-kernel micro-benchmark: reference vs fast on fixed workloads.

Drives each kernel that has an equivalence case with a fixed-seed
medium-size input and times both backends.  Used by the
``repro bench-kernels`` CLI subcommand; the numbers are indicative
micro-benchmarks (single process, best-of-``repeats``), not a
substitute for the end-to-end gate in benchmarks/test_backend_speedup.py.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backend import equivalence
from repro.backend.registry import get_backend


def _time_call(fn, args, kwargs, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one kernel call, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def bench_kernels(
    kernels: Optional[Sequence[str]] = None,
    repeats: int = 5,
    seed: int = 0,
    baseline: str = "reference",
    candidate: str = "fast",
    dtype: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Timing records, one per kernel: name, per-backend seconds, speedup.

    ``overridden`` marks kernels the candidate implements itself; for
    the rest the candidate falls back to the baseline implementation,
    so their speedup hovers around 1.0 by construction.

    ``dtype`` casts each case's float inputs to that compute dtype
    before timing, and (when it differs from float64) additionally
    times the candidate at float64 on the same case, reporting the
    ratio in a ``vs_float64`` comparison column -- the per-kernel
    payoff of the precision policy.
    """
    baseline_b = get_backend(baseline)
    candidate_b = get_backend(candidate)
    names = list(kernels) if kernels else sorted(equivalence.CASES)
    unknown = [name for name in names if name not in equivalence.CASES]
    if unknown:
        from repro.errors import ConfigError
        raise ConfigError(
            f"unknown kernel(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(equivalence.CASES))}"
        )
    dt = np.dtype(dtype) if dtype is not None else None
    records: List[Dict[str, object]] = []
    for name in names:
        gen = equivalence.CASES[name]
        rng = np.random.default_rng(seed)
        args, kwargs = gen(rng)
        if dt is not None:
            args, kwargs = equivalence._cast_floats(args, kwargs, dt)
        base_fn = baseline_b.kernel(name)
        cand_fn = candidate_b.kernel(name)
        # warm both (buffer pools, BLAS) outside the timed region
        base_fn(*args, **kwargs)
        cand_fn(*args, **kwargs)
        base_s = _time_call(base_fn, args, kwargs, repeats)
        cand_s = _time_call(cand_fn, args, kwargs, repeats)
        record: Dict[str, object] = {
            "kernel": name,
            f"{baseline}_us": round(base_s * 1e6, 2),
            f"{candidate}_us": round(cand_s * 1e6, 2),
            "speedup": round(base_s / cand_s, 3) if cand_s > 0 else float("inf"),
            "overridden": candidate_b.overrides(name),
        }
        if dt is not None:
            record["dtype"] = dt.name
            if dt != np.dtype(np.float64):
                args64, kwargs64 = equivalence._cast_floats(
                    args, kwargs, np.dtype(np.float64))
                cand_fn(*args64, **kwargs64)
                cand64_s = _time_call(cand_fn, args64, kwargs64, repeats)
                record["vs_float64"] = (
                    round(cand64_s / cand_s, 3) if cand_s > 0 else float("inf")
                )
        records.append(record)
    return records
