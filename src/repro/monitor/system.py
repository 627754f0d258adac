"""Systems probes: cost and health of the training process itself.

Complements the leakage probes in :mod:`repro.monitor.probes` with the
run's physical side -- optimization health (gradient norm, parameter
update ratio), process memory and throughput.  All fields are flat
floats so they land in the same JSONL timeseries.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from repro.monitor.probes import Probe, ProbeContext


class GradNormProbe(Probe):
    """Global L2 norm of the most recent backward pass's gradients."""

    name = "grad"
    scope = "batch"

    def observe(self, ctx: ProbeContext) -> Dict[str, float]:
        total = 0.0
        count = 0
        for param in ctx.model.parameters():
            if param.grad is not None:
                total += float((param.grad ** 2).sum())
                count += 1
        if count == 0:
            return {}
        return {"grad_norm": total ** 0.5}


class UpdateRatioProbe(Probe):
    """Relative parameter movement ``||theta_t - theta_prev|| / ||theta_prev||``.

    A classic training-health signal: ~1e-3 is healthy SGD territory,
    ~1e-1 means the optimizer is thrashing, ~1e-6 means learning has
    stalled.  The previous parameter vector is retained between ticks
    (strided down to at most ``max_samples`` entries so the probe's
    memory stays bounded on large models).
    """

    name = "update"
    scope = "batch"

    def __init__(self, max_samples: int = 100_000) -> None:
        self.max_samples = int(max_samples)
        self._previous: Optional[np.ndarray] = None

    def _sample(self, ctx: ProbeContext) -> np.ndarray:
        flat = np.concatenate([p.data.reshape(-1) for p in ctx.model.parameters()])
        stride = max(1, flat.size // self.max_samples)
        return flat[::stride].copy()

    def observe(self, ctx: ProbeContext) -> Dict[str, float]:
        current = self._sample(ctx)
        previous, self._previous = self._previous, current
        if previous is None or previous.shape != current.shape:
            return {}
        denom = float(np.linalg.norm(previous)) + 1e-12
        return {"update_ratio": float(np.linalg.norm(current - previous)) / denom}


def _rss_bytes() -> Optional[float]:
    """Current resident set size, via /proc on Linux (None elsewhere)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return float(pages * os.sysconf("SC_PAGE_SIZE"))
    except (OSError, ValueError, IndexError):
        return None


def _peak_rss_bytes() -> Optional[float]:
    """Lifetime peak RSS via getrusage (ru_maxrss is KiB on Linux)."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:
        return None
    # Linux reports KiB; macOS reports bytes.  Treat implausibly large
    # values (> 1 TiB when read as KiB) as already-bytes.
    return float(peak) if peak > 2 ** 40 else float(peak) * 1024.0


class MemoryProbe(Probe):
    """Process memory plus the autograd tape planner's activation books.

    Reports current RSS and lifetime peak in MiB, and -- once a backward
    pass has run -- the tape memory planner's view of saved activations:
    the planned peak of live saved bytes, the unplanned peak the same
    tape would have reached without eager release, and the resulting
    reduction fraction (the quantity gated by the precision benchmark).
    """

    name = "memory"
    scope = "epoch"

    def observe(self, ctx: ProbeContext) -> Dict[str, float]:
        values: Dict[str, float] = {}
        rss = _rss_bytes()
        if rss is not None:
            values["rss_mib"] = rss / 2 ** 20
        peak = _peak_rss_bytes()
        if peak is not None:
            values["peak_rss_mib"] = peak / 2 ** 20
        from repro.autograd import last_tape_stats

        stats = last_tape_stats()
        if stats is not None and stats.functions > 0:
            values["tape_live_peak_mib"] = stats.peak_live_bytes / 2 ** 20
            values["tape_unplanned_peak_mib"] = (
                stats.unplanned_peak_bytes / 2 ** 20
            )
            values["tape_peak_reduction"] = float(stats.peak_reduction)
            if stats.recycled_buffers:
                values["tape_recycled_buffers"] = float(stats.recycled_buffers)
        return values


class ThroughputProbe(Probe):
    """Images/sec and epoch wall time from the trainer's live metrics."""

    name = "throughput"
    scope = "epoch"

    def observe(self, ctx: ProbeContext) -> Dict[str, float]:
        from repro.telemetry.metrics import default_registry

        registry = default_registry()
        values: Dict[str, float] = {}
        if "trainer.images_per_s" in registry:
            rate = registry.gauge("trainer.images_per_s").snapshot()
            if np.isfinite(rate):
                values["images_per_s"] = float(rate)
        if "trainer.last_epoch_s" in registry:
            last = registry.gauge("trainer.last_epoch_s").snapshot()
            if np.isfinite(last):
                values["epoch_s"] = float(last)
        return values
