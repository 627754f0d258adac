"""Per-layer timing from outside the program, for the traced run.

A :class:`LayerClock` times layers without touching ``src/``:

* it wraps public functions and class methods (patched on the module or
  class the caller looks them up on) and records each call's *self*
  time: wall time minus the kernels and nested layers it called;
* it installs :func:`repro.backend.set_kernel_hook` to time every
  top-level kernel call and count its calls and bytes.

Everything lands in the process default metrics registry as counters
named ``perfbench.layer.<name>.{s,calls}`` and
``perfbench.kernel.<name>.{s,calls,bytes}``.  That is the channel the
program already ships home from forked workers: a ``WorkerPool`` task
returns its registry snapshot and a ``ShardPool`` reply carries counter
deltas, so layers timed inside those processes reach the parent.  DDP
ranks other than rank 0 ship nothing, so training layers are rank 0's.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro import backend
from repro.telemetry.metrics import default_registry

LAYER_PREFIX = "perfbench.layer."
KERNEL_PREFIX = "perfbench.kernel."

Name = Union[str, Callable[..., str]]


class LayerClock:
    """Self-time attribution over wrapped layers and kernel calls."""

    def __init__(self) -> None:
        self._registry = default_registry()
        self._counters: Dict[str, Any] = {}
        # one frame per open layer call: seconds spent in its children
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._previous_hook: Optional[Callable[..., None]] = None
        self._hooked = False

    # ------------------------------------------------------------ recording
    def _add(self, name: str, amount: float) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self._registry.counter(name)
        counter.value += amount

    def _record(self, name: str, elapsed: float, children: float) -> None:
        self._add(f"{LAYER_PREFIX}{name}.s", max(0.0, elapsed - children))
        self._add(f"{LAYER_PREFIX}{name}.calls", 1.0)
        if self._stack:
            self._stack[-1][0] += elapsed

    def kernel(self, backend: str, kernel: str, seconds: float,
               nbytes: int) -> None:
        """Kernel hook: ``repro.backend`` calls it after each top-level kernel."""
        self._add(f"{KERNEL_PREFIX}{kernel}.s", seconds)
        self._add(f"{KERNEL_PREFIX}{kernel}.calls", 1.0)
        self._add(f"{KERNEL_PREFIX}{kernel}.bytes", float(nbytes))
        if self._stack:
            self._stack[-1][0] += seconds

    def timed(self, name: Name, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped as layer ``name`` (or ``name(*args, **kwargs)``)."""
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                label = name(*args, **kwargs) if callable(name) else name
                self._record(label, elapsed, frame[0])
        return wrapper

    def timed_iter(self, name: str,
                   fn: Callable[..., Iterable[Any]]) -> Callable[..., Any]:
        """Wrap a generator method so each ``next()`` counts as layer ``name``."""
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            iterator = iter(fn(*args, **kwargs))
            while True:
                frame = [0.0]
                self._stack.append(frame)
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    elapsed = time.perf_counter() - start
                    self._stack.pop()
                    self._record(name, elapsed, frame[0])
                yield item
        return wrapper

    # ------------------------------------------------------------- patching
    def replace(self, owner: Any, attr: str, new: Any) -> Any:
        """Set ``owner.attr = new`` until :meth:`close`; returns the old value."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)
        return original

    def patch(self, owner: Any, attr: str, name: Name,
              iterator: bool = False) -> None:
        """Replace ``owner.attr`` with its timed wrapper until :meth:`close`."""
        current = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        wrap = self.timed_iter if iterator else self.timed
        self.replace(owner, attr, wrap(name, current))

    def hook_kernels(self) -> None:
        self._previous_hook = backend.set_kernel_hook(self.kernel)
        self._hooked = True

    def close(self) -> None:
        """Undo every patch and the kernel hook, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._hooked:
            backend.set_kernel_hook(self._previous_hook)
            self._hooked = False

    def __enter__(self) -> "LayerClock":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def counters() -> Dict[str, float]:
    """The default registry's counters now (a baseline for :func:`delta`)."""
    return dict(default_registry().typed_snapshot()["counters"])


def delta(before: Dict[str, float],
          after: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Counter movement from ``before`` to ``after`` (default: now)."""
    after = counters() if after is None else after
    return {name: value - before.get(name, 0.0) for name, value in after.items()
            if value - before.get(name, 0.0) != 0.0}


def split(moved: Dict[str, float]) -> Tuple[Dict[str, Dict[str, float]],
                                             Dict[str, Dict[str, float]]]:
    """Counter deltas as ``({layer: {s, calls}}, {kernel: {s, calls, bytes}})``."""
    layers: Dict[str, Dict[str, float]] = {}
    kernels: Dict[str, Dict[str, float]] = {}
    for name, value in moved.items():
        for prefix, table in ((LAYER_PREFIX, layers), (KERNEL_PREFIX, kernels)):
            if name.startswith(prefix):
                key, _, field = name[len(prefix):].rpartition(".")
                table.setdefault(key, {})[field] = value
    return layers, kernels


def render_table(title: str, rows: List[Tuple[str, float]], total: float) -> str:
    """A per-layer table in ms whose rows plus ``unattributed`` sum to ``total`` s."""
    attributed = sum(value for _, value in rows)
    rows = sorted(rows, key=lambda row: -row[1])
    rows.append(("unattributed", total - attributed))
    width = max(len(name) for name, _ in rows + [("layer", 0.0)])
    lines = [title, f"{'layer':<{width}}  {'ms':>10}  {'share':>7}"]
    for name, value in rows:
        lines.append(f"{name:<{width}}  {value * 1e3:>10.3f}  {value / total:>7.1%}")
    lines.append(f"{'total':<{width}}  {total * 1e3:>10.3f}  {1.0:>7.1%}")
    return "\n".join(lines)
