"""Kernel registry and dispatch: the seam between ops and their math.

A :class:`Backend` is a named bag of *kernels* -- pure
ndarray-in/ndarray-out functions implementing the numerical heavy
lifting of the autograd ops (conv2d forward/backward, im2col/col2im,
pooling, matmul, elementwise, batchnorm statistics).  Ops never inline
numpy for these; they call ``active().<kernel>(...)`` so that an
alternative backend can swap the implementation of every hot path at
once.

Two backends ship by default (registered by :mod:`repro.backend`):

* ``reference`` -- the original numpy code, verbatim.  It is the
  correctness oracle: every other backend must agree with it to
  ``allclose`` tolerance on every registered kernel (see
  :mod:`repro.backend.equivalence`).
* ``fast`` -- tap-slice patch gathers, scratch-buffer pools,
  slice-accumulation col2im, fused inference and batch-norm training
  kernels.  Falls back to ``reference`` for any kernel it does not
  override.

Dispatch cost with no kernel hook: one module-global read plus an
attribute lookup per kernel call.  Installing a kernel hook (see
:func:`set_kernel_hook`; an active trace recorder installs one) makes
every *top-level* kernel call report
``(backend_name, kernel_name, seconds, nbytes)`` -- nested kernel calls
(e.g. ``conv2d_forward`` calling ``im2col``) are attributed to the
outermost kernel so totals never double-count.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Union

import numpy as np

from repro.errors import ConfigError

KernelHook = Callable[[str, str, float, int], None]

_backends: Dict[str, "Backend"] = {}
_active: Optional["Backend"] = None

# Per-kernel timing hook (None keeps dispatch on a no-hook fast path);
# repro.telemetry.trace installs one while a recorder is active.
_kernel_hook: Optional[KernelHook] = None
_hook_depth: int = 0


def set_kernel_hook(hook: Optional[KernelHook]) -> Optional[KernelHook]:
    """Install (or with ``None``, clear) the kernel hook; returns the old one."""
    global _kernel_hook
    previous = _kernel_hook
    _kernel_hook = hook
    return previous


def get_kernel_hook() -> Optional[KernelHook]:
    return _kernel_hook


def _nbytes(args: tuple, out: Any) -> int:
    """Bytes touched by a kernel call: ndarray arguments plus outputs."""
    total = 0
    for arg in args:
        if isinstance(arg, np.ndarray):
            total += arg.nbytes
    for piece in out if isinstance(out, tuple) else (out,):
        if isinstance(piece, np.ndarray):
            total += piece.nbytes
    return total


class Backend:
    """A named set of kernels with optional fallback to another backend.

    Kernels are registered with :meth:`register` and become attributes
    of the instance, so call sites read ``active().matmul(a, b)``.
    Unregistered kernel lookups resolve through ``fallback`` (the fast
    backend falls back to reference), so a backend only overrides what
    it improves.
    """

    def __init__(self, name: str, fallback: Optional["Backend"] = None) -> None:
        self.name = str(name)
        self.fallback = fallback
        self._kernels: Dict[str, Callable[..., Any]] = {}

    def register(self, name: Optional[str] = None):
        """Decorator registering ``fn`` as kernel ``name`` (default: fn name)."""
        def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
            kernel_name = name if name is not None else fn.__name__
            self._kernels[kernel_name] = fn
            setattr(self, kernel_name, self._wrap(kernel_name, fn))
            return fn
        return decorate

    def _wrap(self, kernel_name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        backend_name = self.name

        def call(*args: Any, **kwargs: Any) -> Any:
            global _hook_depth
            hook = _kernel_hook
            if hook is None or _hook_depth:
                # no hook, or a nested kernel (kernels composing
                # kernels) whose time is inside the outer measurement
                return fn(*args, **kwargs)
            _hook_depth = 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                _hook_depth = 0
            hook(backend_name, kernel_name,
                 time.perf_counter() - start, _nbytes(args, out))
            return out

        call.__name__ = f"{backend_name}.{kernel_name}"
        return call

    def __getattr__(self, item: str) -> Any:
        # Only reached when the attribute is not in the instance dict.
        # Successful fallback resolutions are cached onto the instance so
        # repeated dispatch of a non-overridden kernel costs one plain
        # attribute read; register kernels before first dispatch (a later
        # ``register`` on this backend still wins -- it overwrites the
        # cached attribute -- but re-registering on a *fallback* backend
        # after dispatch is not picked up).
        if not item.startswith("_") and self.__dict__.get("fallback") is not None:
            resolved = getattr(self.fallback, item)
            setattr(self, item, resolved)
            return resolved
        raise AttributeError(
            f"backend {self.__dict__.get('name', '?')!r} has no kernel {item!r}"
        )

    def has(self, kernel_name: str) -> bool:
        if kernel_name in self._kernels:
            return True
        return self.fallback.has(kernel_name) if self.fallback is not None else False

    def overrides(self, kernel_name: str) -> bool:
        """True when this backend registers its own implementation."""
        return kernel_name in self._kernels

    def kernels(self) -> List[str]:
        """All kernel names reachable from this backend (fallback included)."""
        names: Set[str] = set(self._kernels)
        if self.fallback is not None:
            names.update(self.fallback.kernels())
        return sorted(names)

    def kernel(self, kernel_name: str) -> Callable[..., Any]:
        """The resolved (hook-wrapped) implementation of one kernel."""
        impl = getattr(self, kernel_name, None)
        if impl is None:
            raise ConfigError(f"no kernel {kernel_name!r} in backend {self.name!r}")
        return impl

    def __repr__(self) -> str:
        via = f" -> {self.fallback.name}" if self.fallback is not None else ""
        return f"Backend({self.name!r}, {len(self._kernels)} kernels{via})"


# ---------------------------------------------------------------------------
# Global registry + active-backend state
# ---------------------------------------------------------------------------


def register_backend(backend: Backend, default: bool = False) -> Backend:
    """Add a backend to the global registry; ``default`` makes it active."""
    global _active
    _backends[backend.name] = backend
    if default or _active is None:
        _active = backend
    return backend


def get_backend(name: Union[str, Backend]) -> Backend:
    """Look a backend up by name (Backend instances pass through)."""
    if isinstance(name, Backend):
        return name
    try:
        return _backends[name]
    except KeyError:
        raise ConfigError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None


def available_backends() -> List[str]:
    return sorted(_backends)


def active() -> Backend:
    """The backend all op dispatch currently routes through."""
    if _active is None:
        raise ConfigError("no backend registered")
    return _active


def set_backend(name: Union[str, Backend, None]) -> Optional[Backend]:
    """Set the active backend (by name or instance); returns the previous one.

    ``None`` is accepted and leaves the active backend unchanged, so
    callers can uniformly restore with ``set_backend(previous)``.
    """
    global _active
    previous = _active
    if name is not None:
        _active = get_backend(name)
    return previous


@contextlib.contextmanager
def use_backend(name: Union[str, Backend, None]) -> Iterator[Backend]:
    """Context manager scoping the active backend; ``None`` is a no-op."""
    previous = set_backend(name)
    try:
        yield active()
    finally:
        global _active
        _active = previous
