"""Pluggable kernel-dispatch layer for the autograd/nn hot paths.

Importing this package registers the two built-in backends and makes
``reference`` the process default (the ``repro`` CLI selects ``fast``
unless given ``--backend reference``):

* :mod:`repro.backend.reference` -- the original numpy kernels,
  verbatim; the correctness oracle.
* :mod:`repro.backend.fast` -- tap-slice patch gathers,
  slice-accumulation col2im, fused inference kernels; falls back to
  reference for anything it does not override.

Typical use::

    from repro import backend

    with backend.use_backend("fast"):
        trainer.train()

    backend.set_backend("fast")          # process-wide
    backend.active().matmul(a, b)        # direct kernel dispatch

Every kernel a backend overrides must pass the equivalence harness
(:mod:`repro.backend.equivalence`) against reference.
"""

from repro.backend.registry import (
    Backend,
    active,
    available_backends,
    get_backend,
    get_kernel_hook,
    register_backend,
    set_backend,
    set_kernel_hook,
    use_backend,
)
from repro.backend import reference as _reference
from repro.backend import fast as _fast

register_backend(_reference.BACKEND, default=True)
register_backend(_fast.BACKEND)

__all__ = [
    "Backend",
    "active",
    "available_backends",
    "get_backend",
    "get_kernel_hook",
    "register_backend",
    "set_backend",
    "set_kernel_hook",
    "use_backend",
]
