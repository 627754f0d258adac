"""Function base class: one node of the dynamic computation graph.

Each differentiable operation subclasses :class:`Function`, implements
``forward`` (ndarray in, ndarray out) and ``backward`` (gradient of the
output in, tuple of gradients w.r.t. each input out).  ``Function.apply``
wires the node into the graph when gradients are enabled.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro import backend as _backend


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    When a forward op broadcast an input from ``shape`` to a larger shape,
    the gradient flowing back must be summed over the broadcast axes so
    that it again matches ``shape``.
    """
    if grad.shape == shape:
        return grad
    K = _backend.active()
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = K.reduce_sum(grad, tuple(range(extra)), False)
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = K.reduce_sum(grad, axes, True)
    return grad.reshape(shape)


class Function:
    """A differentiable operation and graph node.

    Subclasses implement :meth:`forward` and :meth:`backward`.  Instances
    are single-use: one instance records the inputs and saved arrays of
    one forward call.
    """

    #: Names of instance attributes (beyond ``saved``) that hold large
    #: backward-only arrays, so the tape planner can account for and
    #: release them too (e.g. ``MaxPool2dFn._argmax``).
    extra_saved: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.inputs: Tuple[Any, ...] = ()
        self.saved: Tuple[np.ndarray, ...] = ()
        self.needs_grad: Tuple[bool, ...] = ()
        self.released: bool = False

    def save_for_backward(self, *arrays: np.ndarray) -> None:
        """Stash arrays needed by :meth:`backward`."""
        self.saved = arrays

    def saved_arrays(self) -> Tuple[np.ndarray, ...]:
        """All backward-only ndarrays this node keeps alive."""
        arrays = [a for a in self.saved if isinstance(a, np.ndarray)]
        for name in self.extra_saved:
            value = getattr(self, name, None)
            if isinstance(value, np.ndarray):
                arrays.append(value)
        return tuple(arrays)

    def release_saved(self) -> None:
        """Drop backward-only state after this node's backward has run.

        Further backward passes through this node raise, pointing the
        caller at ``backward(retain_graph=True)``.
        """
        self.saved = ()
        for name in self.extra_saved:
            if getattr(self, name, None) is not None:
                setattr(self, name, None)
        self.released = True

    def forward(self, *arrays: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        raise NotImplementedError

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any):
        """Run the op on tensors/arrays/scalars and build the graph edge."""
        from repro.autograd.tensor import Tensor, is_grad_enabled

        tensors = [arg if isinstance(arg, Tensor) else Tensor(arg) for arg in args]
        fn = cls(**kwargs) if kwargs else cls()
        out_data = fn.forward(*[t.data for t in tensors])
        requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            fn.inputs = tuple(tensors)
            fn.needs_grad = tuple(t.requires_grad for t in tensors)
            out._creator = fn
        return out
