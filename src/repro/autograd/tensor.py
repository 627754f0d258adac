"""The differentiable Tensor type.

A :class:`Tensor` wraps a numpy array together with an optional gradient
and a reference to the :class:`~repro.autograd.function.Function` that
created it.  Calling :meth:`Tensor.backward` walks the graph in reverse
topological order and accumulates gradients into every tensor that has
``requires_grad=True``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro import precision as _precision
from repro.errors import GradientError
from repro.telemetry.trace import span

Scalar = Union[int, float]
ArrayLike = Union[np.ndarray, Scalar, list, tuple]

_state = threading.local()


def is_grad_enabled() -> bool:
    """Return True when graph construction is currently enabled."""
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables graph construction (inference mode)."""
    previous = is_grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = previous


class Tensor:
    """A numpy-backed array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_creator")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype: Optional[np.dtype] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        # numpy scalars (np.float64(x), reductions over all axes) carry
        # an explicit dtype just like ndarrays do
        was_typed = isinstance(data, (np.ndarray, np.generic))
        arr = np.asarray(data, dtype=dtype)
        if dtype is None:
            # Dtype policy (repro.precision): int/bool data promotes to
            # the active compute dtype, and float data that *numpy*
            # typed for us (python scalars / lists default to float64)
            # is materialized at the policy dtype too.  Explicit float
            # ndarrays keep their dtype so float64 pipelines stay
            # float64 end to end; evaluation and serving cast their
            # inputs to the model's parameter dtype before they get
            # here (precision.cast_to_model).
            if arr.dtype.kind in "iub":
                arr = arr.astype(_precision.default_dtype())
            elif arr.dtype.kind == "f" and not was_typed:
                want = _precision.default_dtype()
                if arr.dtype != want:
                    arr = arr.astype(want)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._creator = None

    # ---------------------------------------------------------------- basics
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, threshold=16)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------- backward
    def backward(self, grad: Optional[np.ndarray] = None,
                 retain_graph: bool = False) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Gradients are stored on the leaves (and on this root); saved
        activations are released as soon as the backward that consumes
        them has run, per the :mod:`repro.autograd.planner` liveness
        plan.  Pass ``retain_graph=True`` to keep the saved state for a
        second backward through the same graph.
        """
        if not self.requires_grad:
            raise GradientError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise GradientError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        with span("autograd.backward"):
            self._backprop(grad, retain_graph)

    def _backprop(self, grad: np.ndarray, retain_graph: bool) -> None:
        """The graph walk behind :meth:`backward` (``grad`` is validated)."""
        from repro import backend as _backend
        from repro.autograd.planner import TapePlan
        K = _backend.active()
        # Optional backend hook: hand dead gradient buffers back to the
        # kernel scratch pool (the fast backend exposes its BufferPool).
        recycle = getattr(K, "recycle_buffer", None)
        order = self._topological_order()
        plan = TapePlan(order)
        grads = {id(self): grad}
        plan.grad_stored(grad.nbytes)
        for position, tensor in enumerate(order):
            fn = tensor._creator
            tensor_grad = grads.pop(id(tensor), None)
            if tensor_grad is not None:
                plan.grad_popped(tensor_grad.nbytes)
            # Gradients persist only on leaves (and on the root the user
            # called backward on); intermediate gradients stay on the
            # tape and their buffers can be recycled once consumed.
            store = tensor.requires_grad and (fn is None or tensor is self)
            if store and tensor_grad is not None:
                tensor.grad = (tensor_grad if tensor.grad is None
                               else K.add(tensor.grad, tensor_grad))
            if fn is None or tensor_grad is None:
                continue
            if fn.released:
                raise GradientError(
                    f"{type(fn).__name__} saved state was already released by a "
                    "previous backward; call backward(retain_graph=True) to "
                    "backpropagate through the same graph more than once"
                )
            plan.note_step(tensor_grad.nbytes,
                           pinned=tensor.requires_grad and not store)
            input_grads = fn.backward(tensor_grad)
            if len(input_grads) != len(fn.inputs):
                raise GradientError(
                    f"{type(fn).__name__}.backward returned {len(input_grads)} "
                    f"gradients for {len(fn.inputs)} inputs"
                )
            for parent, parent_grad, needs in zip(fn.inputs, input_grads, fn.needs_grad):
                if parent_grad is None:
                    continue
                if not (needs or parent._creator is not None):
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = K.add(grads[key], parent_grad)
                else:
                    grads[key] = parent_grad
                    plan.grad_stored(parent_grad.nbytes)
            if not retain_graph:
                fn.release_saved()
                plan.released(position)
            # Recycle the consumed gradient buffer unless anything still
            # aliases it: a returned input gradient (views from Reshape/
            # Transpose, or Add handing the same array to both parents)
            # or a gradient still pending in the accumulator.
            if (recycle is not None and not store
                    and tensor_grad.base is None
                    and tensor_grad.flags.owndata
                    and tensor_grad.flags.c_contiguous
                    and not any(g is not None
                                and np.may_share_memory(g, tensor_grad)
                                for g in input_grads)
                    and not any(np.may_share_memory(pending, tensor_grad)
                                for pending in grads.values())):
                recycle(tensor_grad)
                plan.grad_recycled(tensor_grad.nbytes)
        plan.finalize()

    def _topological_order(self) -> List["Tensor"]:
        """Tensors reachable from self, ordered so each node precedes its inputs."""
        order: List[Tensor] = []
        seen: Set[int] = set()
        # Iterative DFS post-order (graphs can be deep; avoid recursion limits).
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            if node._creator is not None:
                for parent in node._creator.inputs:
                    if id(parent) not in seen:
                        stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------ operators
    def __add__(self, other): return _ops().add(self, other)
    def __radd__(self, other): return _ops().add(other, self)
    def __sub__(self, other): return _ops().sub(self, other)
    def __rsub__(self, other): return _ops().sub(other, self)
    def __mul__(self, other): return _ops().mul(self, other)
    def __rmul__(self, other): return _ops().mul(other, self)
    def __truediv__(self, other): return _ops().div(self, other)
    def __rtruediv__(self, other): return _ops().div(other, self)
    def __neg__(self): return _ops().neg(self)
    def __pow__(self, exponent): return _ops().pow(self, exponent)
    def __matmul__(self, other): return _ops().matmul(self, other)
    def __getitem__(self, index): return _ops().getitem(self, index)

    # ------------------------------------------------------- method aliases
    def sum(self, axis=None, keepdims=False): return _ops().sum(self, axis=axis, keepdims=keepdims)
    def mean(self, axis=None, keepdims=False): return _ops().mean(self, axis=axis, keepdims=keepdims)
    def max(self, axis=None, keepdims=False): return _ops().max(self, axis=axis, keepdims=keepdims)
    def min(self, axis=None, keepdims=False): return _ops().min(self, axis=axis, keepdims=keepdims)
    def reshape(self, *shape): return _ops().reshape(self, *shape)
    def transpose(self, *axes): return _ops().transpose(self, *axes)
    def flatten(self, start_axis: int = 1): return _ops().flatten(self, start_axis)
    def exp(self): return _ops().exp(self)
    def log(self): return _ops().log(self)
    def sqrt(self): return _ops().sqrt(self)
    def abs(self): return _ops().abs(self)
    def relu(self): return _ops().relu(self)
    def clip(self, low, high): return _ops().clip(self, low, high)
    def var(self, axis=None, keepdims=False): return _ops().var(self, axis=axis, keepdims=keepdims)


def _ops():
    """Late import of the functional namespace to avoid an import cycle."""
    from repro.autograd import functional
    return functional
