"""Quantizer interface and the shared codebook/assignment representation.

A quantized model is represented explicitly: per parameter tensor, a
small codebook of representative values plus an integer assignment per
weight.  This is the representation hardware deployments actually ship
(deep compression's "shared weights"), and it is what cluster-shared
fine-tuning and the bit-width accounting operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import QuantizationError
from repro.models.introspect import encodable_parameters
from repro.nn.module import Module


@dataclass
class QuantizationResult:
    """Codebooks and assignments for a set of named parameter tensors."""

    levels: int
    codebooks: Dict[str, np.ndarray] = field(default_factory=dict)
    assignments: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def bits(self) -> int:
        from repro.quantization.bitwidth import bits_for_levels
        return bits_for_levels(self.levels)

    def dequantized(self, name: str) -> np.ndarray:
        """Reconstruct the full-precision-shaped weights of one tensor."""
        return self.codebooks[name][self.assignments[name]]

    def unique_values(self, name: str) -> np.ndarray:
        """Distinct weight values actually used by one tensor."""
        return np.unique(self.dequantized(name))

    def validate(self) -> None:
        for name, assignment in self.assignments.items():
            codebook = self.codebooks.get(name)
            if codebook is None:
                raise QuantizationError(f"assignment without codebook for {name!r}")
            if codebook.size > self.levels:
                raise QuantizationError(
                    f"{name!r}: codebook has {codebook.size} entries, limit {self.levels}"
                )
            if assignment.size and (assignment.min() < 0 or assignment.max() >= codebook.size):
                raise QuantizationError(f"{name!r}: assignment indices out of range")


class Quantizer:
    """Base quantizer: subclasses implement :meth:`_quantize`.

    Args:
        levels: number of quantization clusters ``l`` (bit width is
            ``log2(l)``).
        scope: ``"global"`` builds one codebook over the concatenation
            of all selected tensors (the paper's Algorithm 1 operates on
            the total weight list); ``"per_layer"`` builds one per tensor
            (Park et al.'s layer-wise practice).
    """

    def __init__(self, levels: int, scope: str = "global") -> None:
        if levels < 2:
            raise QuantizationError(f"need at least 2 levels, got {levels}")
        if scope not in ("global", "per_layer"):
            raise QuantizationError(f"scope must be 'global' or 'per_layer', got {scope!r}")
        self.levels = int(levels)
        self.scope = scope

    def quantize_vector(self, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Quantize one flat weight vector.

        Returns:
            (codebook, assignment): representative values (<= levels)
            and per-weight integer cluster indices.

        Raises:
            QuantizationError: a weight is NaN or infinite (no codebook
                or assignment is defined for it).
        """
        weights = np.asarray(weights)
        bad = weights.size - int(np.isfinite(weights).sum())
        if bad:
            raise QuantizationError(f"cannot quantize non-finite weights: {bad} "
                                    f"of {weights.size} are NaN or infinite")
        return self._quantize(weights)

    # ------------------------------------------------------------ABSTRACT
    def _quantize(self, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`quantize_vector` of a finite weight vector."""
        raise NotImplementedError

    # -------------------------------------------------------------- MODEL
    def quantize_model(
        self, model: Module, names: Optional[Sequence[str]] = None
    ) -> QuantizationResult:
        """Quantize a model's encodable weights (biases/BN stay float).

        Leaving biases and BatchNorm affine parameters in full precision
        is standard deployment practice and is assumed by the paper's
        accuracy numbers.
        """
        params = encodable_parameters(model)
        if names is not None:
            wanted = set(names)
            params = [(n, p) for n, p in params if n in wanted]
        if not params:
            raise QuantizationError("no parameters selected for quantization")
        result = QuantizationResult(levels=self.levels)
        if self.scope == "per_layer":
            for name, param in params:
                codebook, assignment = self.quantize_vector(param.data.reshape(-1))
                result.codebooks[name] = codebook
                result.assignments[name] = assignment.reshape(param.shape)
        else:
            flat = np.concatenate([p.data.reshape(-1) for _, p in params])
            codebook, assignment = self.quantize_vector(flat)
            offset = 0
            for name, param in params:
                chunk = assignment[offset:offset + param.size]
                result.codebooks[name] = codebook
                result.assignments[name] = chunk.reshape(param.shape)
                offset += param.size
        result.validate()
        return result


def apply_quantization(model: Module, result: QuantizationResult) -> None:
    """Overwrite the model's weights with their quantized values."""
    params = dict(encodable_parameters(model))
    for name in result.assignments:
        if name not in params:
            raise QuantizationError(f"model has no encodable parameter {name!r}")
        params[name].data = result.dequantized(name).astype(params[name].data.dtype)


def assign_to_boundaries(
    weights: np.ndarray, boundaries: np.ndarray
) -> np.ndarray:
    """Cluster index of each weight given ascending boundary values v_0..v_l.

    Cluster ``k`` holds weights with ``v_k <= w < v_{k+1}`` (Algorithm 1
    line 15's ``f_q``); values below ``v_0`` clamp to cluster 0.

    The search itself is a backend kernel (``assign_clusters``) so the
    quantizer's assignment loop rides the active backend.
    """
    from repro import backend as _backend
    return _backend.active().assign_clusters(weights, boundaries)
