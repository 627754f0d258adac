"""LSB encoding attack (Song et al. CCS'17 baseline).

Replaces the least-significant mantissa bits of float32 model weights
with a secret bit string after training.  As the paper notes
(Sec. II-B), quantization trivially defeats this attack: the replaced
bits do not survive any re-discretisation of the weights.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import CapacityError
from repro.nn.module import Parameter


def lsb_capacity_bits(params: Sequence[Parameter], bits_per_weight: int) -> int:
    """Total secret bits the parameter set can carry."""
    if not 1 <= bits_per_weight <= 23:
        raise CapacityError("bits_per_weight must be within the float32 mantissa (1..23)")
    return sum(p.size for p in params) * bits_per_weight


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Big-endian bit expansion of a byte string."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits: np.ndarray) -> bytes:
    if len(bits) % 8:
        raise CapacityError(f"bit string length {len(bits)} is not a multiple of 8")
    return np.packbits(bits.astype(np.uint8)).tobytes()


def lsb_encode(params: Sequence[Parameter], secret_bits: np.ndarray, bits_per_weight: int) -> int:
    """Overwrite the low mantissa bits of each weight with secret bits.

    Weights are viewed as float32 (the released-model precision), the
    low ``bits_per_weight`` bits of each are replaced in flat layer
    order, and the parameters are updated in place.

    Returns:
        number of secret bits actually embedded.
    """
    capacity = lsb_capacity_bits(params, bits_per_weight)
    secret_bits = np.asarray(secret_bits).astype(np.uint32)
    used = min(capacity, secret_bits.size)
    mask = np.uint32(0xFFFFFFFF) ^ np.uint32((1 << bits_per_weight) - 1)
    offset = 0
    for param in params:
        if offset >= used:
            break
        flat32 = param.data.astype(np.float32).reshape(-1)
        raw = flat32.view(np.uint32).copy()
        count = min((used - offset) // bits_per_weight, raw.size)
        if count == 0:
            break
        chunk = secret_bits[offset:offset + count * bits_per_weight].reshape(count, bits_per_weight)
        packed = np.zeros(count, dtype=np.uint32)
        for bit_index in range(bits_per_weight):
            packed = (packed << np.uint32(1)) | chunk[:, bit_index]
        raw[:count] = (raw[:count] & mask) | packed
        param.data = raw.view(np.float32).reshape(param.shape).astype(param.data.dtype)
        offset += count * bits_per_weight
    return offset


def lsb_decode(params: Sequence[Parameter], num_bits: int, bits_per_weight: int) -> np.ndarray:
    """Read back ``num_bits`` secret bits embedded by :func:`lsb_encode`."""
    capacity = lsb_capacity_bits(params, bits_per_weight)
    if num_bits > capacity:
        raise CapacityError(f"requested {num_bits} bits but capacity is {capacity}")
    out = np.empty(num_bits, dtype=np.uint8)
    offset = 0
    for param in params:
        if offset >= num_bits:
            break
        raw = param.data.astype(np.float32).reshape(-1).view(np.uint32)
        count = min((num_bits - offset + bits_per_weight - 1) // bits_per_weight, raw.size)
        values = raw[:count]
        for weight_index in range(count):
            for bit_index in range(bits_per_weight):
                if offset >= num_bits:
                    break
                shift = bits_per_weight - 1 - bit_index
                out[offset] = (values[weight_index] >> np.uint32(shift)) & np.uint32(1)
                offset += 1
    return out
