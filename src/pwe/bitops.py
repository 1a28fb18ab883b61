"""Conversions between integer-packed words and numpy bit arrays, and their
GF(2) product."""

from __future__ import annotations

import numpy as np


def ints_to_bits(values, n: int) -> np.ndarray:
    """LSB-first bit rows (uint8, len(values) x n) of non-negative ints below 2^n."""
    nbytes = (n + 7) // 8
    raw = np.frombuffer(b"".join(v.to_bytes(nbytes, "little") for v in values), dtype=np.uint8)
    return np.unpackbits(raw.reshape(-1, nbytes), axis=1, count=n, bitorder="little")


def bpsk(bits: np.ndarray) -> np.ndarray:
    """BPSK image of a bit array: 0 -> +1, 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def bits_to_ints(bits: np.ndarray) -> list[int]:
    """Inverse of ints_to_bits: the int of each LSB-first bit row."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    raw, size = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[at:at + size], "little") for at in range(0, len(raw), size)]


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The GF(2) product of 0/1 arrays, stacked as np.matmul stacks them,
    as uint8.  Summed in float32 by the BLAS: exact while the inner
    dimension is below 2^24, and several times faster than a uint8 product,
    which numpy runs without BLAS."""
    product = (np.asarray(a, dtype=np.float32) @ np.asarray(b, dtype=np.float32)).astype(np.int32)
    product &= 1
    return product.astype(np.uint8)
