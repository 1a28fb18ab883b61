"""Monte Carlo BER simulation of a decoder over BPSK/AWGN.

A point runs blocks (random information word, systematic encoding, BPSK,
AWGN, decode) until both stopping thresholds are met: a minimum number of
residual information-bit errors and a minimum number of transmitted blocks.
A safety cap bounds runtime at high SNR; capped points are flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitops import bpsk, gf2_matmul
from .codes import CodeSpec
# osd_decode is not called here; bench/spans.py traces it at this site.
from .decoders import DecoderKind, decode_batch, osd_decode  # noqa: F401

__all__ = ["SimConfig", "SimPoint", "noise_sigma", "simulate_point", "simulate_curve"]

_BATCH = 512


@dataclass(frozen=True)
class SimConfig:
    min_bit_errors: int = 200
    min_blocks: int = 5000
    max_blocks: int = 10_000_000
    seed: int = 0

    def __post_init__(self):
        if self.min_bit_errors <= 0 or self.min_blocks <= 0:
            raise ValueError("stopping thresholds must be positive")
        if self.max_blocks < self.min_blocks:
            raise ValueError("max_blocks must be at least min_blocks")


@dataclass(frozen=True)
class SimPoint:
    ebn0_db: float
    blocks: int
    bit_errors: int
    k: int
    low_confidence: bool = False

    @property
    def ber(self) -> float:
        return self.bit_errors / (self.blocks * self.k)


def noise_sigma(ebn0_db: float, rate: float) -> float:
    """Per-dimension AWGN standard deviation for unit-energy BPSK symbols."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("code rate must lie in (0, 1]")
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    return math.sqrt(1.0 / (2.0 * rate * ebn0))


def simulate_point(
    code: CodeSpec,
    decoder: DecoderKind,
    ebn0_db: float,
    config: SimConfig,
    rng: np.random.Generator,
) -> SimPoint:
    """Simulate one Eb/N0 point; bit errors are counted on the information
    positions of the systematic encoding."""
    sigma = noise_sigma(ebn0_db, code.rate)
    G = code.systematic.generator_bits
    info_cols = np.array(code.systematic.info_positions, dtype=np.intp)
    k, n = code.k, code.n

    blocks = 0
    bit_errors = 0
    while True:
        if blocks >= config.max_blocks:
            return SimPoint(ebn0_db, blocks, bit_errors, k, low_confidence=True)
        if blocks >= config.min_blocks and bit_errors >= config.min_bit_errors:
            return SimPoint(ebn0_db, blocks, bit_errors, k)

        batch = min(_BATCH, config.max_blocks - blocks)
        info = rng.integers(0, 2, size=(batch, k), dtype=np.uint8)
        tx = gf2_matmul(info, G)
        recv = bpsk(tx) + sigma * rng.standard_normal((batch, n))
        decoded = decode_batch(decoder, code, recv)
        diffs = (decoded[:, info_cols] ^ tx[:, info_cols]).sum()
        bit_errors += int(diffs)
        blocks += batch


def simulate_curve(
    code: CodeSpec,
    decoder: DecoderKind,
    snr_grid_db,
    config: SimConfig,
) -> list[SimPoint]:
    """One SimPoint per grid value; per-point streams derive from the seed."""
    points = []
    for i, db in enumerate(snr_grid_db):
        rng = np.random.default_rng([config.seed, i])
        points.append(simulate_point(code, decoder, float(db), config, rng))
    return points
