"""Error-impulse collection of low-weight codewords.

A trial transmits a random codeword, perturbs its BPSK image, decodes, and
keeps the XOR of the transmitted and decoded words when they differ — a
codeword of (usually) small weight.  Both decoders are codeword-symmetric
up to exact ties, so with noise the word sent changes only the random
stream; on a clean channel a random word spreads MLD's tie-breaks.  Trials
are drawn and decoded in blocks; finds are multiplied through the code's
cyclic automorphisms and deduplicated into per-weight lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .bitops import bits_to_ints, bpsk, gf2_matmul
from .codes import CodeSpec, codeword_rows, contains
# encode is not called here; bench/spans.py traces it at this site.
from .codes import encode  # noqa: F401
from .decoders import DecoderKind, decode_batch
from .sim import noise_sigma

__all__ = [
    "HarvestConfig",
    "WeightClassList",
    "impulse_trial",
    "harvest",
]

# gaussian_noise: AWGN only.  single_impulse_sweep: clean channel, one
# coordinate pushed toward the opposite sign with growing amplitude until the
# decision flips.  noisy_impulse: AWGN plus one fixed-amplitude impulse —
# one decode per trial, which makes it the cheapest source of decoder errors
# concentrated on the low weight classes.
IMPULSE_MODES = ("gaussian_noise", "single_impulse_sweep", "noisy_impulse")
# Trials decoded per decode_batch call, as many as the simulator draws at a
# time.
_BLOCK = 512


@dataclass(frozen=True)
class HarvestConfig:
    decoder: DecoderKind
    trials: int
    seed: int
    snr_grid_db: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0)
    # Explicit [w_min, w_max]; None tracks the smallest weight seen so far
    # (or d_known) with a margin of +5.
    weight_window: Optional[tuple[int, int]] = None
    impulse_mode: str = "gaussian_noise"
    # Impulse size for noisy_impulse; None picks d_known - 1 (or n/4).
    impulse_amplitude: Optional[float] = None

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be non-negative")
        if self.impulse_mode not in IMPULSE_MODES:
            raise ValueError(f"unknown impulse mode {self.impulse_mode!r}")
        if self.weight_window is not None:
            lo, hi = self.weight_window
            if lo < 1 or hi < lo:
                raise ValueError("weight window must satisfy 1 <= w_min <= w_max")
        if len(self.snr_grid_db) == 0 or not all(map(math.isfinite, self.snr_grid_db)):
            raise ValueError("snr_grid_db must hold at least one value, all finite")
        amp = self.impulse_amplitude
        if amp is not None and not (math.isfinite(amp) and amp > 0):
            raise ValueError("impulse_amplitude must be finite and positive")


@dataclass
class WeightClassList:
    """Deduplicated codewords of one fixed weight.

    Members given to the constructor are trusted: they must already be
    weight-w codewords, as harvest(), merge_lists() and
    fileio.read_weight_class() guarantee.  Words from user code go
    through ``add``, which checks.
    """

    code: CodeSpec
    w: int
    _members: set[int] = field(default_factory=set)

    def add(self, word: int) -> bool:
        """Check and insert a word, an int below 2^n; returns True if it
        was new."""
        if word in self._members:
            return False
        if word.bit_count() != self.w:
            raise ValueError(f"word of weight {word.bit_count()} offered to L_{self.w}")
        if not contains(self.code, word):
            raise ValueError("non-codeword offered to a weight-class list")
        self._members.add(word)
        return True

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, word: int) -> bool:
        return word in self._members

    def values(self) -> set[int]:
        return set(self._members)


def _trial_block(code: CodeSpec, config: HarvestConfig, rng: np.random.Generator,
                 size: int, keep: Optional[int] = None) -> list[int]:
    """The finds of a block of ``size`` trials drawn from ``rng`` as whole
    arrays: for each of the first ``keep`` (default: all), the XOR of the
    sent and the decoded word as an int, 0 where they agree.

    The arrays are drawn in this order: the information bits (size x k),
    then for single_impulse_sweep the impulse positions, and for the other
    modes the indices into snr_grid_db, the standard normal noise (size x n)
    and, for noisy_impulse, the impulse positions.  All ``size`` trials are
    drawn whatever ``keep`` is, so the first trials of a block do not depend
    on how many are kept.  Raises ValueError if a decoded word is not a
    codeword: the one membership check of a find, since automorphisms map
    codewords to codewords of the same weight.
    """
    info = rng.integers(0, 2, size=(size, code.k), dtype=np.uint8)
    sent = gf2_matmul(info, code.systematic.generator_bits)
    tx = bpsk(sent)
    if config.impulse_mode == "single_impulse_sweep":
        pos = rng.integers(code.n, size=size)
        decoded = _sweep(code, config, sent[:keep], tx[:keep], pos[:keep])
    else:
        sigma = np.array([noise_sigma(db, code.rate) for db in config.snr_grid_db])
        snr = rng.integers(len(sigma), size=size)
        received = tx + sigma[snr, np.newaxis] * rng.standard_normal((size, code.n))
        if config.impulse_mode == "noisy_impulse":
            amplitude = config.impulse_amplitude or (
                code.n / 4.0 if code.d_known is None else float(code.d_known - 1))
            rows, pos = np.arange(size), rng.integers(code.n, size=size)
            received[rows, pos] -= amplitude * tx[rows, pos]
        decoded = decode_batch(config.decoder, code, received[:keep])
    if not codeword_rows(code, decoded).all():
        raise ValueError(f"decoder {config.decoder} returned a non-codeword")
    return bits_to_ints(sent[:keep] ^ decoded)


def _sweep(code: CodeSpec, config: HarvestConfig, sent: np.ndarray, tx: np.ndarray,
           pos: np.ndarray) -> np.ndarray:
    """Decoded words of single_impulse_sweep trials: each row's coordinate
    pos is pushed toward the opposite sign, by 1, 1.5, 2, ... up to d + 2
    (n + 2 if d is unknown), until the decision leaves the sent word.  The
    rows run in lockstep, each step decoding the rows still undecided in
    one call; a row that never leaves decodes to its sent word."""
    decoded = sent.copy()
    live = np.arange(len(sent))
    cap = float((code.d_known or code.n) + 2)
    amp = 1.0
    while amp <= cap and len(live):
        r = tx[live]
        at = (np.arange(len(live)), pos[live])
        r[at] = r[at] - amp * r[at]
        out = decode_batch(config.decoder, code, r)
        moved = np.any(out != sent[live], axis=1)
        decoded[live[moved]] = out[moved]
        live = live[~moved]
        amp += 0.5
    return decoded


def impulse_trial(
    code: CodeSpec, config: HarvestConfig, rng: np.random.Generator
) -> Optional[int]:
    """One perturb-and-decode trial, a block of one (see _trial_block);
    returns the difference codeword or None."""
    return _trial_block(code, config, rng, 1)[0] or None


def cyclic_orbit(code: CodeSpec, word: int) -> set[int]:
    """Automorphism orbit of a word, given as an int, under the available
    cyclic structure.

    A cyclic code rotates its words in length n.  A shortened code rotates
    them in its parent's length and keeps the rotations below 2^n: its
    words are the parent's words that vanish on the removed top coordinates.
    Any other code: the word alone.
    """
    if not code.is_cyclic and code.parent is None:
        return {word}
    length = code.n if code.parent is None else code.parent.n
    mask = (1 << length) - 1
    limit = 1 << code.n
    # Bits s .. s + length - 1 of the doubled word are its rotation by -s.
    doubled = word | (word << length)
    return {rot for s in range(length) if (rot := (doubled >> s) & mask) < limit}


def harvest(code: CodeSpec, config: HarvestConfig) -> dict[int, WeightClassList]:
    """Run impulse trials and collect per-weight lists of found codewords.

    Trials run in blocks of _BLOCK: block b is drawn in full from
    default_rng([seed, b]) (see _trial_block) and the last block keeps the
    prefix the trial budget asks for.  A harvest of T trials is therefore
    reproducible and a prefix of any longer harvest with the same seed:
    at each weight both keep, its list is a subset of the longer one's.
    Finds are taken in trial order.
    """
    raw: dict[int, set[int]] = {}
    d_est = code.d_known
    # The window of the last find; d_est changes only at finds, so after
    # the loop it is the final window whenever raw holds anything.
    lo, hi = 1, 0
    for start in range(0, config.trials, _BLOCK):
        rng = np.random.default_rng([config.seed, start // _BLOCK])
        for c3 in _trial_block(code, config, rng, _BLOCK, min(_BLOCK, config.trials - start)):
            if not c3:
                continue
            w = c3.bit_count()
            if d_est is None or w < d_est:
                d_est = w
            lo, hi = config.weight_window or (d_est, d_est + 5)
            if not lo <= w <= hi:
                continue
            raw.setdefault(w, set()).update(cyclic_orbit(code, c3))
    return {w: WeightClassList(code, w, raw[w]) for w in sorted(raw) if lo <= w <= hi}


def merge_lists(
    target: dict[int, WeightClassList],
    extra: Iterable[WeightClassList],
) -> dict[int, WeightClassList]:
    """Union weight-class lists of one code into ``target`` (used by
    resumable harvests)."""
    for lst in extra:
        dst = target.setdefault(lst.w, WeightClassList(lst.code, lst.w))
        if dst.code != lst.code:
            raise ValueError(f"cannot merge a list of {lst.code.name} into one of {dst.code.name}")
        dst._members |= lst._members
    return target
