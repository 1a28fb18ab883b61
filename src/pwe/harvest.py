"""Error-impulse collection of low-weight codewords.

A trial transmits a codeword, perturbs its BPSK image, decodes, and keeps
the XOR of the transmitted and decoded words when they differ — a codeword
of (usually) small weight.  Finds are multiplied through the code's cyclic
automorphisms and deduplicated into per-weight lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .bitops import bpsk, int_to_bits
from .codes import CodeSpec, contains, encode
from .decoders import DecoderKind, decode, decode_batch
from .gf2 import BitWord
from .sim import noise_sigma

__all__ = [
    "HarvestConfig",
    "WeightClassList",
    "impulse_trial",
    "expand_by_automorphisms",
    "harvest",
]

TRANSMIT_MODES = ("all_zero", "random_codeword")
# gaussian_noise: AWGN only.  single_impulse_sweep: clean channel, one
# coordinate pushed toward the opposite sign with growing amplitude until the
# decision flips.  noisy_impulse: AWGN plus one fixed-amplitude impulse —
# one decode per trial, which makes it the cheapest source of decoder errors
# concentrated on the low weight classes.
IMPULSE_MODES = ("gaussian_noise", "single_impulse_sweep", "noisy_impulse")
# Trials decoded per decode_batch call, as many as a simulation batch.
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
    transmit_mode: str = "random_codeword"
    impulse_mode: str = "gaussian_noise"
    # Impulse size for noisy_impulse; None picks d_known - 1 (or n/4).
    impulse_amplitude: Optional[float] = None

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be non-negative")
        if self.transmit_mode not in TRANSMIT_MODES:
            raise ValueError(f"unknown transmit mode {self.transmit_mode!r}")
        if self.impulse_mode not in IMPULSE_MODES:
            raise ValueError(f"unknown impulse mode {self.impulse_mode!r}")
        if self.weight_window is not None:
            lo, hi = self.weight_window
            if lo < 1 or hi < lo:
                raise ValueError("weight window must satisfy 1 <= w_min <= w_max")


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

    def add(self, word: BitWord) -> bool:
        """Check and insert a word; returns True if it was new."""
        if word.value in self._members:
            return False
        if word.weight() != self.w:
            raise ValueError(f"word of weight {word.weight()} offered to L_{self.w}")
        if not contains(self.code, word):
            raise ValueError("non-codeword offered to a weight-class list")
        self._members.add(word.value)
        return True

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, word) -> bool:
        value = word.value if isinstance(word, BitWord) else int(word)
        return value in self._members

    def values(self) -> set[int]:
        return set(self._members)

    def words(self) -> list[BitWord]:
        return [BitWord(self.code.n, v) for v in sorted(self._members)]


def _draw_transmit(code: CodeSpec, mode: str, rng: np.random.Generator) -> BitWord:
    if mode == "all_zero":
        return BitWord(code.n, 0)
    bits = rng.integers(0, 2, size=code.k, dtype=np.uint8)
    info = BitWord(code.k, int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))
    return encode(code, info)


def _impulse_amplitude(code: CodeSpec, config: HarvestConfig) -> float:
    if config.impulse_amplitude is not None:
        return config.impulse_amplitude
    if code.d_known is not None:
        return float(code.d_known - 1)
    return code.n / 4.0


def _perturb(code: CodeSpec, config: HarvestConfig,
             rng: np.random.Generator) -> tuple[BitWord, np.ndarray]:
    """The sent codeword and the received vector of a gaussian_noise or
    noisy_impulse trial."""
    c1 = _draw_transmit(code, config.transmit_mode, rng)
    tx = bpsk(int_to_bits(c1.value, code.n))
    snr = float(rng.choice(np.asarray(config.snr_grid_db, dtype=np.float64)))
    r = tx + noise_sigma(snr, code.rate) * rng.normal(size=code.n)
    if config.impulse_mode == "noisy_impulse":
        pos = int(rng.integers(code.n))
        r[pos] -= _impulse_amplitude(code, config) * np.sign(tx[pos])
    return c1, r


def impulse_trial(
    code: CodeSpec, config: HarvestConfig, rng: np.random.Generator
) -> Optional[BitWord]:
    """One perturb-and-decode trial; returns the difference codeword or None."""
    if config.impulse_mode != "single_impulse_sweep":
        c1, r = _perturb(code, config, rng)
        c2 = decode(config.decoder, code, r)
    else:
        c1 = _draw_transmit(code, config.transmit_mode, rng)
        tx = bpsk(int_to_bits(c1.value, code.n))
        pos = int(rng.integers(code.n))
        cap = float((code.d_known or code.n) + 2)
        c2 = c1
        amp = 1.0
        while amp <= cap:
            r = tx.copy()
            r[pos] = tx[pos] - amp * np.sign(tx[pos])
            c2 = decode(config.decoder, code, r)
            if c2 != c1:
                break
            amp += 0.5

    if c2 == c1:
        return None
    return c1 ^ c2


def _trial_block(code: CodeSpec, config: HarvestConfig,
                 rngs: Iterable[np.random.Generator]) -> list[Optional[BitWord]]:
    """impulse_trial on each stream in turn; a stream listed twice runs two
    trials from it, one after the other.  A sweep's decodes each depend on
    the one before, so it runs trial by trial; the other modes draw every
    trial first and decode the whole block in one call, which consumes the
    streams exactly as the trials one at a time would."""
    if config.impulse_mode == "single_impulse_sweep":
        return [impulse_trial(code, config, rng) for rng in rngs]
    sent, received = zip(*(_perturb(code, config, rng) for rng in rngs))
    decoded = np.packbits(decode_batch(config.decoder, code, np.array(received)),
                          axis=1, bitorder="little")
    finds = []
    for c1, row in zip(sent, decoded):
        diff = c1.value ^ int.from_bytes(row.tobytes(), "little")
        finds.append(BitWord(code.n, diff) if diff else None)
    return finds


def cyclic_orbit(code: CodeSpec, word: BitWord) -> set[int]:
    """Automorphism orbit of a word under the available cyclic structure.

    A cyclic code rotates its words in length n.  A shortened code rotates
    them in its parent's length and keeps the rotations below 2^n: its
    words are the parent's words that vanish on the removed top coordinates.
    Any other code: the word alone.
    """
    if not code.is_cyclic and code.parent is None:
        return {word.value}
    length = code.n if code.parent is None else code.parent.n
    mask = (1 << length) - 1
    limit = 1 << code.n
    # Bits s .. s + length - 1 of the doubled word are its rotation by -s.
    doubled = word.value | (word.value << length)
    return {rot for s in range(length) if (rot := (doubled >> s) & mask) < limit}


def expand_by_automorphisms(code: CodeSpec, word: BitWord) -> set[BitWord]:
    """All automorphism images of a code member (see cyclic_orbit)."""
    if not contains(code, word):
        raise ValueError("cannot expand a word that is not a code member")
    return {BitWord(code.n, v) for v in cyclic_orbit(code, word)}


def harvest(code: CodeSpec, config: HarvestConfig) -> dict[int, WeightClassList]:
    """Run impulse trials and collect per-weight lists of found codewords.

    Per-trial random streams are derived from (seed, trial index), so the
    result is reproducible and grows monotonically with the trial budget.
    Trials are decoded in blocks of up to _BLOCK and their finds taken in
    trial order.
    """
    raw: dict[int, set[int]] = {}
    d_est = code.d_known
    blocks = ([np.random.default_rng([config.seed, trial])
               for trial in range(start, min(start + _BLOCK, config.trials))]
              for start in range(0, config.trials, _BLOCK))
    for c3 in (c3 for rngs in blocks for c3 in _trial_block(code, config, rngs)):
        if c3 is None:
            continue
        w = c3.weight()
        if d_est is None or w < d_est:
            d_est = w
        if config.weight_window is not None:
            lo, hi = config.weight_window
        else:
            lo, hi = d_est, d_est + 5
        if not lo <= w <= hi:
            continue
        # The one membership check of a find: automorphisms map codewords
        # to codewords of the same weight, so its orbit needs none.
        if not contains(code, c3):
            raise ValueError(f"decoder {config.decoder} returned a non-codeword")
        raw.setdefault(w, set()).update(cyclic_orbit(code, c3))

    if config.weight_window is not None:
        lo, hi = config.weight_window
    else:
        lo, hi = (d_est, d_est + 5) if d_est is not None else (1, 0)
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
