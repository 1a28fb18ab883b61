"""Monte Carlo recovery-rate estimation of partial weight enumerators.

Given a harvested list L_w of weight-w codewords, repeatedly draw random
weight-w codewords and measure the fraction already in the list.  The mean
recovery rate over q repetitions gives |C_w| ~= |L_w| / R with a confidence
interval from the normal approximation of the repetition means.

For codes too large to enumerate, ImpulseSampler draws the words with the
same error-impulse trials as the harvest, on streams of its own.  It is a
stream of finds: it draws and decodes its trials in blocks of REFILL_BLOCK,
queues every find under its weight and hands each find out once, so the
trials of one weight's draws also serve the others.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Optional

import numpy as np

from .codes import CodeSpec, codewords_of_weight
from .harvest import HarvestConfig, WeightClassList, _trial_block, cyclic_orbit
# impulse_trial is not called here; bench/spans.py traces it at this site.
from .harvest import impulse_trial  # noqa: F401

__all__ = [
    "RecoveryEstimate",
    "PartialWeightEnumerator",
    "ExactUniformSampler",
    "ImpulseSampler",
    "SamplerError",
    "beta_from_mu",
    "recovery_rate_once",
    "estimate_recovery",
    "estimate_pwe",
]


class SamplerError(RuntimeError):
    """A sampler could not produce a weight-w codeword within its budget."""


@dataclass(frozen=True)
class RecoveryEstimate:
    w: int
    list_size: int
    r_bar: float
    sigma: float
    q: int
    mu: float
    beta: float
    r_interval: tuple[float, float]
    count_interval: tuple[int, int]
    count_estimate: int
    complete: bool
    # The q per-repetition rates behind r_bar and sigma, when known.
    rates: tuple[float, ...] = ()


@dataclass(frozen=True)
class PartialWeightEnumerator:
    """Per-weight count estimates, in increasing weight."""

    code_name: str
    entries: tuple[RecoveryEstimate, ...]
    failures: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        ws = [e.w for e in self.entries]
        if ws != sorted(set(ws)):
            raise ValueError("entry weights must be strictly increasing")


def beta_from_mu(mu: float) -> float:
    """Two-sided normal quantile: Q(beta) = (1 - mu) / 2."""
    if not 0.5 < mu < 1.0:
        raise ValueError("confidence level mu must lie in (0.5, 1)")
    return NormalDist().inv_cdf((1.0 + mu) / 2.0)


class ExactUniformSampler:
    """Uniform draws from the fully enumerated weight class (small k only)."""

    def __init__(self, code: CodeSpec):
        self.code = code
        self._classes: dict[int, list[int]] = {}

    def draw(self, w: int, rng: np.random.Generator) -> int:
        if w not in self._classes:
            cls = codewords_of_weight(self.code, w)
            if not cls:
                raise SamplerError(f"no codewords of weight {w}")
            self._classes[w] = cls
        cls = self._classes[w]
        return cls[int(rng.integers(len(cls)))]


# Trials decoded per ImpulseSampler refill.  A larger block decodes each row
# faster but leaves more unused finds when an estimate ends: on a 2-vCPU VM,
# 16 made validation criterion 9 about 25% slower than 64, and 256 made the
# osd3-harvest bench about 15% slower.
REFILL_BLOCK = 64


class ImpulseSampler:
    """Heuristic weight-w draws for large codes: a stream of finds.

    The sampler keeps one first-in first-out queue of finds per weight.
    ``draw(w, rng)`` takes the oldest weight-w find and returns a uniformly
    random member of its automorphism orbit, picked with ``rng``, which
    flattens the within-orbit distribution.  When the weight-w queue is
    empty, the sampler refills: it draws REFILL_BLOCK impulse trials from
    ``rng`` as arrays (see harvest._trial_block), decodes them in one call
    and queues every find under its weight, so the trials of a weight-27
    draw also stock the weight-28 draws.  No find is handed out twice, and
    a decoded word that is not a codeword raises ValueError, as in harvest.

    ``budget`` bounds the trials one draw may run without a weight-w find:
    the last refill is cut to the budget left, and after ``budget`` such
    trials the draw raises SamplerError.

    The random streams passed to ``draw`` MUST be independent of the
    harvest that built the list under test, otherwise the recovery rate is
    biased upward.  Queued finds come from the streams of earlier draws,
    which are equally independent of it.
    """

    def __init__(self, code: CodeSpec, config: HarvestConfig, budget: int = 5000):
        self.code = code
        self.config = config
        self.budget = budget
        self._finds: defaultdict[int, deque[int]] = defaultdict(deque)

    def draw(self, w: int, rng: np.random.Generator) -> int:
        queue = self._finds[w]
        misses = 0
        while not queue:
            if misses >= self.budget:
                raise SamplerError(
                    f"impulse sampler found no weight-{w} codeword in {self.budget} trials")
            block = min(REFILL_BLOCK, self.budget - misses)
            for c3 in _trial_block(self.code, self.config, rng, block):
                if c3:
                    self._finds[c3.bit_count()].append(c3)
            misses += block
        orbit = sorted(cyclic_orbit(self.code, queue.popleft()))
        return orbit[int(rng.integers(len(orbit)))]


def recovery_rate_once(
    L_w: WeightClassList, sampler, M: int, rng: np.random.Generator
) -> float:
    """One recovery-rate measurement: draw until M hits land inside L_w."""
    if len(L_w) < 1:
        raise ValueError("the known list must be nonempty")
    if M < 1:
        raise ValueError("M must be at least 1")
    hits = 0
    draws = 0
    while hits < M:
        draws += 1
        value = sampler.draw(L_w.w, rng)
        if value in L_w:
            hits += 1
    return hits / draws


def estimate_recovery(
    L_w: WeightClassList,
    sampler,
    M: int,
    q: int,
    mu: float,
    rng: np.random.Generator,
) -> RecoveryEstimate:
    """Repeat the rate measurement q times and form confidence intervals."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if sampler.code != L_w.code:
        raise ValueError("sampler is bound to a different code")
    beta = beta_from_mu(mu)
    rates = [recovery_rate_once(L_w, sampler, M, child) for child in rng.spawn(q)]
    r_bar = sum(rates) / q
    sigma = math.sqrt(sum((r_bar - rj) ** 2 for rj in rates) / (q - 1))
    return replace(interval_from_stats(len(L_w), r_bar, sigma, q, mu, beta),
                   w=L_w.w, rates=tuple(rates))


def interval_from_stats(
    list_size: int,
    r_bar: float,
    sigma: float,
    q: int,
    mu: float = 0.99,
    beta: Optional[float] = None,
) -> RecoveryEstimate:
    """Interval arithmetic alone, for externally supplied statistics.

    An explicit beta overrides the one implied by mu (tabulated rounded
    values are commonly used as inputs)."""
    if beta is None:
        beta = beta_from_mu(mu)
    half = sigma * beta / math.sqrt(q)
    r_left = min(max(r_bar - half, 1e-12), 1.0)
    r_right = min(max(r_bar + half, 1e-12), 1.0)
    return RecoveryEstimate(
        w=0,
        list_size=list_size,
        r_bar=r_bar,
        sigma=sigma,
        q=q,
        mu=mu,
        beta=beta,
        r_interval=(r_left, r_right),
        count_interval=(math.floor(list_size / r_right), math.ceil(list_size / r_left)),
        count_estimate=round(list_size / r_bar),
        complete=sigma == 0.0 and r_bar == 1.0,
    )


def estimate_pwe(
    code: CodeSpec,
    lists: dict[int, WeightClassList],
    sampler,
    M: int,
    q: int,
    mu: float,
    rng: np.random.Generator,
) -> PartialWeightEnumerator:
    """One RecoveryEstimate per harvested weight, in increasing weight order.

    Weights whose estimation fails (sampler budget exhausted) are reported in
    ``failures`` and omitted from the entries.
    """
    if not lists:
        raise ValueError("no weight-class lists supplied")
    entries = []
    failures = []
    for w in sorted(lists):
        lst = lists[w]
        if len(lst) == 0:
            continue
        try:
            entries.append(estimate_recovery(lst, sampler, M, q, mu, rng))
        except SamplerError as exc:
            failures.append((w, str(exc)))
    return PartialWeightEnumerator(code.name, tuple(entries), tuple(failures))
