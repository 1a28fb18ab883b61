"""Monte Carlo recovery-rate estimation."""

import dataclasses
import math

import numpy as np
import pytest

from pwe import estimator, harvest
from pwe.bounds import q_function
from pwe.codes import codewords_of_weight, get_code
from pwe.decoders import DecoderKind
from pwe.estimator import (
    ExactUniformSampler,
    ImpulseSampler,
    SamplerError,
    beta_from_mu,
    estimate_pwe,
    estimate_recovery,
    interval_from_stats,
    recovery_rate_once,
)
from pwe.harvest import HarvestConfig, WeightClassList, cyclic_orbit, impulse_trial


def full_list(code, w):
    lst = WeightClassList(code, w)
    for v in codewords_of_weight(code, w):
        lst.add(v)
    return lst


def partial_list(code, w, size, seed):
    values = codewords_of_weight(code, w)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(values), size=size, replace=False)
    lst = WeightClassList(code, w)
    for i in chosen:
        lst.add(values[int(i)])
    return lst


# The two-sided normal quantile Q^-1((1 - mu) / 2), to 40 digits (mpmath).
BETA_REFERENCE = {
    0.9: 1.644853626951472714863848907991632136083,
    0.99: 2.575829303548900760978576748603814117306,
    0.9999: 3.890591886413093967035707758109126842091,
}


def test_beta_inverts_q_function():
    for mu in (0.9, 0.98, 0.99, 0.9999):
        beta = beta_from_mu(mu)
        assert q_function(beta) == pytest.approx((1 - mu) / 2, abs=1e-6)
    for mu, beta in BETA_REFERENCE.items():
        assert beta_from_mu(mu) == pytest.approx(beta, rel=1e-12)
    with pytest.raises(ValueError):
        beta_from_mu(0.4)
    with pytest.raises(ValueError):
        beta_from_mu(1.0)


def test_exact_sampler_covers_the_class():
    code = get_code("hamming-7-4")
    sampler = ExactUniformSampler(code)
    rng = np.random.default_rng(61)
    seen = {sampler.draw(3, rng) for _ in range(300)}
    assert seen == set(codewords_of_weight(code, 3))
    with pytest.raises(SamplerError):
        sampler.draw(5, rng)  # Hamming(7,4) has no weight-5 words


def test_recovery_rate_bounds_and_quantization():
    code = get_code("hamming-7-4")
    sampler = ExactUniformSampler(code)
    lst = partial_list(code, 3, 3, seed=62)
    for M in (1, 5, 10):
        r = recovery_rate_once(lst, sampler, M, np.random.default_rng([62, M]))
        assert 0 < r <= 1
        assert (M / r) == round(M / r)  # rate is M over an integer draw count
    with pytest.raises(ValueError):
        recovery_rate_once(lst, sampler, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        recovery_rate_once(WeightClassList(code, 3), sampler, 1,
                           np.random.default_rng(0))


def test_complete_list_yields_complete_estimate():
    code = get_code("hamming-7-4")
    est = estimate_recovery(full_list(code, 3), ExactUniformSampler(code),
                            M=10, q=20, mu=0.99, rng=np.random.default_rng(63))
    assert est.complete
    assert est.r_bar == 1.0 and est.sigma == 0.0
    assert est.count_estimate == 7
    assert est.count_interval == (7, 7)


def test_estimate_invariants():
    code = get_code("golay-24-12")
    est = estimate_recovery(partial_list(code, 8, 400, seed=64),
                            ExactUniformSampler(code),
                            M=10, q=50, mu=0.99, rng=np.random.default_rng(64))
    assert 0 < est.r_interval[0] <= est.r_bar <= est.r_interval[1] <= 1
    assert est.count_interval[0] <= est.count_estimate <= est.count_interval[1]
    assert not est.complete
    # The stored per-repetition rates recompute the estimate offline.
    assert len(est.rates) == est.q
    r_bar = sum(est.rates) / est.q
    sigma = math.sqrt(sum((r_bar - r) ** 2 for r in est.rates) / (est.q - 1))
    offline = interval_from_stats(est.list_size, r_bar, sigma, est.q, est.mu)
    assert dataclasses.replace(offline, w=est.w, rates=est.rates) == est
    with pytest.raises(ValueError):
        estimate_recovery(full_list(code, 8), ExactUniformSampler(code),
                          M=10, q=1, mu=0.99, rng=np.random.default_rng(0))


def test_scale_property():
    # Doubling the known list roughly doubles the mean recovery rate.
    code = get_code("golay-24-12")
    sampler = ExactUniformSampler(code)

    def mean_rate(size):
        rates = []
        for rep in range(30):
            lst = partial_list(code, 8, size, seed=[65, size, rep])
            rates.append(recovery_rate_once(lst, sampler, 10,
                                            np.random.default_rng([66, size, rep])))
        return sum(rates) / len(rates)

    r1, r2 = mean_rate(40), mean_rate(80)
    assert r2 / r1 == pytest.approx(2.0, rel=0.2)


def test_interval_golden_values():
    # Fixed statistics with the tabulated rounded quantile beta = 2.57.
    e27 = interval_from_stats(10000, 0.26045736, 0.086847, 100, beta=2.57)
    assert abs(e27.count_interval[0] - 35364) <= 1
    assert abs(e27.count_interval[1] - 41993) <= 1
    assert e27.count_estimate == 38394
    e28 = interval_from_stats(10000, 0.06536888, 0.023571, 100, beta=2.57)
    assert abs(e28.count_estimate - 152978) <= 1
    e18 = interval_from_stats(232, 0.748731, 0.169188, 101, beta=3.89)
    assert abs(e18.count_estimate - 309) <= 1
    assert abs(e18.count_interval[0] - 284) <= 1
    assert abs(e18.count_interval[1] - 339) <= 1


def test_estimate_pwe_orders_entries_and_reports_failures():
    code = get_code("hamming-7-4")
    lists = {4: full_list(code, 4), 3: partial_list(code, 3, 3, seed=67)}
    pwe = estimate_pwe(code, lists, ExactUniformSampler(code), M=5, q=10,
                       mu=0.99, rng=np.random.default_rng(67))
    assert [e.w for e in pwe.entries] == [3, 4]
    assert pwe.failures == ()
    assert pwe.entries[1].count_estimate == 7
    with pytest.raises(ValueError):
        estimate_pwe(code, {}, ExactUniformSampler(code), M=5, q=10, mu=0.99,
                     rng=np.random.default_rng(0))


def test_impulse_sampler_draws_requested_weight():
    code = get_code("golay-24-12")
    cfg = HarvestConfig(decoder=DecoderKind("mld"), trials=0, seed=0)
    sampler = ImpulseSampler(code, cfg, budget=2000)
    rng = np.random.default_rng(68)
    for _ in range(5):
        assert sampler.draw(8, rng).bit_count() == 8


def mld_config(snr_grid_db=(0.0, 1.0, 2.0, 3.0)):
    return HarvestConfig(decoder=DecoderKind("mld"), trials=0, seed=0, snr_grid_db=snr_grid_db)


# At -4 dB about 8% of Golay trials find a weight-12 word and 72% a weight-8 one.
NOISY = (-4.0,)


def count_decoded_rows(monkeypatch) -> list[int]:
    """Rows of every decode_batch call the sampler's trials make."""
    rows = []
    decode_batch = harvest.decode_batch

    def counting(kind, code, received):
        rows.append(len(received))
        return decode_batch(kind, code, received)

    monkeypatch.setattr(harvest, "decode_batch", counting)
    return rows


def test_impulse_sampler_uses_each_queued_find_once(monkeypatch):
    code = get_code("golay-24-12")
    rows = count_decoded_rows(monkeypatch)
    trials = []  # the sampler's trials in the order they ran: a find or 0
    trial_block = estimator._trial_block

    def recording(code, config, rng, size, keep=None):
        finds = trial_block(code, config, rng, size, keep)
        trials.extend(finds)
        return finds

    monkeypatch.setattr(estimator, "_trial_block", recording)
    handed_out = []  # the find behind each draw
    orbit = estimator.cyclic_orbit
    monkeypatch.setattr(estimator, "cyclic_orbit",
                        lambda code, word: handed_out.append(word) or orbit(code, word))

    sampler = ImpulseSampler(code, mld_config(NOISY), budget=2000)
    rng = np.random.default_rng(69)
    for _ in range(20):
        assert sampler.draw(8, rng).bit_count() == 8
    stocked = [c for c in trials if c and c.bit_count() == 12]
    assert stocked, "the weight-8 refills found no weight-12 word"
    decoded = sum(rows)
    for _ in stocked:
        assert sampler.draw(12, rng).bit_count() == 12
    assert sum(rows) == decoded  # no trial ran: the queue served them all
    assert all(a is b for a, b in zip(handed_out[20:], stocked, strict=True))
    for _ in range(5):
        sampler.draw(12, rng)
    assert sum(rows) > decoded and sum(rows) == len(trials)

    trial_of = {id(c): t for t, c in enumerate(trials) if c}
    used = [(trial_of[id(c)], c) for c in handed_out]
    assert len(set(used)) == len(used)
    assert [t for t, _ in used[:20]] == sorted(t for t, _ in used[:20])


@pytest.mark.parametrize("budget", [3, 100])
def test_impulse_sampler_runs_exactly_its_budget(monkeypatch, budget):
    code = get_code("golay-24-12")
    rows = count_decoded_rows(monkeypatch)
    sampler = ImpulseSampler(code, mld_config(), budget=budget)
    with pytest.raises(SamplerError, match=f"in {budget} trials"):
        sampler.draw(23, np.random.default_rng(70))  # Golay has no weight-23 words
    assert sum(rows) == budget
    assert max(rows) <= estimator.REFILL_BLOCK


def test_impulse_sampler_rejects_a_non_codeword_find(monkeypatch):
    def weight_one(kind, code, received):
        return np.eye(len(received), code.n, dtype=np.uint8)

    monkeypatch.setattr(harvest, "decode_batch", weight_one)
    sampler = ImpulseSampler(get_code("qr-23-12"), mld_config(), budget=100)
    with pytest.raises(ValueError, match="non-codeword"):
        sampler.draw(1, np.random.default_rng(71))


def test_impulse_sampler_is_reproducible():
    code = get_code("golay-24-12")
    weights = (8, 12, 8, 8, 12, 12, 8)

    def draws():
        sampler = ImpulseSampler(code, mld_config(NOISY), budget=5000)
        rng = np.random.default_rng(71)
        return [sampler.draw(w, rng) for w in weights]

    assert draws() == draws()


def sequential_draw(code, config, w, rng, budget=5000):
    """The sampler before it queued finds, as the reference: one trial at a
    time until one yields weight w, every other find discarded."""
    for _ in range(budget):
        c3 = impulse_trial(code, config, rng)
        if c3 is None or c3.bit_count() != w:
            continue
        orbit = sorted(cyclic_orbit(code, c3))
        return orbit[int(rng.integers(len(orbit)))]
    raise SamplerError(f"no weight-{w} codeword in {budget} trials")


def test_impulse_sampler_draws_like_the_sequential_sampler():
    # Two-sample chi-square test on the orbits of weight-7 draws.
    code = get_code("qr-23-12")
    config, draws = mld_config(), 1500

    def orbit_id(value):
        return min(cyclic_orbit(code, value))

    rng = np.random.default_rng(72)
    reference = [orbit_id(sequential_draw(code, config, 7, rng)) for _ in range(draws)]
    sampler, rng = ImpulseSampler(code, config), np.random.default_rng(73)
    streamed = [orbit_id(sampler.draw(7, rng)) for _ in range(draws)]
    orbits = sorted(set(reference) | set(streamed))
    table = [[sample.count(o) for o in orbits] for sample in (reference, streamed)]
    assert len(orbits) == 11  # 253 weight-7 words in orbits of 23
    # Pearson's statistic of the 2 x 11 table against the 99% point of
    # chi-square with 10 degrees of freedom: the same gate as p > 0.01.
    table = np.array(table, dtype=float)
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    assert ((table - expected) ** 2 / expected).sum() < 23.209251158954356


def test_sampler_code_binding():
    code = get_code("hamming-7-4")
    other = get_code("golay-24-12")
    sampler = ExactUniformSampler(code)
    with pytest.raises(ValueError, match="different code"):
        estimate_recovery(full_list(other, 8), sampler, M=5, q=10, mu=0.99,
                          rng=np.random.default_rng(0))
