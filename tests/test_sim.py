"""BER simulation harness."""

import numpy as np
import pytest

from pwe.bitops import bpsk, gf2_matmul
from pwe.bounds import RateContext, union_bound_bit
from pwe.codes import exact_weight_distribution, get_code
from pwe.decoders import DecoderKind, decode_batch, parse_decoder
from pwe.sim import SimConfig, SimPoint, noise_sigma, simulate_curve, simulate_point


def test_noise_sigma_values():
    assert noise_sigma(0.0, 0.5) == pytest.approx(1.0)
    assert noise_sigma(3.0103, 1.0) == pytest.approx(0.5, abs=1e-4)
    with pytest.raises(ValueError):
        noise_sigma(1.0, 0.0)


def test_noise_generator_sanity():
    # Sample standard deviation within 1% of the target over 1e6 draws.
    sigma = noise_sigma(2.0, 0.5)
    rng = np.random.default_rng(41)
    sample = sigma * rng.normal(size=1_000_000)
    assert abs(sample.std() - sigma) / sigma < 0.01


def test_stopping_rule_is_honored():
    code = get_code("hamming-7-4")
    config = SimConfig(min_bit_errors=200, min_blocks=5000, seed=42)
    pt = simulate_point(code, DecoderKind("mld"), 1.0, config,
                        np.random.default_rng(42))
    assert pt.blocks >= 5000
    assert pt.bit_errors >= 200
    assert not pt.low_confidence


def test_cap_flags_low_confidence():
    code = get_code("hamming-7-4")
    config = SimConfig(min_bit_errors=10_000, min_blocks=1000, max_blocks=1000)
    pt = simulate_point(code, DecoderKind("mld"), 8.0, config,
                        np.random.default_rng(43))
    assert pt.low_confidence
    assert pt.blocks == 1000


def test_simulation_is_reproducible():
    code = get_code("hamming-7-4")
    config = SimConfig(min_bit_errors=50, min_blocks=1000, seed=44)
    a = simulate_curve(code, DecoderKind("mld"), [2.0, 4.0], config)
    b = simulate_curve(code, DecoderKind("mld"), [2.0, 4.0], config)
    assert a == b


def test_ber_decreases_with_snr():
    code = get_code("hamming-7-4")
    config = SimConfig(min_bit_errors=100, min_blocks=2000, seed=45)
    points = simulate_curve(code, DecoderKind("mld"), [0.0, 2.0, 4.0], config)
    bers = [p.ber for p in points]
    assert bers[0] > bers[1] > bers[2] > 0


def test_simulated_ber_respects_union_bound():
    # The simulated MLD BER must not beat the bound by more than three
    # binomial standard errors at moderate SNR.
    code = get_code("hamming-7-4")
    ctx = RateContext(code.n, code.k)
    weights = {w: a for w, a in exact_weight_distribution(code).counts if w}
    config = SimConfig(min_bit_errors=200, min_blocks=5000, seed=46)
    for pt in simulate_curve(code, DecoderKind("mld"), [2.0, 3.0, 4.0], config):
        bound = union_bound_bit(weights, ctx, pt.ebn0_db)
        stderr = (pt.ber * (1 - pt.ber) / (pt.blocks * code.k)) ** 0.5
        assert pt.ber <= bound + 3 * stderr


def test_osd_and_mld_simulations_agree():
    code = get_code("hamming-7-4")
    config = SimConfig(min_bit_errors=100, min_blocks=2000, seed=47)
    mld = simulate_point(code, DecoderKind("mld"), 2.0, config,
                         np.random.default_rng(47))
    osd = simulate_point(code, DecoderKind("osd", code.k), 2.0, config,
                         np.random.default_rng(47))
    assert mld == osd


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(min_bit_errors=0)
    with pytest.raises(ValueError):
        SimConfig(min_blocks=100, max_blocks=50)


def test_ber_property():
    pt = SimPoint(3.0, blocks=1000, bit_errors=24, k=12)
    assert pt.ber == pytest.approx(0.002)


def batch_by_batch(code, decoder, ebn0_db, config, rng):
    """The reference loop: check the stopping rule, then draw, decode and
    count one 512-block batch."""
    sigma = noise_sigma(ebn0_db, code.rate)
    G, info_cols = code.systematic.generator_bits, list(code.systematic.info_positions)
    blocks = bit_errors = 0
    while True:
        if blocks >= config.max_blocks:
            return SimPoint(ebn0_db, blocks, bit_errors, code.k, low_confidence=True)
        if blocks >= config.min_blocks and bit_errors >= config.min_bit_errors:
            return SimPoint(ebn0_db, blocks, bit_errors, code.k)
        batch = min(512, config.max_blocks - blocks)
        info = rng.integers(0, 2, size=(batch, code.k), dtype=np.uint8)
        tx = gf2_matmul(info, G)
        recv = bpsk(tx) + sigma * rng.standard_normal((batch, code.n))
        decoded = decode_batch(decoder, code, recv)
        bit_errors += int((decoded[:, info_cols] ^ tx[:, info_cols]).sum())
        blocks += batch


# (code, decoder, Eb/N0, min_bit_errors, min_blocks, max_blocks): min_blocks
# not a multiple of 512, above one 4096-block span, max_blocks ending inside
# a span or past it, and min_bit_errors reached only after min_blocks.
SPAN_CASES = (
    ("golay-24-12", "mld", 3.0, 1, 1000, 4000),
    ("golay-24-12", "mld", 3.0, 1, 9000, 36000),
    ("golay-24-12", "mld", 4.0, 10 ** 6, 3000, 3000),
    ("golay-24-12", "mld", 4.0, 10 ** 6, 3000, 3300),
    ("golay-24-12", "mld", 3.0, 40, 600, 100000),
    ("bch-127-50", "osd:1", 3.0, 1, 1000, 2000),
    ("bch-127-50", "osd:1", 4.0, 10 ** 6, 700, 900),
)


@pytest.mark.parametrize("name,decoder,ebn0_db,errors,low,high", SPAN_CASES)
def test_span_decoding_equals_batch_by_batch(name, decoder, ebn0_db, errors, low, high):
    code, kind = get_code(name), parse_decoder(decoder)
    config = SimConfig(min_bit_errors=errors, min_blocks=low, max_blocks=high)
    rng, reference_rng = np.random.default_rng(61), np.random.default_rng(61)
    point = simulate_point(code, kind, ebn0_db, config, rng)
    assert point == batch_by_batch(code, kind, ebn0_db, config, reference_rng)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    if errors > 10 ** 5:
        assert point.blocks == high and point.low_confidence
    elif errors == 40:
        # Batches ran one at a time past the span that reached min_blocks.
        assert point.blocks > -(-low // 512) * 512
