"""Error-impulse harvesting and automorphism expansion."""

import numpy as np
import pytest

from pwe.bitops import bits_to_ints, bpsk, ints_to_bits
from pwe.codes import catalog, codeword_rows, codewords_of_weight, contains, encode, get_code
from pwe.decoders import DecoderKind, decode, decode_batch, parse_decoder
from pwe.gf2 import BitWord
from pwe.harvest import (
    HarvestConfig,
    WeightClassList,
    _trial_block,
    cyclic_orbit,
    harvest,
    impulse_trial,
    merge_lists,
)
from pwe.sim import noise_sigma


def encode_bits(code, bits) -> int:
    """The codeword, as an int, of an information word given as a bit row."""
    return encode(code, BitWord(code.k, bits_to_ints(bits[np.newaxis])[0])).value


def mld_cfg(trials, seed, **kw):
    return HarvestConfig(decoder=DecoderKind("mld"), trials=trials, seed=seed, **kw)


def test_config_validation():
    with pytest.raises(ValueError):
        mld_cfg(-1, 0)
    with pytest.raises(ValueError):
        mld_cfg(1, 0, impulse_mode="burst")
    with pytest.raises(ValueError):
        mld_cfg(1, 0, weight_window=(5, 3))
    for grid in [(), (1.0, float("nan")), (float("inf"),)]:
        with pytest.raises(ValueError, match="snr_grid_db"):
            mld_cfg(1, 0, snr_grid_db=grid)
    for amplitude in [float("nan"), float("inf"), 0.0, -1.0]:
        with pytest.raises(ValueError, match="impulse_amplitude"):
            mld_cfg(1, 0, impulse_mode="noisy_impulse", impulse_amplitude=amplitude)


def test_weight_class_list_validates_members():
    code = get_code("hamming-7-4")
    lst = WeightClassList(code, 3)
    word = codewords_of_weight(code, 3)[0]
    assert lst.add(word)
    assert not lst.add(word)  # duplicate
    assert word in lst and len(lst) == 1
    with pytest.raises(ValueError):
        lst.add(codewords_of_weight(code, 4)[0])  # wrong weight
    members = set(codewords_of_weight(code, 3))
    impostor = next(v for v in range(1, 1 << 7)
                    if v.bit_count() == 3 and v not in members)
    with pytest.raises(ValueError):
        lst.add(impostor)  # right weight, not a codeword
    # Weight 3, but no word of 7 bits: at or above 2^7, and negative.
    for outside in (0b11 | 1 << 7, -word):
        with pytest.raises(ValueError, match="does not fit"):
            lst.add(outside)
    assert lst.values() == {word}


def test_impulse_trial_yields_codeword_difference_or_none():
    code = get_code("golay-24-12")
    for mode in ("gaussian_noise", "single_impulse_sweep", "noisy_impulse"):
        cfg = mld_cfg(0, 0, impulse_mode=mode)
        found = 0
        for t in range(40):
            c3 = impulse_trial(code, cfg, np.random.default_rng([51, t]))
            if c3 is not None:
                assert contains(code, c3)
                assert c3 > 0
                found += 1
        assert found > 0, mode


def test_cyclic_orbit_closure_and_size():
    code = get_code("qr-23-12")
    word = codewords_of_weight(code, 7)[0]
    orbit = cyclic_orbit(code, word)
    assert word in orbit
    assert len(orbit) == code.n  # 23 is prime: no weight-7 word is shift-invariant
    for image in orbit:
        assert contains(code, image)
        assert image.bit_count() == 7
    assert all(cyclic_orbit(code, image) == orbit for image in orbit)


@pytest.mark.parametrize("name", sorted(catalog()))
def test_shortened_orbit_stays_in_code(name):
    code = get_code(name)
    rng = np.random.default_rng(52)
    for _ in range(10):
        word = encode_bits(code, rng.integers(0, 2, size=code.k, dtype=np.uint8))
        for image in cyclic_orbit(code, word):
            assert contains(code, image)
            assert image.bit_count() == word.bit_count()


def lift_rotate_project_orbit(code, word: int) -> set[int]:
    """Reference orbit of a shortened word: insert zeros at the removed
    parent coordinates, rotate in the parent, keep the rotations that vanish
    there, and drop those coordinates again."""
    parent = code.parent
    removed = set(range(code.n, parent.n))
    kept = [p for p in range(parent.n) if p not in removed]
    lifted = sum((word >> src & 1) << dst for src, dst in enumerate(kept))
    mask = (1 << parent.n) - 1
    orbit = set()
    for s in range(parent.n):
        rot = ((lifted << s) | (lifted >> (parent.n - s))) & mask
        if not any((rot >> p) & 1 for p in removed):
            orbit.add(sum(((rot >> p) & 1) << i for i, p in enumerate(kept)))
    return orbit


@pytest.mark.parametrize("name", ["bch-130-66", "bch-103-47", "bch-111-55"])
def test_shortened_orbit_matches_lift_rotate_project(name):
    code = get_code(name)
    rng = np.random.default_rng(53)
    for _ in range(10):
        word = encode_bits(code, rng.integers(0, 2, size=code.k, dtype=np.uint8))
        assert cyclic_orbit(code, word) == lift_rotate_project_orbit(code, word)
    low = code.generator_matrix.rows[0]  # g(x): many images
    orbit = cyclic_orbit(code, low)
    assert len(orbit) > 1
    assert orbit == lift_rotate_project_orbit(code, low)


def test_non_cyclic_orbit_is_singleton():
    code = get_code("golay-24-12")  # extended, not cyclic, no parent link
    word = codewords_of_weight(code, 8)[0]
    assert cyclic_orbit(code, word) == {word}


def test_harvest_determinism_and_monotonicity():
    code = get_code("golay-24-12")
    small = harvest(code, mld_cfg(150, 53))
    again = harvest(code, mld_cfg(150, 53))
    assert {w: lst.values() for w, lst in small.items()} == \
        {w: lst.values() for w, lst in again.items()}
    big = harvest(code, mld_cfg(300, 53))
    for w, lst in small.items():
        assert lst.values() <= big[w].values()


@pytest.mark.parametrize("mode", ["gaussian_noise", "single_impulse_sweep", "noisy_impulse"])
def test_harvest_is_a_prefix_of_longer_harvests(mode):
    # 700 and 1300 trials end inside blocks 1 and 2 of 512.
    code = get_code("golay-24-12")
    short = harvest(code, mld_cfg(700, 59, impulse_mode=mode))
    longer = harvest(code, mld_cfg(1300, 59, impulse_mode=mode))
    assert set(short) & set(longer)
    for w, lst in longer.items():
        if w in short:
            assert short[w].values() <= lst.values()
    assert sum(map(len, longer.values())) > sum(map(len, short.values()))
    cfg = mld_cfg(0, 0, impulse_mode=mode)
    full = _trial_block(code, cfg, np.random.default_rng(60), 512)
    assert _trial_block(code, cfg, np.random.default_rng(60), 512, 100) == full[:100]


def sequential_sweep(code, config, c1: int, pos: int) -> int:
    """single_impulse_sweep one trial at a time, as the reference: push
    coordinate pos toward the opposite sign by 1, 1.5, ... up to d + 2 and
    decode after each step, until the decision leaves the sent word."""
    tx = bpsk(ints_to_bits([c1], code.n)[0])
    cap = float((code.d_known or code.n) + 2)
    c2, amp = c1, 1.0
    while amp <= cap:
        r = tx.copy()
        r[pos] = tx[pos] - amp * np.sign(tx[pos])
        c2 = decode(config.decoder, code, r).value
        if c2 != c1:
            break
        amp += 0.5
    return c2


def reference_trials(code, config, rng, size, transmit) -> list[int]:
    """The trials of _trial_block built row by row from the same draws:
    encode, BPSK, noise, impulse, decode, XOR.

    With transmit="all_zero" each trial sends the all-zero word instead,
    through the noise and impulse mirrored by the drawn codeword's BPSK
    signs (a sweep's clean channel needs no mirror), and its find is the
    decoded word: a codeword-symmetric decoder finds the same words, up to
    how it breaks exact ties."""
    info = rng.integers(0, 2, size=(size, code.k), dtype=np.uint8)
    sent = [encode_bits(code, row) for row in info]
    if config.impulse_mode == "single_impulse_sweep":
        pos = rng.integers(code.n, size=size)
        if transmit == "all_zero":
            sent = [0] * size
        return [c1 ^ sequential_sweep(code, config, c1, int(p)) for c1, p in zip(sent, pos)]
    snr = rng.integers(len(config.snr_grid_db), size=size)
    noise = rng.normal(size=(size, code.n))
    if config.impulse_mode == "noisy_impulse":
        pos = rng.integers(code.n, size=size)
        amplitude = config.impulse_amplitude or code.d_known - 1
    finds = []
    for t, c1 in enumerate(sent):
        tx = bpsk(ints_to_bits([c1], code.n)[0])
        r = tx + noise_sigma(config.snr_grid_db[snr[t]], code.rate) * noise[t]
        if config.impulse_mode == "noisy_impulse":
            r[pos[t]] -= amplitude * np.sign(tx[pos[t]])
        if transmit == "all_zero":
            c1, r = 0, r * tx
        finds.append(c1 ^ decode(config.decoder, code, r).value)
    return finds


TRIAL_CASES = [("golay-24-12", "mld"), ("bch-63-39", "osd:2")]


@pytest.mark.parametrize("name,decoder", TRIAL_CASES)
@pytest.mark.parametrize("transmit", ["random_codeword", "all_zero"])
@pytest.mark.parametrize("mode,amplitude", [("gaussian_noise", None),
                                            ("noisy_impulse", None),
                                            ("noisy_impulse", 2.5)])
def test_trial_block_matches_the_row_by_row_reference(name, decoder, transmit, mode, amplitude):
    code = get_code(name)
    cfg = HarvestConfig(decoder=parse_decoder(decoder), trials=0, seed=0,
                        snr_grid_db=(-1.0, 1.0, 3.0), impulse_mode=mode,
                        impulse_amplitude=amplitude)
    block = _trial_block(code, cfg, np.random.default_rng(61), 40)
    assert block == reference_trials(code, cfg, np.random.default_rng(61), 40, transmit)
    assert any(block)


@pytest.mark.parametrize("name,decoder", TRIAL_CASES)
@pytest.mark.parametrize("transmit", ["random_codeword", "all_zero"])
def test_lockstep_sweep_matches_the_sequential_sweep(name, decoder, transmit):
    code = get_code(name)
    cfg = HarvestConfig(decoder=parse_decoder(decoder), trials=0, seed=0,
                        impulse_mode="single_impulse_sweep")
    block = _trial_block(code, cfg, np.random.default_rng(62), 40)
    reference = reference_trials(code, cfg, np.random.default_rng(62), 40, transmit)
    assert any(block)
    if transmit == "all_zero":
        # A clean channel meets exact ties, which MLD breaks by codebook
        # order: from the all-zero word it finds a tied word, of equal weight.
        block, reference = ([f.bit_count() for f in fs] for fs in (block, reference))
    assert block == reference


@pytest.mark.parametrize("name,decoder", [("golay-24-12", "mld"), ("golay-24-12", "osd:1"),
                                          ("golay-24-12", "osd:3"), ("bch-127-50", "osd:1"),
                                          ("bch-127-50", "osd:2"), ("bch-130-66", "osd:3")])
def test_decoders_are_codeword_symmetric(name, decoder):
    # Decoding r·(1−2c) gives the decoding of r XOR c, so on a noisy channel
    # the word sent changes the random stream of a harvest, not its finds.
    code, kind = get_code(name), parse_decoder(decoder)
    rng = np.random.default_rng(63)
    info = rng.integers(0, 2, size=(64, code.k), dtype=np.uint8)
    sent = (info @ code.systematic.generator_bits) & 1
    received = bpsk(sent) + noise_sigma(1.0, code.rate) * rng.normal(size=sent.shape)
    finds = sent ^ decode_batch(kind, code, received)
    assert finds.any()
    assert np.array_equal(finds, decode_batch(kind, code, received * bpsk(sent)))


def test_harvest_respects_weight_window():
    code = get_code("golay-24-12")
    lists = harvest(code, mld_cfg(300, 54, weight_window=(8, 8)))
    assert set(lists) <= {8}
    for word in lists[8].values():
        assert word.bit_count() == 8 and contains(code, word)


def test_harvest_dynamic_window_tracks_minimum():
    code = get_code("golay-24-12")
    lists = harvest(code, mld_cfg(300, 55))
    assert lists, "expected at least one weight class"
    lo = min(lists)
    assert max(lists) <= lo + 5


def test_merge_lists_deduplicates():
    code = get_code("golay-24-12")
    a = harvest(code, mld_cfg(100, 56))
    b = harvest(code, mld_cfg(100, 56))
    merged = merge_lists({}, list(a.values()) + list(b.values()))
    for w, lst in a.items():
        assert merged[w].values() == lst.values()


def test_harvest_checks_each_find_once_not_each_image(monkeypatch):
    # One membership check a block of decoded words, none for the orbit
    # images and none through contains.
    blocks = []

    def counting(code, bits):
        blocks.append(len(bits))
        return codeword_rows(code, bits)

    def refused(code, word):
        raise AssertionError("contains called by a harvest")

    monkeypatch.setattr("pwe.harvest.codeword_rows", counting)
    monkeypatch.setattr("pwe.harvest.contains", refused)
    trials = 600
    lists = harvest(get_code("qr-23-12"), mld_cfg(trials, 57))
    assert blocks == [512, 88]
    assert sum(len(lst) for lst in lists.values()) > trials


def test_merge_lists_rejects_another_code():
    golay, qr23 = get_code("golay-24-12"), get_code("qr-23-12")
    target = {8: WeightClassList(golay, 8, set(codewords_of_weight(golay, 8)[:3]))}
    other = WeightClassList(qr23, 8, set(codewords_of_weight(qr23, 8)[:3]))
    with pytest.raises(ValueError):
        merge_lists(target, [other])


def test_harvest_rejects_a_non_codeword_find(monkeypatch):
    def weight_one(kind, code, received):
        return np.eye(len(received), code.n, dtype=np.uint8)

    monkeypatch.setattr("pwe.harvest.decode_batch", weight_one)
    with pytest.raises(ValueError, match="non-codeword"):
        harvest(get_code("qr-23-12"), mld_cfg(1, 58))
