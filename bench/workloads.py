"""The benchmark workloads and the decoder corpus of the traced run.

Every part does a fixed amount of seeded work through the public ``pwe``
API, then checks what came out.  Only the work is timed; the checks, the
digest and the bookkeeping run after the clock stops.  A workload runs its
parts one after the other in each repetition.  There are two workloads, not
one per part: on a small shared machine the run-to-run spread of a median
falls with the run's length, and two workloads leave time for the longest
runs the benchmark's time budget allows.  The ``why`` of each workload (which
layer it exercises and which it bypasses) is kept beside its entry in
``BENCHMARK.json``.

A repetition is identified by (workload seed, repetition index); every random
stream of the repetition is derived from that pair and nothing else, so a
traced and an untraced run of the same pair must produce identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import checks


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def digest(obj) -> str:
    """SHA-256 of a canonical JSON rendering; floats keep every digit."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Rep:
    """Outcome of one repetition of a workload."""

    wall_s: float = 0.0
    stages: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""

    @property
    def ok(self) -> bool:
        """The repetition ran to the end (its outputs may still be wrong)."""
        return math.isfinite(self.wall_s)

    def check(self, what: str, checked: int, failed: int):
        self.attempted += checked
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {checked} failed")


class RecordingSampler:
    """Delegates to a sampler and keeps every word it hands out."""

    def __init__(self, inner):
        self.inner = inner
        self.code = inner.code
        self.drawn: list[tuple[int, int]] = []

    def draw(self, w, rng):
        value = self.inner.draw(w, rng)
        self.drawn.append((w, value))
        return value


def list_values(lists) -> dict[int, list[int]]:
    return {w: sorted(lst.values()) for w, lst in sorted(lists.items())}


def check_lists(rep: Rep, checker, values: dict, window, what: str):
    checked, failed = checker.bad_lists(values)
    rep.check(f"{what} words", checked, failed)
    outside = [w for w in values if not window[0] <= w <= window[1]]
    rep.check(f"{what} weights inside {window}", len(values), len(outside))


def harvest_chunks(m, code, rep_seed, chunks, config_for):
    """Harvest in chunks and merge them, as resumable harvests do."""
    lists = {}
    for c in range(chunks):
        config = config_for(derive_seed(*rep_seed, c))
        m.harvest.merge_lists(lists, m.harvest.harvest(code, config).values())
    return lists


class Workload:
    name = ""
    codes: tuple = ()  # every code whose outputs are checked
    warm_decoders: tuple = ()  # (code, OSD order or None for MLD) used by run

    def prepare(self, m):
        """Bind the imported modules; build the reference checkers."""
        self.m = m
        self.checker = {}
        for name in self.codes:
            code = m.codes.get_code(name)
            self.checker[name] = checks.Checker(code.n, code.generator_matrix.rows)

    def warm(self, m):
        """Fill the first-use caches (systematic form, generator bits,
        pattern tables, codebook) through public calls, as set-up."""
        for name, order in self.warm_decoders:
            code = m.codes.get_code(name)
            m.codes.encode(code, m.gf2.BitWord(code.k, 0))
            if order is None:
                m.decoders.mld_decode(code, np.ones(code.n))
            else:
                m.decoders.osd_decode(code, np.ones(code.n), order)

    def run(self, seed: int, rep: int, workdir) -> Rep:
        raise NotImplementedError


class Bch127Pipeline(Workload):
    name = "bch127-pipeline"
    codes = ("bch-127-50",)
    warm_decoders = (("bch-127-50", 3),)
    CHUNKS, CHUNK_TRIALS = 3, 100
    WINDOW = (27, 32)
    WEIGHTS, M, Q, MU = (27, 28), 2, 2, 0.99
    BOUND_GRID = (3.0, 4.0, 5.0, 6.0)

    def _config(self, seed, trials):
        m = self.m
        return m.harvest.HarvestConfig(decoder=m.decoders.DecoderKind("osd", 3), trials=trials,
                                       seed=seed, snr_grid_db=(4.0, 5.0, 6.0),
                                       impulse_mode="noisy_impulse", weight_window=self.WINDOW)

    def run(self, seed, rep, workdir):
        m, out = self.m, Rep()
        code = m.codes.get_code("bch-127-50")
        trials = self.CHUNKS * self.CHUNK_TRIALS
        t0 = time.perf_counter()
        lists = harvest_chunks(m, code, (seed, rep, 0), self.CHUNKS,
                               lambda s: self._config(s, self.CHUNK_TRIALS))
        t1 = time.perf_counter()
        with tempfile.TemporaryDirectory(dir=workdir) as d:
            m.fileio.write_lists_dir(d, lists)
            back = m.fileio.read_lists_dir(d, code)
        t2 = time.perf_counter()
        sampler = RecordingSampler(m.estimator.ImpulseSampler(code, self._config(0, 0)))
        keep = {w: back[w] for w in self.WEIGHTS if w in back}
        pwe = m.estimator.estimate_pwe(code, keep, sampler, M=self.M, q=self.Q, mu=self.MU,
                                       rng=np.random.default_rng([seed, rep, 1]))
        t3 = time.perf_counter()
        curve = m.bounds.bound_curve(pwe, m.bounds.RateContext(code.n, code.k),
                                     self.BOUND_GRID, kind="truncated_bound")
        t4 = time.perf_counter()
        out.wall_s = t4 - t0

        checker = self.checker[code.name]
        values = list_values(lists)
        words = sum(len(v) for v in values.values())
        check_lists(out, checker, values, self.WINDOW, "harvested")
        out.check("lists read back equal lists written", 1, int(list_values(back) != values))
        by_w: dict[int, list[int]] = {}
        for w, v in sampler.drawn:
            by_w.setdefault(w, []).append(v)
        checked, failed = checker.bad_lists(by_w)
        out.check("sampled words", checked, failed)
        estimated = {e.w for e in pwe.entries}
        out.check("estimate entries", len(self.WEIGHTS),
                  sum(1 for w in self.WEIGHTS if w not in estimated))
        out.check("sampler errors", len(self.WEIGHTS), len(pwe.failures))
        out.check("bound curve finite", len(curve.points),
                  sum(1 for _, v in curve.points if not (math.isfinite(v) and v > 0)))

        hits = sum(1 for w, v in sampler.drawn if w in keep and v in keep[w])
        draws = len(sampler.drawn)
        out.stages = {
            "harvest_trials_per_s": (trials / (t1 - t0), "1/s"),
            "codewords_per_s": (words / (t1 - t0), "1/s"),
            "codewords_per_decode": (words / trials, "words"),
            "estimate_draws_per_s": (draws / (t3 - t2), "1/s"),
        }
        out.counts = {"words_written": words, "words_read": sum(len(l) for l in back.values()),
                      "sampler_hits": hits}
        out.digest = digest({
            "lists": values,
            "estimates": [[e.w, e.list_size, e.r_bar, e.sigma, e.count_estimate,
                           list(e.count_interval), e.complete] for e in pwe.entries],
            "failures": [list(f) for f in pwe.failures],
            "curve": [list(p) for p in curve.points],
        })
        return out


class Bch127SimOsd1(Workload):
    name = "bch127-sim-osd1"
    codes = ("bch-127-50",)
    warm_decoders = (("bch-127-50", 1),)
    EBN0_DB, BLOCKS = 3.0, 512

    def run(self, seed, rep, workdir):
        m, out = self.m, Rep()
        code = m.codes.get_code("bch-127-50")
        # One error is enough to stop at min_blocks, so the block count is
        # fixed; max_blocks only bounds a point that saw no error at all.
        config = m.sim.SimConfig(min_bit_errors=1, min_blocks=self.BLOCKS,
                                 max_blocks=2 * self.BLOCKS)
        t0 = time.perf_counter()
        point = m.sim.simulate_point(code, m.decoders.DecoderKind("osd", 1), self.EBN0_DB,
                                     config, np.random.default_rng([seed, rep]))
        out.wall_s = time.perf_counter() - t0
        out.check("simulation points reaching their thresholds", 1, int(point.low_confidence))
        out.stages = {"sim_blocks_per_s": (point.blocks / out.wall_s, "1/s")}
        out.digest = digest([point.ebn0_db, point.blocks, point.bit_errors])
        return out


class GolayMld(Workload):
    name = "golay-mld"
    codes = ("golay-24-12", "qr-47-24")
    warm_decoders = (("golay-24-12", None),)
    TRIALS, WINDOW = 2000, (8, 8)
    SIM_GRID_DB, SIM_BLOCKS = (3.0, 4.0, 5.0), 16384

    def run(self, seed, rep, workdir):
        m, out = self.m, Rep()
        golay = m.codes.get_code("golay-24-12")
        qr47 = m.codes.get_code("qr-47-24")
        mld = m.decoders.DecoderKind("mld")
        t0 = time.perf_counter()
        lists = m.harvest.harvest(golay, m.harvest.HarvestConfig(
            decoder=mld, trials=self.TRIALS, seed=derive_seed(seed, rep, 0),
            weight_window=self.WINDOW))
        t1 = time.perf_counter()
        points = m.sim.simulate_curve(golay, mld, self.SIM_GRID_DB, m.sim.SimConfig(
            min_bit_errors=1, min_blocks=self.SIM_BLOCKS, max_blocks=4 * self.SIM_BLOCKS,
            seed=derive_seed(seed, rep, 1)))
        t2 = time.perf_counter()
        we_golay = m.codes.exact_weight_distribution(golay).as_dict()
        we_qr47 = m.codes.exact_weight_distribution(qr47).as_dict()
        t3 = time.perf_counter()
        out.wall_s = t3 - t0

        values = list_values(lists)
        words = sum(len(v) for v in values.values())
        check_lists(out, self.checker[golay.name], values, self.WINDOW, "harvested")
        out.check("simulation points reaching their thresholds", len(points),
                  sum(p.low_confidence for p in points))
        out.check("golay-24-12 weight enumerator", len(checks.GOLAY_24_12_WE),
                  checks.golden_mismatches(we_golay, checks.GOLAY_24_12_WE, complete=True))
        out.check("qr-47-24 A11, A12, A15", len(checks.QR_47_24_PARTIAL_WE),
                  checks.golden_mismatches(we_qr47, checks.QR_47_24_PARTIAL_WE, complete=False))
        blocks = sum(p.blocks for p in points)
        out.stages = {
            "harvest_trials_per_s": (self.TRIALS / (t1 - t0), "1/s"),
            "codewords_per_s": (words / (t1 - t0), "1/s"),
            "codewords_per_decode": (words / self.TRIALS, "words"),
            "sim_blocks_per_s": (blocks / (t2 - t1), "1/s"),
            "exact_we_s": (t3 - t2, "s"),
        }
        out.digest = digest({
            "lists": values,
            "sim": [[p.ebn0_db, p.blocks, p.bit_errors] for p in points],
            "we": [sorted(we_golay.items()), sorted(we_qr47.items())],
        })
        return out


class Bch130Shortened(Workload):
    name = "bch130-shortened"
    codes = ("bch-130-66",)
    warm_decoders = (("bch-130-66", 3),)
    CHUNKS, CHUNK_TRIALS = 2, 50
    WINDOW = (17, 22)

    def run(self, seed, rep, workdir):
        m, out = self.m, Rep()
        code = m.codes.get_code("bch-130-66")
        trials = self.CHUNKS * self.CHUNK_TRIALS
        t0 = time.perf_counter()
        lists = harvest_chunks(m, code, (seed, rep, 0), self.CHUNKS, lambda s: (
            m.harvest.HarvestConfig(decoder=m.decoders.DecoderKind("osd", 3),
                                    trials=self.CHUNK_TRIALS, seed=s, snr_grid_db=(6.0, 7.0),
                                    impulse_mode="noisy_impulse", weight_window=self.WINDOW)))
        out.wall_s = time.perf_counter() - t0

        values = list_values(lists)
        words = sum(len(v) for v in values.values())
        check_lists(out, self.checker[code.name], values, self.WINDOW, "harvested")
        out.stages = {
            "harvest_trials_per_s": (trials / out.wall_s, "1/s"),
            "codewords_per_s": (words / out.wall_s, "1/s"),
            "codewords_per_decode": (words / trials, "words"),
        }
        out.digest = digest({"lists": values})
        return out


class Sequence(Workload):
    """A workload whose repetition runs each of its parts once, in order.

    Its wall time is the sum of the parts' timed work; stage figures are
    prefixed with the part's name."""

    parts: tuple = ()

    def __init__(self):
        self.steps = [part() for part in self.parts]
        self.codes = tuple(dict.fromkeys(c for s in self.steps for c in s.codes))

    def prepare(self, m):
        self.m, self.checker = m, {}
        for s in self.steps:
            s.prepare(m)
            self.checker.update(s.checker)

    def warm(self, m):
        for s in self.steps:
            s.warm(m)

    def run(self, seed, rep, workdir):
        out, digests = Rep(), {}
        for s in self.steps:
            r = s.run(seed, rep, workdir)
            out.wall_s += r.wall_s
            out.attempted += r.attempted
            out.failed += r.failed
            out.problems += [f"{s.name}: {msg}" for msg in r.problems]
            out.stages.update({f"{s.name}.{k}": v for k, v in r.stages.items()})
            for k, v in r.counts.items():
                out.counts[k] = out.counts.get(k, 0) + v
            digests[s.name] = r.digest
        out.digest = digest(digests)
        return out


class Osd3Harvest(Sequence):
    """Order-3 reprocessing, orbits, lists, list files, estimate and bound."""

    name = "osd3-harvest"
    parts = (Bch127Pipeline, Bch130Shortened)


class Osd1MldSim(Sequence):
    """Elimination-bound decodes, MLD and enumeration; no order-3 work or list files."""

    name = "osd1-mld-sim"
    parts = (Bch127SimOsd1, GolayMld)


WORKLOADS = {w.name: w for w in (Osd3Harvest, Osd1MldSim)}


def osd_corpus(m, seed: int, size: int = 32) -> tuple[dict, Rep]:
    """Median microseconds of osd_decode per order on seeded BCH(127,50) input.

    The vectors are the harvest's own kind: a random codeword in BPSK with
    AWGN at 4 dB and one impulse of amplitude d - 1 = 26.  Order 0 is
    elimination alone; order t minus order 0 is the reprocessing of order t.
    """
    code = m.codes.get_code("bch-127-50")
    checker = checks.Checker(code.n, code.generator_matrix.rows)
    rng = np.random.default_rng([seed, 127, 50])
    rows = checks.words_to_bits(code.generator_matrix.rows, code.n)
    info = rng.integers(0, 2, size=(size, code.k), dtype=np.uint8)
    tx = 1.0 - 2.0 * ((info @ rows) & 1)
    sigma = m.sim.noise_sigma(4.0, code.rate)
    received = tx + sigma * rng.normal(size=tx.shape)
    pos = rng.integers(code.n, size=size)
    received[np.arange(size), pos] -= 26.0 * tx[np.arange(size), pos]
    out, metrics = Rep(), {}
    for order in range(4):
        m.decoders.osd_decode(code, received[0], order)
        times, words = [], []
        for r in received:
            t0 = time.perf_counter()
            words.append(m.decoders.osd_decode(code, r, order).value)
            times.append(time.perf_counter() - t0)
        metrics[f"decoders.osd_decode.order{order}.us"] = 1e6 * float(np.median(times))
        out.check(f"osd:{order} corpus decodes", size, checker.bad_words(words))
    return metrics, out
