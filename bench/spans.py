"""In-memory call spans around the public functions of each ``pwe`` module.

The tracer replaces a module or class attribute with a wrapper that records
``[name, site, start, end, parent, info]`` and restores the original on exit,
so a traced run executes exactly the same code on the same random streams
as an untraced one.  ``site`` is the module through which the call was made
(the same function is reached from ``harvest`` and from ``estimator``), and
``info`` is a small summary of the result: whether an insertion was new, the
size of an orbit, or the exception a call raised.

Self time is a span's duration minus the durations of its direct children;
calls are synchronous and single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

NAME, SITE, START, END, PARENT, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, site: str = "", info=None):
        """Record a span for every call of ``owner.attr`` until exit."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, site, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[INFO] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(result)
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)
        return False

    def write(self, path):
        path.write_text(json.dumps({"fields": ["name", "site", "start", "end", "parent", "info"],
                                    "spans": self.spans, "unwrapped": self.missing}))


def trace_pwe(m) -> Tracer:
    """A tracer over the layer boundaries of the ``pwe`` modules in ``m``."""
    t = Tracer()
    t.wrap(m.decoders, "osd_decode", "decoders.osd_decode", "decoders")
    t.wrap(m.decoders, "mld_decode", "decoders.mld_decode", "decoders")
    t.wrap(m.sim, "osd_decode", "decoders.osd_decode", "sim")
    t.wrap(m.codes, "encode", "codes.encode", "codes")
    t.wrap(m.harvest, "encode", "codes.encode", "harvest")
    t.wrap(m.harvest, "contains", "codes.contains", "harvest")
    t.wrap(m.codes, "exact_weight_distribution", "codes.exact_weight_distribution", "codes")
    t.wrap(m.harvest, "impulse_trial", "harvest.impulse_trial", "harvest")
    t.wrap(m.estimator, "impulse_trial", "harvest.impulse_trial", "estimator")
    t.wrap(m.harvest, "cyclic_orbit", "harvest.cyclic_orbit", "harvest", info=len)
    t.wrap(m.estimator, "cyclic_orbit", "harvest.cyclic_orbit", "estimator", info=len)
    t.wrap(m.harvest.WeightClassList, "add", "harvest.WeightClassList.add", "harvest", info=bool)
    t.wrap(m.harvest, "harvest", "harvest.harvest", "harvest")
    t.wrap(m.harvest, "merge_lists", "harvest.merge_lists", "harvest")
    t.wrap(m.fileio, "write_lists_dir", "fileio.write_lists_dir", "fileio")
    t.wrap(m.fileio, "read_lists_dir", "fileio.read_lists_dir", "fileio")
    t.wrap(m.estimator.ImpulseSampler, "draw", "estimator.draw", "estimator")
    t.wrap(m.estimator, "estimate_pwe", "estimator.estimate_pwe", "estimator")
    t.wrap(m.sim, "simulate_point", "sim.simulate_point", "sim")
    t.wrap(m.bounds, "bound_curve", "bounds.bound_curve", "bounds")
    return t


UNITS = {
    "decoders.osd_decode.calls": "count",
    "decoders.osd_decode.self_s": "s",
    "decoders.mld_decode.us": "us",
    "decoders.mld_decode.calls": "count",
    "codes.encode.us": "us",
    "codes.encode.calls": "count",
    "codes.contains.us": "us",
    "codes.contains.calls": "count",
    "harvest.WeightClassList.add.us": "us",
    "harvest.WeightClassList.add.calls": "count",
    "harvest.WeightClassList.add.new_frac": "ratio",
    "harvest.merge_lists.s": "s",
    "fileio.write_lists_dir.us_per_word": "us/word",
    "fileio.read_lists_dir.us_per_word": "us/word",
    "harvest.cyclic_orbit.us": "us",
    "harvest.cyclic_orbit.calls": "count",
    "harvest.orbit_size.mean": "words",
    "harvest.find_frac": "ratio",
    "harvest.impulse_trial.self_us": "us",
    "estimator.draw.us": "us",
    "estimator.trials_per_draw": "trials/draw",
    "estimator.hit_frac": "ratio",
    "estimator.sampler_failures": "count",
    "sim.simulate_point.s": "s",
    "sim.decode_share": "ratio",
    "codes.exact_weight_distribution.s": "s",
    "bounds.bound_curve.ms": "ms",
}


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer figures of one traced repetition.

    ``counts`` carries what only the workload knows: words written and read
    back, and sampler hits.  A layer the workload never enters reads 0."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    site_calls: dict[tuple[str, str], int] = defaultdict(int)
    site_total: dict[tuple[str, str], float] = defaultdict(float)
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    infos: dict[str, list] = defaultdict(list)
    for i, s in enumerate(spans):
        d = s[END] - s[START]
        calls[s[NAME]] += 1
        total[s[NAME]] += d
        self_s[s[NAME]] += d - child[i]
        site_calls[s[NAME], s[SITE]] += 1
        site_total[s[NAME], s[SITE]] += d
        if s[INFO] is not None:
            infos[s[NAME]].append(s[INFO])

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call_us(name):
        return 1e6 * ratio(total[name], calls[name])

    adds = infos["harvest.WeightClassList.add"]
    orbits = infos["harvest.cyclic_orbit"]
    draws = calls["estimator.draw"]
    return {
        "decoders.osd_decode.calls": calls["decoders.osd_decode"],
        "decoders.osd_decode.self_s": self_s["decoders.osd_decode"],
        "decoders.mld_decode.us": per_call_us("decoders.mld_decode"),
        "decoders.mld_decode.calls": calls["decoders.mld_decode"],
        "codes.encode.us": per_call_us("codes.encode"),
        "codes.encode.calls": calls["codes.encode"],
        "codes.contains.us": per_call_us("codes.contains"),
        "codes.contains.calls": calls["codes.contains"],
        "harvest.WeightClassList.add.us": per_call_us("harvest.WeightClassList.add"),
        "harvest.WeightClassList.add.calls": calls["harvest.WeightClassList.add"],
        "harvest.WeightClassList.add.new_frac": ratio(sum(1 for a in adds if a is True), len(adds)),
        "harvest.merge_lists.s": total["harvest.merge_lists"],
        "fileio.write_lists_dir.us_per_word":
            1e6 * ratio(total["fileio.write_lists_dir"], counts.get("words_written", 0)),
        "fileio.read_lists_dir.us_per_word":
            1e6 * ratio(total["fileio.read_lists_dir"], counts.get("words_read", 0)),
        "harvest.cyclic_orbit.us": per_call_us("harvest.cyclic_orbit"),
        "harvest.cyclic_orbit.calls": calls["harvest.cyclic_orbit"],
        "harvest.orbit_size.mean": ratio(sum(o for o in orbits if isinstance(o, int)), len(orbits)),
        # harvest() expands exactly the in-window finds.
        "harvest.find_frac": ratio(site_calls["harvest.cyclic_orbit", "harvest"],
                                   site_calls["harvest.impulse_trial", "harvest"]),
        "harvest.impulse_trial.self_us":
            1e6 * ratio(self_s["harvest.impulse_trial"], calls["harvest.impulse_trial"]),
        "estimator.draw.us": per_call_us("estimator.draw"),
        "estimator.trials_per_draw": ratio(site_calls["harvest.impulse_trial", "estimator"], draws),
        "estimator.hit_frac": ratio(counts.get("sampler_hits", 0), draws),
        "estimator.sampler_failures":
            sum(1 for i in infos["estimator.draw"] if i == "SamplerError"),
        "sim.simulate_point.s": ratio(total["sim.simulate_point"], calls["sim.simulate_point"]),
        "sim.decode_share": ratio(site_total["decoders.osd_decode", "sim"],
                                  total["sim.simulate_point"]),
        "codes.exact_weight_distribution.s": total["codes.exact_weight_distribution"],
        "bounds.bound_curve.ms": 1e3 * total["bounds.bound_curve"],
    }
