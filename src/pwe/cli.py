"""Command-line surface: catalog inspection, exhaustive oracles, harvesting,
estimation, bounds, simulation, and the one-shot validation suite.

Exit codes: 0 success, 2 usage/parameter errors, 3 computation failures.
Every command that writes output also writes a JSON run manifest next to it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .bounds import BoundCurve, RateContext, bound_curve
from .codes import (
    CodeSpec,
    catalog,
    exact_weight_distribution,
    get_code,
)
from .decoders import parse_decoder
from .estimator import (
    ExactUniformSampler,
    ImpulseSampler,
    estimate_pwe,
)
from .gf2 import poly_exponents
from .harvest import IMPULSE_MODES, HarvestConfig, harvest, merge_lists
from .sim import SimConfig, simulate_curve

USAGE_ERROR = 2
COMPUTE_ERROR = 3


def _resolve_code(spec: str) -> CodeSpec:
    if Path(spec).is_file():
        return fileio.read_code_definition(spec)
    return get_code(spec)


def parse_snr_grid(text: str) -> list[float]:
    """LO:HI:STEP, inclusive of both ends when STEP divides the range."""
    parts = text.split(":")
    if not text.strip():
        raise ValueError("empty SNR grid; expected LO:HI:STEP")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"bad SNR grid {text!r}; expected LO:HI:STEP")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0 or hi < lo:
        raise ValueError(f"bad SNR grid {text!r}: need LO <= HI and STEP > 0")
    count = int(round((hi - lo) / step)) + 1
    grid = [lo + i * step for i in range(count)]
    return [g for g in grid if g <= hi + 1e-9]


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(np.random.SeedSequence().entropy % (2**31))


def cmd_codes(args) -> int:
    codes = catalog()
    if args.name is None:
        for name in sorted(codes):
            c = codes[name]
            print(f"{name:14s} n={c.n:<4d} k={c.k:<4d} d={c.d_known}")
        return 0
    if args.name not in codes:
        print(f"unknown code {args.name!r}", file=sys.stderr)
        return USAGE_ERROR
    c = codes[args.name]
    print(f"name: {c.name}")
    print(f"n: {c.n}")
    print(f"k: {c.k}")
    print(f"d_known: {c.d_known}")
    print(f"cyclic: {c.is_cyclic}")
    if c.generator_poly is not None:
        print(f"generator_poly_exponents: {','.join(map(str, poly_exponents(c.generator_poly)))}")
    if c.parent is not None:
        print(f"parent: {c.parent.name} (removed {c.parent.n - c.n} coordinates)")
    return 0


def cmd_exact_we(args) -> int:
    code = _resolve_code(args.code)
    man = fileio.ManifestRecorder("exact-we", vars(args).copy(), code_name=code.name)
    wd = exact_weight_distribution(code, max_weight=args.max_weight)
    fileio.write_weight_distribution(man.record(args.out), wd.as_dict())
    man.finish(str(args.out) + ".manifest.json")
    print(f"wrote {args.out} ({len(wd.counts)} weight classes)")
    return 0


def _harvest_config(args, seed: int) -> HarvestConfig:
    window = None
    if args.weights:
        lo, hi = args.weights.split(":")
        window = (int(lo), int(hi))
    return HarvestConfig(
        decoder=parse_decoder(args.decoder),
        trials=args.trials,
        seed=seed,
        snr_grid_db=tuple(parse_snr_grid("0:3:1" if args.snr is None else args.snr)),
        weight_window=window,
        impulse_mode=args.impulse_mode,
        impulse_amplitude=args.impulse_amplitude,
    )


def cmd_harvest(args) -> int:
    code = _resolve_code(args.code)
    seed = _seed(args)
    config = _harvest_config(args, seed)
    man = fileio.ManifestRecorder("harvest", {**vars(args), "seed": seed},
                                  seed=seed, code_name=code.name)
    lists = harvest(code, config)
    out_dir = Path(args.out)
    if out_dir.is_dir():  # resume: merge into whatever is already there
        existing = fileio.read_lists_dir(out_dir, code)
        lists = merge_lists(lists, existing.values())
    fileio.write_lists_dir(out_dir, lists)
    for w in sorted(lists):
        man.record(out_dir / fileio.weight_class_filename(code.name, w))
        print(f"w={w}: {len(lists[w])} codewords")
    man.finish(out_dir / "harvest.manifest.json")
    return 0


def cmd_estimate(args) -> int:
    code = _resolve_code(args.code)
    seed = _seed(args)
    lists = fileio.read_lists_dir(args.lists, code)
    if not lists:
        print(f"no codeword lists found in {args.lists}", file=sys.stderr)
        return COMPUTE_ERROR
    if not 0.5 < args.mu < 1.0:
        print(f"mu must lie in (0.5, 1), got {args.mu}", file=sys.stderr)
        return USAGE_ERROR
    man = fileio.ManifestRecorder("estimate", {**vars(args), "seed": seed},
                                  seed=seed, code_name=code.name)
    if args.sampler == "exact":
        sampler = ExactUniformSampler(code)
    else:
        sampler = ImpulseSampler(
            code,
            HarvestConfig(
                decoder=parse_decoder(args.decoder),
                trials=0,
                seed=0,
                snr_grid_db=tuple(parse_snr_grid("4:6:1" if args.snr is None else args.snr)),
                impulse_mode=args.impulse_mode,
                impulse_amplitude=args.impulse_amplitude,
            ),
        )
    rng = np.random.default_rng([seed, 0xE5])
    pwe = estimate_pwe(code, lists, sampler, M=args.M, q=args.q, mu=args.mu, rng=rng)
    fileio.write_pwe(man.record(args.out), pwe, mu=args.mu, M=args.M, q=args.q)
    for e in pwe.entries:
        flag = " complete" if e.complete else ""
        print(f"w={e.w}: {e.count_estimate} in [{e.count_interval[0]}, "
              f"{e.count_interval[1]}]{flag}")
    for w, msg in pwe.failures:
        print(f"w={w}: estimation failed: {msg}", file=sys.stderr)
    man.finish(str(args.out) + ".manifest.json")
    return COMPUTE_ERROR if pwe.failures and not pwe.entries else 0


def cmd_bound(args) -> int:
    code = _resolve_code(args.code)
    ctx = RateContext(code.n, code.k)
    grid = parse_snr_grid(args.snr)
    man = fileio.ManifestRecorder("bound", vars(args).copy(), code_name=code.name)
    if args.pwe:
        pwe = fileio.read_pwe(args.pwe)
        curve = bound_curve(pwe, ctx, grid, kind="truncated_bound")
    else:
        weights = fileio.read_weight_distribution(args.we)
        weights.pop(0, None)
        kind = "word_bound" if args.word else "bit_bound"
        curve = bound_curve(weights, ctx, grid, kind=kind)
    fileio.write_curve(man.record(args.out), curve)
    man.finish(str(args.out) + ".manifest.json")
    print(f"wrote {args.out} ({len(curve.points)} points)")
    return 0


def cmd_simulate(args) -> int:
    code = _resolve_code(args.code)
    seed = _seed(args)
    decoder = parse_decoder(args.decoder)
    grid = parse_snr_grid(args.snr)
    config = SimConfig(
        min_bit_errors=args.min_errors,
        min_blocks=args.min_blocks,
        max_blocks=args.max_blocks,
        seed=seed,
    )
    man = fileio.ManifestRecorder("simulate", {**vars(args), "seed": seed},
                                  seed=seed, code_name=code.name)
    points = simulate_curve(code, decoder, grid, config)

    curve = BoundCurve("simulated_ber", tuple((p.ebn0_db, p.ber) for p in points))
    fileio.write_curve(man.record(args.out), curve)
    man.finish(str(args.out) + ".manifest.json")
    for p in points:
        flag = " (capped)" if p.low_confidence else ""
        print(f"{p.ebn0_db:g} dB: ber={p.ber:.3e} blocks={p.blocks} "
              f"errors={p.bit_errors}{flag}")
    return 0


def cmd_validate(args) -> int:
    from .validation import run_validation

    results = run_validation(only=args.only)
    failed = [r for r in results if not r.passed]
    return COMPUTE_ERROR if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pwe", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codes", help="list catalog codes or show one")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_codes)

    p = sub.add_parser("exact-we", help="exhaustive weight distribution")
    p.add_argument("code")
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_exact_we)

    p = sub.add_parser("harvest", help="error-impulse codeword harvesting")
    p.add_argument("code")
    p.add_argument("--decoder", default="mld")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--snr", default=None, help="noise grid LO:HI:STEP (dB)")
    p.add_argument("--weights", default=None, help="weight window LO:HI")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--impulse-mode", default="gaussian_noise", choices=IMPULSE_MODES)
    p.add_argument("--impulse-amplitude", type=float, default=None)
    p.add_argument("--out", required=True, help="output directory of list files")
    p.set_defaults(func=cmd_harvest)

    p = sub.add_parser("estimate", help="Monte Carlo PWE estimation from lists")
    p.add_argument("code")
    p.add_argument("--lists", required=True)
    p.add_argument("--mu", type=float, default=0.99)
    p.add_argument("--M", type=int, default=10)
    p.add_argument("--q", type=int, default=100)
    p.add_argument("--sampler", default="exact", choices=("exact", "impulse"))
    p.add_argument("--decoder", default="osd:3", help="decoder for the impulse sampler")
    p.add_argument("--snr", default=None)
    p.add_argument("--impulse-mode", default="noisy_impulse", choices=IMPULSE_MODES)
    p.add_argument("--impulse-amplitude", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bound", help="union-bound curves from a WE or PWE")
    p.add_argument("code")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--pwe")
    src.add_argument("--we")
    p.add_argument("--word", action="store_true",
                   help="word-error bound from --we (default: the bit-error bound)")
    p.add_argument("--snr", required=True, help="grid LO:HI:STEP (dB)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="Monte Carlo BER simulation")
    p.add_argument("code")
    p.add_argument("--decoder", required=True)
    p.add_argument("--snr", required=True)
    p.add_argument("--min-errors", type=int, default=200)
    p.add_argument("--min-blocks", type=int, default=5000)
    p.add_argument("--max-blocks", type=int, default=10_000_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="run the acceptance suite")
    p.add_argument("--only", default=None,
                   help="comma-separated criterion numbers to run")
    p.set_defaults(func=cmd_validate)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
