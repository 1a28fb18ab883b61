"""On-disk formats: codeword lists, PWE tables, curves, code definitions.

Codeword-list files carry one weight class: a header line
``# code=<name> n=<n> w=<w> count=<m>`` followed by one word per line as
lowercase hex (ceil(n/4) digits, bit i of the word = bit i of the hex
value).  PWE files and curves are CSV with a comment header.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .bitops import ints_to_bits
from .codes import CodeSpec, codeword_rows, cyclic_code, shorten
from .estimator import PartialWeightEnumerator, RecoveryEstimate
from .gf2 import GF2Poly
from .harvest import WeightClassList
from .bounds import BoundCurve


# --- codeword lists --------------------------------------------------------

def write_weight_class(path, lst: WeightClassList):
    path = Path(path)
    n = lst.code.n
    digits = max(1, (n + 3) // 4)
    with path.open("w") as fh:
        fh.write(f"# code={lst.code.name} n={n} w={lst.w} count={len(lst)}\n")
        fh.write("".join(f"{v:0{digits}x}\n" for v in sorted(lst.values())))


# Words are checked in blocks of this many, so the bit arrays stay small.
_CHECK_BLOCK = 4096


def _check_words(path, code: CodeSpec, w: int, values: list[int]):
    """Raise ValueError at the first value that is not a weight-w codeword."""
    for value in values:
        if not 0 <= value < 1 << code.n:
            raise ValueError(f"{path}: word {value:x} does not fit in n = {code.n} bits")
    bits = ints_to_bits(values, code.n)
    weights = bits.sum(axis=1)
    bad_weight = weights != w
    bad = bad_weight | ~codeword_rows(code, bits)
    if bad.any():
        i = int(np.argmax(bad))
        problem = (f"has weight {weights[i]}, not {w}" if bad_weight[i]
                   else f"is not a codeword of {code.name}")
        raise ValueError(f"{path}: word {values[i]:x} {problem}")


def read_weight_class(path, code: CodeSpec) -> WeightClassList:
    """Read one list file; every word is checked for range, weight and membership."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise ValueError(f"{path}: missing codeword-list header")
        fields = dict(kv.split("=", 1) for kv in header[2:].split())
        if fields["code"] != code.name:
            raise ValueError(f"{path}: list of code {fields['code']!r}, not {code.name!r}")
        n = int(fields["n"])
        w = int(fields["w"])
        if n != code.n:
            raise ValueError(f"{path}: length {n} does not match code n = {code.n}")
        values = [int(line, 16) for line in map(str.strip, fh) if line]
    for start in range(0, len(values), _CHECK_BLOCK):
        _check_words(path, code, w, values[start:start + _CHECK_BLOCK])
    members = set(values)
    if len(members) != int(fields["count"]):
        raise ValueError(f"{path}: header says count={fields['count']} "
                         f"but the file holds {len(members)} distinct words")
    return WeightClassList(code, w, members)


def weight_class_filename(code_name: str, w: int) -> str:
    return f"{code_name}-w{w:03d}.txt"


def write_lists_dir(directory, lists: dict[int, WeightClassList]):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for w, lst in sorted(lists.items()):
        write_weight_class(directory / weight_class_filename(lst.code.name, w), lst)


def read_lists_dir(directory, code: CodeSpec) -> dict[int, WeightClassList]:
    directory = Path(directory)
    out: dict[int, WeightClassList] = {}
    for path in sorted(directory.glob("*.txt")):
        lst = read_weight_class(path, code)
        out[lst.w] = lst
    return out


# --- PWE tables ------------------------------------------------------------

# Columns of a PWE table, in file order.  A float's str is its shortest
# round-trip repr, so read_pwe restores every RecoveryEstimate exactly.
PWE_COLUMNS = ("w", "count_estimate", "lower", "upper", "complete",
               "list_size", "r_bar", "sigma", "beta", "r_lo", "r_hi")
_FAILURE = "# failure "


def write_pwe(path, pwe: PartialWeightEnumerator, mu: float, M: int, q: int):
    """One row per entry; each failure is a comment line holding its weight
    and its message as a JSON string."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"# code={pwe.code_name} mu={mu} M={M} q={q}\n")
        for w, message in pwe.failures:
            fh.write(f"{_FAILURE}w={w} {json.dumps(message)}\n")
        fh.write(",".join(PWE_COLUMNS) + "\n")
        for e in pwe.entries:
            fh.write(
                f"{e.w},{e.count_estimate},{e.count_interval[0]},{e.count_interval[1]},"
                f"{int(e.complete)},{e.list_size},{e.r_bar},{e.sigma},{e.beta},"
                f"{e.r_interval[0]},{e.r_interval[1]}\n"
            )


def read_pwe(path) -> PartialWeightEnumerator:
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip()
        fields = dict(kv.split("=", 1) for kv in header[2:].split())
        failures = []
        line = fh.readline()
        while line.startswith(_FAILURE):
            w, message = line[len(_FAILURE):].split(" ", 1)
            failures.append((int(w.removeprefix("w=")), json.loads(message)))
            line = fh.readline()
        columns = line.strip().split(",")
        missing = [c for c in PWE_COLUMNS if c not in columns]
        if missing:
            raise ValueError(f"{path}: PWE table lacks the columns {', '.join(missing)}")
        entries = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = dict(zip(columns, line.split(",")))
            entries.append(
                RecoveryEstimate(
                    w=int(row["w"]),
                    list_size=int(row["list_size"]),
                    r_bar=float(row["r_bar"]),
                    sigma=float(row["sigma"]),
                    q=int(fields["q"]),
                    mu=float(fields["mu"]),
                    beta=float(row["beta"]),
                    r_interval=(float(row["r_lo"]), float(row["r_hi"])),
                    count_interval=(int(row["lower"]), int(row["upper"])),
                    count_estimate=int(row["count_estimate"]),
                    complete=bool(int(row["complete"])),
                )
            )
    return PartialWeightEnumerator(fields.get("code", "?"), tuple(entries), tuple(failures))


# --- curves ----------------------------------------------------------------

def write_curve(path, curve: BoundCurve, with_kind: bool = False):
    path = Path(path)
    with path.open("w") as fh:
        cols = "ebn0_db,value"
        if curve.intervals is not None:
            cols += ",lower,upper"
        if with_kind:
            cols += ",kind"
        fh.write(cols + "\n")
        for i, (db, v) in enumerate(curve.points):
            row = f"{db:.12g},{v:.12g}"
            if curve.intervals is not None:
                lo, hi = curve.intervals[i]
                row += f",{lo:.12g},{hi:.12g}"
            if with_kind:
                row += f",{curve.kind}"
            fh.write(row + "\n")


def read_curve(path, kind: Optional[str] = None) -> BoundCurve:
    path = Path(path)
    with path.open() as fh:
        cols = fh.readline().strip().split(",")
        has_iv = "lower" in cols
        has_kind = "kind" in cols
        pts = []
        ivs = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            pts.append((float(parts[0]), float(parts[1])))
            if has_iv:
                ivs.append((float(parts[2]), float(parts[3])))
            if has_kind and kind is None:
                kind = parts[-1]
    return BoundCurve(kind or "bit_bound", tuple(pts), tuple(ivs) if has_iv else None)


# --- weight distribution CSV ----------------------------------------------

def write_weight_distribution(path, counts: dict[int, int]):
    path = Path(path)
    with path.open("w") as fh:
        fh.write("w,count\n")
        for w in sorted(counts):
            fh.write(f"{w},{counts[w]}\n")


def read_weight_distribution(path) -> dict[int, int]:
    path = Path(path)
    out = {}
    with path.open() as fh:
        fh.readline()
        for line in fh:
            line = line.strip()
            if not line:
                continue
            w, c = line.split(",")
            out[int(w)] = int(c)
    return out


# --- code definition files --------------------------------------------------

def read_code_definition(path) -> CodeSpec:
    """Text format: ``n=<length>``, ``g=<comma-separated exponents>``,
    optional ``shorten=<s>`` and ``name=<label>``."""
    path = Path(path)
    fields: dict[str, str] = {}
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, value = line.split("=", 1)
            fields[key.strip()] = value.strip()
    if "n" not in fields or "g" not in fields:
        raise ValueError(f"{path}: code definition needs at least n= and g=")
    n = int(fields["n"])
    exps = [int(x) for x in fields["g"].split(",") if x.strip()]
    g = GF2Poly.from_exponents(exps)
    name = fields.get("name", path.stem)
    code = cyclic_code(g, n, name=name if "shorten" not in fields else name + "-parent")
    if "shorten" in fields:
        code = shorten(code, int(fields["shorten"]), name=name)
    return code


# --- run manifests ----------------------------------------------------------

@dataclass
class RunManifest:
    command: str
    parameters: dict
    seed: Optional[int]
    code_name: Optional[str]
    started: float
    finished: float
    outputs: list[str]

    def write(self, path):
        Path(path).write_text(json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n")


class ManifestRecorder:
    """Collects a command's parameters and output paths into a manifest."""

    def __init__(self, command: str, parameters: dict, seed=None, code_name=None):
        self.command = command
        # Keep only JSON-representable parameters (argparse namespaces carry
        # the dispatch function, which is not data).
        self.parameters = {
            k: v for k, v in parameters.items()
            if isinstance(v, (bool, int, float, str, list, tuple, dict, type(None)))
        }
        self.seed = seed
        self.code_name = code_name
        self.started = time.time()
        self.outputs: list[str] = []

    def record(self, path):
        self.outputs.append(str(path))
        return path

    def finish(self, manifest_path):
        RunManifest(
            command=self.command,
            parameters=self.parameters,
            seed=self.seed,
            code_name=self.code_name,
            started=self.started,
            finished=time.time(),
            outputs=self.outputs,
        ).write(manifest_path)
