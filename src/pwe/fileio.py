"""On-disk formats: codeword lists, PWE tables, curves, code definitions.

Codeword-list files carry one weight class: a header line
``# code=<name> n=<n> w=<w> count=<m>`` followed by one word per line as
lowercase hex (ceil(n/4) digits, bit i of the word = bit i of the hex
value).  PWE files and curves are CSV with a comment header.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from .codes import CodeSpec, cyclic_code, packed_syndromes, shorten
from .estimator import PartialWeightEnumerator, RecoveryEstimate
from .gf2 import poly_from_exponents
from .harvest import WeightClassList
from .bounds import BoundCurve


def _read_header(path, line: str, required: tuple[str, ...]) -> dict[str, str]:
    """The fields of a ``# key=value ...`` header line, which must hold the
    required keys; the ValueError otherwise names the file and the fault."""
    tokens = line.split()
    if tokens[:1] != ["#"] or not all("=" in t for t in tokens[1:]):
        raise ValueError(f"{path}: malformed header {line.strip()!r}")
    fields = dict(t.split("=", 1) for t in tokens[1:])
    missing = [f"{key}=" for key in required if key not in fields]
    if missing:
        raise ValueError(f"{path}: header lacks {', '.join(missing)}")
    return fields


def _integer(path, field: str, text: str) -> int:
    """text as an int; the ValueError otherwise names the file and the field."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}: {field}= is not an integer: {text!r}") from None


# --- codeword lists --------------------------------------------------------

def write_weight_class(path, lst: WeightClassList):
    """Write one list file, its words sorted, each as ceil(n/4) hex digits:
    the hex of its ceil(n/8) big-endian bytes, less the leading 0 when
    ceil(n/4) is odd.  Sorting the byte rows by np.lexsort, not the ints by
    sorted(), took 11 against 17 ms for 34,000 BCH(127,50) words (2-vCPU VM)."""
    n = lst.code.n
    size, digits = -(-n // 8), (n + 3) // 4
    rows = np.frombuffer(b"".join(v.to_bytes(size, "big") for v in lst._members), np.uint8)
    rows = rows.reshape(-1, size)
    text = rows[np.lexsort(rows.T[::-1])].tobytes().hex("\n", -size)
    lines = np.frombuffer((text + "\n" * bool(text)).encode(), np.uint8).reshape(-1, 2 * size + 1)
    header = f"# code={lst.code.name} n={n} w={lst.w} count={len(lst)}\n"
    Path(path).write_bytes(header.encode() + lines[:, 2 * size - digits:].tobytes())


def _check_words(path, code: CodeSpec, w: int, values: list[int]):
    """Raise ValueError at the first value that is not a weight-w codeword."""
    if min(values, default=0) < 0 or max(values, default=0) >> code.n:
        value = next(v for v in values if not 0 <= v < 1 << code.n)
        raise ValueError(f"{path}: word {value:x} does not fit in n = {code.n} bits")
    size = -(-code.n // 8)
    packed = np.frombuffer(b"".join(v.to_bytes(size, "little") for v in values), np.uint8)
    packed = packed.reshape(-1, size)
    weights = np.bitwise_count(packed).sum(axis=1)
    bad_weight = weights != w
    bad = bad_weight | packed_syndromes(code, packed).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        problem = (f"has weight {weights[i]}, not {w}" if bad_weight[i]
                   else f"is not a codeword of {code.name}")
        raise ValueError(f"{path}: word {values[i]:x} {problem}")


_HEX_DIGITS = b"0123456789abcdef"


def _hex_words(path, body: bytes, n: int) -> list[int]:
    """The words of a list file's body, the lines past its header, as ints.
    Each non-blank line must be ceil(n/4) lowercase hex digits; the
    ValueError otherwise names the file and the first line that is not."""
    digits = (n + 3) // 4
    rows, rest = divmod(len(body), digits + 1)
    ends = b"\n" * rows
    # A body of one word a line and no blank line passes at C speed: all but
    # its hex digits are the line ends, and those sit every digits + 1 bytes.
    if rest or body.translate(None, _HEX_DIGITS) != ends or body[digits::digits + 1] != ends:
        for number, line in enumerate(body.split(b"\n"), 2):
            if line.strip() and (len(line) != digits or line.translate(None, _HEX_DIGITS)):
                sign = line.removeprefix(b"-")
                if sign and not sign.translate(None, _HEX_DIGITS) and int(line, 16) >> n:
                    raise ValueError(f"{path}: word {int(line, 16):x} does not fit in n = {n} bits "
                                     f"(line {number})")
                raise ValueError(f"{path}: line {number}: {line.decode(errors='backslashreplace')!r} "
                                 f"is not a hex word of {digits} lowercase digits")
    return [int(line, 16) for line in body.split()]


def read_weight_class(path, code: CodeSpec) -> WeightClassList:
    """Read one list file; every word is checked for range, weight and membership."""
    path = Path(path)
    head, _, body = path.read_bytes().partition(b"\n")
    try:
        header = head.decode()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: line 1: header is not UTF-8 text") from None
    fields = _read_header(path, header, ("code", "n", "w", "count"))
    if fields["code"] != code.name:
        raise ValueError(f"{path}: list of code {fields['code']!r}, not {code.name!r}")
    n, w, count = (_integer(path, key, fields[key]) for key in ("n", "w", "count"))
    if n != code.n:
        raise ValueError(f"{path}: length {n} does not match code n = {code.n}")
    values = _hex_words(path, body, n)
    _check_words(path, code, w, values)
    members = set(values)
    if len(members) != count:
        raise ValueError(f"{path}: header says count={count} "
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

# Columns of a PWE table, in file order; rates holds the per-repetition
# rates separated by ";".  A float's str is its shortest round-trip repr,
# so read_pwe restores every RecoveryEstimate exactly.
PWE_COLUMNS = ("w", "count_estimate", "lower", "upper", "complete",
               "list_size", "r_bar", "sigma", "beta", "r_lo", "r_hi", "rates")
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
                f"{e.r_interval[0]},{e.r_interval[1]},{';'.join(map(str, e.rates))}\n"
            )


def read_pwe(path) -> PartialWeightEnumerator:
    path = Path(path)
    with path.open() as fh:
        fields = _read_header(path, fh.readline(), ("code", "mu", "q"))
        q = _integer(path, "q", fields["q"])
        failures = []
        line = fh.readline()
        while line.startswith(_FAILURE):
            w, message = line[len(_FAILURE):].split(" ", 1)
            failures.append((_integer(path, "w", w.removeprefix("w=")), json.loads(message)))
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
                    q=q,
                    mu=float(fields["mu"]),
                    beta=float(row["beta"]),
                    r_interval=(float(row["r_lo"]), float(row["r_hi"])),
                    count_interval=(int(row["lower"]), int(row["upper"])),
                    count_estimate=int(row["count_estimate"]),
                    complete=bool(int(row["complete"])),
                    rates=tuple(float(r) for r in row["rates"].split(";") if r),
                )
            )
    return PartialWeightEnumerator(fields["code"], tuple(entries), tuple(failures))


# --- curves ----------------------------------------------------------------

def write_curve(path, curve: BoundCurve):
    has_iv = curve.intervals is not None
    with Path(path).open("w") as fh:
        fh.write("ebn0_db,value" + (",lower,upper" if has_iv else "") + ",kind\n")
        for i, (db, v) in enumerate(curve.points):
            iv = "".join(f",{x:.12g}" for x in curve.intervals[i]) if has_iv else ""
            fh.write(f"{db:.12g},{v:.12g}{iv},{curve.kind}\n")


def read_curve(path) -> BoundCurve:
    """Read a curve file, whose kind column must name one kind throughout."""
    path = Path(path)
    with path.open() as fh:
        cols = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if "kind" not in cols:
        raise ValueError(f"{path}: curve file lacks the kind column")
    kinds = {row[-1] for row in rows}
    if len(kinds) != 1:
        raise ValueError(f"{path}: curve file needs one kind, found {sorted(kinds)}")
    pts = tuple((float(r[0]), float(r[1])) for r in rows)
    ivs = tuple((float(r[2]), float(r[3])) for r in rows) if "lower" in cols else None
    return BoundCurve(kinds.pop(), pts, ivs)


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
        for number, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            try:
                w, c = line.split(",")
                out[int(w)] = int(c)
            except ValueError:
                raise ValueError(f"{path}: line {number}: {line!r} is not a row w,count") from None
    return out


# --- code definition files --------------------------------------------------

def read_code_definition(path) -> CodeSpec:
    """Text format: ``n=<length>``, ``g=<comma-separated exponents>``,
    optional ``shorten=<s>`` and ``name=<label>``."""
    path = Path(path)
    fields: dict[str, str] = {}
    with path.open() as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {number}: {line!r} is not key=value")
            key, value = line.split("=", 1)
            fields[key.strip()] = value.strip()
    if "n" not in fields or "g" not in fields:
        raise ValueError(f"{path}: code definition needs at least n= and g=")
    n = _integer(path, "n", fields["n"])
    g = poly_from_exponents(_integer(path, "g", x) for x in fields["g"].split(",") if x.strip())
    name = fields.get("name", path.stem)
    if not name or any(ch.isspace() for ch in name):
        raise ValueError(f"{path}: code name {name!r} is empty or holds whitespace")
    code = cyclic_code(g, n, name=name if "shorten" not in fields else name + "-parent")
    if "shorten" in fields:
        code = shorten(code, _integer(path, "shorten", fields["shorten"]), name=name)
    return code


# --- run manifests ----------------------------------------------------------

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
        """Write the manifest: the fields above and the finishing time."""
        manifest = dict(self.__dict__, finished=time.time())
        Path(manifest_path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
