"""Command-line interface end to end on small codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pwe import fileio
from pwe.cli import main, parse_snr_grid
from pwe.codes import get_code


def test_parse_snr_grid():
    assert parse_snr_grid("1:3:1") == [1.0, 2.0, 3.0]
    assert parse_snr_grid("0:2:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert parse_snr_grid("2.5") == [2.5]
    for bad in ("1:2", "3:1:1", "1:3:0"):
        with pytest.raises(ValueError):
            parse_snr_grid(bad)
    for empty in ("", " "):
        with pytest.raises(ValueError, match="empty SNR grid"):
            parse_snr_grid(empty)


# `pwe codes NAME` for a cyclic, a shortened and an extended code.
CODE_LISTINGS = {
    "bch-127-50": (
        "name: bch-127-50\nn: 127\nk: 50\nd_known: 27\ncyclic: True\n"
        "generator_poly_exponents: 0,1,2,3,5,6,9,10,11,13,14,15,17,18,26,27,28,33,35,36,37,"
        "38,42,43,45,47,48,51,56,57,58,59,60,64,65,68,72,75,77\n"),
    "bch-130-66": (
        "name: bch-130-66\nn: 130\nk: 66\nd_known: 17\ncyclic: False\n"
        "generator_poly_exponents: 0,2,3,5,6,9,10,11,14,15,16,22,23,24,25,26,27,31,34,35,37,"
        "39,40,42,43,45,46,47,48,49,52,53,56,58,59,60,62,63,64\n"
        "parent: bch-255-191 (removed 125 coordinates)\n"),
    "golay-24-12": "name: golay-24-12\nn: 24\nk: 12\nd_known: 8\ncyclic: False\n",
}


def test_codes_listing(capsys):
    assert main(["codes"]) == 0
    out = capsys.readouterr().out
    assert "hamming-7-4" in out and "bch-127-50" in out
    for name, listing in CODE_LISTINGS.items():
        assert main(["codes", name]) == 0
        assert capsys.readouterr().out == listing, name
    assert main(["codes", "no-such-code"]) == 2


def test_usage_errors():
    assert main(["frobnicate"]) == 2
    assert main(["codes", "--bogus-flag"]) == 2


def test_exact_we_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "we.csv"
    assert main(["exact-we", "hamming-7-4", "--out", str(out)]) == 0
    assert fileio.read_weight_distribution(out) == {0: 1, 3: 7, 4: 7, 7: 1}
    manifest = json.loads((tmp_path / "we.csv.manifest.json").read_text())
    assert manifest["command"] == "exact-we"
    assert manifest["outputs"] == [str(out)]


def test_harvest_estimate_bound_pipeline(tmp_path):
    lists_dir = tmp_path / "lists"
    argv = ["harvest", "golay-24-12", "--decoder", "mld", "--trials", "400",
            "--seed", "71", "--weights", "8:8", "--out", str(lists_dir)]
    assert main(argv) == 0
    code = get_code("golay-24-12")
    lists = fileio.read_lists_dir(lists_dir, code)
    assert 8 in lists and len(lists[8]) > 0
    manifest = json.loads((lists_dir / "harvest.manifest.json").read_text())
    assert manifest["seed"] == 71

    # Re-running the same harvest into a fresh directory reproduces the
    # list file byte for byte.
    other_dir = tmp_path / "lists2"
    assert main(argv[:-1] + [str(other_dir)]) == 0
    name = fileio.weight_class_filename(code.name, 8)
    assert (lists_dir / name).read_bytes() == (other_dir / name).read_bytes()

    pwe_path = tmp_path / "pwe.csv"
    assert main(["estimate", "golay-24-12", "--lists", str(lists_dir),
                 "--sampler", "exact", "--M", "5", "--q", "10",
                 "--seed", "72", "--out", str(pwe_path)]) == 0
    pwe = fileio.read_pwe(pwe_path)
    assert [e.w for e in pwe.entries] == [8]

    curve_path = tmp_path / "bound.csv"
    assert main(["bound", "golay-24-12", "--pwe", str(pwe_path),
                 "--snr", "1:4:1", "--out", str(curve_path)]) == 0
    curve = fileio.read_curve(curve_path)
    assert curve.kind == "truncated_bound" and len(curve.points) == 4
    vals = curve.values()
    assert all(a > b for a, b in zip(vals, vals[1:]))

    # From the exact WE, --word selects the word-error bound, which lies
    # above the bit-error bound at every point.
    we_path = tmp_path / "we.csv"
    assert main(["exact-we", "golay-24-12", "--out", str(we_path)]) == 0
    bounds = {}
    for kind, flags in (("word_bound", ["--word"]), ("bit_bound", [])):
        out = tmp_path / f"{kind}.csv"
        assert main(["bound", "golay-24-12", "--we", str(we_path), *flags,
                     "--snr", "1:4:1", "--out", str(out)]) == 0
        curve = fileio.read_curve(out)
        assert curve.kind == kind
        bounds[kind] = curve.values()
    assert len(bounds["word_bound"]) == 4
    assert all(w > b for w, b in zip(bounds["word_bound"], bounds["bit_bound"]))


def test_estimate_rejects_bad_mu(tmp_path):
    lists_dir = tmp_path / "lists"
    main(["harvest", "golay-24-12", "--decoder", "mld", "--trials", "100",
          "--seed", "73", "--weights", "8:8", "--out", str(lists_dir)])
    assert main(["estimate", "golay-24-12", "--lists", str(lists_dir),
                 "--mu", "1.5", "--out", str(tmp_path / "x.csv")]) == 2


def test_empty_snr_grid_is_a_usage_error(tmp_path, capsys):
    # An empty --snr is refused, not replaced by the default grid.
    lists_dir = tmp_path / "lists"
    harvest = ["harvest", "golay-24-12", "--decoder", "mld", "--trials", "100",
               "--seed", "74", "--weights", "8:8", "--out", str(lists_dir)]
    assert main(harvest + ["--snr", ""]) == 2
    assert not lists_dir.exists()
    assert main(harvest) == 0
    capsys.readouterr()
    out = tmp_path / "x.csv"
    assert main(["estimate", "golay-24-12", "--lists", str(lists_dir), "--sampler", "impulse",
                 "--decoder", "mld", "--snr", "", "--out", str(out)]) == 2
    assert "empty SNR grid" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_missing_lists_is_compute_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["estimate", "golay-24-12", "--lists", str(empty),
                 "--out", str(tmp_path / "x.csv")]) == 3


def test_bound_from_we_file(tmp_path):
    we = tmp_path / "we.csv"
    main(["exact-we", "golay-24-12", "--out", str(we)])
    out = tmp_path / "bound.csv"
    assert main(["bound", "golay-24-12", "--we", str(we),
                 "--snr", "0:5:1", "--out", str(out)]) == 0
    assert len(fileio.read_curve(out).points) == 6


def test_simulate_writes_curve(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "hamming-7-4", "--decoder", "mld",
                 "--snr", "2:3:1", "--min-errors", "50", "--min-blocks", "500",
                 "--seed", "74", "--out", str(out)]) == 0
    curve = fileio.read_curve(out)
    assert curve.kind == "simulated_ber"
    assert len(curve.points) == 2
    manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
    assert manifest["seed"] == 74


def test_seed_is_drawn_and_recorded_when_omitted(tmp_path):
    lists_dir = tmp_path / "lists"
    assert main(["harvest", "golay-24-12", "--decoder", "mld", "--trials", "50",
                 "--weights", "8:8", "--out", str(lists_dir)]) == 0
    manifest = json.loads((lists_dir / "harvest.manifest.json").read_text())
    assert isinstance(manifest["seed"], int)


def test_code_definition_file_resolution(tmp_path):
    path = tmp_path / "ham.code"
    path.write_text("n=7\ng=0,1,3\n")
    out = tmp_path / "we.csv"
    assert main(["exact-we", str(path), "--out", str(out)]) == 0
    assert fileio.read_weight_distribution(out) == {0: 1, 3: 7, 4: 7, 7: 1}


def test_code_name_with_whitespace_is_a_usage_error(tmp_path, capsys):
    # The name is the file stem; list files and their headers could not
    # hold it, so it is refused before anything is written.
    path = tmp_path / "my code.txt"
    path.write_text("n=7\ng=0,1,3\n")
    lists_dir = tmp_path / "lists"
    assert main(["harvest", str(path), "--trials", "50", "--seed", "75",
                 "--out", str(lists_dir)]) == 2
    assert "code name 'my code'" in capsys.readouterr().err
    assert not lists_dir.exists()


def test_list_header_without_count_is_a_usage_error(tmp_path, capsys):
    lists_dir = tmp_path / "lists"
    assert main(["harvest", "golay-24-12", "--decoder", "mld", "--trials", "100",
                 "--seed", "76", "--weights", "8:8", "--out", str(lists_dir)]) == 0
    path = lists_dir / fileio.weight_class_filename("golay-24-12", 8)
    header, body = path.read_text().split("\n", 1)
    path.write_text(header.rsplit(" ", 1)[0] + "\n" + body)
    capsys.readouterr()
    assert main(["estimate", "golay-24-12", "--lists", str(lists_dir), "--seed", "76",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: {path}: header lacks count=\n"


# The third-party packages that importing the CLI and the acceptance suite
# loads; _sysconfigdata_* is the standard library's per-platform build data.
THIRD_PARTY_IMPORTS = """
import sys
before = set(sys.modules)
import pwe.cli, pwe.validation
tops = {m.split(".")[0] for m in set(sys.modules) - before}
print(sorted(m for m in tops - set(sys.stdlib_module_names) - {"numpy", "pwe"}
             if not m.startswith("_sysconfigdata")))
"""


def test_cli_and_validation_import_numpy_alone():
    # A fresh interpreter, so that no other test's imports count.
    path = [str(Path(fileio.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", THIRD_PARTY_IMPORTS], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out == "[]\n"


def test_validate_only_fast_subset(capsys):
    assert main(["validate", "--only", "1,3,4"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
