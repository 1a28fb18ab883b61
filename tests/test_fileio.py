"""On-disk formats round-trip through their readers."""

import json

import numpy as np
import pytest

from pwe import fileio
from pwe.bounds import BoundCurve
from pwe.codes import codewords_of_weight, get_code
from pwe.estimator import PartialWeightEnumerator, interval_from_stats
from pwe.gf2 import BitWord
from pwe.harvest import WeightClassList


def golay_list(size=20):
    code = get_code("golay-24-12")
    lst = WeightClassList(code, 8)
    for v in codewords_of_weight(code, 8)[:size]:
        lst.add(BitWord(24, v))
    return code, lst


def test_weight_class_roundtrip(tmp_path):
    code, lst = golay_list()
    path = tmp_path / fileio.weight_class_filename(code.name, 8)
    fileio.write_weight_class(path, lst)
    header = path.read_text().splitlines()[0]
    assert header == f"# code=golay-24-12 n=24 w=8 count={len(lst)}"
    back = fileio.read_weight_class(path, code)
    assert back.w == 8 and back.values() == lst.values()


def test_weight_class_length_mismatch(tmp_path):
    code, lst = golay_list()
    path = tmp_path / "x.txt"
    fileio.write_weight_class(path, lst)
    with pytest.raises(ValueError):
        fileio.read_weight_class(path, get_code("hamming-7-4"))


def test_weight_class_truncated_file(tmp_path):
    code, lst = golay_list()
    path = tmp_path / "x.txt"
    fileio.write_weight_class(path, lst)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        fileio.read_weight_class(path, code)


def test_weight_class_other_code_name(tmp_path):
    import dataclasses

    code, lst = golay_list()
    path = tmp_path / "x.txt"
    fileio.write_weight_class(path, lst)
    with pytest.raises(ValueError):
        fileio.read_weight_class(path, dataclasses.replace(code, name="golay-copy"))


def test_lists_dir_roundtrip(tmp_path):
    code, lst = golay_list()
    fileio.write_lists_dir(tmp_path / "lists", {8: lst})
    back = fileio.read_lists_dir(tmp_path / "lists", code)
    assert set(back) == {8}
    assert back[8].values() == lst.values()


def test_pwe_roundtrip(tmp_path):
    import dataclasses

    e8 = dataclasses.replace(interval_from_stats(700, 0.92, 0.01, 50), w=8)
    e12 = dataclasses.replace(interval_from_stats(2500, 0.97, 0.005, 50), w=12)
    failures = ((16, 'impulse sampler found no weight-16 codeword in 5000 trials, "quoted"'),)
    pwe = PartialWeightEnumerator("golay-24-12", (e8, e12), failures)
    path = tmp_path / "pwe.csv"
    fileio.write_pwe(path, pwe, mu=0.99, M=10, q=50)
    assert fileio.read_pwe(path) == pwe


def test_pwe_without_statistics_columns_is_refused(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text("# code=golay-24-12 mu=0.99 M=10 q=50\n"
                    "w,count_estimate,lower,upper,complete\n8,759,700,800,0\n")
    with pytest.raises(ValueError, match="list_size, r_bar, sigma, beta, r_lo, r_hi"):
        fileio.read_pwe(path)


def test_curve_roundtrip(tmp_path):
    curve = BoundCurve("bit_bound", ((1.0, 1.5e-3), (2.0, 6.25e-4)))
    path = tmp_path / "curve.csv"
    fileio.write_curve(path, curve)
    back = fileio.read_curve(path, kind="bit_bound")
    assert back.points == curve.points

    with_iv = BoundCurve("truncated_bound", ((1.0, 1e-3),), (((9e-4, 2e-3)),))
    path2 = tmp_path / "curve2.csv"
    fileio.write_curve(path2, with_iv, with_kind=True)
    back2 = fileio.read_curve(path2)
    assert back2.kind == "truncated_bound"
    assert back2.intervals == with_iv.intervals


def test_weight_distribution_roundtrip(tmp_path):
    counts = {0: 1, 8: 759, 12: 2576}
    path = tmp_path / "we.csv"
    fileio.write_weight_distribution(path, counts)
    assert fileio.read_weight_distribution(path) == counts


def test_code_definition_cyclic(tmp_path):
    path = tmp_path / "ham.code"
    path.write_text("# Hamming(7,4)\nname=my-hamming\nn=7\ng=0,1,3\n")
    code = fileio.read_code_definition(path)
    assert (code.n, code.k) == (7, 4)
    assert code.name == "my-hamming"
    ref = get_code("hamming-7-4")
    assert code.generator_matrix.rows == ref.generator_matrix.rows


def test_code_definition_shortened(tmp_path):
    exps = ",".join(map(str, get_code("qr-23-12").generator_poly.exponents()))
    path = tmp_path / "short.code"
    path.write_text(f"n=23\ng={exps}\nshorten=3\n")
    code = fileio.read_code_definition(path)
    assert (code.n, code.k) == (20, 9)
    assert code.parent is not None
    bad = tmp_path / "bad.code"
    bad.write_text("n=7\n")
    with pytest.raises(ValueError):
        fileio.read_code_definition(bad)


def test_manifest_contents(tmp_path):
    man = fileio.ManifestRecorder("harvest", {"trials": 10}, seed=7,
                                  code_name="golay-24-12")
    man.record(tmp_path / "out.txt")
    man.finish(tmp_path / "m.json")
    data = json.loads((tmp_path / "m.json").read_text())
    assert data["command"] == "harvest"
    assert data["seed"] == 7
    assert data["parameters"] == {"trials": 10}
    assert data["outputs"] == [str(tmp_path / "out.txt")]
    assert data["finished"] >= data["started"]


def write_raw_list(path, code, w, hex_words):
    path.write_text(f"# code={code.name} n={code.n} w={w} count={len(hex_words)}\n"
                    + "".join(h + "\n" for h in hex_words))


def test_weight_class_rejects_non_codeword(tmp_path):
    code, lst = golay_list()
    good = [word.to_hex() for word in lst.words()]
    # Two flipped bits keep the weight at 8 but leave the code (d = 8).
    v = lst.words()[3].value
    low = v & -v
    zero = ~v & (v + 1)
    bad = BitWord(24, v ^ low ^ zero)
    assert bad.weight() == 8
    path = tmp_path / "x.txt"
    write_raw_list(path, code, 8, good[:3] + [bad.to_hex()] + good[3:])
    with pytest.raises(ValueError):
        fileio.read_weight_class(path, code)


def test_weight_class_rejects_wrong_weight(tmp_path):
    code, lst = golay_list()
    twelve = BitWord(24, codewords_of_weight(code, 12)[0])
    path = tmp_path / "x.txt"
    write_raw_list(path, code, 8, [word.to_hex() for word in lst.words()] + [twelve.to_hex()])
    with pytest.raises(ValueError):
        fileio.read_weight_class(path, code)


def test_weight_class_rejects_out_of_range_word(tmp_path):
    code, lst = golay_list()
    # 2^24 plus a weight-8 codeword: cut to its low n bits it would pass.
    big = format((1 << 24) | lst.words()[0].value, "x")
    path = tmp_path / "x.txt"
    write_raw_list(path, code, 8, [word.to_hex() for word in lst.words()[1:]] + [big])
    with pytest.raises(ValueError):
        fileio.read_weight_class(path, code)
