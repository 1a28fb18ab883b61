"""On-disk formats round-trip through their readers."""

import json
from collections import Counter

import numpy as np
import pytest

from pwe import fileio
from pwe.bounds import BoundCurve
from pwe.codes import codewords_of_weight, encode, get_code
from pwe.estimator import PartialWeightEnumerator, interval_from_stats
from pwe.gf2 import BitWord, poly_exponents
from pwe.harvest import WeightClassList


def golay_list(size=20):
    code = get_code("golay-24-12")
    lst = WeightClassList(code, 8)
    for v in codewords_of_weight(code, 8)[:size]:
        lst.add(v)
    return code, lst


def test_weight_class_roundtrip(tmp_path):
    code, lst = golay_list()
    path = tmp_path / fileio.weight_class_filename(code.name, 8)
    fileio.write_weight_class(path, lst)
    header = path.read_text().splitlines()[0]
    assert header == f"# code=golay-24-12 n=24 w=8 count={len(lst)}"
    back = fileio.read_weight_class(path, code)
    assert back.w == 8 and back.values() == lst.values()


@pytest.mark.parametrize("name", ["hamming-7-4", "golay-24-12", "bch-127-50", "bch-130-66", "empty"])
def test_weight_class_files_are_the_hex_lines_of_their_words(tmp_path, name):
    # Sorted words, each as ceil(n/4) zero-padded lowercase hex digits, an
    # odd count of them at n = 130.
    code = get_code("golay-24-12" if name == "empty" else name)
    rng = np.random.default_rng([44, code.n])
    words = [encode(code, BitWord(code.k, int(v))).value
             for v in rng.integers(0, 1 << min(code.k, 62), size=60)]
    w = 0 if name == "empty" else Counter(v.bit_count() for v in words).most_common(1)[0][0]
    lst = WeightClassList(code, w, {v for v in words if v.bit_count() == w} if w else set())
    path = tmp_path / "x.txt"
    fileio.write_weight_class(path, lst)
    digits = (code.n + 3) // 4
    want = f"# code={code.name} n={code.n} w={w} count={len(lst)}\n"
    want += "".join(f"{v:0{digits}x}\n" for v in sorted(lst.values()))
    assert path.read_bytes() == want.encode()
    assert len(lst) >= (0 if name == "empty" else 2)
    assert fileio.read_weight_class(path, code).values() == lst.values()


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

    e8 = dataclasses.replace(interval_from_stats(700, 0.92, 0.01, 50), w=8,
                             rates=(10 / 11, 10 / 13, 1.0, 0.1 + 0.2))
    e12 = dataclasses.replace(interval_from_stats(2500, 0.97, 0.005, 50), w=12)
    failures = ((16, 'impulse sampler found no weight-16 codeword in 5000 trials, "quoted"'),)
    pwe = PartialWeightEnumerator("golay-24-12", (e8, e12), failures)
    path = tmp_path / "pwe.csv"
    fileio.write_pwe(path, pwe, mu=0.99, M=10, q=50)
    back = fileio.read_pwe(path)
    assert back == pwe
    assert [e.rates for e in back.entries] == [e8.rates, ()]


def test_pwe_without_statistics_columns_is_refused(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text("# code=golay-24-12 mu=0.99 M=10 q=50\n"
                    "w,count_estimate,lower,upper,complete\n8,759,700,800,0\n")
    with pytest.raises(ValueError, match="list_size, r_bar, sigma, beta, r_lo, r_hi"):
        fileio.read_pwe(path)


def test_curve_roundtrip(tmp_path):
    curve = BoundCurve("word_bound", ((1.0, 1.5e-3), (2.0, 6.25e-4)))
    path = tmp_path / "curve.csv"
    fileio.write_curve(path, curve)
    assert path.read_text().splitlines()[0] == "ebn0_db,value,kind"
    assert fileio.read_curve(path) == curve

    with_iv = BoundCurve("truncated_bound", ((1.0, 1e-3),), (((9e-4, 2e-3)),))
    path2 = tmp_path / "curve2.csv"
    fileio.write_curve(path2, with_iv)
    assert fileio.read_curve(path2) == with_iv


def test_curve_without_one_kind_is_refused(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("ebn0_db,value\n1,0.001\n")
    with pytest.raises(ValueError, match="curve.csv: curve file lacks the kind column"):
        fileio.read_curve(path)
    path.write_text("ebn0_db,value,kind\n1,0.001,bit_bound\n2,0.0001,word_bound\n")
    with pytest.raises(ValueError, match="one kind"):
        fileio.read_curve(path)


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
    exps = ",".join(map(str, poly_exponents(get_code("qr-23-12").generator_poly)))
    path = tmp_path / "short.code"
    path.write_text(f"n=23\ng={exps}\nshorten=3\n")
    code = fileio.read_code_definition(path)
    assert (code.n, code.k) == (20, 9)
    assert code.parent is not None and code.parent.is_cyclic and not code.is_cyclic
    bad = tmp_path / "bad.code"
    for text in ("n=7\n", "n=7\ng=0,1,-3\n"):
        bad.write_text(text)
        with pytest.raises(ValueError):
            fileio.read_code_definition(bad)


def test_code_definition_name_without_whitespace(tmp_path):
    path = tmp_path / "my code.txt"
    path.write_text("n=7\ng=0,1,3\n")
    with pytest.raises(ValueError, match="my code.txt: code name 'my code'"):
        fileio.read_code_definition(path)
    path.write_text("n=7\ng=0,1,3\nname=my-code\n")
    assert fileio.read_code_definition(path).name == "my-code"
    path = tmp_path / "ham.code"
    for name in ("my code", ""):
        path.write_text(f"n=7\ng=0,1,3\nname={name}\n")
        with pytest.raises(ValueError, match="is empty or holds whitespace"):
            fileio.read_code_definition(path)


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


def to_hex(code, word: int) -> str:
    """A word as a list file holds it: ceil(n/4) lowercase hex digits."""
    return f"{word:0{(code.n + 3) // 4}x}"


def write_raw_list(path, code, w, hex_words):
    path.write_text(f"# code={code.name} n={code.n} w={w} count={len(hex_words)}\n"
                    + "".join(h + "\n" for h in hex_words))


def test_weight_class_rejects_non_codeword(tmp_path):
    code, lst = golay_list()
    words = sorted(lst.values())
    good = [to_hex(code, v) for v in words]
    # Two flipped bits keep the weight at 8 but leave the code (d = 8).
    v = words[3]
    low = v & -v
    zero = ~v & (v + 1)
    bad = v ^ low ^ zero
    assert bad.bit_count() == 8
    path = tmp_path / "x.txt"
    write_raw_list(path, code, 8, good[:3] + [to_hex(code, bad)] + good[3:])
    with pytest.raises(ValueError):
        fileio.read_weight_class(path, code)


def test_weight_class_rejects_wrong_weight(tmp_path):
    code, lst = golay_list()
    twelve = codewords_of_weight(code, 12)[0]
    path = tmp_path / "x.txt"
    write_raw_list(path, code, 8, [to_hex(code, v) for v in sorted(lst.values()) + [twelve]])
    with pytest.raises(ValueError):
        fileio.read_weight_class(path, code)


def test_weight_class_rejects_out_of_range_word(tmp_path):
    code, lst = golay_list()
    # 2^24 plus a weight-8 codeword: cut to its low n bits it would pass.
    words = sorted(lst.values())
    big = format((1 << 24) | words[0], "x")
    path = tmp_path / "x.txt"
    write_raw_list(path, code, 8, [to_hex(code, v) for v in words[1:]] + [big])
    with pytest.raises(ValueError):
        fileio.read_weight_class(path, code)


def test_weight_class_names_the_first_out_of_range_word(tmp_path):
    code, lst = golay_list()
    words = [to_hex(code, v) for v in sorted(lst.values())]
    path = tmp_path / "x.txt"
    for bad, shown in [("-" + words[0], "-" + words[0].lstrip("0")), ("1" + words[0], "1" + words[0])]:
        write_raw_list(path, code, 8, words[1:4] + [bad, "2" + words[0]] + words[4:])
        with pytest.raises(ValueError, match=f"x.txt: word {shown} does not fit in n = 24 bits"):
            fileio.read_weight_class(path, code)


def test_weight_class_names_the_file_and_line_of_a_non_hex_word(tmp_path):
    code, lst = golay_list()
    words = [to_hex(code, v) for v in sorted(lst.values())]
    path = tmp_path / "x.txt"
    write_raw_list(path, code, 8, words[:5] + ["zz"] + words[5:] + ["yy"])
    with pytest.raises(ValueError, match="x.txt: line 7: 'zz' is not a hex word"):
        fileio.read_weight_class(path, code)


def test_headers_name_the_file_and_the_missing_field(tmp_path):
    code, lst = golay_list()
    path = tmp_path / "x.txt"
    fileio.write_weight_class(path, lst)
    lines = path.read_text().splitlines(keepends=True)
    for header, problem in [
        ("# code=golay-24-12 n=24 w=8\n", "header lacks count="),
        ("# code=golay-24-12 w=8\n", "header lacks n=, count="),
        ("# code=golay-24-12 n=24 w=8 count\n", "malformed header"),
        ("\n", "malformed header"),
    ]:
        path.write_text(header + "".join(lines[1:]))
        with pytest.raises(ValueError, match=f"x.txt: {problem}"):
            fileio.read_weight_class(path, code)

    pwe = PartialWeightEnumerator(code.name, (interval_from_stats(20, 0.5, 0.1, 10),))
    path = tmp_path / "pwe.csv"
    fileio.write_pwe(path, pwe, mu=0.99, M=10, q=10)
    body = path.read_text().split("\n", 1)[1]
    for header, problem in [("# code=golay-24-12 mu=0.99 M=10", "header lacks q="),
                            ("# mu=0.99 M=10 q=10", "header lacks code="),
                            ("code=golay-24-12 mu=0.99 M=10 q=10", "malformed header")]:
        path.write_text(header + "\n" + body)
        with pytest.raises(ValueError, match=f"pwe.csv: {problem}"):
            fileio.read_pwe(path)


@pytest.mark.parametrize("text,problem", [
    ("n=7\nshorten\ng=0,1,3\n", "line 2: 'shorten' is not key=value"),
    ("n=seven\ng=0,1,3\n", "n= is not an integer: 'seven'"),
    ("n=7\ng=0,1,3\nshorten=2.5\n", "shorten= is not an integer: '2.5'"),
    ("n=7\ng=0,x,3\n", "g= is not an integer: 'x'"),
], ids=["no =", "n", "shorten", "g exponent"])
def test_code_definition_faults_name_the_file_and_the_field(tmp_path, text, problem):
    path = tmp_path / "bad.code"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"bad.code: {problem}"):
        fileio.read_code_definition(path)


@pytest.mark.parametrize("header,field", [
    ("# code=golay-24-12 n=x w=8 count=20\n", "n"),
    ("# code=golay-24-12 n=24 w=8.0 count=20\n", "w"),
    ("# code=golay-24-12 n=24 w=8 count=twenty\n", "count"),
])
def test_list_header_numbers_name_the_file_and_the_field(tmp_path, header, field):
    code, lst = golay_list()
    path = tmp_path / "x.txt"
    fileio.write_weight_class(path, lst)
    path.write_text(header + path.read_text().split("\n", 1)[1])
    with pytest.raises(ValueError, match=f"x.txt: {field}= is not an integer"):
        fileio.read_weight_class(path, code)


@pytest.mark.parametrize("line,field", [("# code=golay-24-12 mu=0.99 M=10 q=ten", "q"),
                                        ('# failure w=x "sampler failed"', "w")])
def test_pwe_header_numbers_name_the_file_and_the_field(tmp_path, line, field):
    code = get_code("golay-24-12")
    pwe = PartialWeightEnumerator(code.name, (interval_from_stats(20, 0.5, 0.1, 10),), ((9, "none"),))
    path = tmp_path / "pwe.csv"
    fileio.write_pwe(path, pwe, mu=0.99, M=10, q=10)
    lines = path.read_text().splitlines(keepends=True)
    lines[0 if field == "q" else 1] = line + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"pwe.csv: {field}= is not an integer"):
        fileio.read_pwe(path)


@pytest.mark.parametrize("row", ["8", "8,759,1", "eight,759", "8,"])
def test_weight_distribution_faults_name_the_file_and_the_row(tmp_path, row):
    path = tmp_path / "we.csv"
    path.write_text(f"w,count\n0,1\n{row}\n")
    with pytest.raises(ValueError, match=f"we.csv: line 3: '{row}' is not a row w,count"):
        fileio.read_weight_distribution(path)
