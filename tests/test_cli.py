import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import mnseries
from helpers import reference_magnus_report
from mnseries import cli
from mnseries.magnus import FreeWord
from mnseries.series import GradedSeries, from_text
from mnseries.registry import resolve_crossed, resolve_monoid
from test_acceptance import PINNED_EXPANDS


SRC_DIR = os.path.dirname(os.path.dirname(mnseries.__file__))


def run(capsys, *argv):
    code = cli.run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no output (stderr: {err})"
    return code, json.loads(out)


def strip_elapsed(text: str) -> str:
    return re.sub(r'"?elapsed_ms"?: \d+', 'elapsed_ms: 0', text)


DOCUMENTED = [
    ("verify-monoid", "--group", "bs12", "--gens", "B(1/1,1),B(0/1,1)", "--L", "8"),
    ("verify-monoid", "--group", "heis", "--gens", "H(1,0,0),H(0,1,0)", "--L", "4"),
    ("verify-group-algebra", "--group", "heis", "--c", "1", "--d", "1", "--L", "2", "--D", "4"),
    ("digit-sum", "--r", "5/2", "--N", "10"),
    ("magnus", "--words", "ab,ba", "--D", "4"),
    ("check-crossed", "--system", "z2-sign-twist", "--samples", "200", "--seed", "7"),
    ("pingpong", "--r", "2", "--t", "1", "--L", "8"),
    ("classify", "--group", "wreath"),
]


def test_verify_monoid_verified(capsys):
    code, report = run_json(capsys, *DOCUMENTED[0])
    assert code == 0
    assert report["verdict"] == "verified-up-to-bound"
    assert report["details"]["elements"] == 511


def test_verify_monoid_collision(capsys):
    code, report = run_json(capsys, *DOCUMENTED[1])
    assert code == 2
    assert report["witness"]["words"] == ["xyyx", "yxxy"]


def test_verify_group_algebra(capsys):
    code, report = run_json(capsys, *DOCUMENTED[2])
    assert code == 0
    assert report["details"]["rank"] == 17


def test_verify_group_algebra_prime_field(capsys):
    code, report = run_json(
        capsys, "verify-group-algebra", "--c", "1 mod 5", "--d", "1 mod 5",
        "--L", "1", "--D", "2", "--field", "Fp:5",
    )
    assert code == 0
    assert report["details"]["field"] == "Fp:5"


def test_digit_sum(capsys):
    code, report = run_json(capsys, *DOCUMENTED[3])
    assert code == 0 and report["details"]["sums"] == 2**11 - 1
    code, report = run_json(capsys, "digit-sum", "--r", "1", "--N", "2")
    assert code == 2
    assert report["witness"]["subsets"] == [[0], [1]]


@pytest.mark.parametrize("argv,forged", [
    # a scan that finds no repeat at r = 1, and one that finds a repeat at r = 5/2
    (("--r", "1", "--N", "12"), (None, 13)),
    (("--r", "5/2", "--N", "14"), ((1, 2, 2), 2)),
])
def test_digit_sum_verdict_is_checked_by_the_rational_root_theorem(capsys, monkeypatch, argv,
                                                                    forged):
    from mnseries import freeness

    monkeypatch.setattr(freeness, "_first_repeated_sum", lambda weights: forged)
    code, out, err = run(capsys, "digit-sum", *argv)
    assert code == 70 and "rational root theorem" in err and not out


def test_magnus_distinct_and_collision(capsys):
    code, report = run_json(capsys, *DOCUMENTED[4])
    assert code == 0 and report["distinct"]
    code, report = run_json(capsys, "magnus", "--words", "ab,ab", "--D", "3")
    assert code == 2
    assert report["collision"] == ["ab", "ab"]


def test_magnus_parses_each_word_once_over_one_alphabet(capsys, monkeypatch):
    # the alphabet runs to the last letter of any word, so every word is
    # built once, at that size, from its item without spaces, and the report
    # is unchanged
    calls = []
    parse_word = cli.parse_word

    def counting_parse_word(text, size=None):
        calls.append((text, size))
        return parse_word(text, size)

    monkeypatch.setattr(cli, "parse_word", counting_parse_word)
    code, report = run_json(capsys, "magnus", "--words", "ab,c'a, 1", "--D", "2")
    assert code == 0 and calls == [("ab", 3), ("c'a", 3), ("1", 3)]
    assert [image["word"] for image in report["images"]] == ["ab", "c'a", "1"]
    calls.clear()
    code, report = run_json(capsys, "magnus", "--words", "1,1", "--D", "2")
    assert code == 2 and calls == [("1", 1), ("1", 1)]


def test_check_crossed(capsys):
    code, report = run_json(capsys, *DOCUMENTED[5])
    assert code == 0 and report["valid"]
    code, report = run_json(capsys, "check-crossed", "--system", "trivial", "--group", "heis")
    assert code == 0
    # the trivial system without --group is the one on heis
    assert run_json(capsys, "check-crossed", "--system", "trivial")[1]["digest"] == report["digest"]


@pytest.mark.parametrize("system, group, own", [
    ("quadratic-conj-Z", "heis", "z"), ("quadratic-conj-Z", "z2", "z"),
    ("z2-sign-twist", "z", "z2"), ("z2-sign-twist", "wreath", "z2"),
])
def test_check_crossed_refuses_another_systems_group(capsys, system, group, own):
    code, out, err = run(capsys, "check-crossed", "--system", system, "--group", group)
    assert code == 64 and not out
    assert f"--group {group} is not the group of {system}, which is {own}" in err


@pytest.mark.parametrize("system, group, pinned", [
    ("z2-sign-twist", "z2", "f69d07f3859d1ee3"), ("quadratic-conj-Z", "z", "fc04ffdf37acae23"),
])
def test_check_crossed_reads_a_systems_own_group(capsys, system, group, pinned):
    # naming the system's own group gives the report of the run without it
    for argv in (("--system", system, "--group", group), ("--system", system)):
        code, report = run_json(capsys, "check-crossed", *argv)
        assert code == 0 and report["params"]["group"] == group
        assert report["digest"] == pinned


def test_pingpong(capsys):
    code, report = run_json(capsys, *DOCUMENTED[6])
    assert code == 0
    assert report["details"]["orbit"] == 511


def test_classify(capsys):
    code, report = run_json(capsys, *DOCUMENTED[7])
    assert code == 0 and report["type"] == 3
    code, report = run_json(capsys, "classify", "--group", "heis")
    assert report["type"] == 1
    code, report = run_json(capsys, "classify", "--group", "bs12")
    assert report["type"] == 2


@pytest.mark.parametrize("fmt", ("json", "text"))
def test_documented_commands_are_deterministic(capsys, fmt):
    for argv in DOCUMENTED:
        first_code, first_out, _ = run(capsys, *argv, "--format", fmt, "--seed", "3")
        second_code, second_out, _ = run(capsys, *argv, "--format", fmt, "--seed", "3")
        assert first_code == second_code
        assert strip_elapsed(first_out) == strip_elapsed(second_out), argv


def test_digest_excludes_elapsed_only(capsys):
    _, r1 = run_json(capsys, *DOCUMENTED[3])
    _, r2 = run_json(capsys, *DOCUMENTED[3])
    assert r1["digest"] == r2["digest"]
    stripped1 = {k: v for k, v in r1.items() if k != "elapsed_ms"}
    stripped2 = {k: v for k, v in r2.items() if k != "elapsed_ms"}
    assert stripped1 == stripped2


def test_expand_round_trip(tmp_path, capsys):
    path = tmp_path / "series.mns"
    text = "monoid=free:1 D=3 crossed=trivial\n0\t1\t1\n1\ta\t-1\n"
    path.write_text(text)
    code, out, _ = run(capsys, "expand", "--series-file", str(path), "--format", "text")
    assert code == 0 and out == text
    code, out, _ = run(capsys, "expand", "--series-file", str(path), "--invert", "--format", "text")
    assert code == 0
    assert out == "monoid=free:1 D=3 crossed=trivial\n0\t1\t1\n1\ta\t1\n2\taa\t1\n3\taaa\t1\n"
    # the inverted output parses back exactly
    series = from_text(out, resolve_monoid, resolve_crossed)
    assert series.degree == 3


@pytest.mark.parametrize("line", ("1\tZ(01)\t2", "1\tZ(1)\t2/4", "1\tB(0/2,1)@r=2/1\t1"),
                         ids=("element-z", "coefficient-Q", "element-bs12"))
def test_expand_refuses_non_canonical_files(tmp_path, capsys, line):
    # each file spells a valid series other than the way to_text writes it
    monoid = "bs12" if line.startswith("1\tB") else "z"
    path = tmp_path / "series.mns"
    path.write_text(f"monoid={monoid} D=4 crossed=trivial\n{line}\n")
    code, out, err = run(capsys, "expand", "--series-file", str(path))
    assert code == 64 and not out and "line 2" in err


@pytest.mark.parametrize("lines,message", [
    (("0\tZ(0)\t1/2", "1\tZ(1)\t1/2", "2\tZ(2)\t1/2x"), "not a rational in p/q form: '1/2x'"),
    (("0\tZ(0)\t1", "1\tZ(1)\t2/4", "2\tZ(2)\t2/4"),
     "series text is not in canonical form: line 3 reads '1\\tZ(1)\\t2/4\\n' where the "
     "canonical line is '1\\tZ(1)\\t1/2\\n'"),
    (("0\tZ(0)\t2 mod 5", "1\tZ(1)\t7 mod 5"),
     "series text is not in canonical form: line 3 reads '1\\tZ(1)\\t7 mod 5\\n' where the "
     "canonical line is '1\\tZ(1)\\t2 mod 5\\n'"),
], ids=("malformed-after-good", "repeated-non-canonical", "other-spelling-of-a-residue"))
def test_expand_refuses_coefficients_as_each_line_spells_them(tmp_path, capsys, lines, message):
    # a coefficient text is parsed once however often it repeats, and each
    # refusal is the one its first offending line gets
    path = tmp_path / "series.mns"
    path.write_text("monoid=z D=4 crossed=trivial\n" + "".join(line + "\n" for line in lines))
    code, out, err = run(capsys, "expand", "--series-file", str(path))
    assert code == 64 and not out
    assert err.splitlines()[0] == f"mnseries: error: {message}"


def test_expand_reads_the_file_bytes(tmp_path, capsys):
    # a file that is not UTF-8 text is refused by name, not by Python's codec
    # message; CRLF and CR line ends read as LF, as text mode reads them
    path = tmp_path / "binary.mns"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "expand", "--series-file", str(path))
    assert code == 64 and not out and "codec" not in err
    assert (f"mnseries: error: series file {str(path)!r} is not UTF-8 text (byte 0xff at offset 0); "
            "a series file is a header line and one tab-separated line per term\n") in err
    for ending in (b"\r\n", b"\r"):
        path.write_bytes(b"monoid=z D=4 crossed=trivial" + ending + b"0\tZ(0)\t1" + ending)
        code, out, _ = run(capsys, "expand", "--series-file", str(path), "--format", "text")
        assert code == 0 and out == "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1\n"


@pytest.mark.parametrize("name,text", [(name, text) for name, text, _ in PINNED_EXPANDS],
                         ids=[name for name, _, _ in PINNED_EXPANDS])
def test_expand_returns_the_file_it_read(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode())
    code, out, _ = run(capsys, "expand", "--series-file", str(path), "--format", "text")
    assert code == 0 and out == text
    code, report = run_json(capsys, "expand", "--series-file", str(path))
    assert code == 0 and report["series"] == text


def test_expand_writes_output_file_atomically(tmp_path, capsys):
    src = tmp_path / "series.mns"
    src.write_text("monoid=heis D=2 crossed=trivial\n0\tH(0,0,0)\t2\n")
    out_file = tmp_path / "out.mns"
    code, _, _ = run(capsys, "expand", "--series-file", str(src), "--out", str(out_file), "--format", "text")
    assert code == 0
    assert out_file.read_text().startswith("monoid=heis")
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".mnseries-")]
    assert not leftovers


def test_no_partial_output_on_failure(tmp_path, capsys):
    src = tmp_path / "bad.mns"
    src.write_text("monoid=heis D=2 crossed=trivial\n0\tH(0,0,1)\t1\n")  # not in the monoid
    out_file = tmp_path / "out.mns"
    code, out, err = run(capsys, "expand", "--series-file", str(src), "--out", str(out_file))
    assert code == 64
    assert not out_file.exists()
    assert not out


def test_usage_errors_exit_64(capsys):
    assert run(capsys, "verify-monoid", "--group", "heis", "--L", "3")[0] == 64  # missing gens
    assert run(capsys, "no-such-command")[0] == 64
    assert run(capsys, "digit-sum", "--r", "x/y", "--N", "3")[0] == 64
    assert run(capsys, "verify-monoid", "--group", "nope", "--gens", "a", "--L", "1")[0] == 64


def test_guard_limits_exit_65_and_override(capsys):
    code, _, err = run(capsys, "verify-monoid", "--group", "bs12",
                       "--gens", "B(1/1,1),B(0/1,1)", "--L", "17")
    assert code == 65 and "guard" in err
    code, _, err = run(capsys, "verify-group-algebra", "--c", "1", "--d", "1",
                       "--L", "2", "--D", "13")
    assert code == 65
    code, _, err = run(capsys, "digit-sum", "--r", "2", "--N", "21")
    # the digit-sum guard is the library's and has no override, so the
    # message must not offer one
    assert code == 65 and "N=21" in err and "--unsafe-bounds" not in err
    code, _, err = run(capsys, "digit-sum", "--r", "2", "--N", "25", "--unsafe-bounds")
    assert code == 65 and "--unsafe-bounds" not in err
    # the flag does lift the CLI-level degree guard (cheap run: 5 words)
    code, report = run_json(capsys, "verify-group-algebra", "--c", "1", "--d", "1",
                            "--L", "1", "--D", "13", "--unsafe-bounds")
    assert code == 0 and report["bounds"]["D"] == 13


@pytest.mark.parametrize("argv", [
    ("verify-monoid", "--group", "bs12", "--gens", "B(1/1,1),B(0/1,1)", "--L", "-2"),
    ("pingpong", "--r", "2", "--t", "1", "--L", "-1"),
    ("check-crossed", "--system", "z2-sign-twist", "--samples", "-3"),
    ("magnus", "--words", "ab", "--D=-1"),
    ("digit-sum", "--r", "2", "--N=-1"),
    ("verify-group-algebra", "--c", "1", "--d", "1", "--L=-1", "--D", "2"),
    ("verify-group-algebra", "--c", "1", "--d", "1", "--L", "2", "--D=-4"),
])
def test_negative_bounds_are_usage_errors(capsys, argv):
    # a negative bound checks nothing, so it must not yield a certificate;
    # it is refused before any runner, naming the flag and value it was given
    code, out, err = run(capsys, *argv)
    assert code == 64 and not out
    refusal = re.fullmatch(r"mnseries: error: (--\w+) must be nonnegative, got (-\d+)\n.*", err, re.S)
    assert refusal is not None, err
    flag, value = refusal.groups()
    assert f"{flag}={value}" in argv or (flag, value) in zip(argv, argv[1:])


@pytest.mark.parametrize("argv", [
    ("magnus", "--words", "", "--D", "3"),
    ("magnus", "--words", ",", "--D", "3"),
    ("magnus", "--words", "ab,", "--D", "3"),
    ("magnus", "--words", "ab,,ba", "--D", "3"),
    ("verify-monoid", "--group", "heis", "--gens", "H(1,0,0),H(0,1,0),", "--L", "3"),
    ("verify-monoid", "--group", "heis", "--gens", "H(1,0,0),,H(0,1,0)", "--L", "3"),
])
def test_empty_list_items_are_usage_errors(capsys, argv):
    # an empty item names no word and no element (the identity word is
    # written 1), so it is refused wherever it stands in the list
    code, out, _ = run(capsys, *argv)
    assert code == 64 and not out


ZERO_DENOMINATOR_FILES = {
    "q.mns": "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1/0\n",
    "qsqrt.mns": "monoid=z D=4 crossed=quadratic-conj-Z\n0\tZ(0)\t1/0+1*sqrt(2)\n",
}


@pytest.mark.parametrize("argv", [
    ("digit-sum", "--r", "1/0", "--N", "3"),
    ("pingpong", "--r", "2", "--t=1/0", "--L", "2"),
    ("verify-group-algebra", "--c", "1/0", "--d", "1", "--L", "1", "--D", "2"),
    ("verify-group-algebra", "--field", "Qsqrt:2", "--c", "1/0+1*sqrt(2)",
     "--d", "1+1*sqrt(2)", "--L", "1", "--D", "2"),
    ("verify-monoid", "--group", "bs12", "--gens", "B(1/0,1),B(0/1,1)", "--L", "2"),
    ("expand", "--series-file", "q.mns"),
    ("expand", "--series-file", "qsqrt.mns"),
])
def test_zero_denominator_is_a_usage_error(capsys, tmp_path, argv):
    # a rational p/0 is malformed input, not an internal error
    if argv[0] == "expand":
        path = tmp_path / argv[-1]
        path.write_text(ZERO_DENOMINATOR_FILES[argv[-1]])
        argv = argv[:-1] + (str(path),)
    code, out, err = run(capsys, *argv)
    assert code == 64 and not out and "zero denominator" in err


@pytest.mark.parametrize("argv,flag,text,canonical", [
    (("verify-group-algebra", "--field", "Fp:5", "--c", "6 mod 5", "--d", "2 mod 5",
      "--L", "2", "--D", "3"), "--c", "6 mod 5", "1 mod 5"),
    (("verify-group-algebra", "--c", "1", "--d", "2/4", "--L", "2", "--D", "3"),
     "--d", "2/4", "1/2"),
    (("verify-group-algebra", "--field", "Qsqrt:2", "--c", "1+1*sqrt(2)", "--d", "1/1-1*sqrt(2)",
      "--L", "2", "--D", "3"), "--d", "1/1-1*sqrt(2)", "1-1*sqrt(2)"),
    (("verify-group-algebra", "--field", "Fp:05", "--c", "1 mod 5", "--d", "2 mod 5",
      "--L", "2", "--D", "3"), "--field", "Fp:05", "Fp:5"),
    (("digit-sum", "--r", "10/4", "--N", "3"), "--r", "10/4", "5/2"),
    (("pingpong", "--r", "02", "--t", "1", "--L", "3"), "--r", "02", "2"),
    (("pingpong", "--r", "2", "--t=-3/6", "--L", "3"), "--t", "-3/6", "-1/2"),
    (("pingpong", "--r", "2", "--t", " 3/2", "--L", "3"), "--t", " 3/2", "3/2"),
], ids=("c", "d-Q", "d-Qsqrt", "field", "r-digit-sum", "r-pingpong", "t", "t-space"))
def test_non_canonical_flag_values_are_usage_errors(capsys, argv, flag, text, canonical):
    # a value must read back as itself, as series-file coefficients must, so
    # each computation has one spelling and one digest; the message names
    # the canonical spelling
    code, out, err = run(capsys, *argv)
    assert code == 64 and not out
    assert f"{flag} {text!r} is not in canonical form; write {canonical!r}" in err
    code, out, _ = run(capsys, *(a.replace(text, canonical) for a in argv))
    assert code != 64 and out


@pytest.mark.parametrize("argv,text,canonical", [
    (("verify-monoid", "--group", "heis", "--gens", "H(01,0,0),H(0,1,0)", "--L", "3"),
     "H(01,0,0)", "H(1,0,0)"),
    (("verify-monoid", "--group", "bs12", "--gens", "B(1/1,1),B(0/2,1)", "--L", "3"),
     "B(0/2,1)", "B(0/1,1)"),
    (("verify-monoid", "--group", "bs12", "--gens", "B(1/1,1)@r=4/2,B(0/1,1)", "--L", "3"),
     "B(1/1,1)@r=4/2", "B(1/1,1)@r=2/1"),
    (("verify-monoid", "--group", "wreath", "--gens", "W({0:1,1:0},0),W({},1)", "--L", "3"),
     "W({0:1,1:0},0)", "W({0:1},0)"),
    (("magnus", "--words", "aa'b,ab", "--D", "3"), "aa'b", "b"),
    (("magnus", "--words", "ab,a'a", "--D", "3"), "a'a", "1"),
], ids=("heis", "bs12", "bs12-ratio", "wreath", "word", "identity"))
def test_non_canonical_elements_and_words_are_usage_errors(capsys, argv, text, canonical):
    # each element of --gens and each word of --words reads back as itself
    flag = "--gens" if "--gens" in argv else "--words"
    code, out, err = run(capsys, *argv)
    assert code == 64 and not out
    assert f"{flag} {text!r} is not in canonical form; write {canonical!r}" in err
    code, out, _ = run(capsys, *(a.replace(text, canonical) for a in argv))
    assert code != 64 and out


def test_element_and_word_lists_have_one_digest(capsys):
    # a bs12 element may leave out its @r= suffix; spaces around the items
    # of a list are read past and left out of the report
    short = ("verify-monoid", "--group", "bs12", "--gens", "B(1/1,1),B(0/1,1)", "--L", "4")
    full = ("verify-monoid", "--group", "bs12", "--gens", "B(1/1,1)@r=2/1,B(0/1,1)", "--L", "4")
    code, report = run_json(capsys, *short)
    code_full, report_full = run_json(capsys, *full)
    assert code == code_full == 0 and report["details"] == report_full["details"]
    for argv in (("verify-monoid", "--group", "heis", "--gens", "H(1,0,0), H(0,1,0)", "--L", "4"),
                 ("magnus", "--words", "ab, ba ,1", "--D", "3")):
        spaced = run_json(capsys, *argv)[1]
        tight = run_json(capsys, *(a.replace(" ", "") for a in argv))[1]
        assert spaced["digest"] == tight["digest"]


# each input grammar is read by one full match: an element of --gens or of a
# series file, a field spec and a monoid id. Any other text is refused by
# name, quoting it, and never with Python's own message from int() or from
# unpacking
MALFORMED_FILES = {
    "free-x.mns": "monoid=free:x D=2 crossed=trivial\n",
    "wreath-cell.mns": "monoid=wreath D=2 crossed=trivial\n1\tW({0:x},0)\t1\n",
}


@pytest.mark.parametrize("argv,message", [
    (("verify-monoid", "--group", "heis", "--gens", "H(1,0),H(0,1,0)", "--L", "2"),
     "not a heis element: 'H(1,0)'"),
    (("verify-monoid", "--group", "bs12", "--gens", "B(1/2),B(0/1,1)", "--L", "2"),
     "not a bs12 element: 'B(1/2)'"),
    (("verify-monoid", "--group", "wreath", "--gens", "W({0:1:2},0),W({},1)", "--L", "2"),
     "not a wreath element: 'W({0:1:2},0)'"),
    (("verify-monoid", "--group", "wreath", "--gens", "W({0:x},0),W({},1)", "--L", "2"),
     "not a wreath element: 'W({0:x},0)'"),
    (("verify-monoid", "--group", "z2", "--gens", "Z2(0,0,0),Z2(0,1)", "--L", "2"),
     "not a z2 element: 'Z2(0,0,0)'"),
    (("verify-monoid", "--group", "z", "--gens", "Z(1,2)", "--L", "2"),
     "not a z element: 'Z(1,2)'"),
    (("verify-group-algebra", "--field", "Fp:x", "--c", "1", "--d", "1", "--L", "2", "--D", "2"),
     "unknown field spec 'Fp:x'"),
    (("verify-group-algebra", "--field", "Qsqrt:two", "--c", "1", "--d", "1", "--L", "2",
      "--D", "2"), "unknown field spec 'Qsqrt:two'"),
    (("expand", "--series-file", "free-x.mns"), "unknown group id 'free:x'"),
    (("expand", "--series-file", "wreath-cell.mns"), "not a wreath element: 'W({0:x},0)'"),
], ids=("heis-arity", "bs12-arity", "wreath-cell", "wreath-value", "z2-arity", "z-arity",
        "field-Fp", "field-Qsqrt", "monoid-free", "file-wreath-value"))
def test_malformed_input_is_refused_by_name(capsys, tmp_path, monkeypatch, argv, message):
    for name, text in MALFORMED_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 64 and not out and message in err
    assert "invalid literal" not in err and "unpack" not in err


@pytest.mark.parametrize("text,message", [
    ("monoid=z D=2 crossed=bogus\n0\tZ(0)\t1\n", "unknown crossed system 'bogus'"),
    ("monoid=bogus D=2 crossed=trivial\n0\tZ(0)\t1\n", "unknown group id 'bogus'"),
    ("", "empty series text"),
    ("monoid=z2 D=4 crossed=trivial\n1\tZ2(-1,2)\t1\n",
     "support element Z2(-1,2) outside context z2"),
    ("monoid=bs12 D=4 crossed=trivial\n-1\tB(0/1,-1)@r=2/1\t1\n",
     "support element B(0/1,-1)@r=2/1 outside context bs12"),
    ("monoid=wreath D=4 crossed=trivial\n-1\tW({},-1)\t1\n",
     "support element W({},-1) outside context wreath"),
], ids=("crossed-bogus", "monoid-bogus", "empty", "z2-outside", "bs12-outside", "wreath-outside"))
def test_series_file_refusals_name_the_input(tmp_path, capsys, text, message):
    # an unknown id in the header, an empty file, and a well-formed element
    # outside the monoid are each refused with their own message
    path = tmp_path / "refused.mns"
    path.write_text(text)
    code, out, err = run(capsys, "expand", "--series-file", str(path))
    assert code == 64 and not out and message in err


def test_seven_generators_are_named_g0_to_g6(capsys):
    # up to six generators are named x, y, z, u, v, w; from seven on the
    # witness words spell them g0, g1, ...
    gens = "H(3,0,0),H(2,1,0),H(2,1,1),H(2,1,2),H(1,2,0),H(1,2,1),H(1,2,2)"
    code, report = run_json(capsys, "verify-monoid", "--group", "heis", "--gens", gens, "--L", "2")
    assert code == 2 and report["witness"]["words"] == ["g0g4", "g3g3"]
    assert report["digest"] == "bf55fa0337bec4f1"


def _random_magnus_words(rng):
    """One to five reduced words over an alphabet of one to three letters,
    the identity among them at times, and at times one word twice."""
    k = rng.randint(1, 3)
    words = []
    for _ in range(rng.randint(1, 5)):
        letters = []
        for _ in range(rng.randint(0, 5)):
            letter = (rng.randrange(k), rng.choice((1, -1)))
            if not letters or letters[-1] != (letter[0], -letter[1]):
                letters.append(letter)
        words.append(tuple(letters))
    if rng.random() < 0.3:
        words.insert(rng.randrange(len(words) + 1), rng.choice(words))
    size = max((sym for letters in words for sym, _ in letters), default=0) + 1
    return [FreeWord(size, letters) for letters in words]


def test_magnus_report_matches_the_reference_report(capsys):
    # the printed rows, the words spelled once and the inline word strings
    # give the bytes and the digest of the reference report, item spaces aside
    rng = random.Random("magnus-report")
    seen = {"inverse": 0, "identity": 0, "collision": 0, "sizes": set()}
    for case in range(72):
        degree = case % 6
        words = _random_magnus_words(rng)
        spelled = [f" {w} " if rng.random() < 0.2 else str(w) for w in words]
        code, out, err = run(capsys, "magnus", "--words", ",".join(spelled), "--D", str(degree))
        want = reference_magnus_report(words, degree)
        assert strip_elapsed(out) == strip_elapsed(want), (spelled, degree)
        assert json.loads(out)["digest"] == json.loads(want)["digest"]
        distinct = json.loads(want)["distinct"]
        assert code == (0 if distinct else 2) and not err
        seen["inverse"] += any(sign == -1 for w in words for _, sign in w.letters)
        seen["identity"] += any(not w for w in words)
        seen["collision"] += not distinct
        seen["sizes"].add(words[0].size)
    assert min(seen["inverse"], seen["identity"], seen["collision"]) > 0, seen
    assert seen["sizes"] == {1, 2, 3}


def test_magnus_word_length_guard(capsys, monkeypatch):
    # the L guard applies to the words themselves; an evaluation that starts
    # fails, so a missing guard cannot pass by running
    from mnseries import magnus

    def no_evaluation(words, units):
        raise RuntimeError("words evaluated past the length guard")

    monkeypatch.setattr(magnus, "word_images", no_evaluation)
    code, out, err = run(capsys, "magnus", "--words", "ab" * 40, "--D", "12")
    assert code == 65 and "guard" in err and "L=80" in err and not out
    code, out, err = run(capsys, "magnus", "--words", "ab," + "a" * 17 + ",1", "--D", "4")
    assert code == 65 and "L=17" in err and not out
    # the flag lifts the guard: the evaluation starts
    code, out, err = run(capsys, "magnus", "--words", "ab" * 40, "--D", "12", "--unsafe-bounds")
    assert code == 70 and "past the length guard" in err and not out
    # the ceiling itself, L=16, passes without the flag
    code, out, err = run(capsys, "magnus", "--words", "a'b" * 8, "--D", "4")
    assert code == 70 and "past the length guard" in err and not out


def test_magnus_term_count_guard(capsys, monkeypatch):
    # 16 inverse letters fit the L guard but mean C(28, 12) = 30,421,755
    # terms at D=12; the count, summed over the words, is guarded in closed
    # form, so an evaluation that starts fails
    from mnseries import magnus

    def no_evaluation(words, units):
        raise RuntimeError("words evaluated past the term guard")

    monkeypatch.setattr(magnus, "word_images", no_evaluation)
    inverses = "".join(ch + "'" for ch in "abcdefghijklmnop")
    code, out, err = run(capsys, "magnus", "--words", "ab," + inverses, "--D", "12")
    assert code == 65 and "magnus_terms=30421759" in err and not out
    # two words at the limit are held at once: 2 * 125970 terms
    code, out, err = run(capsys, "magnus", "--words", f"{inverses[:16]},{inverses[:16]}", "--D", "12")
    assert code == 65 and "magnus_terms=251940" in err and not out
    # 9 inverse letters are one over the limit C(20, 8) = 125970 at D=12
    code, out, err = run(capsys, "magnus", "--words", inverses[:18], "--D", "12")
    assert code == 65 and "magnus_terms=293930" in err and not out
    # the flag lifts the guard: the evaluation starts
    code, out, err = run(capsys, "magnus", "--words", inverses, "--D", "12", "--unsafe-bounds")
    assert code == 70 and "past the term guard" in err and not out
    # 8 inverse letters, and a 16-letter positive word (64,839 terms), pass
    for words in (inverses[:16], "abcdefghijklmnop"):
        code, out, err = run(capsys, "magnus", "--words", words, "--D", "12")
        assert code == 70 and "past the term guard" in err and not out


def test_magnus_term_bound_bounds_the_images():
    from mnseries.magnus import (enumerate_reduced_words, magnus_image, magnus_term_bound,
                                 parse_word)

    assert magnus_term_bound(parse_word("a'b'c'd'e'f'g'h'"), 12) == 125970
    assert magnus_term_bound(parse_word("abcdefghijklmnop"), 12) == 64839
    for degree in range(6):
        for word in enumerate_reduced_words(2, 4) + [parse_word("a'a'b'c"), parse_word("abca'")]:
            assert len(magnus_image(word, degree).terms) <= magnus_term_bound(word, degree)
    # one inverse letter's image reaches the bound: 1 - a + a^2 - ... - a^5
    inverse = parse_word("a'")
    assert len(magnus_image(inverse, 5).terms) == magnus_term_bound(inverse, 5) == 6


def test_group_algebra_word_count_guard(capsys, monkeypatch):
    # L=16 passes the length guard but means 86,093,441 reduced words; the
    # count is guarded in closed form, so an enumeration that starts fails
    from mnseries import freeness

    def no_enumeration(size, max_length):
        raise RuntimeError("words enumerated past the word-count guard")

    monkeypatch.setattr(freeness, "enumerate_reduced_words", no_enumeration)
    code, out, err = run(capsys, "verify-group-algebra", "--c", "1", "--d", "1",
                         "--L", "16", "--D", "4")
    assert code == 65 and "guard" in err and "words=86093441" in err and not out
    code, out, err = run(capsys, "verify-group-algebra", "--c", "1", "--d", "1",
                         "--L", "7", "--D", "4")
    assert code == 65 and "words=4373" in err and not out
    # the flag lifts the word-count guard: the enumeration starts
    code, out, err = run(capsys, "verify-group-algebra", "--c", "1", "--d", "1",
                         "--L", "7", "--D", "4", "--unsafe-bounds")
    assert code == 70 and "past the word-count guard" in err and not out
    # the ceiling itself, L=6 with 1457 words, passes without the flag
    code, out, err = run(capsys, "verify-group-algebra", "--c", "1", "--d", "1",
                         "--L", "6", "--D", "4")
    assert code == 70 and "past the word-count guard" in err and not out


def test_monoid_word_count_guard(capsys, monkeypatch):
    # four weight-2 bs12 generators at L=16 pass the length guard but mean
    # 5,726,623,061 words; the count is guarded in closed form, so an
    # enumeration that starts fails
    from mnseries import freeness

    def no_enumeration(group, generators, max_length):
        raise RuntimeError("words enumerated past the monoid word guard")

    monkeypatch.setattr(freeness, "enumerate_monoid", no_enumeration)
    four = "B(0/1,2),B(1/1,2),B(2/1,2),B(3/1,2)"
    code, out, err = run(capsys, "verify-monoid", "--group", "bs12", "--gens", four, "--L", "16")
    assert code == 65 and "guard" in err and "monoid_words=5726623061" in err and not out
    # the flag lifts the guard: the enumeration starts
    code, out, err = run(capsys, "verify-monoid", "--group", "bs12", "--gens", four, "--L", "16",
                         "--unsafe-bounds")
    assert code == 70 and "past the monoid word guard" in err and not out
    # the ceiling itself, two generators at L=16 with 131071 words, passes
    # without the flag
    code, out, err = run(capsys, "verify-monoid", "--group", "bs12",
                         "--gens", "B(1/1,1),B(0/1,1)", "--L", "16")
    assert code == 70 and "past the monoid word guard" in err and not out


def test_guard_applies_to_series_file_degree(tmp_path, capsys, monkeypatch):
    # inverting this file at D=40 would need 2^41 terms; the header's degree is
    # guarded before any inversion starts, so one that starts fails the test
    def no_inversion(self):
        raise RuntimeError("inversion started past the degree guard")

    monkeypatch.setattr(GradedSeries, "invert", no_inversion)
    big = tmp_path / "big.mns"
    big.write_text("monoid=free:2 D=40 crossed=trivial\n0\t1\t1\n1\ta\t1\n1\tb\t1\n")
    code, out, err = run(capsys, "expand", "--series-file", str(big), "--invert")
    assert code == 65 and "guard" in err and "D=40" in err and not out
    over = tmp_path / "over.mns"
    over.write_text("monoid=free:1 D=13 crossed=trivial\n0\t1\t1\n1\ta\t-1\n")
    code, out, err = run(capsys, "expand", "--series-file", str(over))
    assert code == 65 and "guard" in err and not out
    monkeypatch.undo()
    code, out, _ = run(capsys, "expand", "--series-file", str(over), "--invert",
                       "--format", "text", "--unsafe-bounds")
    assert code == 0
    assert out.splitlines()[-1] == "13\t" + "a" * 13 + "\t1"
    # the ceiling itself is accepted without the flag
    edge = tmp_path / "edge.mns"
    edge.write_text("monoid=free:1 D=12 crossed=trivial\n0\t1\t1\n1\ta\t-1\n")
    code, _, _ = run(capsys, "expand", "--series-file", str(edge), "--invert")
    assert code == 0


def test_free_monoid_inverse_term_guard(tmp_path, capsys, monkeypatch):
    # free:4 at D=12 and free:26 at D=5 pass the degree guard, but their
    # inverses would reach 22,369,621 and 12,356,631 terms; the weight ball is
    # guarded in closed form, so an inversion that starts fails the test
    def no_inversion(self):
        raise RuntimeError("inversion started past the term guard")

    monkeypatch.setattr(GradedSeries, "invert", no_inversion)
    for monoid, degree, terms in (("free:4", 12, 22369621), ("free:26", 5, 12356631)):
        path = tmp_path / f"{monoid[5:]}.mns"
        path.write_text(f"monoid={monoid} D={degree} crossed=trivial\n0\t1\t1\n1\ta\t1\n")
        code, out, err = run(capsys, "expand", "--series-file", str(path), "--invert")
        assert code == 65 and "guard" in err and f"terms={terms}" in err and not out
        # the file is read back without --invert, and the flag lifts the guard
        code, out, _ = run(capsys, "expand", "--series-file", str(path), "--format", "text")
        assert code == 0 and out == path.read_text()
        code, out, err = run(capsys, "expand", "--series-file", str(path), "--invert",
                             "--unsafe-bounds")
        assert code == 70 and "past the term guard" in err and not out
    # the ceiling itself, free:3 at D=12 with 797,161 words, passes without
    # the flag, and so does a group context at D=12
    path = tmp_path / "edge.mns"
    for monoid, identity in (("free:3", "1"), ("bs12", "B(0/1,0)@r=2/1")):
        path.write_text(f"monoid={monoid} D=12 crossed=trivial\n0\t{identity}\t1\n")
        code, out, err = run(capsys, "expand", "--series-file", str(path), "--invert")
        assert code == 70 and "past the term guard" in err and not out


def test_check_crossed_sample_guard(capsys, monkeypatch):
    # 100001 samples exceed the guard, which holds before any check runs
    def no_check(system, samples, seed):
        raise RuntimeError("crossed system checked past the sample guard")

    monkeypatch.setattr(cli, "check_crossed_system", no_check)
    code, out, err = run(capsys, "check-crossed", "--system", "z2-sign-twist", "--samples", "100001")
    assert code == 65 and "guard" in err and "samples=100001" in err and not out
    # the flag lifts the guard, and the ceiling itself passes without it
    for argv in (("--samples", "100001", "--unsafe-bounds"), ("--samples", "100000")):
        code, out, err = run(capsys, "check-crossed", "--system", "z2-sign-twist", *argv)
        assert code == 70 and "past the sample guard" in err and not out


def test_ratio_bits_guard(capsys, monkeypatch):
    # a 65-bit --r numerator or denominator exceeds the guard, which holds
    # before either verifier runs; a long --t is not guarded
    def no_check(*args):
        raise RuntimeError("verifier ran past the ratio guard")

    monkeypatch.setattr(cli, "digit_sum_check", no_check)
    monkeypatch.setattr(cli, "pingpong_check", no_check)
    for r in (str(2 ** 64), f"1/{2 ** 64}", f"{10 ** 1000}/3"):
        for argv in (("digit-sum", "--r", r, "--N", "3"),
                     ("pingpong", "--r", r, "--t", "1", "--L", "3")):
            code, out, err = run(capsys, *argv)
            assert code == 65 and "ratio_bits=" in err and "in --r" in err and not out
            code, out, err = run(capsys, *argv, "--unsafe-bounds")
            assert code == 70 and "past the ratio guard" in err and not out
    # the ceiling itself, 64 bits, passes without the flag
    for argv in (("digit-sum", "--r", f"{2 ** 64 - 1}/{2 ** 63}", "--N", "3"),
                 ("pingpong", "--r", str(2 ** 64 - 1), "--t", str(10 ** 4000), "--L", "3")):
        code, out, err = run(capsys, *argv)
        assert code == 70 and "past the ratio guard" in err and not out


def test_field_parameters_out_of_range_exit_64(tmp_path, capsys, monkeypatch):
    # a modulus from PSI_12 up and a radicand from 2**31 up are refused before
    # any primality or square-free test runs, from --field and from series files
    from mnseries import scalars

    def no_test(n):
        raise RuntimeError("field parameter tested past its range")

    monkeypatch.setattr(scalars, "is_prime", no_test)
    monkeypatch.setattr(scalars, "is_square_free", no_test)
    psi = scalars.PSI_12
    radicand = 10 ** 30 + 57
    for field, c in ((f"Fp:{psi}", f"1 mod {psi}"), (f"Qsqrt:{radicand}", "1")):
        code, out, err = run(capsys, "verify-group-algebra", "--field", field, "--c", c,
                             "--d", c, "--L", "1", "--D", "1")
        assert code == 64 and "outside" in err and not out
    for coefficient in (f"1 mod {psi}", f"1+1*sqrt({radicand})"):
        path = tmp_path / "field.mns"
        path.write_text(f"monoid=z D=2 crossed=trivial\n0\tZ(0)\t{coefficient}\n")
        code, out, err = run(capsys, "expand", "--series-file", str(path))
        assert code == 64 and "outside" in err and not out


@pytest.mark.parametrize("first", ("1 mod 7", "1+1*sqrt(2)"))
@pytest.mark.parametrize("second", ("1/2", "1 mod 5", "3", "1+1*sqrt(3)"))
def test_series_file_coefficient_off_the_first_ones_field_is_refused(tmp_path, capsys, first, second):
    # the first coefficient names the field, whose parse refuses a
    # coefficient of any other field, a plain rational or integer included
    path = tmp_path / "mixed.mns"
    path.write_text(f"monoid=z D=2 crossed=trivial\n0\tZ(0)\t{first}\n1\tZ(1)\t{second}\n")
    code, out, err = run(capsys, "expand", "--series-file", str(path))
    assert code == 64 and "not an element of" in err and not out


def test_zero_series_under_quadratic_conj_z_is_refused(tmp_path, capsys):
    # a series with no coefficient and no field= in its header reads back
    # over Q, which quadratic-conj-Z refuses; with field=Qsqrt:2 it is the
    # zero series over its own field, and expand prints the file back
    path = tmp_path / "zero.mns"
    path.write_text("monoid=z D=3 crossed=quadratic-conj-Z\n")
    code, out, err = run(capsys, "expand", "--series-file", str(path))
    assert code == 64 and "quadratic coefficients" in err and not out
    text = "monoid=z D=3 crossed=quadratic-conj-Z field=Qsqrt:2\n"
    path.write_text(text)
    code, out, err = run(capsys, "expand", "--series-file", str(path), "--format", "text")
    assert code == 0 and out == text and not err


@pytest.mark.parametrize("text", [
    "monoid=heis D=2 crossed=z2-sign-twist\n0\tH(0,0,0)\t1\n",
    "monoid=z2 D=2 crossed=quadratic-conj-Z\n0\tZ2(0,0)\t1+1*sqrt(2)\n",
], ids=("heis-z2-sign-twist", "z2-quadratic-conj-Z"))
def test_crossed_system_on_another_group_is_refused(tmp_path, capsys, text):
    # the registry builds the named system over the file's field, and series
    # validation refuses it on a context it does not act on
    path = tmp_path / "foreign.mns"
    path.write_text(text)
    code, out, err = run(capsys, "expand", "--series-file", str(path))
    assert code == 64 and "does not act on context" in err and not out


def test_unsafe_bounds_help_names_every_guard(capsys):
    code, out, _ = run(capsys, "digit-sum", "--help")
    assert code == 0
    for name, limit in cli.GUARDS.items():
        assert f"{name}<={limit}" in out


def test_parser_built_once_per_process(capsys, monkeypatch):
    calls = []

    def counting_build_parser():
        calls.append(None)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        code, first, _ = run(capsys, *DOCUMENTED[3])
        assert code == 0
        code, out, usage = run(capsys, "digit-sum", "--r", "5/2")  # no --N
        assert code == 64 and "usage:" in usage and not out
        code, again, _ = run(capsys, *DOCUMENTED[3])
        assert code == 0 and strip_elapsed(again) == strip_elapsed(first)
        assert run(capsys, "digit-sum", "--r", "5/2")[2] == usage
        for argv in DOCUMENTED[4:]:
            assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1
    finally:
        cli._parser.cache_clear()


def test_internal_failures_exit_70(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("deliberate")

    monkeypatch.setattr(cli, "digit_sum_check", boom)
    code, out, err = run(capsys, "digit-sum", "--r", "2", "--N", "3")
    assert code == 70
    assert "internal error" in err and not out


def test_failed_witness_reverification_exits_70(capsys, monkeypatch):
    from mnseries import freeness

    assert not issubclass(freeness.InvariantError, ValueError)
    monkeypatch.setattr(freeness, "rational_power", lambda r, k: Fraction(k))
    code, out, err = run(capsys, "digit-sum", "--r", "1", "--N", "4")
    assert code == 70
    assert "invariant failed" in err and not out


def test_failed_classification_check_is_an_invariant_failure(capsys, monkeypatch):
    # a Heisenberg product with an extra c*x term no longer has a central
    # center, and classify reports that as a failed invariant, not as a bare
    # assertion
    from mnseries import groups

    def skewed(g, h):
        a, b, c = g
        x, y, z = h
        return (a + x, b + y, c + z + a * y + c * x)

    monkeypatch.setattr(groups.HeisenbergElement, "_product", staticmethod(skewed))
    code, out, err = run(capsys, "classify", "--group", "heis")
    assert code == 70 and not out
    assert "invariant failed: jump (1,center) is not central" in err


def test_one_invariant_error():
    from mnseries import crossed, freeness, groups, linalg, report

    for module in (mnseries, crossed, freeness, groups, linalg, cli):
        assert module.InvariantError is report.InvariantError


@pytest.mark.parametrize("argv", [
    ("digit-sum", "--r", "1", "--N", "12"),
    ("verify-monoid", "--group", "heis", "--gens", "H(1,0,0),H(0,1,0)", "--L", "6"),
])
def test_reports_survive_optimized_mode(argv):
    """The witness re-verification is not an assert, so python -O runs it
    and gives the same report."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    digests = []
    for flags in ((), ("-O",)):
        proc = subprocess.run([sys.executable, *flags, "-m", "mnseries.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 2, proc.stderr
        digests.append(json.loads(proc.stdout)["digest"])
    assert digests[0] == digests[1]


def test_cli_import_leaves_out_dataclasses_inspect_and_tempfile():
    """A fresh interpreter, isolated and without site, imports the CLI without
    the modules that made most of its cold start: dataclasses (with inspect)
    and tempfile, which only a run with --out imports."""
    script = ("import sys\n"
              f"sys.path.insert(0, {SRC_DIR!r})\n"
              "import mnseries.cli\n"
              "print(','.join(m for m in ('dataclasses', 'inspect', 'tempfile') if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "", proc.stdout


def test_witness_reverification_runs_in_optimized_mode():
    script = ("from fractions import Fraction\n"
              "from mnseries import cli, freeness\n"
              "freeness.rational_power = lambda r, k: Fraction(k)\n"
              "raise SystemExit(cli.run_command(['digit-sum', '--r', '1', '--N', '4']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC_DIR), check=False)
    assert proc.returncode == 70 and not proc.stdout, proc.stderr


# A rank-deficient Q case (53 words, rank 28), and the integer kernel with the
# dependency row's own entry multiplied by a prime, source text so that a
# subprocess can run it too: the rescale to the fraction-free scale then
# cannot divide exactly.
DEFICIENT_Q = ["verify-group-algebra", "--group", "heis", "--field=Q", "--c=1", "--d=1",
               "--L", "3", "--D", "4"]
CORRUPTED_KERNEL = """
def corrupted(eliminate):
    def kernel(rows, n_cols, radicand):
        rank, order = eliminate(rows, n_cols, radicand)
        if rank < len(rows):
            rows[rank][n_cols + order[rank]] *= 1000003
        return rank, order
    return kernel
"""


def test_inexact_dependency_rescale_exits_70(capsys, monkeypatch):
    from mnseries import linalg

    namespace = {}
    exec(CORRUPTED_KERNEL, namespace)
    monkeypatch.setattr(linalg, "_eliminate_integral",
                        namespace["corrupted"](linalg._eliminate_integral))
    code, out, err = run(capsys, *DEFICIENT_Q)
    assert code == 70 and not out
    assert "invariant failed: dependency does not rescale" in err


def test_dependency_rescale_check_runs_in_optimized_mode():
    script = (CORRUPTED_KERNEL + "from mnseries import cli, linalg\n"
              "linalg._eliminate_integral = corrupted(linalg._eliminate_integral)\n"
              f"raise SystemExit(cli.run_command({DEFICIENT_Q!r}))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC_DIR), check=False)
    assert proc.returncode == 70 and not proc.stdout, proc.stderr
    assert "dependency does not rescale" in proc.stderr


def test_exit_code_3_for_inconclusive(capsys, monkeypatch):
    from mnseries.report import INCONCLUSIVE, Report

    def fake(units, L, degree=None, names=None):
        return Report("group-algebra", INCONCLUSIVE, {"L": L, "D": 2, "N": None},
                       {"dependency": {"a": "1"}})

    monkeypatch.setattr(cli, "group_algebra_independence", fake)
    code, report = run_json(capsys, "verify-group-algebra", "--c", "1", "--d", "1",
                            "--L", "1", "--D", "2")
    assert code == 3


def test_schema_field_present(capsys):
    _, report = run_json(capsys, *DOCUMENTED[3])
    assert report["schema"] == "mnseries-report/1"
