"""Differential tests: the report writer gives exactly the bytes of
json.dumps(value, sort_keys=True, indent=2), the oracle. The writer is called
directly, so every Python runs it, including those where render_json returns
json.dumps itself; the CLI tests check render_json through every pinned
report. The benchmark's seed-0 job lists, from perfbench/workloads.py
imported read-only, give the writer the report shapes the CLI makes."""

import hashlib
import json
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnseries import cli
from mnseries.report import Rows, digest, write_indented

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import workloads  # noqa: E402

# strings that look like the writer's own separators and brackets, escapes,
# control characters, non-ASCII text and lone surrogates
AWKWARD = ('"', "\\", "\n", "],\n    [", "],\n[", "[", "]", "{", "}", ",", ": ",
           "\x00", "\x1f", "\x7f", "é", "日本", "\U0001f600", "\ud800", "\udfff", "")
TEXT = st.one_of(st.sampled_from(AWKWARD),
                 st.text(st.characters(exclude_categories=()), max_size=8))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                    st.sampled_from((0, 1, True, False)), TEXT)
# the magnus rows: [weight, element, coefficient]
ROW = st.lists(SCALARS, min_size=1, max_size=4)
ROWS = st.lists(ROW | ROW.map(tuple), max_size=6)
VALUES = st.recursive(
    SCALARS | ROWS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=30,
)


# series rows as GradedSeries.rows() types them: int weights, str element
# and coefficient columns; the writer takes them unchecked
TYPED_ROWS = st.lists(st.tuples(st.integers(-2**70, 2**70), TEXT, TEXT), max_size=6).map(Rows)


def nested(value, depth):
    """value at this depth inside lists and dicts, alternately."""
    for level in range(depth):
        value = [value] if level % 2 else {"x": value, "y": 1}
    return value


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


@settings(derandomize=True, database=None, max_examples=400)
@given(VALUES)
def test_writer_matches_json_dumps(value):
    assert write_indented(value) == oracle(value)


@settings(derandomize=True, database=None, max_examples=200)
@given(ROWS, st.lists(SCALARS, max_size=4), TEXT)
def test_rows_among_scalars_and_containers(rows, scalars, key):
    # rows alone, rows next to scalars, and rows deeper inside a report
    for value in (rows, rows + scalars, scalars + rows, [rows, scalars],
                  {key: rows, "images": [{"word": key, "terms": rows}]}):
        assert write_indented(value) == oracle(value)


@pytest.mark.parametrize("value", [
    {}, [], (), [[]], [{}], {"a": []}, {"a": {}}, [[], [1]], [[1], []], [[1, [2]]],
    [[0, "1", "1"], [1, "a", "-1/2"], [2, "ab", "3"]], [[True], [1], [False, 0]],
    [True, 1, False, 0, None], {"true": True, "one": 1, "zero": 0, "false": False},
    [["],\n    [", "x"], ["\n", "]"]], ("t", (1, 2), ((3,), (4, 5))),
    {"b": 1, "a": [1, 2, {"c": None}], "c": [[True, None], ['"\\']]},
    "\ud800", 5, None, True,
])
def test_writer_matches_json_dumps_on_examples(value):
    assert write_indented(value) == oracle(value)


@pytest.mark.parametrize("value", [
    Fraction(1, 2), [Fraction(1, 2)], {"a": Fraction(1, 2)}, [[1, Fraction(1, 2)]],
    {1: "a"}, {"a": {2: []}}, [{None: 1}],
    # reports hold exact values only: a float is refused as well
    1.5, [[0.5]],
])
def test_writer_refuses_other_types_and_keys(value):
    with pytest.raises(TypeError):
        write_indented(value)


@settings(derandomize=True, database=None, max_examples=300)
@given(TYPED_ROWS, st.integers(0, 3), TEXT, SCALARS)
def test_typed_rows_at_every_depth(rows, depth, word, scalar):
    # typed rows alone and nested up to depth 3, beside scalars, and in the
    # magnus body shape, empty rows included
    body = {"images": [{"terms": rows, "word": word}, {"terms": Rows(), "word": word}]}
    for value in (rows, [rows, scalar], {word: rows, "s": scalar}, body):
        value = nested(value, depth)
        assert write_indented(value) == oracle(value)


@pytest.mark.parametrize("value", [
    Rows(), [Rows()], {"terms": Rows()},
    Rows([(0, "1", "1"), (1, "a", "-1/2"), (2, "ab", "3")]),
    Rows([(1, "],\n    [", "\n"), (-5, "]", "")]),
    {"images": [{"terms": Rows([(0, "1", "1")]), "word": "1"}]},
])
def test_typed_rows_examples(value):
    assert write_indented(value) == oracle(value)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_writer_on_the_benchmarks_reports(workload, tmp_path, monkeypatch, capsys):
    # the seed-0 job list of each benchmark workload, run in process, with
    # every report payload the CLI renders checked against the oracle
    jobs = workloads.build(workload, workloads.DEFAULT_SEED, 1, str(tmp_path))
    for job in jobs:
        for name, text in job.files.items():
            (tmp_path / name).write_text(text)
    payloads = []
    render_json = cli.render_json

    def collect(payload):
        payloads.append(payload)
        return render_json(payload)

    monkeypatch.setattr(cli, "render_json", collect)
    for job in jobs:
        cli.run_command(job.argv)
        capsys.readouterr()
    assert len(payloads) == len(jobs)
    for payload in payloads:
        assert write_indented(payload) == oracle(payload)


@settings(derandomize=True, database=None, max_examples=300)
@given(st.dictionaries(TEXT | st.sampled_from(("elapsed_ms", "digest")), VALUES, max_size=6),
       st.one_of(st.none(), st.integers(0, 10**6)), st.one_of(st.none(), TEXT))
def test_digest_is_sha256_of_compact_sorted_json(payload, elapsed_ms, old_digest):
    # the digest's encoder against json.dumps, with the two scrubbed keys
    # mixed into the payload or not
    if elapsed_ms is not None:
        payload["elapsed_ms"] = elapsed_ms
    if old_digest is not None:
        payload["digest"] = old_digest
    scrubbed = {k: v for k, v in payload.items() if k not in ("elapsed_ms", "digest")}
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    assert digest(payload) == hashlib.sha256(blob.encode()).hexdigest()[:16]
