"""The one report type every verifier returns, and the two encodings of the
CLI's reports: the content digest and the indented JSON text.

A report is a verdict scoped by the bounds it was checked under: its kind,
the verdict, the bounds, a witness (the collision, violation or dependency
that decided it, or None) and details (counts and descriptive data). The
verdicts map to the CLI's exit codes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from json.encoder import encode_basestring_ascii

from .scalars import TupleValue

VERIFIED = "verified-up-to-bound"
COUNTEREXAMPLE = "counterexample"
INCONCLUSIVE = "inconclusive-at-D"

EXIT_CODES = {VERIFIED: 0, COUNTEREXAMPLE: 2, INCONCLUSIVE: 3}


class InvariantError(RuntimeError):
    """An independent re-verification of a computed result failed."""


class Report(TupleValue):
    __slots__ = ()
    _fields = ("kind", "verdict", "bounds", "witness", "details")

    def __new__(cls, kind, verdict, bounds, witness=None, details=None):
        if details is None:
            details = {}
        return tuple.__new__(cls, (kind, verdict, bounds, witness, details))

    @property
    def verified(self) -> bool:
        return self.verdict == VERIFIED

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]

    def to_json(self) -> dict:
        return dict(zip(self._fields, self))


def outcome(kind: str, bounds: dict, witness, details: dict) -> Report:
    """The report of an exhaustive check: verified when it found no witness,
    otherwise a counterexample carrying it."""
    return Report(kind, VERIFIED if witness is None else COUNTEREXAMPLE, bounds, witness, details)


def digest(payload: dict) -> str:
    """Content digest of a report payload: everything but elapsed_ms and the
    digest itself, as compact sorted JSON, sha256, first 16 hex digits."""
    scrubbed = {k: v for k, v in payload.items() if k not in ("elapsed_ms", "digest")}
    return hashlib.sha256(_encode_compact()(scrubbed).encode()).hexdigest()[:16]


@functools.cache
def _encode_compact():
    """json.dumps(value, sort_keys=True, separators=(",", ":")) without its
    circular-reference check, which a report, a tree of fresh containers,
    never needs: the same bytes from one encoder built on first use."""
    return json.JSONEncoder(sort_keys=True, check_circular=False, separators=(",", ":")).encode


def render_json(payload) -> str:
    """The report text: exactly json.dumps(payload, sort_keys=True, indent=2)."""
    # from 3.13 json.dumps runs the C encoder with indent as well; the writer
    # goes when requires-python reaches 3.13
    if sys.version_info >= (3, 13):
        return json.dumps(payload, sort_keys=True, indent=2)
    return write_indented(payload)


class Rows(list):
    """A series' printed rows, [(weight, element string, coefficient string)],
    which series.GradedSeries.rows() builds from int grades and str
    formats: write_indented writes them without checking their types."""

    __slots__ = ()


@functools.cache
def _encode_items(depth: int):
    """json's C encoder with indent=2's separators between items at this
    depth; the newlines after the opening bracket and before the closing one
    are left to the caller."""
    return json.JSONEncoder(sort_keys=True, check_circular=False,
                            separators=(",\n" + "  " * depth, ": ")).encode


def write_indented(value) -> str:
    """The bytes of json.dumps(value, sort_keys=True, indent=2) for a value
    made of str-keyed dicts, lists, tuples, str, int, bool and None; any
    other type, or a non-str key, raises TypeError. A Rows is taken as it
    is, without checking its items.

    Only a Rows is one call of json's C encoder: JSON string escaping never
    writes a raw newline, so every newline in its output is a separator, and
    the newlines around the rows' brackets are patched in by slicing and
    replace. Every other container is walked item by item, and a str value
    of a dict is encoded in place, without a recursive call. Every fragment
    goes to one list, joined once."""
    out = []
    _write(value, 0, out)
    return "".join(out)


def _write(value, depth: int, out: list) -> None:
    if type(value) is Rows:
        out.append(_write_rows(value, depth) if value else "[]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
        else:
            separator = "{\n" + "  " * (depth + 1)
            for key, item in sorted(value.items()):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                out += (separator, encode_basestring_ascii(key), ": ")
                if type(item) is str:
                    out.append(encode_basestring_ascii(item))
                else:
                    _write(item, depth + 1, out)
                separator = ",\n" + "  " * (depth + 1)
            out.append("\n" + "  " * depth + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
        else:
            separator = "[\n" + "  " * (depth + 1)
            for item in value:
                out.append(separator)
                _write(item, depth + 1, out)
                separator = ",\n" + "  " * (depth + 1)
            out.append("\n" + "  " * depth + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_rows(rows, depth: int) -> str:
    """A nonempty Rows at this depth, in one encoder call."""
    # "],\n" can only end a row: a scalar ends in a digit, a letter or a quote
    outer, inner = "  " * (depth + 1), "  " * (depth + 2)
    body = _encode_items(depth + 2)(rows)[2:-2].replace(
        "],\n" + inner + "[", f"\n{outer}],\n{outer}[\n{inner}")
    return f"[\n{outer}[\n{inner}{body}\n{outer}]\n{'  ' * depth}]"
