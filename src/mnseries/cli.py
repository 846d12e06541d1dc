"""Command-line surface: run the verifiers, expand series files, classify the
built-in groups, and emit machine-readable reports.

Exit codes: 0 verified/ok, 2 counterexample found, 3 inconclusive at the
given truncation, 64 usage error, 65 guard-limit violation, 70 internal
invariant failure. Reports are deterministic for a fixed seed; the
elapsed_ms field is the only part that may vary between runs and it is
excluded from the content digest.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from operator import attrgetter

from . import registry
from .crossed import check_crossed_system
from .freeness import (
    GuardLimitError,
    digit_sum_check,
    free_monoid_check,
    group_algebra_independence,
    pingpong_check,
    type1_unit_generators,
)
from .groups import SemidirectGroup, classify_order_type, monoid_word_count
from .magnus import (LETTERS, FreeMonoid, magnus_images, magnus_term_bound, parse_word,
                     reduced_word_count)
from .report import COUNTEREXAMPLE, EXIT_CODES, VERIFIED, InvariantError, digest, render_json
from .scalars import field_from_spec, parse_rational
from .series import from_text, to_text

SCHEMA = "mnseries-report/1"
# "words" bounds the reduced words verify-group-algebra enumerates: 1457 is
# the count at L=6 for two units, and L=16 alone would allow about 86 million.
# "monoid_words" bounds the words verify-monoid checks: 131071 = 2^17 - 1 is
# the count at L=16 for two generators, where four would mean about 5.7e9.
# "magnus_terms" bounds the terms of the magnus images of all --words
# together, as they are held at once: 125970 = C(20, 8) is the count for one
# word of 8 inverse letters at D=12, where 16 would mean 30,421,755.
# "samples" bounds check-crossed's sampled triples: 100000 took 5 s on the
# slowest built-in system, quadratic-conj-Z (Python 3.11.7, 2 cores).
# "terms" bounds the series expand --invert builds on free:<k>, the words of
# length at most D: 797161 is free:3 at D=12, where free:26 at D=5 would
# mean 12,356,631.
# "ratio_bits" bounds the larger bit length of --r's numerator and
# denominator in digit-sum and pingpong: at r = 10^1000 digit-sum ran out of
# memory at N=18 and pingpong takes 23 s at L=14, where 64-bit ratios took
# 1.9 s at N=20 and take 0.6 s at L=16 (Python 3.11.7, 2 cores).
# digit-sum's N <= 20 is not here: digit_sum_check enforces it, with no override
GUARDS = {"L": 16, "D": 12, "words": 1457, "monoid_words": 131071, "magnus_terms": 125970,
          "samples": 100000, "terms": 797161, "ratio_bits": 64}

# the most digits one run of digits may have in an argument or a series
# file: Python's default int_max_str_digits. run_command lifts that limit so
# that a report can print the big integers exact elimination and inversion
# make (the Q dependency of c = 7777777777 at L=4, D=8 has an entry of 4522
# digits), and this bound keeps the inputs as they were: a huge --c would
# otherwise run for minutes instead of failing at parse
MAX_INPUT_DIGITS = 4300

# the verdicts' exit codes are report.EXIT_CODES
EXIT_USAGE = 64
EXIT_GUARD = 65
EXIT_INTERNAL = 70


_UNSAFE_HELP = ("lift the default guard limits ("
                + ", ".join(f"{name}<={limit}" for name, limit in GUARDS.items())
                + "); digit-sum's N<=20 always holds")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mnseries", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write the report to a file instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--unsafe-bounds", action="store_true", help=_UNSAFE_HELP)

    p = sub.add_parser("verify-monoid", help="collision-check generator words in a built-in group")
    p.add_argument("--group", required=True, choices=registry.group_ids())
    p.add_argument("--gens", required=True, help='comma-separated element strings, e.g. "B(1/1,1),B(0/1,1)"')
    p.add_argument("--L", type=int, required=True)
    common(p)

    p = sub.add_parser("verify-group-algebra",
                       help="certify linear independence of reduced words in the units 1+c*x, 1+d*y")
    p.add_argument("--group", default="heis", choices=("heis",))
    p.add_argument("--c", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--field", default="Q", help='"Q", "Fp:<p>" or "Qsqrt:<m>"')
    common(p)

    p = sub.add_parser("digit-sum", help="subset sums of powers of r must be pairwise distinct")
    p.add_argument("--r", required=True, help="positive rational, e.g. 5/2")
    p.add_argument("--N", type=int, required=True)
    common(p)

    p = sub.add_parser("magnus", help="truncated images of free-group words under letter -> 1+letter")
    p.add_argument("--words", required=True, help='comma-separated words, e.g. "ab,ba"; apostrophe marks inverses')
    p.add_argument("--D", type=int, required=True)
    common(p)

    p = sub.add_parser("expand", help="read a series file, optionally invert it, print it back")
    p.add_argument("--series-file", required=True)
    p.add_argument("--invert", action="store_true")
    common(p)

    p = sub.add_parser("check-crossed", help="verify the crossed-system validity identities")
    p.add_argument("--system", required=True, choices=registry.CROSSED_IDS)
    p.add_argument("--group", choices=registry.group_ids(),
                   help="home group for the trivial system (default heis); "
                        "any other system takes only its own group")
    p.add_argument("--samples", type=int, default=200)
    common(p)

    p = sub.add_parser("pingpong", help="ping-pong certificate on the Baumslag-Solitar-style group")
    p.add_argument("--r", required=True, help="integer ratio >= 2")
    p.add_argument("--t", required=True, help="nonzero rational translation")
    p.add_argument("--L", type=int, required=True)
    common(p)

    p = sub.add_parser("classify", help="convex-jump order type of a built-in group")
    p.add_argument("--group", required=True, choices=registry.group_ids())
    common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by later ones."""
    return build_parser()


def _check_guard(args, name, value, where=""):
    if value is not None and value > GUARDS[name] and not getattr(args, "unsafe_bounds", False):
        raise GuardLimitError(
            f"{name}={value}{where} exceeds the guard limit {GUARDS[name]} "
            "(pass --unsafe-bounds to override)"
        )


def _check_digits(where, text):
    """Refuse a run of more than MAX_INPUT_DIGITS digits in text."""
    if len(text) > MAX_INPUT_DIGITS:
        match = re.search(r"\d{%d,}" % (MAX_INPUT_DIGITS + 1), text)
        if match:
            raise ValueError(f"{where} holds a run of {len(match[0])} digits, over the "
                             f"limit of {MAX_INPUT_DIGITS}")


def _check_guards(args):
    """Refuse a negative bound by its flag, then hold each bound to its guard."""
    for name in ("L", "D", "N", "samples"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValueError(f"--{name} must be nonnegative, got {value}")
        if name in GUARDS:
            _check_guard(args, name, value)


def _render_text(payload: dict) -> str:
    lines = []

    def emit(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                emit(f"{prefix}.{k}" if prefix else k, value[k])
        elif isinstance(value, list):
            lines.append(f"{prefix}: {json.dumps(value)}")
        else:
            lines.append(f"{prefix}: {value}")

    emit("", payload)
    return "\n".join(lines) + "\n"


def _write_output(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    # only a run that writes a file pays for importing tempfile
    import tempfile

    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mnseries-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render(args, params: dict, body, elapsed_ms: int) -> str:
    """The report text: the runner's body under the command and its params,
    stamped with the schema, the elapsed time and the content digest. A str
    body is already the output."""
    if isinstance(body, str):
        return body
    payload = {"command": args.command, "params": {**params, "seed": args.seed}, **body,
               "schema": SCHEMA, "elapsed_ms": elapsed_ms}
    payload["digest"] = digest(payload)
    if args.format == "json":
        return render_json(payload) + "\n"
    return _render_text(payload)


def _split_elements(spec: str):
    """Split a comma-separated list of element strings, ignoring the commas
    inside parentheses or braces."""
    parts = []
    depth = 0
    current = []
    for ch in spec:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    parts.append("".join(current).strip())
    return parts


def _run_verify_monoid(args):
    group = registry.resolve_group(args.group)

    def spelling(text):
        # a bs12 element may leave out its @r= suffix: the group fixes the ratio
        if "@" in text:
            return group.format_element
        return lambda g: group.format_element(g).partition("@")[0]

    items = _split_elements(args.gens)
    gens = [_canonical("--gens", s, group.parse_element, spelling(s)) for s in items]
    _check_guard(args, "monoid_words", monoid_word_count(len(gens), args.L), f" at L={args.L}")
    report = free_monoid_check(group, gens, args.L)
    params = {"group": args.group, "gens": ",".join(items), "L": args.L}
    return params, report.to_json(), report.exit_code


def _canonical(flag: str, text: str, parse, write=str):
    """parse(text), refused unless write gives text back: the round-trip rule
    of series files, so a value has one spelling and one digest."""
    value = parse(text)
    if write(value) != text:
        raise ValueError(f"{flag} {text!r} is not in canonical form; write {write(value)!r}")
    return value


def _run_verify_group_algebra(args):
    group = registry.resolve_group(args.group)
    fld = _canonical("--field", args.field, field_from_spec, attrgetter("name"))
    c = _canonical("--c", args.c, fld.parse, fld.format)
    d = _canonical("--d", args.d, fld.parse, fld.format)
    units = type1_unit_generators(group, c, d, args.D, fld)
    _check_guard(args, "words", reduced_word_count(len(units), args.L), f" at L={args.L}")
    report = group_algebra_independence(list(units), args.L)
    params = {"group": args.group, "c": args.c, "d": args.d, "L": args.L, "D": args.D,
              "field": args.field}
    return params, report.to_json(), report.exit_code


def _parse_ratio(args):
    """--r as a Fraction, held to the ratio_bits guard."""
    r = _canonical("--r", args.r, parse_rational)
    _check_guard(args, "ratio_bits", max(r.numerator.bit_length(), r.denominator.bit_length()),
                 " in --r")
    return r


def _run_digit_sum(args):
    report = digit_sum_check(_parse_ratio(args), args.N)
    return {"r": args.r, "N": args.N}, report.to_json(), report.exit_code


def _run_magnus(args):
    # one alphabet for all the words, up to the last letter any of them uses
    # (find gives -1 for any other character)
    size = max([0, *map(LETTERS.find, args.words)]) + 1
    items = [w.strip() for w in args.words.split(",")]
    words = [_canonical("--words", item, lambda w: parse_word(w, size)) for item in items]
    longest = max(len(w) for w in words)
    _check_guard(args, "L", longest, " in --words")
    _check_guard(args, "magnus_terms", sum(magnus_term_bound(w, args.D) for w in words),
                 f" at D={args.D}")
    _, rows, collision = magnus_images(words, args.D)
    body = {
        "kind": "magnus",
        "bounds": {"L": longest, "D": args.D, "N": None},
        "distinct": collision is None,
        "collision": None if collision is None else [str(w) for w in collision],
        # a row tuple is written as a JSON array
        "images": [{"word": item, "terms": terms} for item, terms in zip(items, rows)],
    }
    code = EXIT_CODES[VERIFIED if collision is None else COUNTEREXAMPLE]
    return {"words": ",".join(items), "D": args.D}, body, code


def _run_expand(args):
    with open(args.series_file, "rb") as handle:
        data = handle.read()
    try:
        # CRLF and CR line ends read as LF, as in text mode
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"series file {args.series_file!r} is not UTF-8 text (byte "
                         f"{data[exc.start]:#04x} at offset {exc.start}); a series file is a "
                         "header line and one tab-separated line per term") from None
    _check_digits("the series file", text)
    series = from_text(text, registry.resolve_monoid, registry.resolve_crossed)
    _check_guard(args, "D", series.degree, " in the series-file header")
    # only a free monoid's weight ball outgrows memory inside the D guard: at
    # D <= 12 every built-in group's ball holds at most 8,191 elements (bs12
    # and wreath; heis 1,092)
    if args.invert and isinstance(series.context, FreeMonoid):
        _check_guard(args, "terms", monoid_word_count(series.context.size, series.degree),
                     f" in {series.context.id} at D={series.degree}")
    # an accepted file is exactly what to_text writes for its series
    rendered = to_text(series.invert()) if args.invert else text
    params = {"series_file": os.path.basename(args.series_file), "invert": args.invert}
    # the text format prints the series file itself
    return params, rendered if args.format == "text" else {"series": rendered}, EXIT_CODES[VERIFIED]


def _run_check_crossed(args):
    if args.system == "trivial":
        system = registry.trivial_on(args.group or "heis")
    else:
        system = registry.builtin_system(args.system)
        if args.group not in (None, system.group.id):
            raise ValueError(f"--group {args.group} is not the group of {args.system}, "
                             f"which is {system.group.id}")
    report = check_crossed_system(system, args.samples, args.seed)
    body = {"kind": report.kind, "valid": report.verified,
            "checked": report.details["checked"], "violation": report.witness}
    params = {"system": args.system, "group": system.group.id, "samples": args.samples}
    return params, body, report.exit_code


def _run_pingpong(args):
    r = _parse_ratio(args)
    t = _canonical("--t", args.t, parse_rational)
    report = pingpong_check(SemidirectGroup(r, t), args.L)
    return {"r": args.r, "t": args.t, "L": args.L}, report.to_json(), report.exit_code


def _run_classify(args):
    report = classify_order_type(registry.resolve_group(args.group), seed=args.seed)
    body = {"kind": report.kind, "witness": report.witness,
            **{key: report.details[key] for key in ("group", "type", "jumps", "checks")}}
    return {"group": args.group}, body, report.exit_code


_RUNNERS = {
    "verify-monoid": _run_verify_monoid,
    "verify-group-algebra": _run_verify_group_algebra,
    "digit-sum": _run_digit_sum,
    "magnus": _run_magnus,
    "expand": _run_expand,
    "check-crossed": _run_check_crossed,
    "pingpong": _run_pingpong,
    "classify": _run_classify,
}


def run_command(argv) -> int:
    """Parse and dispatch; never writes partial output on failure. Python's
    limit on int-string conversions is lifted while the command runs (see
    MAX_INPUT_DIGITS) and restored after it, also on failure."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    started = time.perf_counter()
    # Python before 3.10.7 has no such limit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for item in argv:
            _check_digits("an argument", item)
        _check_guards(args)
        params, body, code = _RUNNERS[args.command](args)
        elapsed_ms = int((time.perf_counter() - started) * 1000)
        _write_output(_render(args, params, body, elapsed_ms), args.out)
        return code
    except GuardLimitError as exc:
        print(f"mnseries: guard limit: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantError as exc:
        print(f"mnseries: internal error: invariant failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"mnseries: error: {exc}", file=sys.stderr)
        print(f"run 'mnseries {args.command} --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # internal invariant failure
        print(f"mnseries: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    code = run_command(sys.argv[1:] if argv is None else argv)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
