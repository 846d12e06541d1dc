"""Known-answer checks on CLI reports.

Every report must carry the documented schema and a digest that matches its
content. Beyond that each command has an answer the benchmark can predict or
recompute without the package: digit sums of a rational r != 1 are always
distinct (clear denominators and read the sum modulo p or q), the generator
pairs of the monoid workload have known verdicts, inverses multiply back to
one under the reference arithmetic in model.py, and Magnus images are
recomputed for a few words of every job.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import model

SCHEMA = "mnseries-report/1"
LEGAL_EXITS = (0, 2, 3)
_ORDER_TYPES = {"heis": 1, "z": 1, "z2": 1, "bs12": 2, "wreath": 3}


def report_digest(payload: dict) -> str:
    """The CLI's content digest: everything but elapsed_ms and digest."""
    scrubbed = {k: v for k, v in payload.items() if k not in ("elapsed_ms", "digest")}
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _reduced_count(L):
    return 1 + sum(4 * 3 ** (k - 1) for k in range(1, L + 1))


def _evaluate(ctx, gens, word):
    names = "xy"
    g = ctx.identity
    for letter in word:
        g = ctx.mul(g, gens[names.index(letter)])
    return g


def check(job, code, payload) -> str | None:
    """None when the report is right, else what is wrong with it."""
    e = job.expect
    if code not in LEGAL_EXITS:
        return f"exit {code}"
    if payload.get("schema") != SCHEMA or payload.get("command") != job.argv[0]:
        return "schema or command mismatch"
    if payload.get("digest") != report_digest(payload):
        return "digest does not match the report content"
    kind = e["kind"]
    details = payload.get("details", {})
    if kind == "group-algebra":
        words = _reduced_count(e["L"])
        rank = details.get("rank")
        if details.get("words") != words or payload["bounds"] != {"L": e["L"], "D": e["D"], "N": None}:
            return "wrong word count or bounds"
        if details.get("field") != e["field"]:
            return "wrong field"
        if code == 0:
            return None if rank == words and payload["verdict"] == "verified-up-to-bound" else "bad verdict"
        if code == 3 and rank < words and payload["witness"]["dependency"]:
            return None
        return "bad inconclusive verdict"
    if kind == "magnus":
        images = payload["images"]
        if code != 0 or not payload["distinct"] or [i["word"] for i in images] != e["words"]:
            return "magnus images not distinct or not in input order"
        by_word = {i["word"]: i["terms"] for i in images}
        for w in e["spot"]:
            if by_word[w] != model.magnus_terms(w, e["D"]):
                return f"wrong Magnus image of {w}"
        return None
    if kind == "digit-sum":
        N = e["N"]
        if e["r"] != "1":
            ok = code == 0 and details.get("sums") == 2 ** (N + 1) - 1
            return None if ok else "digit sums of r != 1 must be distinct"
        r = Fraction(1)
        s1, s2 = payload["witness"]["subsets"] if code == 2 else ([], [])
        if code != 2 or s1 == s2 or sum(r**i for i in s1) != sum(r**i for i in s2):
            return "r = 1 must give a re-verifiable collision"
        return None
    if kind == "monoid":
        group, L = e["group"], e["L"]
        if group in ("bs12", "wreath"):
            full = 2 ** (L + 1) - 1
            ok = code == 0 and details.get("words") == full and details.get("elements") == full
            return None if ok else "free pair reported a collision"
        ctx = model.CONTEXTS[group]
        w1, w2 = payload["witness"]["words"] if code == 2 else ("", "")
        g = _evaluate(ctx, e["gens"], w1)
        if code != 2 or w1 == w2 or g != _evaluate(ctx, e["gens"], w2) \
                or payload["witness"]["element"] != ctx.fmt(g):
            return "collision missing or not re-verifiable"
        return None
    if kind == "pingpong":
        full = 2 ** (e["L"] + 1) - 1
        ok = code == 0 and details.get("orbit") == full and details.get("checked") == full
        return None if ok else "ping-pong certificate failed"
    if kind == "classify":
        return None if code == 0 and payload["type"] == _ORDER_TYPES[e["group"]] else "wrong order type"
    if kind == "crossed":
        return None if code == 0 and payload["valid"] else "built-in system reported invalid"
    if kind == "expand":
        if code != 0:
            return f"expand exit {code}"
        text = payload["series"]
        if not e["invert"]:
            return None if text == e["text"] else "expand did not round-trip the file"
        ctx, degree, crossed, f = model.parse_series(e["text"])
        _, out_degree, out_crossed, g = model.parse_series(text)
        if (out_degree, out_crossed) != (degree, crossed):
            return "inverse header changed"
        product = model.multiply(ctx, degree, crossed, f, g)
        one = model.Quad(1, 0) if crossed == "quadratic-conj-Z" else Fraction(1)
        return None if product == {ctx.identity: one} else "f * f^-1 != 1"
    return f"no check for {kind}"
