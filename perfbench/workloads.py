"""Seeded job lists for the three benchmark workloads.

A job is one CLI invocation: its argv, the series files it reads, and what
the checker expects of its report. Each workload is a fixed design of cells
(a command with its size parameters fixed, such as "verify-group-algebra over
Fp:7 at L=4, D=5"); the seed only picks the free parameters inside each cell
(scalars, word subsets, generator pairs, ratios, monomials), drawn from sets
whose members cost about the same. That keeps the work of a pass nearly the
same on every seed while no two jobs of a run repeat. A pass holds `reps`
copies of the design, each drawn afresh. The cell counts are chosen so the
median and the 90th percentile of job time fall inside groups of like jobs
(magnus at D=4 and magnus at D=5 on certify-algebra), not at a gap between
job sizes, where a small shift would move them far.

Negative values are written as --opt=value, because argparse reads
"--d -1/2" as a missing argument. Series files declare D from 6 to 12: the
CLI applies its D <= 12 guard to flags only, so a larger D in a file header
would run unguarded.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import model

WORKLOADS = ("certify-algebra", "certify-combinatorial", "series-expand")
DEFAULT_SEED = 0

# Seconds one copy of each design takes untraced on the reference machine
# (2 cores, Python 3.11.7); a run of --seconds S holds round(S / value) copies.
REP_SECONDS = {"certify-algebra": 20.0, "certify-combinatorial": 7.0, "series-expand": 3.4}


@dataclass
class Job:
    argv: list
    expect: dict
    files: dict = field(default_factory=dict)  # basename -> text

    @property
    def key(self) -> str:
        """Stable identity of the job: its argv with file paths cut to their
        basenames (the CLI reports basenames only)."""
        return " ".join(os.path.basename(a) if a.endswith(".mns") else a for a in self.argv)

    @property
    def key_id(self) -> str:
        """Short digest of the key, as stored in reference.json."""
        return hashlib.sha256(self.key.encode()).hexdigest()[:16]


class _Draw:
    """Draws a variant for a cell that no earlier job of the run used."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def __call__(self, cell, make, tries=200):
        for _ in range(tries):
            variant = make(self.rng)
            if (cell, variant) not in self.used:
                self.used.add((cell, variant))
                return variant
        raise SystemExit(f"perfbench: cell {cell} has no unused variant left; lower --seconds")


def _signed(rng, values):
    return rng.choice(values) * rng.choice((1, -1))


# ---------------------------------------------------------------------------
# certify-algebra: verify-group-algebra over four fields, and magnus panels


_ALGEBRA_CELLS = (
    [("Q", L, D) for L, Ds in ((2, range(2, 9)), (3, range(3, 9)), (4, range(4, 9))) for D in Ds]
    + [(f, L, D) for f in ("Fp:5", "Fp:7")
       for L, Ds in ((2, range(2, 9)), (3, range(3, 9)), (4, (4, 5))) for D in Ds]
    + [("Qsqrt:2", L, D) for L, Ds in ((2, range(2, 9)), (3, range(3, 6))) for D in Ds]
)
# (L, jobs per copy): D = L, and every job takes 60% of the reduced words of
# each length, so all jobs of a cell cost the same
_MAGNUS_CELLS = ((3, 60), (4, 73), (5, 14))
_MAGNUS_SHARE = 0.6


def _scalar_pair(fld, rng):
    """Scalars of one fixed height per field, so the cost of a cell does not
    depend on the draw: over Q one of c, d is +-1 and the other +-2 or +-1/2."""
    if fld == "Q":
        pair = [str(_signed(rng, (1,))), str(_signed(rng, (Fraction(2), Fraction(1, 2))))]
        rng.shuffle(pair)
        return tuple(pair)
    if fld.startswith("Fp:"):
        p = int(fld[3:])
        return tuple(f"{rng.randrange(1, p)} mod {p}" for _ in range(2))
    return tuple(f"{_signed(rng, (1,))}{rng.choice('+-')}1*sqrt(2)" for _ in range(2))


_INVERSE = {"a": "a'", "a'": "a", "b": "b'", "b'": "b"}


def _reduced_words(max_length):
    """The reduced words over a, b by length, up to max_length ("1" is the
    empty word)."""
    levels = [[()]]
    for _ in range(max_length):
        levels.append([w + (x,) for w in levels[-1] for x in _INVERSE if not w or _INVERSE[w[-1]] != x])
    return [["".join(w) or "1" for w in level] for level in levels]


def _word_sample(levels, rng):
    words = [w for level in levels for w in rng.sample(level, max(1, round(_MAGNUS_SHARE * len(level))))]
    rng.shuffle(words)
    return tuple(words)


def _certify_algebra(rng, reps):
    draw = _Draw(rng)
    jobs = []
    for _ in range(reps):
        for cell in _ALGEBRA_CELLS:
            fld, L, D = cell
            c, d = draw(cell, lambda r: _scalar_pair(fld, r))
            jobs.append(Job(["verify-group-algebra", "--group", "heis", f"--c={c}", f"--d={d}",
                             "--L", str(L), "--D", str(D), "--field", fld],
                            {"kind": "group-algebra", "L": L, "D": D, "field": fld}))
        for L, count in _MAGNUS_CELLS:
            levels = _reduced_words(L)
            for _ in range(count):
                words = draw(("magnus", L), lambda r: _word_sample(levels, r))
                jobs.append(Job(["magnus", "--words", ",".join(words), "--D", str(L)],
                                {"kind": "magnus", "D": L, "words": list(words),
                                 "spot": rng.sample(words, 3)}))
    return jobs


# ---------------------------------------------------------------------------
# certify-combinatorial: digit sums, monoid collision checks, ping-pong, classify


_RATIOS = [(p, q) for p in range(2, 10) for q in range(1, p) if gcd(p, q) == 1]
_DIGIT_N = (14, 13, 12, 12, 12, 12, 11, 10, 9, 8, 7, 6, 5, 4)
_MONOID_L = {"bs12": range(4, 15), "wreath": range(4, 15), "heis": range(4, 15), "z2": range(2, 15)}


def _monoid_gens(group, rng):
    """A generator pair with a known verdict. In bs12, B(h1,w) and B(h2,w)
    with h1 != h2 are free: a word reads as a base-2^w numeral with digits
    h1, h2 ({tx, x} is w = 1). In the wreath product {k delta_0, t^k} is the
    image of {delta_0, t} under an injective endomorphism, so it is free. In
    heis (nilpotent of class 2) every pair satisfies xyyx = yxxy, and z2 is
    abelian, so both collide."""
    if group == "bs12":
        w = rng.choice((1, 2))
        pair = [(h, w) for h in rng.sample(range(1 << w), 2)]
    elif group == "wreath":
        k = rng.choice((1, 2, 3, 4))
        pair = [(((0, k),), 0), ((), k)]
        rng.shuffle(pair)
    elif group == "heis":
        w = rng.choice((1, 2))
        pool = [(a, w - a, c) for a in range(w + 1) for c in range(a * (w - a) + 1)]
        pair = rng.sample(pool, 2)
    else:
        w = rng.choice((1, 2, 3))
        pair = rng.sample([(a, w - a) for a in range(w + 1)], 2)
    return tuple(pair)


def _certify_combinatorial(rng, reps):
    draw = _Draw(rng)
    jobs = []
    for _ in range(reps):
        for _ in range(2):
            N = draw(("digit-sum", "1"), lambda r: r.randrange(1, 15))
            jobs.append(Job(["digit-sum", "--r", "1", "--N", str(N)],
                            {"kind": "digit-sum", "r": "1", "N": N}))
        for N in _DIGIT_N:
            p, q = draw(("digit-sum", N), lambda r: r.choice(_RATIOS))
            for r_text in (f"{p}/{q}" if q > 1 else str(p), f"{q}/{p}"):
                jobs.append(Job(["digit-sum", "--r", r_text, "--N", str(N)],
                                {"kind": "digit-sum", "r": r_text, "N": N}))
        for group, Ls in _MONOID_L.items():
            ctx = model.CONTEXTS[group]
            for L in Ls:
                pair = draw(("verify-monoid", group, L), lambda r: _monoid_gens(group, r))
                gens = ",".join(ctx.fmt(g) for g in pair)
                jobs.append(Job(["verify-monoid", "--group", group, "--gens", gens, "--L", str(L)],
                                {"kind": "monoid", "group": group, "L": L, "gens": pair}))
        for r_int in (2, 3):
            for L in range(2, 11):
                t = draw(("pingpong", r_int, L),
                         lambda r: str(Fraction(_signed(r, range(1, 10)), r.randrange(1, 10))))
                jobs.append(Job(["pingpong", "--r", str(r_int), f"--t={t}", "--L", str(L)],
                                {"kind": "pingpong", "L": L}))
        for group in ("heis", "bs12", "wreath", "z2", "z"):
            for _ in range(6):
                s = draw(("classify", group), lambda r: r.randrange(10**6))
                jobs.append(Job(["classify", "--group", group, "--seed", str(s)],
                                {"kind": "classify", "group": group}))
    return jobs


# ---------------------------------------------------------------------------
# series-expand: seeded series files through expand and expand --invert


_SERIES_CONTEXTS = (("bs12", "trivial"), ("heis", "trivial"), ("wreath", "trivial"),
                    ("free:2", "trivial"), ("free:3", "trivial"),
                    ("z2", "z2-sign-twist"), ("z", "quadratic-conj-Z"))
_PLAIN_TERMS = 24
_CROSSED_CHECKS = (("z2-sign-twist", None), ("quadratic-conj-Z", None),
                   ("trivial", "heis"), ("trivial", "bs12"), ("trivial", "wreath"),
                   ("trivial", "z2"), ("trivial", "z"))


def _coeff(rng, quadratic, size=1):
    c = Fraction(_signed(rng, (size,)), rng.choice((1, 2)))
    return model.Quad(c, _signed(rng, (1, 2)), 2) if quadratic else c


def _monomial(ctx, rng, weight):
    return _product(ctx, [rng.choice(ctx.gens) for _ in range(weight)])


def _product(ctx, gens):
    g = ctx.identity
    for h in gens:
        g = ctx.mul(g, h)
    return g


def _series_file(ctx_id, crossed, degree, invert, rng) -> str:
    ctx = model.CONTEXTS[ctx_id]
    quadratic = crossed == "quadratic-conj-Z"
    terms = {ctx.identity: _coeff(rng, quadratic, 2)}
    if invert:
        # The terms x, yu, yvw with u != v form a prefix code: in the free
        # monoids (bs12, wreath and free:k are free on their generators) no
        # two products of terms coincide, so the size of the inverse is fixed
        # by the weights. z has one generator and stays small anyway.
        gens = list(ctx.gens)
        x, y = rng.sample(gens, 2) if len(gens) > 1 else gens * 2
        u, v = rng.sample(gens, 2) if len(gens) > 1 else gens * 2
        for word in ([x], [y, u], [y, v, rng.choice(gens)]):
            terms[_product(ctx, word)] = _coeff(rng, quadratic)
    else:
        # z has one element per weight, so its files hold at most D terms
        count = 1 + min(_PLAIN_TERMS, degree if ctx_id == "z" else _PLAIN_TERMS)
        while len(terms) < count:
            g = _monomial(ctx, rng, rng.randint(1, degree))
            if g not in terms:
                terms[g] = _coeff(rng, quadratic)
    return model.series_text(ctx, degree, crossed, terms)


def _series_expand(rng, reps, file_dir):
    draw = _Draw(rng)
    jobs = []
    for _ in range(reps):
        for ctx_id, crossed in _SERIES_CONTEXTS:
            for degree in range(6, 13):
                for invert in (True, False):
                    text = draw(("expand", ctx_id, degree, invert),
                                lambda r: _series_file(ctx_id, crossed, degree, invert, r))
                    name = hashlib.sha256(text.encode()).hexdigest()[:16] + ".mns"
                    argv = ["expand", "--series-file", f"{file_dir}/{name}"]
                    jobs.append(Job(argv + ["--invert"] if invert else argv,
                                    {"kind": "expand", "invert": invert, "text": text},
                                    {name: text}))
        for system, group in _CROSSED_CHECKS:
            s = draw(("check-crossed", system, group), lambda r: r.randrange(10**6))
            argv = ["check-crossed", "--system", system, "--samples", "100", "--seed", str(s)]
            jobs.append(Job(argv + (["--group", group] if group else []), {"kind": "crossed"}))
    return jobs


def build(workload: str, seed: int, reps: int, file_dir: str = ".bench_out/series"):
    """The job list of one run; the same arguments give the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify-algebra":
        jobs = _certify_algebra(rng, reps)
    elif workload == "certify-combinatorial":
        jobs = _certify_combinatorial(rng, reps)
    elif workload == "series-expand":
        jobs = _series_expand(rng, reps, file_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # the order of a pass is shuffled too, so slow jobs do not cluster
    rng.shuffle(jobs)
    return jobs


def reps_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / REP_SECONDS[workload]))
