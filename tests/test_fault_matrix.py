"""The fault matrix: verdict paths against faults patched in process.

Each cell runs one verdict path at a pinned input under one fault and pins
what it gives: the exit code and, when a report is printed, its verdict and
digest. A fault is caught when the run exits 70 (a re-check failed) or its
verdict is other than verified. A cell that still exits 0 under its fault
is marked xfail(strict=True): the fault passes as verified, and catching it
is the work of a re-check of the verified verdict (ROADMAP direction 3),
which will change that cell's pin.

The first row is verify-group-algebra on the units 1 + x, 1 + 2y of heis
over Q at D=6. Honestly it is verified at L=3 (53 words of rank 53, exit 0,
digest 23b709100c952058) and rank deficient at L=4 (161 words of rank 94,
exit 3, digest 45bc06ed6a5477e5), the input CI also runs under python -O.
Its four faults: the elimination claims full rank; the series product drops
its top-weight term, or the second of its terms in (grade, element string)
order; the heis product gains a term. 5 of its 8 cells catch their fault.
The dropped second term leaves the L=3 run verified with the honest digest:
the rank survives that fault, so only a re-check of the verified verdict
can catch it.

The second row is pingpong at r=2, t=1, L=4, honestly verified on its 31
orbit elements (exit 0, digest 4b54b07364842cdb). Its three faults are in
the semidirect product: h gains t/3 at n=2, which leaves h/t non-integral;
the tx-image B(13/1,3) loses t, which drops its exponent-0 digit; the
x-image B(10/1,3) gains t, which adds it. All 3 cells catch their fault
(exit 2, counterexample).

The third row is classify on bs12, wreath and z2, each honestly verified
(exit 0). Each cell patches one group's element product, the _product that
classify's commutators and conjugations multiply through: the semidirect
product drops the ratio scaling (h + k for h + r^n k), the wreath product
ignores the left factor's shift, and the z2 product gains a cross term a*y
in its second coordinate. All 3 cells catch their fault: the sampled
re-check fails its named identity, exit 70, with no report.
"""

import json
from math import gcd

import pytest

from mnseries import cli, freeness, groups
from mnseries.report import COUNTEREXAMPLE, INCONCLUSIVE, VERIFIED
from mnseries.series import GradedSeries

ALGEBRA = ("verify-group-algebra", "--group", "heis", "--field=Q", "--c=1", "--d=2",
           "--D", "6", "--seed", "5")
INPUTS = {"verified": ALGEBRA + ("--L", "3"), "deficient": ALGEBRA + ("--L", "4")}


def claim_full_rank(monkeypatch):
    """The elimination claims full rank, with no dependency."""
    monkeypatch.setattr(freeness, "rank_and_left_nullspace", lambda rows, *args: (len(rows), None))


def drop_top_term(monkeypatch):
    """The series product loses one term at the truncation degree (the
    greatest by element string), as an off-by-one in truncation would."""
    mul = GradedSeries.__mul__

    def dropping(self, other):
        product = mul(self, other)
        ctx, degree = product.context, product.degree
        top = [g for g in product.terms if ctx.grade(g) == degree]
        if not top:
            return product
        terms = dict(product.terms)
        del terms[max(top, key=ctx.format_element)]
        return GradedSeries(ctx, degree, terms, product.field, product.system)

    monkeypatch.setattr(GradedSeries, "__mul__", dropping)


def drop_second_term(monkeypatch):
    """The series product loses its second term in (grade, element string)
    order whenever it has at least three, a fault below the top weight."""
    mul = GradedSeries.__mul__

    def dropping(self, other):
        product = mul(self, other)
        if len(product.terms) < 3:
            return product
        ctx = product.context
        terms = dict(product.terms)
        del terms[sorted(terms, key=lambda g: (ctx.grade(g), ctx.format_element(g)))[1]]
        return GradedSeries(ctx, product.degree, terms, product.field, product.system)

    monkeypatch.setattr(GradedSeries, "__mul__", dropping)


def skew_heis_product(monkeypatch):
    """The heis product is off by one term: an extra c*x in the center."""
    def skewed(g, h):
        a, b, c = g
        x, y, z = h
        return (a + x, b + y, c + z + a * y + c * x)

    monkeypatch.setattr(groups.HeisenbergElement, "_product", staticmethod(skewed))


FAULTS = {"full-rank": claim_full_rank, "drop-term": drop_top_term,
          "drop-second": drop_second_term, "heis-off": skew_heis_product}


def semidirect_fault(change):
    """A patch making the semidirect product pass each answer (num, den, n)
    through change, as ints in lowest terms."""
    exact = groups._semidirect_product

    def faulty(g, h):
        num, den, n, p, q = exact(g, h)
        num, den = change(num, den, n)
        c = gcd(num, den)
        return num // c, den // c, n, p, q

    return lambda monkeypatch: monkeypatch.setattr(groups.SemidirectElement, "_product",
                                                   staticmethod(faulty))


def shifted(h, n, delta):
    """change for semidirect_fault: the answer (h/1, n) moves to h + delta."""
    return lambda num, den, m: (num + delta * den, den) if (num, den, m) == (h, 1, n) else (num, den)


PINGPONG_FAULTS = {
    "third-at-n2": semidirect_fault(lambda num, den, n: (3 * num + den, 3 * den) if n == 2 else (num, den)),
    "tx-drop0": semidirect_fault(shifted(13, 3, -1)),
    "x-add0": semidirect_fault(shifted(10, 3, 1)),
}


def unscaled_semidirect(g, h):
    """(h, n)(k, m) = (h + k, n + m): the product without r**n."""
    hn, hd, n, p, q = g
    kn, kd, m, _, _ = h
    num, den = hn * kd + kn * hd, hd * kd
    c = gcd(num, den)
    return num // c, den // c, n + m, p, q


def unshifted_wreath(g, h):
    """(f, n)(f', m) = (f + f', n + m): f' goes in unshifted by n."""
    cells, n = g
    return groups._wreath_product((cells, 0), h)[0], n + h[1]


def crossed_lattice(g, h):
    """(a, b)(x, y) = (a + x, b + y + a*y) on z2."""
    (a, b), (x, y) = g[0], h[0]
    return ((a + x, b + y + a * y),)


CLASSIFY_FAULTS = {"bs12": (groups.SemidirectElement, unscaled_semidirect),
                   "wreath": (groups.WreathElement, unshifted_wreath),
                   "z2": (groups.LatticeElement, crossed_lattice)}


def run(argv, capsys):
    """Exit code and report of one CLI run ({} for no report)."""
    code = cli.run_command(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else {}


class FaultPassedAsVerified(Exception):
    """A run under a fault exited 0 with a verified report."""


PASSES = pytest.mark.xfail(strict=True, raises=FaultPassedAsVerified,
                           reason="no re-check of a verified group-algebra verdict "
                                  "(ROADMAP direction 3)")


@pytest.mark.parametrize("path,fault,code,verdict,digest", [
    pytest.param("verified", "full-rank", 0, VERIFIED, "23b709100c952058", marks=PASSES),
    pytest.param("deficient", "full-rank", 0, VERIFIED, "1f0ad354438ea086", marks=PASSES),
    ("verified", "drop-term", 3, INCONCLUSIVE, "2a3952138969e031"),
    ("deficient", "drop-term", 3, INCONCLUSIVE, "7a0801cada4c87ee"),
    pytest.param("verified", "drop-second", 0, VERIFIED, "23b709100c952058", marks=PASSES),
    ("deficient", "drop-second", 3, INCONCLUSIVE, "2de4d1c4591f324c"),
    ("verified", "heis-off", 3, INCONCLUSIVE, "3cd5324f49556799"),
    ("deficient", "heis-off", 3, INCONCLUSIVE, "043b17915fac8ab9"),
])
def test_verify_group_algebra_under_faults(path, fault, code, verdict, digest, capsys,
                                           monkeypatch):
    FAULTS[fault](monkeypatch)
    got, report = run(INPUTS[path], capsys)
    assert (got, report.get("verdict"), report.get("digest")) == (code, verdict, digest)
    if code == 0 and verdict == VERIFIED:
        raise FaultPassedAsVerified(f"{fault} passes as verified at the {path} input")


@pytest.mark.parametrize("fault,code,verdict,witness,digest", [
    ("third-at-n2", 2, COUNTEREXAMPLE,
     {"reason": "tx-image missing the exponent-0 digit", "element": "B(22/3,2)@r=2/1"}, "753706f8d06a2df9"),
    ("tx-drop0", 2, COUNTEREXAMPLE,
     {"reason": "tx-image missing the exponent-0 digit", "element": "B(12/1,3)@r=2/1"}, "eddc4bdf35fe7066"),
    ("x-add0", 2, COUNTEREXAMPLE,
     {"reason": "x-image carries the exponent-0 digit", "element": "B(11/1,3)@r=2/1"}, "02c248509f56e129"),
])
def test_pingpong_under_faults(fault, code, verdict, witness, digest, capsys, monkeypatch):
    PINGPONG_FAULTS[fault](monkeypatch)
    got, report = run(("pingpong", "--r", "2", "--t", "1", "--L", "4"), capsys)
    assert (got, report.get("verdict"), report.get("witness"), report.get("digest")) == (code, verdict, witness,
                                                                                          digest)
    if code == 0 and verdict == VERIFIED:
        raise FaultPassedAsVerified(f"{fault} passes as verified at the pingpong input")


@pytest.mark.parametrize("group,identity", [
    ("bs12", "conjugation does not scale the base by the ratio"),
    ("wreath", "conjugate of B0 does not land in B-1"),
    ("z2", "jump (1,axis>1) is not central"),
])
def test_classify_under_faults(group, identity, capsys, monkeypatch):
    cls, fault = CLASSIFY_FAULTS[group]
    monkeypatch.setattr(cls, "_product", staticmethod(fault))
    code = cli.run_command(["classify", "--group", group])
    out, err = capsys.readouterr()
    assert code == 70 and not out
    assert f"invariant failed: {identity}" in err
