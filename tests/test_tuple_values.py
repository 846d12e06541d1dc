"""The tuple-backed value classes: HeisenbergElement, WreathElement,
LatticeElement and SemidirectElement in groups, PrimeFieldElement and
QuadraticFieldElement in scalars. Products, inverses and str are
differential-tested against the plain-value oracles in helpers (the
semidirect products in test_group_element_properties). The contract test
pins the element behaviour set orders, reports and callers rely on (the hash
of the field tuple, repr, keyword construction, read-only fields) and what a
tuple would add that the classes refuse (equality with other tuples, tuple
order and tuple arithmetic)."""

import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (fp_ops, heis_formula_inverse, heis_formula_product, heis_formula_str, lattice_str,
                     lattice_sum, quad_inverse, quad_product, quad_str, wreath_dict_inverse,
                     wreath_dict_product, wreath_dict_str)
from mnseries.groups import (GroupMismatchError, HeisenbergElement, LatticeElement, SemidirectElement,
                             WreathElement, WreathGroup)
from mnseries.scalars import FieldMismatchError, PrimeFieldElement, QuadraticFieldElement

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)

ints = st.integers(-30, 30)
triples = st.tuples(ints, ints, ints)


def _heis_fields(g):
    return g.a, g.b, g.c


@PROPERTY
@given(triples, triples)
def test_heisenberg_matches_the_product_formula(g, h):
    x, y = HeisenbergElement(*g), HeisenbergElement(*h)
    assert _heis_fields(x) == g
    for left, right, a, b in ((x, y, g, h), (y, x, h, g), (x, x, g, g)):
        product = left * right
        assert _heis_fields(product) == heis_formula_product(a, b)
        assert product == HeisenbergElement(*heis_formula_product(a, b))
        assert hash(product) == hash(heis_formula_product(a, b))
    assert _heis_fields(x.inverse()) == heis_formula_inverse(g)
    assert x * x.inverse() == HeisenbergElement(0, 0, 0) == x.inverse() * x
    assert str(x) == heis_formula_str(g)
    assert x.order_key() == g and type(x.order_key()) is tuple


# indices and values from small ranges, so that cells collide and cancel often
cell_dicts = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3).filter(bool), max_size=5)
shifts = st.integers(-4, 4)


def _wreath_fields(g):
    return dict(g.cells), g.n


@PROPERTY
@given(cell_dicts, shifts, cell_dicts, shifts)
def test_wreath_matches_cell_dict_products(f, n, g, m):
    x, y = WreathElement.from_map(f, n), WreathElement.from_map(g, m)
    # the generators have at most one cell: the products the monoid walk makes
    factors = (x, y, x.inverse(), *WreathGroup().monoid_generators(), WreathElement(((1, -1),), 0))
    for left in factors:
        for right in factors:
            product = left * right
            cells, shift = wreath_dict_product(*_wreath_fields(left), *_wreath_fields(right))
            assert product.cells == tuple(sorted(cells.items())) and product.n == shift
            assert hash(product) == hash((tuple(sorted(cells.items())), shift))
    cells, shift = wreath_dict_inverse(f, n)
    assert x.inverse() == WreathElement.from_map(cells, shift)
    assert x * x.inverse() == WreathElement((), 0) == x.inverse() * x
    assert str(x) == wreath_dict_str(f, n)


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(st.tuples(*[ints] * k), st.tuples(*[ints] * k))))
def test_lattice_matches_coordinate_sums(pair):
    g, h = pair
    x, y = LatticeElement(g), LatticeElement(h)
    assert (x * y).coords == lattice_sum(g, h) == (y * x).coords
    assert x.inverse().coords == tuple(-c for c in g)
    assert x * x.inverse() == LatticeElement((0,) * len(g))
    assert str(x) == lattice_str(g)
    assert x.order_key() == g


PRIMES = (2, 3, 5, 7, 101, 32749)
residues = st.integers(-10**6, 10**6)


@PROPERTY
@given(st.sampled_from(PRIMES), residues, residues)
def test_prime_field_matches_int_residues(p, r, s):
    x, y = PrimeFieldElement(r, p), PrimeFieldElement(s, p)
    add, sub, mul, neg, inv = fp_ops(r, s, p)
    assert (x.residue, x.modulus) == (r % p, p)
    assert (x + y).residue == add == (x + s).residue == (s + x).residue
    assert (x - y).residue == sub == (x - s).residue == (-(s - x)).residue
    assert (x * y).residue == mul == (x * s).residue == (s * x).residue
    assert (-x).residue == neg
    assert (x ** 3).residue == pow(r, 3, p)
    if inv is None:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x.inverse().residue == inv
        assert (y / x).residue == s * inv % p == (s / x).residue
    assert str(x) == f"{r % p} mod {p}"


RADICANDS = (2, 3, 5, -1, -7)
fractions = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def _normal(c):
    # a part is an int when integral, else a Fraction
    return type(c) is (int if c.denominator == 1 else Fraction)


@PROPERTY
@given(st.sampled_from(RADICANDS), fractions, fractions, fractions, fractions)
def test_quadratic_field_matches_fraction_pairs(m, u, v, s, t):
    x, y = QuadraticFieldElement(u, v, m), QuadraticFieldElement(s, t, m)
    results = {
        "product": (x * y, quad_product((u, v), (s, t), m)),
        "sum": (x + y, (u + s, v + t)),
        "difference": (x - y, (u - s, v - t)),
        "negation": (-x, (-u, -v)),
        "conjugate": (x.conjugate(), (u, -v)),
        "int sum": (3 + x, (u + 3, v)),
        "int product": (x * -2, (-2 * u, -2 * v)),
    }
    if u or v:
        results["inverse"] = (x.inverse(), quad_inverse((u, v), m))
        results["quotient"] = (y / x, quad_product((s, t), quad_inverse((u, v), m), m))
    for name, (got, (a, b)) in results.items():
        assert (got.u, got.v, got.radicand) == (a, b, m), name
        assert _normal(got.u) and _normal(got.v), name
    assert str(x) == quad_str((u, v), m)


# ---------------------------------------------------------------------------
# the contract: (class, its fields by name, its repr)

CASES = (
    (HeisenbergElement, {"a": 1, "b": -2, "c": 3}, "HeisenbergElement(a=1, b=-2, c=3)"),
    (WreathElement, {"cells": ((0, 1), (2, -3)), "n": 2},
     "WreathElement(cells=((0, 1), (2, -3)), n=2)"),
    (LatticeElement, {"coords": (1, -2)}, "LatticeElement(coords=(1, -2))"),
    (SemidirectElement, {"num": 3, "den": 4, "n": -2, "p": 3, "q": 2},
     "SemidirectElement(h=Fraction(3, 4), n=-2, ratio=Fraction(3, 2))"),
    (PrimeFieldElement, {"residue": 3, "modulus": 7}, "PrimeFieldElement(residue=3, modulus=7)"),
    (QuadraticFieldElement, {"u": Fraction(1, 2), "v": -2, "radicand": 2},
     "QuadraticFieldElement(u=Fraction(1, 2), v=-2, radicand=2)"),
)
# a class whose constructor does not take its fields: the arguments by name
CONSTRUCTOR_ARGS = {SemidirectElement: {"h": Fraction(3, 4), "n": -2, "ratio": Fraction(3, 2)}}
GROUP_CLASSES = (HeisenbergElement, WreathElement, LatticeElement, SemidirectElement)
ORDER = (operator.lt, operator.le, operator.gt, operator.ge)


def _build(cls, named):
    return cls(*CONSTRUCTOR_ARGS.get(cls, named).values())


@pytest.mark.parametrize("cls,named,text", CASES, ids=[case[0].__name__ for case in CASES])
def test_tuple_value_contract(cls, named, text):
    fields = tuple(named.values())
    args = CONSTRUCTOR_ARGS.get(cls, named)
    g = cls(*args.values())
    # the hash of the field tuple, the fields by name
    assert hash(g) == hash(fields)
    assert tuple(g) == fields
    assert tuple(getattr(g, name) for name in named) == fields
    assert repr(g) == text
    assert cls(**args) == g
    # equal only to its own class
    twin = cls(*args.values())
    assert g == twin and not g != twin and twin is not g
    assert g != tuple(g) and tuple(g) != g
    assert not g == tuple(g) and not tuple(g) == g
    assert len({g, twin, tuple(g)}) == 2
    for other_cls, other_fields, _ in CASES:
        if other_cls is not cls:
            other = _build(other_cls, other_fields)
            assert g != other and not g == other
    # no tuple order, and a group element no tuple arithmetic
    for op in ORDER:
        for left, right in ((g, g), (g, twin), (g, tuple(g)), (tuple(g), g)):
            with pytest.raises(TypeError):
                op(left, right)
    if cls in GROUP_CLASSES:
        with pytest.raises(TypeError):
            g + g
        with pytest.raises(TypeError):
            3 * g
    # read-only fields, and no others
    for name in (*named, *CONSTRUCTOR_ARGS.get(cls, ()), "extra"):
        with pytest.raises(AttributeError):
            setattr(g, name, 0)
        with pytest.raises(AttributeError):
            delattr(g, name)
    for clone in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert clone == g and type(clone) is cls and tuple(clone) == fields
        assert hash(clone) == hash(g)


def test_elements_with_equal_fields_of_different_classes_stay_apart():
    h, q = HeisenbergElement(1, 0, 2), QuadraticFieldElement(1, 0, 2)
    assert hash(h) == hash(q) and h != q and q != h
    w, p = WreathElement(0, 5), PrimeFieldElement(0, 5)
    assert hash(w) == hash(p) and w != p and p != w
    assert len({h, q, w, p, (1, 0, 2), (0, 5)}) == 6
    assert HeisenbergElement(0, 0, 0) != SemidirectElement(0, 0, 2)


def test_construction_normalises_and_mismatches_still_raise():
    assert PrimeFieldElement(residue=-1, modulus=5).residue == 4
    q = QuadraticFieldElement(u=Fraction(4, 2), v=Fraction(1, 3), radicand=2)
    assert type(q.u) is int and q.u == 2 and q.v == Fraction(1, 3)
    with pytest.raises(FieldMismatchError):
        PrimeFieldElement(1, 5) + PrimeFieldElement(1, 7)
    with pytest.raises(FieldMismatchError):
        PrimeFieldElement(1, 5) * Fraction(1, 2)
    with pytest.raises(FieldMismatchError):
        q + QuadraticFieldElement(1, 0, 3)
    with pytest.raises(FieldMismatchError):
        q * PrimeFieldElement(1, 5)
    with pytest.raises(GroupMismatchError):
        HeisenbergElement(0, 0, 0) * LatticeElement((1,))
    with pytest.raises(GroupMismatchError):
        WreathElement((), 1) * HeisenbergElement(0, 0, 0)
    with pytest.raises(GroupMismatchError):
        LatticeElement((1,)) * LatticeElement((1, 2))


@pytest.mark.parametrize("cls", (PrimeFieldElement, QuadraticFieldElement))
def test_field_arithmetic_is_defined_in_each_class_body(cls):
    # perfbench/tracer.py wraps these through cls.__dict__, so none may be
    # inherited from the shared base
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse"):
        assert name in cls.__dict__, name
