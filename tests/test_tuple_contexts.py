"""The tuple-backed contexts, fields, words and reports: Heisenberg,
SemidirectGroup, WreathGroup and LatticeGroup in groups, RationalField,
PrimeField and QuadraticField in scalars, SubgroupRing in series, FreeMonoid
and FreeWord in magnus, and Report. Each is held to the dataclass twin in
helpers, the contract it had as a dataclass: repr, == and != among all of
them and against plain tuples, hash consistent with ==, and bool. The copies,
read-only fields and constructor errors are pinned here; the one change from
the dataclasses is that a Report refuses attribute assignment."""

import copy
import pickle
from fractions import Fraction

import pytest

from helpers import dataclass_twin
from mnseries.groups import Heisenberg, LatticeGroup, SemidirectGroup, WreathGroup
from mnseries.magnus import FreeMonoid, FreeWord
from mnseries.report import VERIFIED, Report
from mnseries.scalars import PSI_12, QQ, PrimeField, QuadraticField, RationalField
from mnseries.series import SubgroupRing

VALUES = (
    Heisenberg(),
    WreathGroup(),
    SemidirectGroup(),
    SemidirectGroup(Fraction(5, 2), Fraction(1, 3)),
    LatticeGroup(),
    LatticeGroup(2),
    QQ,
    PrimeField(5),
    PrimeField(7),
    QuadraticField(2),
    QuadraticField(-1),
    SubgroupRing(Heisenberg(), "G"),
    SubgroupRing(Heisenberg(), "center"),
    SubgroupRing(LatticeGroup(2), "G"),
    FreeMonoid(2),
    FreeMonoid(3),
    FreeWord(2, ((0, 1), (1, -1))),
    FreeWord(3, ((0, 1), (1, -1))),
    FreeWord(2, ()),
    Report("magnus", VERIFIED, {"L": 2}),
    Report("magnus", VERIFIED, {"L": 2}, ["ab", "ba"], {"k": 2}),
)
# the same values built another way: by keyword, from defaults, from ints
EQUAL_TWINS = (
    (SemidirectGroup(), SemidirectGroup(2, 1)),
    (SemidirectGroup(Fraction(5, 2), Fraction(1, 3)),
     SemidirectGroup(ratio=Fraction(10, 4), t_value=Fraction(2, 6))),
    (LatticeGroup(), LatticeGroup(rank=1)),
    (QQ, RationalField()),
    (PrimeField(5), PrimeField(p=5)),
    (QuadraticField(2), QuadraticField(radicand=2)),
    (SubgroupRing(Heisenberg(), "G"), SubgroupRing(group=Heisenberg(), subgroup_tag="G")),
    (FreeMonoid(2), FreeMonoid(size=2)),
    (FreeWord(2, ()), FreeWord(size=2, letters=())),
    (Report("magnus", VERIFIED, {"L": 2}), Report("magnus", VERIFIED, {"L": 2}, None, {})),
)


def _id(value):
    return repr(value)[:40]


def _hashable(value):
    return not isinstance(value, Report)


@pytest.mark.parametrize("value", VALUES, ids=_id)
def test_repr_and_bool_match_the_dataclass_twin(value):
    twin = dataclass_twin(value)
    assert repr(value) == repr(twin)
    assert bool(value) is bool(twin)


def test_equality_matches_the_dataclass_twins():
    twins = [dataclass_twin(v) for v in VALUES]
    for value, twin in zip(VALUES, twins):
        for other, other_twin in zip(VALUES, twins):
            assert (value == other) is (twin == other_twin), (value, other)
            assert (value != other) is (twin != other_twin), (value, other)
        # never equal to a plain tuple, in either order
        assert value != tuple(value) and tuple(value) != value
        assert not value == tuple(value) and not tuple(value) == value


@pytest.mark.parametrize("first,second", EQUAL_TWINS, ids=lambda v: _id(v))
def test_equal_values_hash_equal(first, second):
    assert first == second and not first != second and first is not second
    assert dataclass_twin(first) == dataclass_twin(second)
    if _hashable(first):
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


def test_reports_are_unhashable_as_their_twins_are():
    report = VALUES[-1]
    for value in (report, dataclass_twin(report)):
        with pytest.raises(TypeError):
            hash(value)


def test_contexts_with_no_fields_are_true():
    assert Heisenberg() and WreathGroup() and RationalField()


@pytest.mark.parametrize("value", VALUES, ids=_id)
def test_copies_and_pickles_round_trip(value):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value
        assert repr(clone) == repr(value)
        assert tuple(clone) == tuple(value)
        if _hashable(value):
            assert hash(clone) == hash(value)


def test_semidirect_group_copies_keep_the_ints_that_in_monoid_reads():
    group = SemidirectGroup(Fraction(5, 2), Fraction(1, 3))
    assert group.__getnewargs__() == (Fraction(5, 2), Fraction(1, 3))
    assert tuple(group) == (Fraction(5, 2), Fraction(1, 3))
    for clone in (copy.copy(group), copy.deepcopy(group), pickle.loads(pickle.dumps(group))):
        assert tuple(clone) == tuple(group)
        g = clone.element(Fraction(1, 3), 1)
        assert clone.in_monoid(g) and group.in_monoid(g) and clone.weight(g) == 1


@pytest.mark.parametrize("value", VALUES, ids=_id)
def test_fields_are_read_only(value):
    for name in [*type(value)._fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("build,message", [
    (lambda: PrimeField(4), "modulus 4 is not prime"),
    (lambda: PrimeField(PSI_12), f"modulus {PSI_12} is outside p < {PSI_12}, the range of the "
                                 "primality test"),
    (lambda: QuadraticField(4), "radicand must be square-free and not 0 or 1: 4"),
    (lambda: QuadraticField(1), "radicand must be square-free and not 0 or 1: 1"),
    (lambda: QuadraticField(2 ** 31), f"radicand {2 ** 31} is outside |m| < 2**31, the range of "
                                      "the square-free test"),
    (lambda: LatticeGroup(0), "rank must be at least 1"),
    (lambda: FreeMonoid(27), "alphabet size must be in 1..26"),
    (lambda: FreeMonoid(0), "alphabet size must be in 1..26"),
    (lambda: SemidirectGroup(0), "ratio must be positive"),
    (lambda: SemidirectGroup(-2, 0), "ratio must be positive"),
    (lambda: SemidirectGroup(t_value=0), "t_value must be nonzero"),
    (lambda: FreeWord(2, ((0, 1), (0, -1))), "word is not reduced"),
    (lambda: FreeWord(2, ((2, 1),)), "bad letter (2, 1) for alphabet size 2"),
    (lambda: FreeWord(2, ((0, 2),)), "bad letter (0, 2) for alphabet size 2"),
])
def test_constructor_errors_are_unchanged(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_report_signature_and_fresh_details():
    first = Report("kind", VERIFIED, {"L": 1})
    second = Report("kind", VERIFIED, {"L": 1})
    assert first.witness is None and first.details == {}
    assert first.details is not second.details
    first.details["k"] = 2
    assert second.details == {}
    given = {"k": 3}
    report = Report(kind="kind", verdict=VERIFIED, bounds={}, witness="w", details=given)
    assert report.details is given and report.witness == "w"
    assert report.to_json() == {"kind": "kind", "verdict": VERIFIED, "bounds": {}, "witness": "w",
                                "details": {"k": 3}}
    # the one change from the dataclass: attributes cannot be reassigned
    with pytest.raises(AttributeError):
        report.verdict = "counterexample"
