"""No float reaches a coefficient or a matrix entry.

Rationals are ints when integral, and 1 / 1 on two ints is the float 1.0,
which compares and hashes equal to 1: a division that bypasses field.inv
would change no report and no digest. These tests run the CLI commands and
the quotient constructions under a hook that inspects every series built
(GradedSeries.__new__), every series inverted (GradedSeries.invert, whose
result the arithmetic builds around __new__), every matrix eliminated
(rank_and_left_nullspace), every crossed-system twist and every field
inverse, and fail on the first float. The Magnus images over Q must
moreover be all ints, so that the integer fast path cannot fall back to
Fraction unnoticed.
"""

import contextlib
import io
import random

import pytest

from helpers import random_series
from test_acceptance import DOCUMENTED_COMMANDS, PINNED_EXPANDS, PINNED_REPORTS
from mnseries import cli, freeness, linalg
from mnseries.crossed import (
    CrossedSystem,
    check_crossed_system,
    diagonal_change,
    flatten,
    quotient_system,
    regroup,
    trivial_system,
)
from mnseries.freeness import type1_unit_generators
from mnseries.groups import Heisenberg, SemidirectGroup
from mnseries.magnus import enumerate_reduced_words, magnus_images, word_images
from mnseries.registry import CROSSED_IDS, group_ids, resolve_crossed, resolve_monoid
from mnseries.scalars import (
    QQ,
    PrimeField,
    QuadraticField,
    QuadraticFieldElement,
    RationalField,
)
from mnseries.series import GradedSeries, to_text

SERIES_CONTEXTS = (("bs12", "trivial"), ("heis", "trivial"), ("wreath", "trivial"),
                   ("free:2", "trivial"), ("free:3", "trivial"),
                   ("z2", "z2-sign-twist"), ("z", "quadratic-conj-Z"))


def _floats(value):
    if isinstance(value, QuadraticFieldElement):
        return _floats(value.u) or _floats(value.v)
    return isinstance(value, float)


def _check(value, where, *args):
    """Fail on a float; where % args names the place, formatted only then."""
    assert not _floats(value), f"float {value!r} in " + where % args


@pytest.fixture
def no_float(monkeypatch):
    """Install the hook; the returned counts show that it fired."""
    seen = {"series": 0, "inverted": 0, "matrices": 0, "twists": 0, "inverses": 0}

    new = GradedSeries.__new__

    def series_new(cls, *args, **kwargs):
        series = new(cls, *args, **kwargs)
        for c in series.terms.values():
            _check(c, "a coefficient of %r", series)
        seen["series"] += 1
        return series

    invert = GradedSeries.invert

    def checked_invert(self):
        inverse = invert(self)
        for c in inverse.terms.values():
            _check(c, "a coefficient of the inverse of %r", self)
        seen["inverted"] += 1
        return inverse

    rank = linalg.rank_and_left_nullspace

    def guarded_rank(rows, n_cols, field):
        for row in rows:
            for x in row.values():
                _check(x, "a matrix entry")
        result = rank(rows, n_cols, field)
        for x in result[1] or ():
            _check(x, "a dependency entry")
        seen["matrices"] += 1
        return result

    twist = CrossedSystem.twist

    def guarded_twist(self, g, h):
        value = twist(self, g, h)
        _check(value, "a twist of %s", self.id)
        seen["twists"] += 1
        return value

    monkeypatch.setattr(GradedSeries, "__new__", series_new)
    monkeypatch.setattr(GradedSeries, "invert", checked_invert)
    monkeypatch.setattr(linalg, "rank_and_left_nullspace", guarded_rank)
    monkeypatch.setattr(freeness, "rank_and_left_nullspace", guarded_rank)
    monkeypatch.setattr(CrossedSystem, "twist", guarded_twist)
    for cls in (RationalField, PrimeField, QuadraticField):
        def guarded_inv(self, x, inv=cls.inv):
            value = inv(self, x)
            _check(value, "an inverse in %s", self.name)
            seen["inverses"] += 1
            return value
        monkeypatch.setattr(cls, "inv", guarded_inv)
    return seen


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run_command(list(argv) + ["--format", "json", "--seed", "5"])


def test_criterion_12_commands_build_no_float(no_float, tmp_path):
    commands = list(DOCUMENTED_COMMANDS) + [argv for argv, _, _ in PINNED_REPORTS]
    for name, text, _ in PINNED_EXPANDS:
        path = tmp_path / name
        path.write_text(text)
        commands.append(("expand", "--series-file", str(path), "--invert"))
    for argv in commands:
        assert _run(argv) in (0, 2, 3), argv
    assert no_float["series"] and no_float["matrices"] and no_float["twists"]
    assert no_float["inverses"] and no_float["inverted"]


@pytest.mark.parametrize("monoid_id,crossed_id", SERIES_CONTEXTS,
                         ids=[f"{m}-{c}" for m, c in SERIES_CONTEXTS])
def test_expand_invert_builds_no_float(no_float, tmp_path, monoid_id, crossed_id):
    ctx = resolve_monoid(monoid_id)
    field = QuadraticField(2) if crossed_id == "quadratic-conj-Z" else QQ
    system = resolve_crossed(crossed_id, field)
    rng = random.Random(f"no-float-{monoid_id}")
    for k in range(3):
        f = random_series(ctx, 6, field, rng, n_terms=4, system=system, unit=True)
        path = tmp_path / f"{k}.mns"
        path.write_text(to_text(f))
        before, inverted = no_float["inverses"], no_float["inverted"]
        assert _run(("expand", "--series-file", str(path), "--invert")) == 0
        assert no_float["inverses"] > before
        assert no_float["inverted"] == inverted + 1


@pytest.mark.parametrize("crossed_id", CROSSED_IDS)
def test_check_crossed_builds_no_float(no_float, crossed_id):
    groups = group_ids() if crossed_id == "trivial" else (None,)
    for group_id in groups:
        argv = ("check-crossed", "--system", crossed_id, "--samples", "50")
        assert _run(argv + (("--group", group_id) if group_id else ())) == 0
    assert no_float["twists"] and no_float["inverses"]


# integral diagonal changes, so the twisted bases divide by 2 and 3 through inv
QUOTIENTS = (
    (Heisenberg(), "center", lambda g: 2 ** ((g.a * g.c) % 3) * 3 ** ((g.a * g.b) % 2)),
    (SemidirectGroup(), "base", lambda g: 3 ** (g.n % 2) * (-1) ** (g.h.numerator % 2)),
)


@pytest.mark.parametrize("group,tag,d", QUOTIENTS, ids=("heis-center", "bs12-base"))
def test_regroup_and_flatten_build_no_float(no_float, group, tag, d):
    rng = random.Random(f"no-float-{tag}")
    for base in (trivial_system(group, QQ), diagonal_change(trivial_system(group, QQ), d)):
        qs = quotient_system(group, tag, base=base)
        assert check_crossed_system(qs, 5).verified
        for _ in range(5):
            f = random_series(group, 4, QQ, rng, system=base, unit=True)
            r = regroup(f, tag)
            assert flatten(r) == f
            assert flatten(r.invert()) == f.invert()
    assert no_float["series"] and no_float["twists"] and no_float["inverses"]
    assert no_float["inverted"]


def test_integral_images_are_ints():
    words = enumerate_reduced_words(2, 4)
    images, _, _ = magnus_images(words, 6)
    units = type1_unit_generators(Heisenberg(), 1, 2, 5, QQ)
    for image in images + word_images(words, list(units)):
        assert all(type(c) is int for c in image.terms.values()), image
