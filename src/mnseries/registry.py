"""String-id resolution shared by the CLI and the series file format. Each
built-in is named once, by the id its object carries: a series header or a
report writes that id, and the tables below are keyed by it."""

from __future__ import annotations

import re

from .crossed import CrossedSystem, quadratic_conj_z, trivial_system, z2_sign_twist
from .groups import Heisenberg, LatticeGroup, SemidirectGroup, WreathGroup
from .magnus import free_monoid
from .scalars import QQ, QuadraticField


# groups are immutable values, so every resolution shares one object
_GROUPS = {g.id: g for g in (Heisenberg(), SemidirectGroup(), WreathGroup(), LatticeGroup(2),
                             LatticeGroup(1))}


# each crossed system other than trivial: its constructor over a coefficient
# field, and the field check-crossed checks it over. Whether it acts on a
# series' context is series validation's check
_CROSSED = {make(field).id: (make, field)
            for make, field in ((z2_sign_twist, QQ), (quadratic_conj_z, QuadraticField(2)))}

CROSSED_IDS = ("trivial", *_CROSSED)


def group_ids():
    return tuple(_GROUPS)


def resolve_group(group_id: str):
    try:
        return _GROUPS[group_id]
    except KeyError:
        raise ValueError(f"unknown group id {group_id!r} (one of {', '.join(_GROUPS)})") from None


def resolve_monoid(monoid_id: str):
    """A graded support context: a built-in group's designated monoid or the
    free monoid "free:<k>"; any other id is refused as a group id."""
    m = re.fullmatch(r"free:(\d+)", monoid_id)
    return resolve_group(monoid_id) if m is None else free_monoid(int(m.group(1)))


def _crossed(crossed_id: str):
    try:
        return _CROSSED[crossed_id]
    except KeyError:
        raise ValueError(
            f"unknown crossed system {crossed_id!r} (one of {', '.join(CROSSED_IDS)})"
        ) from None


def resolve_crossed(crossed_id: str, field) -> CrossedSystem | None:
    """A built-in crossed system over the given field; None for "trivial",
    which works everywhere."""
    if crossed_id == "trivial":
        return None
    make, _ = _crossed(crossed_id)
    return make(field)


def builtin_system(crossed_id: str) -> CrossedSystem:
    """A built-in crossed system over the field the checker CLI checks it
    over."""
    make, field = _crossed(crossed_id)
    return make(field)


def trivial_on(group_id: str) -> CrossedSystem:
    return trivial_system(resolve_group(group_id), QQ)
