"""String-id resolution shared by the CLI and the series file format."""

from __future__ import annotations

from .crossed import CrossedSystem, quadratic_conj_z, trivial_system, z2_sign_twist
from .groups import Heisenberg, LatticeGroup, SemidirectGroup, WreathGroup
from .magnus import FreeMonoid
from .scalars import QQ, QuadraticField
from .series import group_of


_GROUPS = {
    "heis": Heisenberg,
    "bs12": SemidirectGroup,
    "wreath": WreathGroup,
    "z2": lambda: LatticeGroup(2),
    "z": lambda: LatticeGroup(1),
}


def group_ids():
    return tuple(_GROUPS)


def resolve_group(group_id: str):
    try:
        return _GROUPS[group_id]()
    except KeyError:
        raise ValueError(f"unknown group id {group_id!r} (one of {', '.join(_GROUPS)})") from None


def resolve_monoid(monoid_id: str):
    """A graded support context: a built-in group's designated monoid or the
    free monoid "free:<k>"."""
    if monoid_id.startswith("free:"):
        return FreeMonoid(int(monoid_id[5:]))
    return resolve_group(monoid_id)


CROSSED_IDS = ("trivial", "z2-sign-twist", "quadratic-conj-Z")


def resolve_crossed(crossed_id: str, context, field) -> CrossedSystem | None:
    """Attach a built-in crossed system to a support context. Group and field
    compatibility is enforced here; "trivial" works everywhere."""
    base = group_of(context)
    if crossed_id == "trivial":
        return None
    if crossed_id == "z2-sign-twist":
        system = z2_sign_twist(field)
        if base != system.group:
            raise ValueError("z2-sign-twist lives on the z2 lattice group")
        return system
    if crossed_id == "quadratic-conj-Z":
        if not isinstance(field, QuadraticField):
            raise ValueError("quadratic-conj-Z needs quadratic coefficients")
        system = quadratic_conj_z(field.radicand)
        if base != system.group:
            raise ValueError("quadratic-conj-Z lives on the z lattice group")
        return system
    raise ValueError(f"unknown crossed system {crossed_id!r} (one of {', '.join(CROSSED_IDS)})")


def builtin_system(crossed_id: str) -> CrossedSystem:
    """A built-in crossed system on its home group (for the checker CLI)."""
    if crossed_id == "z2-sign-twist":
        return z2_sign_twist(QQ)
    if crossed_id == "quadratic-conj-Z":
        return quadratic_conj_z(2)
    raise ValueError(f"unknown crossed system {crossed_id!r} (one of {', '.join(CROSSED_IDS)})")


def trivial_on(group_id: str) -> CrossedSystem:
    return trivial_system(resolve_group(group_id), QQ)
