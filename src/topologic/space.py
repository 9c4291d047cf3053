"""Finite subset spaces and topologies as explicit set families.

Points are indices into a name table; point sets are frozensets of
indices, so equality is structural.  Wherever a deterministic iteration
order is needed, families are sorted by (cardinality, sorted members).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

PointSet = frozenset[int]

EMPTY: PointSet = frozenset()


class SpaceError(ValueError):
    """Invalid space, model or operation precondition."""


class InternalError(RuntimeError):
    """A construction's self-check failed; valid input never causes this."""


def set_key(s: PointSet) -> tuple[int, tuple[int, ...]]:
    return (len(s), tuple(sorted(s)))


def sort_family(family: Iterable[PointSet]) -> tuple[PointSet, ...]:
    """Canonical order: by cardinality, then lexicographic members."""
    return tuple(sorted(set(family), key=set_key))


def format_set(s: PointSet, names: tuple[str, ...] | None = None) -> str:
    if names is None:
        inner = ", ".join(str(i) for i in sorted(s))
    else:
        inner = ", ".join(names[i] for i in sorted(s))
    return "{" + inner + "}"


def format_family(family: Iterable[PointSet],
                  names: tuple[str, ...] | None = None) -> str:
    return "{" + ", ".join(format_set(s, names) for s in sort_family(family)) + "}"


@dataclass(frozen=True)
class SubsetSpace:
    """A pair (X, opens) with X a finite point set and X itself open;
    `make_space` lists the opens in `sort_family` order."""

    point_names: tuple[str, ...]
    opens: tuple[PointSet, ...]
    is_intersection_closed: bool = field(compare=False)
    is_union_closed: bool = field(compare=False)

    @property
    def universe(self) -> PointSet:
        return frozenset(range(len(self.point_names)))

    def index_of(self, name: str) -> int:
        try:
            return self.point_names.index(name)
        except ValueError:
            raise SpaceError(f"unknown point {name!r}") from None


def make_space(point_names: Iterable[str], opens: Iterable[PointSet]) -> SubsetSpace:
    names = tuple(point_names)
    if not names:
        raise SpaceError("a space needs at least one point")
    if len(set(names)) != len(names):
        raise SpaceError("duplicate point names")
    n = len(names)
    universe = frozenset(range(n))
    family = []
    for raw in opens:
        s = frozenset(raw)
        if not all(0 <= i < n for i in s):
            raise SpaceError(f"open {sorted(s)} has out-of-range points")
        family.append(s)
    family = sort_family(family)
    if universe not in family:
        raise SpaceError("the full point set X must be open")
    inter_closed = all(a & b in family for a in family for b in family)
    union_closed = all(a | b in family for a in family for b in family)
    return SubsetSpace(names, family, inter_closed, union_closed)


def is_topology(s: SubsetSpace) -> bool:
    """True iff opens contain both X and the empty set and are closed
    under pairwise intersection and union."""
    return (EMPTY in s.opens
            and s.is_intersection_closed
            and s.is_union_closed)


def generate_topology(subbasis: Iterable[PointSet],
                      point_names: Iterable[str]) -> SubsetSpace:
    """Least topology on the named points containing every subbasis set."""
    names = tuple(point_names)
    universe = frozenset(range(len(names)))
    family = {EMPTY, universe}
    for raw in subbasis:
        s = frozenset(raw)
        if not s <= universe:
            raise SpaceError(f"subbasis set {sorted(s)} has out-of-range points")
        family.add(s)
    # Still intersection-closed: the opens form a distributive lattice.
    return make_space(names, close_under_union(close_under_intersection(family)))


def interior(s: SubsetSpace, S: PointSet) -> PointSet:
    """Union of all opens contained in S.  Requires a topology."""
    if not is_topology(s):
        raise SpaceError("interior requires a topology")
    result = EMPTY
    for U in s.opens:
        if U <= S:
            result |= U
    return result


def heyting_implication(s: SubsetSpace, U: PointSet, W: PointSet) -> PointSet:
    """Largest open V with V & U <= W, i.e. interior(X - (U - W))."""
    if not is_topology(s):
        raise SpaceError("Heyting implication requires a topology")
    if U not in s.opens or W not in s.opens:
        raise SpaceError("Heyting implication arguments must be open")
    return interior(s, s.universe - (U - W))


def close_under_intersection(family: Iterable[PointSet]) -> tuple[PointSet, ...]:
    """Least superfamily closed under pairwise intersection."""
    result = set(family)
    while True:
        new = {a & b for a in result for b in result} - result
        if not new:
            return sort_family(result)
        result |= new


def close_under_union(family: Iterable[PointSet]) -> tuple[PointSet, ...]:
    """Least superfamily closed under pairwise union."""
    result = set(family)
    while True:
        new = {a | b for a in result for b in result} - result
        if not new:
            return sort_family(result)
        result |= new


@dataclass(frozen=True)
class Model:
    """A subset space with an atom valuation."""

    space: SubsetSpace
    valuation: Mapping[str, PointSet]

    def atom_set(self, name: str) -> PointSet:
        try:
            return self.valuation[name]
        except KeyError:
            raise SpaceError(f"unknown atom {name!r}") from None


def make_model(space: SubsetSpace, valuation: Mapping[str, PointSet]) -> Model:
    universe = space.universe
    val = {}
    for name, raw in valuation.items():
        if name in ("top", "bot"):
            raise SpaceError(f"atom name {name!r} is reserved")
        s = frozenset(raw)
        if not s <= universe:
            raise SpaceError(f"valuation of {name!r} has out-of-range points")
        val[name] = s
    return Model(space, val)


def closure_family(m: Model, atom_list: Iterable[str]
                   ) -> tuple[tuple[PointSet, ...], tuple[PointSet, ...]]:
    """The least family containing every i(A), X and the empty set, closed
    under complement, pairwise intersection and interior.

    Returns the family together with its open part (the set of interiors).
    """
    s = m.space
    if not is_topology(s):
        raise SpaceError("closure_family requires a topology")
    universe = s.universe
    cap = 2 ** len(universe)
    family = {universe, EMPTY}
    for name in atom_list:
        family.add(m.atom_set(name))
    while True:
        new = set()
        for a in family:
            c = universe - a
            if c not in family:
                new.add(c)
            i = interior(s, a)
            if i not in family:
                new.add(i)
            for b in family:
                if a & b not in family:
                    new.add(a & b)
        if not new:
            break
        family |= new
        if len(family) > cap:
            raise InternalError("closure family exceeded the powerset bound")
    open_part = sort_family(interior(s, a) for a in family)
    return sort_family(family), open_part
