"""Finite subset spaces and topologies as explicit set families.

Points are indices into a name table.  Inside the library a point set is
an int bitmask, bit x for point x: a space stores its open masks in
`set_key` order (by cardinality, then sorted members), a model one mask
per atom.  A space's equality goes over its point names and masks, its
hash over its masks, kept from first use and alike in every process.
The library returns, saves and prints frozensets of indices: `opens`
and `valuation` are views made by `from_mask` on first read, which no
search does.  `checked_mask` is the one door from a caller's point set to
a mask: any iterable of int points below the point count (`bool`s are the
points 0 and 1), else SpaceError; a wrong argument type past that (a
non-space or non-`Model` first argument, a non-iterable family) may still
raise TypeError or AttributeError.  `space_from_masks` builds every space,
`interior_mask` is the one interior, `close` closes frozensets or masks
under & or | in one pass (both are associative, commutative and
idempotent), and `is_closed` is the one closure check.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product, starmap
from operator import and_, or_
from typing import Callable, Iterable, Mapping, Sequence

from .formula import is_atom_name

PointSet = frozenset[int]


class SpaceError(ValueError):
    """Invalid space, model or operation precondition."""


class InternalError(RuntimeError):
    """A construction's self-check failed; valid input never causes this."""


def set_key(s: PointSet) -> tuple[int, tuple[int, ...]]:
    return (len(s), tuple(sorted(s)))


def sort_family(family: Iterable[PointSet]) -> tuple[PointSet, ...]:
    """Canonical order: by cardinality, then lexicographic members."""
    return tuple(sorted(set(family), key=set_key))


def to_mask(s: Iterable[int]) -> int:
    """The bitmask of a point set: bit x is set iff x is in s."""
    return sum(map((1).__lshift__, s))


def checked_mask(n: int, S: Iterable[int], what: str) -> int:
    """The mask of S when each member is an int point below n: the one
    check of a caller's point set.  Else SpaceError, naming what."""
    u = 0
    try:
        for x in S:
            if not (isinstance(x, int) and 0 <= x < n):
                raise SpaceError(f"{what}: {x!r} is outside the space "
                                 "(out-of-range, or not an int)")
            u |= 1 << x
    except TypeError:  # from iter(S): isinstance guards the comparison
        raise SpaceError(f"{what}: {S!r} is not a set of points") from None
    return u


@lru_cache(maxsize=1024)
def from_mask(u: int) -> PointSet:
    """The point set of a bitmask, shared while recently used."""
    return frozenset([x for x in range(u.bit_length()) if u >> x & 1])


def format_set(s: PointSet, names: tuple[str, ...]) -> str:
    return "{" + ", ".join(names[i] for i in sorted(s)) + "}"


def format_family(family: Iterable[PointSet], names: tuple[str, ...]) -> str:
    return "{" + ", ".join(format_set(s, names) for s in sort_family(family)) + "}"


@dataclass(frozen=True)
class SubsetSpace:
    """A pair (X, opens) with X a finite point set and X itself open, its
    opens stored as masks in `set_key` order (see `space_from_masks`).
    `opens` and the closure flags are computed when first read."""

    point_names: tuple[str, ...]
    masks: tuple[int, ...]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the masks, computed once, on first use: int tuples
        hash alike in every process, so copies and pickles keep it."""
        return hash(self.masks)

    @property
    def universe(self) -> PointSet:
        return frozenset(range(len(self.point_names)))

    @cached_property
    def opens(self) -> tuple[PointSet, ...]:
        return tuple(map(from_mask, self.masks))

    @cached_property
    def is_intersection_closed(self) -> bool:
        return is_closed(self.masks, set(self.masks), and_)

    @cached_property
    def is_union_closed(self) -> bool:
        return is_closed(self.masks, set(self.masks), or_)

    def index_of(self, name: str) -> int:
        try:
            return self.point_names.index(name)
        except ValueError:
            raise SpaceError(f"unknown point {name!r}") from None


def make_space(point_names: Iterable[str], opens: Iterable[PointSet]) -> SubsetSpace:
    names = tuple(point_names)  # checked by space_from_masks before any open
    return space_from_masks(names, (checked_mask(len(names), U, "open") for U in opens))


def sort_masks(masks: Iterable[int], n: int) -> list[int]:
    """The distinct masks below 2**n in `set_key` order: by size, then by
    complement as a string of binary digits, least significant first."""
    X = (1 << n) - 1
    return sorted(set(masks), key=lambda u: (u.bit_count(), bin(X ^ u)[:1:-1]))


def space_from_masks(point_names: Iterable[str], masks: Iterable[int]) -> SubsetSpace:
    """The space on the named points with opens of the given masks, each
    below 2**n, sorted by `sort_masks`."""
    names = tuple(point_names)
    if not names:
        raise SpaceError("a space needs at least one point")
    if len(set(names)) != len(names):
        raise SpaceError("duplicate point names")
    order = sort_masks(masks, len(names))
    if not order or order[-1] != (1 << len(names)) - 1:  # X has n points
        raise SpaceError("the full point set X must be open")
    return SubsetSpace(names, tuple(order))


def is_closed(masks: Sequence[int], members: set[int], op: Callable) -> bool:
    """True iff op(a, b) is in members for all masks a, b."""
    return members.issuperset(starmap(op, product(masks, masks)))


def is_topology(s: SubsetSpace) -> bool:
    """True iff opens contain both X and the empty set and are closed
    under pairwise intersection and union."""
    return (s.masks[0] == 0
            and s.is_intersection_closed
            and s.is_union_closed)


def interior_mask(masks: Iterable[int], outside: int) -> int:
    """The union of the opens, given by their masks, that miss every point
    of outside: in a topology, the interior of its complement."""
    result = 0
    for u in masks:
        if not u & outside:
            result |= u
    return result


def interior(s: SubsetSpace, S: PointSet) -> PointSet:
    """Union of all opens contained in S, itself an open.  Requires a
    topology, and S a set of its points."""
    if not is_topology(s):
        raise SpaceError("interior requires a topology")
    return from_mask(interior_mask(s.masks, ~checked_mask(
        len(s.point_names), S, "interior argument")))


def heyting_implication(s: SubsetSpace, U: PointSet, W: PointSet) -> PointSet:
    """Largest open V with V & U <= W, i.e. interior(X - (U - W))."""
    if not is_topology(s):
        raise SpaceError("Heyting implication requires a topology")
    u, w = (checked_mask(len(s.point_names), V, "Heyting argument") for V in (U, W))
    if u not in s.masks or w not in s.masks:
        raise SpaceError("Heyting implication arguments must be open")
    return from_mask(interior_mask(s.masks, u & ~w))


def close(family: Iterable, op: Callable) -> set:
    """Least superfamily closed under op, in one pass, of frozensets or of
    masks.  As op (& or |) is associative, commutative and idempotent,
    adding a and each op(a, r) to closed kept members r keeps them closed:
    op(a, op(a, r)) = op(a, r), and op(op(a, r), r') = op(op(a, r),
    op(a, r')) = op(a, op(r, r'))."""
    result: set = set()
    for a in family:
        if a not in result:
            result |= {op(a, r) for r in result}
            result.add(a)
    return result


def close_under_intersection(family: Iterable[PointSet]) -> tuple[PointSet, ...]:
    """Least superfamily closed under pairwise intersection."""
    return sort_family(close(family, and_))


def close_under_union(family: Iterable[PointSet]) -> tuple[PointSet, ...]:
    """Least superfamily closed under pairwise union."""
    return sort_family(close(family, or_))


@dataclass(frozen=True)
class Model:
    """A subset space with one point mask per atom; `valuation` is a view."""

    space: SubsetSpace
    masks: Mapping[str, int]

    @cached_property
    def valuation(self) -> dict[str, PointSet]:
        return {a: from_mask(u) for a, u in self.masks.items()}

    def atom_set(self, name: str) -> PointSet:
        try:
            return self.valuation[name]
        except KeyError:
            raise SpaceError(f"unknown atom {name!r}") from None


def check_atom_name(name: str) -> str:
    """name, if parse reads it alone as an atom; else SpaceError."""
    if name in ("top", "bot"):
        raise SpaceError(f"atom name {name!r} is reserved")
    if not (isinstance(name, str) and is_atom_name(name)):
        raise SpaceError(f"{name!r} is not an atom name")
    return name


def make_model(space: SubsetSpace, valuation: Mapping[str, PointSet]) -> Model:
    n = len(space.point_names)
    return Model(space, {check_atom_name(a): checked_mask(n, S, f"valuation of {a!r}")
                         for a, S in valuation.items()})
