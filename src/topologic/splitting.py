"""Remainder algebra and stable-splitting construction.

A splitting is a finite intersection-closed family F of opens.  The
remainder of U in F collects the opens below U that are below no smaller
member of F; the remainders partition the union of the principal ideals
of F.  For every formula a splitting can be refined until each remainder
block is stable: the truth value at a point is constant across the block
members containing that point.  `build_splitting` performs that
refinement inductively for a formula and all its subformulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .formula import And, Atom, Bot, Box, Formula, Knows, Not, Top, subformulas
from .space import (EMPTY, Model, PointSet, SpaceError, SubsetSpace,
                    close_under_intersection, heyting_implication, interior,
                    is_topology, sort_family)
from .semantics import Evaluator, Pair


@dataclass(frozen=True)
class Splitting:
    """An intersection-closed family of opens inside an ambient space.

    Build one from a caller's family with `make_splitting`, which checks
    both conditions.
    """

    family: tuple[PointSet, ...]
    space: SubsetSpace

    def down(self) -> tuple[PointSet, ...]:
        """All opens below some member of the family."""
        return tuple(V for V in self.space.opens
                     if any(V <= U for U in self.family))


def make_splitting(space: SubsetSpace, family: Iterable[PointSet]) -> Splitting:
    fam = sort_family(family)
    for U in fam:
        if U not in space.opens:
            raise SpaceError(f"{sorted(U)} is not an open of the space")
    members = set(fam)
    if any(a & b not in members for a in fam for b in fam):
        raise SpaceError("splitting family is not intersection-closed")
    return Splitting(fam, space)


def remainder(s: Splitting, U: PointSet) -> frozenset[PointSet]:
    """Opens below U but below no member of the family not containing U."""
    if U not in s.family:
        raise SpaceError(f"{sorted(U)} is not in the splitting family")
    return frozenset(V for V in s.space.opens
                     if V <= U
                     and not any(V <= W for W in s.family if not U <= W))


def classify(s: Splitting, V: PointSet) -> PointSet:
    """The least family member above V; V lies in its remainder."""
    above = [U for U in s.family if V <= U]
    if not above:
        raise SpaceError(f"{sorted(V)} is below no member of the splitting")
    rep = s.space.universe
    for U in above:
        rep &= U
    return rep


def same_class(family: Iterable[PointSet], V1: PointSet, V2: PointSet) -> bool:
    """True iff V1 and V2 lie below exactly the same members of the family."""
    return all((V1 <= U) == (V2 <= U) for U in family)


@dataclass(frozen=True)
class RemainderPartition:
    """Assignment of each open below the family to its representative."""

    assignment: dict[PointSet, PointSet]
    blocks: dict[PointSet, frozenset[PointSet]]


def partition(s: Splitting) -> RemainderPartition:
    """The remainder partition of all opens below the family."""
    assignment: dict[PointSet, PointSet] = {}
    blocks: dict[PointSet, set[PointSet]] = {U: set() for U in s.family}
    for V in s.down():
        rep = classify(s, V)
        assignment[V] = rep
        blocks[rep].add(V)
    return RemainderPartition(assignment,
                              {U: frozenset(b) for U, b in blocks.items()})


def is_stable(m: Model, block: Iterable[PointSet], f: Formula,
              evaluator: Evaluator | None = None) -> bool:
    """True iff f's truth at each point is constant over the block members
    containing that point."""
    ev = evaluator if evaluator is not None else Evaluator(m)
    not_f = Not(f)
    sat = fail = 0  # points where f holds, and fails, at some member
    for V in block:
        sat |= ev.mask(V, f)
        fail |= ev.mask(V, not_f)
    return not sat & fail


@dataclass
class SplittingTable:
    """Per-subformula stable splittings and recorded extensions, with the
    model's evaluator that computed them."""

    order: tuple[Formula, ...]
    splittings: dict[Formula, Splitting]
    extensions: dict[Formula, dict[PointSet, PointSet]]
    evaluator: Evaluator

    def splitting_for(self, psi: Formula) -> Splitting:
        try:
            return self.splittings[psi]
        except KeyError:
            raise SpaceError(f"{psi} is not a subformula of the table's formula") from None


def build_splitting(m: Model, f: Formula) -> SplittingTable:
    """Stable splittings for f and all its subformulas.

    Construction per connective: atoms get {X, empty}; negation reuses the
    operand's splitting; conjunction takes the intersection closure of the
    union; K adds the interiors of the operand's extensions when they fall
    inside the corresponding remainder; [] adds all Heyting implications
    among the operand's family members.
    """
    s = m.space
    if not is_topology(s):
        raise SpaceError("build_splitting requires a topology")
    ev = Evaluator(m)
    order = tuple(subformulas(f))
    splittings: dict[Formula, Splitting] = {}
    extensions: dict[Formula, dict[PointSet, PointSet]] = {}
    base = (s.universe, EMPTY)
    for psi in order:
        match psi:
            case Atom(_) | Top() | Bot():
                family: tuple[PointSet, ...] = sort_family(base)
            case Not(x):
                family = splittings[x].family
            case And(a, b):
                family = close_under_intersection(
                    set(splittings[a].family) | set(splittings[b].family))
            case Knows(x):
                sub = splittings[x]
                extra = []
                for U in sub.family:
                    W = interior(s, extensions[x][U])
                    if W in remainder(sub, U):
                        extra.append(W)
                family = close_under_intersection(set(sub.family) | set(extra))
            case Box(x):
                sub = splittings[x]
                extra = [heyting_implication(s, U, V)
                         for U in sub.family for V in sub.family]
                family = close_under_intersection(set(sub.family) | set(extra))
            case _:
                raise TypeError(f"not a formula: {psi!r}")
        # Sorted opens, intersection-closed by construction: no check needed.
        splittings[psi] = Splitting(family, s)
        extensions[psi] = {U: ev.extension(U, psi) for U in family}
    return SplittingTable(order, splittings, extensions, ev)


def fast_satisfies(table: SplittingTable, p: Pair, psi: Formula) -> bool:
    """Answer satisfaction from the recorded extension of the block
    representative of p's open."""
    sp = table.splitting_for(psi)
    rep = classify(sp, p.open)
    return p.point in table.extensions[psi][rep]
