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
from functools import cached_property
from operator import and_
from typing import Iterable

from .formula import And, Atom, Bot, Box, Formula, Knows, Not, Top, subformulas
from .space import (EMPTY, Model, PointSet, SpaceError, SubsetSpace,
                    close_under_intersection, heyting_implication, interior,
                    is_closed, is_topology, sort_family, to_mask)
from .semantics import Evaluator


@dataclass(frozen=True)
class Splitting:
    """An intersection-closed family of opens inside an ambient space.

    Build one from a caller's family with `make_splitting`, which checks
    both conditions.
    """

    family: tuple[PointSet, ...]
    space: SubsetSpace

    @cached_property
    def _by_mask(self) -> dict[int, PointSet]:
        """The family members by bitmask, in family order."""
        return {to_mask(U): U for U in self.family}


def _least_above(fam: Iterable[int], v: int) -> int:
    """The intersection of the members of fam above v; -1 (all bits) when
    there are none."""
    rep = -1
    for u in fam:
        if v | u == u:
            rep &= u
    return rep


def make_splitting(space: SubsetSpace, family: Iterable[PointSet]) -> Splitting:
    fam = sort_family(family)
    for U in fam:
        if U not in space.opens:
            raise SpaceError(f"{sorted(U)} is not an open of the space")
    masks = tuple(map(to_mask, fam))
    if not is_closed(masks, set(masks), and_):
        raise SpaceError("splitting family is not intersection-closed")
    return Splitting(fam, space)


def classify(s: Splitting, V: PointSet) -> PointSet:
    """The least family member above V; V lies in its remainder."""
    rep = _least_above(s._by_mask, to_mask(V))
    if rep == -1:
        raise SpaceError(f"{sorted(V)} is below no member of the splitting")
    # The meet is a member when the family is intersection-closed.
    return s._by_mask.get(rep) or frozenset(
        x for x in s.space.universe if rep >> x & 1)


def partition(s: Splitting) -> dict[PointSet, frozenset[PointSet]]:
    """The remainder partition of all opens below the family: each family
    member's block, in family order."""
    blocks: dict[PointSet, list[PointSet]] = {U: [] for U in s.family}
    by_mask = s._by_mask
    fam = tuple(by_mask)
    for V, v in zip(s.space.opens, s.space.masks):
        rep = _least_above(fam, v)
        if rep != -1:  # V is below a member, and rep is classify(s, V)
            blocks[by_mask[rep]].append(V)
    return {U: frozenset(b) for U, b in blocks.items()}


def is_stable(m: Model, block: Iterable[PointSet], f: Formula,
              evaluator: Evaluator | None = None) -> bool:
    """`Evaluator.stable` over the block's slots: True iff f's truth at each
    point is constant over the block members containing that point."""
    ev = evaluator if evaluator is not None else Evaluator(m)
    return ev.stable(ev.slots(block), f)


@dataclass
class SplittingTable:
    """Stable splittings per subformula, in post-order (the formula last),
    with the model's evaluator that computed them."""

    splittings: dict[Formula, Splitting]
    evaluator: Evaluator


def build_splitting(m: Model, f: Formula) -> SplittingTable:
    """Stable splittings for f and all its subformulas.

    Construction per connective: atoms get {X, empty}; negation reuses the
    operand's splitting; conjunction takes the intersection closure of the
    union; K adds the interior of the operand's extension at each member
    when it falls inside that member's remainder; [] adds all Heyting
    implications among the operand's family members.
    """
    s = m.space
    if not is_topology(s):
        raise SpaceError("build_splitting requires a topology")
    ev = Evaluator(m)
    splittings: dict[Formula, Splitting] = {}
    base = (s.universe, EMPTY)
    for psi in subformulas(f):
        match psi:
            case Atom(_) | Top() | Bot():
                family: tuple[PointSet, ...] = sort_family(base)
            case Not(x):
                family = splittings[x].family
            case And(a, b):
                family = close_under_intersection(
                    splittings[a].family + splittings[b].family)
            case Knows(x):
                sub = splittings[x]
                extra = []
                for U in sub.family:
                    W = interior(s, ev.extension(U, x))
                    # An open W below U is in U's remainder iff U is the
                    # least member above it.
                    if classify(sub, W) == U:
                        extra.append(W)
                family = close_under_intersection((*sub.family, *extra))
            case Box(x):
                sub = splittings[x]
                family = close_under_intersection((*sub.family, *(
                    heyting_implication(s, U, V)
                    for U in sub.family for V in sub.family)))
            case _:
                raise TypeError(f"not a formula: {psi!r}")
        # Sorted opens, intersection-closed by construction: no check needed.
        splittings[psi] = Splitting(family, s)
    return SplittingTable(splittings, ev)
