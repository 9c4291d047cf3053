"""Remainder algebra and stable-splitting construction.

A splitting is a finite intersection-closed family F of opens.  The
remainder of U in F collects the opens below U that are below no smaller
member of F; the remainders partition the union of the principal ideals
of F.  For every formula a splitting can be refined until each remainder
block is stable: the truth value at a point is constant across the block
members containing that point.  `build_splitting` performs that
refinement inductively for a formula and all its subformulas.

A splitting is stored once, as its slots: its members' indices, ascending,
among the space's open masks.  Its `family` of frozensets is a view made
when read: `build_splitting` and `remainder_blocks` build no frozenset.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_
from typing import Iterable, Sequence

from .formula import And, Atom, Bot, Box, Formula, Knows, Not, Top, subformulas
from .space import (Model, PointSet, SpaceError, SubsetSpace, checked_iter,
                    checked_mask, close, from_mask, interior_mask, is_closed,
                    is_topology, sort_masks)
from .semantics import Evaluator


@dataclass(frozen=True)
class Splitting:
    """An intersection-closed family of opens inside an ambient space, as
    the slots of its members, ascending, which is `sort_family` order.

    Build one from a caller's family with `make_splitting`, which checks
    both conditions.
    """

    slots: tuple[int, ...]
    space: SubsetSpace

    @property
    def masks(self) -> list[int]:
        return [self.space.masks[i] for i in self.slots]

    @property
    def family(self) -> tuple[PointSet, ...]:
        return tuple(map(from_mask, self.masks))


def _least_above(fam: Iterable[int], v: int) -> int:
    """The intersection of the members of fam above v; -1 (all bits) when
    there are none."""
    rep = -1
    for u in fam:
        if v | u == u:
            rep &= u
    return rep


def make_splitting(space: SubsetSpace, family: Iterable[PointSet]) -> Splitting:
    n = len(space.point_names)
    masks = {checked_mask(n, U, "splitting member") for U in checked_iter(family, "family")}
    for u in sort_masks(masks.difference(space.masks), n)[:1]:  # the least
        raise SpaceError(f"{sorted(from_mask(u))} is not an open of the space")
    sp = Splitting(tuple(sorted(map(space.masks.index, masks))), space)
    if not is_closed(masks, masks, and_):
        raise SpaceError("splitting family is not intersection-closed")
    return sp


def classify(s: Splitting, V: PointSet) -> PointSet:
    """The least family member above V; V lies in its remainder."""
    rep = _least_above(s.masks, checked_mask(len(s.space.point_names), V, "classified set"))
    if rep == -1:
        raise SpaceError(f"{sorted(V)} is below no member of the splitting")
    return from_mask(rep)  # a member when the family is intersection-closed


def remainder_blocks(masks: Sequence[int], family: Sequence[int]
                     ) -> list[list[int]]:
    """The remainder partition on masks: for each member of family, in its
    order, the slots i, ascending, of the masks[i] whose least member of
    family above is that member."""
    place = {u: k for k, u in enumerate(family)}
    blocks: list[list[int]] = [[] for _ in family]
    for i, v in enumerate(masks):
        rep = _least_above(family, v)
        if rep != -1:  # v is below a member, and rep is classify's answer
            blocks[place[rep]].append(i)
    return blocks


def partition(s: Splitting) -> dict[PointSet, frozenset[PointSet]]:
    """The remainder partition of all opens below the family: each family
    member's block, in family order."""
    opens = s.space.opens
    return {U: frozenset([opens[i] for i in b]) for U, b in zip(
        s.family, remainder_blocks(s.space.masks, s.masks))}


def is_stable(m: Model, block: Iterable[PointSet], f: Formula) -> bool:
    """`Evaluator.stable` over the block's slots: True iff f's truth at each
    point is constant over the block members containing that point."""
    ev = Evaluator(m)
    return ev.stable(ev.slots(block), f)


@dataclass
class SplittingTable:
    """Stable splittings per subformula in post-order (the formula last),
    and their evaluator."""

    splittings: dict[Formula, Splitting]
    evaluator: Evaluator


def build_splitting(m: Model, f: Formula) -> SplittingTable:
    """Stable splittings for f and all its subformulas.

    Construction per connective: atoms get {X, empty}; negation reuses the
    operand's splitting; conjunction takes the intersection closure of the
    union; K adds the interior of the operand's extension at each member
    when it falls inside that member's remainder; [] adds all Heyting
    implications among the operand's family members.  The families are
    built as masks of opens and stored as their slots.
    """
    s = m.space
    if not is_topology(s):
        raise SpaceError("build_splitting requires a topology")
    ev = Evaluator(m)
    masks = s.masks
    slot = {u: i for i, u in enumerate(masks)}  # every member is an open
    splittings: dict[Formula, Splitting] = {}
    for psi in subformulas(f):
        match psi:
            case Not(x):
                splittings[psi] = splittings[x]
                continue
            case Atom(_) | Top() | Bot():
                new: Iterable[int] = (masks[-1], 0)
            case And(a, b):
                new = (*splittings[a].masks, *splittings[b].masks)
            case Knows(x):
                sp, row = splittings[x], ev.row(x)
                sub = sp.masks
                new = [*sub]
                for i, u in zip(sp.slots, sub):
                    # The interior of x's extension at u, which lies in u's
                    # remainder iff u is the least member above it.
                    w = interior_mask(masks, ~row[i])
                    if _least_above(sub, w) == u:
                        new.append(w)
            case Box(x):
                sub = splittings[x].masks
                new = (*sub, *(interior_mask(masks, u & ~v)
                               for u in sub for v in sub))
            case _:
                raise TypeError(f"not a formula: {psi!r}")
        # Intersection-closed by construction: no check needed.
        splittings[psi] = Splitting(
            tuple(sorted([slot[u] for u in close(new, and_)])), s)
    return SplittingTable(splittings, ev)
