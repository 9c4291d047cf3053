"""Satisfaction over subset-space models.

A pair (x, U) with x in U and U open is the unit of evaluation.  `K`
quantifies over the points of the current open, `[]` over the opens
below the current one that still contain the current point.

Evaluation labels each distinct subformula with one row of int bitmasks,
its extension at every open, filled bottom up from its operands' rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_, xor
from typing import Iterator

from .formula import (And, Atom, Bot, Box, Diamond, Formula, Implies, Knows, L,
                      Not, Top, post_order)
from .space import InternalError, Model, PointSet, SpaceError


@dataclass(frozen=True)
class Pair:
    point: int
    open: PointSet

    def __post_init__(self) -> None:
        if self.point not in self.open:
            raise SpaceError(f"point {self.point} not in open {sorted(self.open)}")


def pairs_in_order(m: Model) -> Iterator[Pair]:
    """Deterministic pair order: opens largest first, then by members;
    points ascending.

    This is the order in which counterexamples and witnesses are reported,
    so the full open X is always inspected first.
    """
    # The opens are in `sort_family` order and sorting is stable.
    for U in sorted(m.space.opens, key=len, reverse=True):
        for x in sorted(U):
            yield Pair(x, U)


class Evaluator:
    """Extension table of one model, shared by every formula it evaluates.

    Each distinct subformula has one row: at index i, the mask of the points
    of open i that satisfy it there.  Formulas are interned, so rows are
    keyed by node and equal subformulas of different formulas share a row.
    """

    def __init__(self, m: Model):
        self.model = m
        self._index = {U: i for i, U in enumerate(m.space.opens)}
        self._masks = [sum(1 << x for x in U) for U in m.space.opens]
        self._below: list[list[int]] | None = None  # sub-open indices per open
        self._rows: dict[Formula, list[int]] = {}

    def _row(self, f: Formula) -> list[int]:
        rows, masks = self._rows, self._masks
        for g in post_order(f, rows):
            t = type(g)
            if t is Not:
                row = list(map(xor, masks, rows[g.arg]))
            elif t is And:
                row = list(map(and_, rows[g.left], rows[g.right]))
            elif t is Knows:
                row = [u if a == u else 0 for u, a in zip(masks, rows[g.arg])]
            elif t is Box:
                if self._below is None:
                    self._below = [[j for j, v in enumerate(masks)
                                    if v & ~u == 0] for u in masks]
                # miss[j]: the points of open j at which the operand fails.
                miss = list(map(xor, masks, rows[g.arg]))
                row = [u & ~reduce(or_, [miss[j] for j in js])
                       for u, js in zip(masks, self._below)]
            elif t is Atom:
                a = sum(1 << x for x in self.model.atom_set(g.name))
                row = [u & a for u in masks]
            elif t is Top:
                row = masks
            elif t is Bot:
                row = [0] * len(masks)
            else:
                raise TypeError(f"not a formula: {g!r}")
            rows[g] = row
        return rows[f]

    def mask(self, U: PointSet, f: Formula) -> int:
        """The points of the open U that satisfy f at U, as a bitmask."""
        i = self._index.get(U)
        if i is None:
            raise SpaceError(f"{sorted(U)} is not an open of the space")
        return (self._rows.get(f) or self._row(f))[i]  # rows are never empty

    def extension(self, U: PointSet, f: Formula) -> PointSet:
        bits = self.mask(U, f)
        return frozenset(x for x in U if bits >> x & 1)

    def satisfies(self, p: Pair, f: Formula) -> bool:
        return bool(self.mask(p.open, f) >> p.point & 1)

    def first_pair(self, f: Formula, holds: bool) -> Pair | None:
        """The least pair in `pairs_in_order` at which the truth of f
        equals holds, or None."""
        row, masks, opens = self._row(f), self._masks, self.model.space.opens
        for i in sorted(range(len(opens)), key=lambda i: -len(opens[i])):
            bits = row[i] if holds else masks[i] ^ row[i]
            if bits:
                return Pair((bits & -bits).bit_length() - 1, opens[i])
        return None


def satisfies(m: Model, p: Pair, f: Formula) -> bool:
    """The satisfaction relation at one pair."""
    return Evaluator(m).satisfies(p, f)


def extension(m: Model, U: PointSet, f: Formula) -> PointSet:
    """The set of points of U satisfying f at U."""
    return Evaluator(m).extension(U, f)


def find_counterexample(m: Model, f: Formula,
                        evaluator: Evaluator | None = None) -> Pair | None:
    """Least falsifying pair in the deterministic order, or None."""
    return (evaluator or Evaluator(m)).first_pair(f, False)


def model_valid(m: Model, f: Formula,
                evaluator: Evaluator | None = None) -> bool:
    """True iff f holds at every pair of the model."""
    return find_counterexample(m, f, evaluator) is None


class SchemeError(ValueError):
    """Bad axiom-scheme id or substitution."""


# Axiom schemes.  Scheme 1 stands in for "all propositional tautologies"
# via the representative tautology phi -> (psi -> phi).
AXIOM_METAVARS: dict[int, tuple[str, ...]] = {
    1: ("phi", "psi"),
    2: ("phi",),
    3: ("phi", "psi"),
    4: ("phi",),
    5: ("phi",),
    6: ("phi", "psi"),
    7: ("phi",),
    8: ("phi",),
    9: ("phi",),
    10: ("phi",),
    11: ("phi",),
    12: ("phi", "psi", "chi"),
}


def instantiate_axiom(scheme_id: int, substitution: dict[str, Formula]) -> Formula:
    """Instantiate one of the twelve axiom schemes.

    Scheme 2 is stated for atomic formulas only and rejects any other
    substitution for phi.
    """
    if scheme_id not in AXIOM_METAVARS:
        raise SchemeError(f"unknown axiom scheme {scheme_id}")
    missing = [v for v in AXIOM_METAVARS[scheme_id] if v not in substitution]
    if missing:
        raise SchemeError(f"scheme {scheme_id} needs substitution for {missing}")
    p = substitution.get("phi")
    q = substitution.get("psi")
    c = substitution.get("chi")
    match scheme_id:
        case 1:
            return Implies(p, Implies(q, p))
        case 2:
            if not isinstance(p, (Atom, Top, Bot)):
                raise SchemeError("scheme 2 requires an atomic substitution")
            return And(Implies(p, Box(p)), Implies(Not(p), Box(Not(p))))
        case 3:
            return Implies(Box(Implies(p, q)), Implies(Box(p), Box(q)))
        case 4:
            return Implies(Box(p), p)
        case 5:
            return Implies(Box(p), Box(Box(p)))
        case 6:
            return Implies(Knows(Implies(p, q)), Implies(Knows(p), Knows(q)))
        case 7:
            return Implies(Knows(p), p)
        case 8:
            return Implies(Knows(p), Knows(Knows(p)))
        case 9:
            return Implies(p, Knows(L(p)))
        case 10:
            return Implies(Knows(Box(p)), Box(Knows(p)))
        case 11:
            return Implies(Diamond(Box(p)), Box(Diamond(p)))
        case 12:
            return Implies(
                And(Diamond(And(Knows(p), q)), L(Diamond(And(Knows(p), c)))),
                Diamond(And(Knows(Diamond(p)), And(Diamond(q), L(Diamond(c))))))
    raise InternalError(f"scheme {scheme_id} has no construction")
