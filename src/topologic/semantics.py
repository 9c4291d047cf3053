"""Satisfaction over subset-space models.

A pair (x, U) with x in U and U open is the unit of evaluation.  `K`
quantifies over the points of the current open, `[]` over the opens
below the current one that still contain the current point.

Evaluation is extension-based: per (subformula, open) the set of
satisfying points is computed once and memoized, which keeps whole-model
sweeps cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .formula import And, Atom, Bot, Box, Formula, Implies, Knows, Not, Top
from .space import EMPTY, InternalError, Model, PointSet, SpaceError


@dataclass(frozen=True)
class Pair:
    point: int
    open: PointSet

    def __post_init__(self) -> None:
        if self.point not in self.open:
            raise SpaceError(f"point {self.point} not in open {sorted(self.open)}")


def pairs_in_order(m: Model) -> Iterator[Pair]:
    """Deterministic pair order: opens largest first, points ascending.

    This is the order in which counterexamples and witnesses are reported,
    so the full open X is always inspected first.
    """
    for U in sorted(m.space.opens, key=lambda s: (-len(s), tuple(sorted(s)))):
        for x in sorted(U):
            yield Pair(x, U)


class Evaluator:
    """Memoizing evaluator for one model; reusable across formulas."""

    def __init__(self, m: Model):
        self.model = m
        self._ext: dict[tuple[Formula, PointSet], PointSet] = {}
        self._down: dict[PointSet, tuple[PointSet, ...]] = {}

    def _subopens(self, U: PointSet) -> tuple[PointSet, ...]:
        cached = self._down.get(U)
        if cached is None:
            cached = self.model.space.subopens(U)
            self._down[U] = cached
        return cached

    def extension(self, U: PointSet, f: Formula) -> PointSet:
        key = (f, U)
        cached = self._ext.get(key)
        if cached is not None:
            return cached
        match f:
            case Top():
                result = U
            case Bot():
                result = EMPTY
            case Atom(name):
                result = self.model.atom_set(name) & U
            case Not(x):
                result = U - self.extension(U, x)
            case And(a, b):
                result = self.extension(U, a) & self.extension(U, b)
            case Knows(x):
                result = U if self.extension(U, x) == U else EMPTY
            case Box(x):
                bad = EMPTY
                for V in self._subopens(U):
                    bad |= V - self.extension(V, x)
                result = U - bad
            case _:
                raise TypeError(f"not a formula: {f!r}")
        self._ext[key] = result
        return result

    def satisfies(self, p: Pair, f: Formula) -> bool:
        return p.point in self.extension(p.open, f)


def satisfies(m: Model, p: Pair, f: Formula) -> bool:
    """The satisfaction relation at one pair."""
    if p.open not in m.space.opens:
        raise SpaceError(f"{sorted(p.open)} is not an open of the space")
    return Evaluator(m).satisfies(p, f)


def extension(m: Model, U: PointSet, f: Formula) -> PointSet:
    """The set of points of U satisfying f at U."""
    if U not in m.space.opens:
        raise SpaceError(f"{sorted(U)} is not an open of the space")
    return Evaluator(m).extension(U, f)


def find_counterexample(m: Model, f: Formula,
                        evaluator: Evaluator | None = None) -> Pair | None:
    """Least falsifying pair in the deterministic order, or None."""
    ev = evaluator if evaluator is not None else Evaluator(m)
    for p in pairs_in_order(m):
        if not ev.satisfies(p, f):
            return p
    return None


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
    from .formula import Diamond, L

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
