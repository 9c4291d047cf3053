"""Satisfaction over subset-space models.

A pair (x, U) with x in U and U open is the unit of evaluation.  `K`
quantifies over the points of the current open, `[]` over the opens
below the current one that still contain the current point.

Evaluation labels each distinct subformula with one row of int bitmasks,
its extension at every open, filled bottom up from its operands' rows.

A row can carry many models side by side, one lane each: the valuations
of one or more spaces with one point count.  With n points a lane is n + 1
bits wide: bit l*(n+1) + x is point x in lane l, and the top bit of each
lane is a guard that stays 0.  A row's slots are the spaces' opens merged
in `sort_family` order, and a slot's mask holds its points in the lanes of
each space that has it as an open and 0 in the others.  So `~`, `&` and
atoms are the one-lane bit operations unchanged, and so is `[]` once its
sub-open lists come from the slots' own point sets: a 0 slot adds no points
and no misses.  `K` must test a whole lane: with a = the operand's row and
u = the open's, adding 2**n - 1 per lane to u ^ a carries into a lane's
guard bit exactly when a misses a point of u there, and subtracting the
carries shifted down by n gives the mask of those lanes' points, which K
clears.  Sorted by size, a space's opens keep their `pairs_in_order` order
among the slots, so the least pair of each lane is read off in one scan.

A model's evaluator keeps every row it computes, as splittings and
quotients ask it about many formulas.  A search pass keeps only the rows
of the formulas it is asked for: each operand's row goes right after its
last parent in the walk, so a wide pass holds few rows at a time.

The axiom schemes are written once, as formulas in `AXIOM_SCHEMES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_, xor
from typing import Container, Iterable, Iterator, Mapping, Sequence
from weakref import WeakKeyDictionary

from .formula import (And, Atom, Bot, Box, Formula, Knows, Not, Top, parse,
                      post_order, subformulas)
from .space import (Model, PointSet, SpaceError, SubsetSpace, sort_family,
                    to_mask)


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
    """Extension table of one model, or of many valuations of spaces with
    one point count, shared by every formula it evaluates.

    Each distinct subformula has one row: at index i, the mask of the points
    of slot i that satisfy it there, in every lane.  The slots are the
    spaces' opens, merged in `sort_family` order, so for one space they are
    its opens.  Formulas are interned, so rows are keyed by node and equal
    subformulas of different formulas share a row.

    `Evaluator(m)` has one lane, valued by the model m, and keeps every row
    it computes.  `Evaluator(spaces, lanes, atoms)` has `lanes` lanes per
    space: lane k*lanes + v is valuation v of spaces[k], and atoms[a] is
    atom a's row over one space's lanes, bit v*(n+1) + x set when x is in
    a's set under valuation v.  A slot that is not an open of spaces[k] is
    0 in that space's lanes.  Such a search pass keeps only the rows of the
    formulas it was asked for: an operand's row goes after its last parent.
    `mask` returns every lane; `extension` and `satisfies` read lane 0.
    """

    def __init__(self, m: Model | Sequence[SubsetSpace], lanes: int = 1,
                 atoms: Mapping[str, int] | None = None):
        self._keep = isinstance(m, Model)
        if self._keep:
            if lanes != 1 or atoms is not None:
                raise SpaceError("a model's evaluator has one lane, valued "
                                 "by the model")
            spaces: Sequence[SubsetSpace] = (m.space,)
            atoms = {a: to_mask(s) for a, s in m.valuation.items()}
        elif atoms is None or lanes < 1:
            raise SpaceError("an evaluator over spaces needs at least one "
                             "lane and the atoms' rows")
        else:
            spaces = tuple(m)
            if len(spaces) != 1 and len({len(s.point_names)
                                         for s in spaces}) != 1:
                raise SpaceError("an evaluator's spaces need one point count")
        n = len(spaces[0].point_names)
        self._width = w = n + 1
        ones = _ones(lanes * len(spaces), w)  # bit 0 of each lane
        self._fill, self._guard = ones * ((1 << n) - 1), ones << n
        if len(spaces) == 1:
            self._opens, self._slots = spaces[0].opens, spaces[0].masks
            self._masks = [u * ones for u in self._slots]
        else:
            slot = {U: u for s in spaces for U, u in zip(s.opens, s.masks)}
            self._opens = sort_family(slot)
            self._slots = [slot[U] for U in self._opens]
            # own[U]: bit k*lanes*w set iff U is an open of spaces[k].
            own = dict.fromkeys(self._opens, 0)
            for k, s in enumerate(spaces):
                for U in s.opens:
                    own[U] |= 1 << k * lanes * w
            lane_ones = _ones(lanes, w)
            self._masks = [u * lane_ones * o
                           for u, o in zip(self._slots, own.values())]
            spread = _ones(len(spaces), lanes * w)
            atoms = {a: row * spread for a, row in atoms.items()}
        self._atoms = atoms
        self._index = {U: i for i, U in enumerate(self._opens)}
        self._below: list[list[int]] | None = None  # sub-open slots per slot
        self._rows: dict[Formula, list[int]] = {}

    def _row(self, f: Formula) -> list[int]:
        rows, masks = self._rows, self._masks
        if self._keep:
            walk, drops = post_order(f, rows), None
        else:  # a search pass: drop each operand's row after its last use
            body, plan = (_plan(f, rows) if rows else _PLANS.get(f)
                          or _PLANS.setdefault(f, _plan(f, rows)))
            walk, drops = (*body, f), iter(plan)
        try:
            for g in walk:
                t = type(g)
                if t is Not:
                    row = list(map(xor, masks, rows[g.arg]))
                elif t is And:
                    row = list(map(and_, rows[g.left], rows[g.right]))
                elif t is Knows:
                    # A lane's guard bit in (u ^ a) + fill is set iff a misses
                    # a point of u; k - (k >> n) covers the points of those
                    # lanes.  A slot of 0 never carries.
                    fill, guard, n = self._fill, self._guard, self._width - 1
                    row = []
                    for u, a in zip(masks, rows[g.arg]):
                        k = ((u ^ a) + fill) & guard
                        row.append(u & ~(k - (k >> n)))
                elif t is Box:
                    if self._below is None:  # by the slots' own point sets
                        slots = self._slots
                        self._below = [[j for j, v in enumerate(slots)
                                        if v & ~u == 0] for u in slots]
                    # miss[j]: the points of slot j at which the operand
                    # fails, none in the lanes of a space without slot j.
                    miss = list(map(xor, masks, rows[g.arg]))
                    row = [u & ~reduce(or_, [miss[j] for j in js])
                           for u, js in zip(masks, self._below)]
                elif t is Atom:
                    a = self._atoms.get(g.name)
                    if a is None:
                        raise SpaceError(f"unknown atom {g.name!r}")
                    row = [u & a for u in masks]
                elif t is Top:
                    row = masks
                elif t is Bot:
                    row = [0] * len(masks)
                else:
                    raise TypeError(f"not a formula: {g!r}")
                rows[g] = row
                if drops is not None:
                    for o in next(drops):
                        del rows[o]
        except BaseException:
            if drops is not None:  # a pass keeps no row of a failed walk
                for g in walk:
                    rows.pop(g, None)
            raise
        return rows[f]

    def mask(self, U: PointSet, f: Formula) -> int:
        """The points of the open U that satisfy f at U, as a bitmask."""
        i = self._index.get(U)
        if i is None:
            raise SpaceError(f"{sorted(U)} is not an open of the space")
        return (self._rows.get(f) or self._row(f))[i]  # rows are never empty

    def slots(self, opens: Iterable[PointSet]) -> list[int]:
        """The slots of the given opens, ascending: in `sort_family` order."""
        try:
            return sorted([self._index[U] for U in opens])
        except KeyError as exc:
            raise SpaceError(f"{sorted(exc.args[0])} is not an open of the "
                             "space") from None

    def stable(self, slots: Sequence[int], f: Formula) -> bool:
        """True iff f's truth at each point is constant over the given slots
        whose opens contain it.  No slots ask for no row."""
        if not slots:
            return True
        row, masks = self._rows.get(f) or self._row(f), self._masks
        sat = fail = 0  # points where f holds, and fails, at some slot
        for i in slots:
            sat |= row[i]
            fail |= masks[i] ^ row[i]
        return not sat & fail

    def forget(self, f: Formula) -> None:
        """Drop f's row, if held; it is computed again when asked."""
        self._rows.pop(f, None)

    def extension(self, U: PointSet, f: Formula) -> PointSet:
        bits = self.mask(U, f)
        return frozenset(x for x in U if bits >> x & 1)

    def satisfies(self, p: Pair, f: Formula) -> bool:
        return bool(self.mask(p.open, f) >> p.point & 1)

    def hits(self, f: Formula, holds: bool) -> Iterator[tuple[int, Pair]]:
        """Each lane in which the truth of f equals holds at some pair,
        ascending, with the least such pair in `pairs_in_order`."""
        row = self._rows.get(f) or self._row(f)
        masks, opens = self._masks, self._opens
        order = sorted(range(len(opens)), key=lambda i: -len(opens[i]))
        found = [row[i] if holds else masks[i] ^ row[i] for i in order]
        w = self._width
        points = (1 << w - 1) - 1
        left, base = reduce(or_, found), 0  # bit 0 of `left` is lane `base`
        while left:
            lane = base + ((left & -left).bit_length() - 1) // w
            shift = lane * w
            for i, bits in zip(order, found):
                bits = bits >> shift & points
                if bits:
                    yield lane, Pair((bits & -bits).bit_length() - 1, opens[i])
                    break
            left >>= (lane + 1 - base) * w
            base = lane + 1

    def first_pair(self, f: Formula, holds: bool) -> Pair | None:
        """The least pair in `pairs_in_order` at which the truth of f
        equals holds, in the least lane that has one, or None."""
        for _, p in self.hits(f, holds):
            return p
        return None


def _ones(count: int, step: int) -> int:
    """count set bits, step bits apart, from bit 0."""
    return ((1 << count * step) - 1) // ((1 << step) - 1)


def _plan(f: Formula, done: Container[Formula]
          ) -> tuple[tuple[Formula, ...], tuple[tuple[Formula, ...], ...]]:
    """The subformulas of f not in done, each after its operands, f left
    out; and after each of them, then f, the operands not in done whose
    last parent it is."""
    seen = set(done)
    body: list[Formula] = []
    last: dict[Formula, int] = {}  # operand -> its last parent's place
    for i, g in enumerate(post_order(f, seen)):
        seen.add(g)
        body.append(g)
        t = type(g)
        if t is And:
            last[g.left] = last[g.right] = i
        elif t is Not or t is Knows or t is Box:
            last[g.arg] = i
    drops: list[list[Formula]] = [[] for _ in body]
    for o, i in last.items():
        if o not in done:
            drops[i].append(o)
    body.pop()  # f itself, which its plan must not hold: see _PLANS
    return tuple(body), tuple([tuple(d) for d in drops])


# The plan of each formula over an empty table, the one a search pass runs
# for the first formula it is asked, kept while the formula lives: a pure
# function of an interned, immutable key.  A plan leaves its formula out,
# as an entry whose value held its key would keep the key alive.
_PLANS: WeakKeyDictionary[Formula, tuple] = WeakKeyDictionary()


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


class SchemeError(SpaceError):
    """Bad axiom-scheme id or substitution."""


# The twelve axiom schemes of Moss and Parikh over the metavariables phi,
# psi and chi.  Scheme 1 stands in for "all propositional tautologies";
# scheme 2 is stated for atomic phi only.
AXIOM_SCHEMES: dict[int, str] = {
    1: "phi -> (psi -> phi)",
    2: "(phi -> [] phi) & (~phi -> [] ~phi)",
    3: "[] (phi -> psi) -> ([] phi -> [] psi)",
    4: "[] phi -> phi",
    5: "[] phi -> [] [] phi",
    6: "K (phi -> psi) -> (K phi -> K psi)",
    7: "K phi -> phi",
    8: "K phi -> K K phi",
    9: "phi -> K L phi",
    10: "K [] phi -> [] K phi",
    11: "<> [] phi -> [] <> phi",
    12: "<> (K phi & psi) & L <> (K phi & chi) "
        "-> <> (K <> phi & <> psi & L <> chi)",
}
_TEMPLATES = {sid: parse(text) for sid, text in AXIOM_SCHEMES.items()}
# Metavariables in order of first occurrence, the order of the sweep's draws.
AXIOM_METAVARS: dict[int, tuple[str, ...]] = {
    sid: tuple(g.name for g in subformulas(f) if type(g) is Atom)
    for sid, f in _TEMPLATES.items()}


def scheme_metavars(scheme_id: int) -> tuple[str, ...]:
    """The metavariables of a scheme; the one check of scheme ids."""
    names = AXIOM_METAVARS.get(scheme_id)
    if names is None:
        raise SchemeError(f"unknown axiom scheme {scheme_id}")
    return names


def instantiate_axiom(scheme_id: int, substitution: dict[str, Formula]) -> Formula:
    """Instantiate one of the twelve axiom schemes.

    Scheme 2 is stated for atomic formulas only and rejects any other
    substitution for phi.
    """
    missing = [v for v in scheme_metavars(scheme_id) if v not in substitution]
    if missing:
        raise SchemeError(f"scheme {scheme_id} needs substitution for {missing}")
    if scheme_id == 2 and not isinstance(substitution["phi"], (Atom, Top, Bot)):
        raise SchemeError("scheme 2 requires an atomic substitution")
    built: dict[Formula, Formula] = {}  # template node -> its instance
    for g in post_order(_TEMPLATES[scheme_id], built):
        built[g] = (substitution[g.name] if type(g) is Atom else
                    type(g)(*[built[getattr(g, f)] for f in g.__match_args__]))
    return built[g]  # the template itself comes last
