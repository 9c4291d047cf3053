"""Satisfaction over subset-space models.

A pair (x, U) with x in U and U open is the unit of evaluation.  `K`
quantifies over the points of the current open, `[]` over the opens
below the current one that still contain the current point.

Evaluation labels each distinct subformula with one row of int bitmasks,
its extension at every open, filled bottom up from its operands' rows.

A row can carry many models side by side, one lane each: the valuations
of one or more spaces.  With n the most points of a space, each lane is
n + 1 bits wide: bit l*(n+1) + x is point x in lane l, a lane's bits past
its space's points are 0, and the top bit is a guard that stays 0.  A
row's slots are the spaces' open masks merged in `set_key` order, and a
slot's mask holds its points in the lanes of each space that has it as an
open and 0 in the others.  So `~`, `&` and atoms are the one-lane bit
operations unchanged, and so is `[]`, which ORs each slot's misses with
those of the slots below it, down the slots' covers (`PassFrame.covers`).
`K` must test a whole lane: with a = the operand's row and u = the open's,
u ^ a is below 2**n in each lane, so adding 2**n - 1 per lane carries
into a lane's guard bit exactly when a misses a point of u there, and
subtracting the carries shifted down by n gives the mask of those lanes'
points, which K clears.  Sorted by size, a space's opens keep their
`pairs_in_order` order among the slots, so the least pair of each lane
is read off in one scan.

What a pass fixes before any formula is its `PassFrame`: the slots and
their masks over the lanes, `K`'s per-lane constants, the atoms' rows,
and, built at first use, the slot order of `hits` and the covers of `[]`.
A frame keeps no point set: the frozenset methods find an open's slot by
its mask, and a search makes no point set but its witness's.  An evaluator
owns only its rows (see `Evaluator`); a search pass walks each formula's
plan in `_PLANS`, which drops each operand's row right after its last
parent: a wide pass holds few rows.  A pass can also walk a formula under
a substitution for its atoms, as sweeps walk a scheme's template: a
substituted atom's row is its formula's, walked by that formula's own plan
in rows of its own, and no row is kept under the template.

The axiom schemes are written once, as formulas in `AXIOM_SCHEMES`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_, xor
from typing import Iterable, Iterator, Mapping, Sequence
from weakref import WeakKeyDictionary

from .formula import (And, Atom, Bot, Box, Formula, Knows, Not, Top, parse,
                      post_order, subformulas)
from .space import (Model, PointSet, SpaceError, SubsetSpace, from_mask,
                    sort_masks, to_mask)


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


class PassFrame:
    """What a pass fixes before any formula (see the module docstring).

    `PassFrame(spaces, lanes, atoms)` gives spaces[k] lanes[k] lanes, in
    order, each `width` bits wide: the widest space's point count plus 1.
    atoms[a] is atom a's row over every lane, bit l*width + x set when x is
    in a's set in lane l.  `covers` is the Hasse diagram of the slots' own
    point sets.  A frame holds no row, so many searches may share one."""

    def __init__(self, spaces: Sequence[SubsetSpace], lanes: Sequence[int],
                 atoms: Mapping[str, int] | None):
        spaces, lanes = tuple(spaces), tuple(lanes)
        if atoms is None or len(lanes) != len(spaces) or min(
                lanes, default=0) < 1:
            raise SpaceError("a frame needs lanes for each space and atoms")
        n = max(len(s.point_names) for s in spaces)
        self.width = w = n + 1
        ones = _ones(sum(lanes), w)  # bit 0 of each lane
        self.fill, self.guard = ones * ((1 << n) - 1), ones << n
        # own[u]: bit 0 of each lane of the spaces that have u as open.
        own, first = {}, 0
        for s, count in zip(spaces, lanes):
            block = _ones(count, w) << first * w
            for u in s.masks:
                own[u] = own.get(u, 0) | block
            first += count
        self.slots = sort_masks(own, n)
        self.masks = [u * own[u] for u in self.slots]
        self.atoms = atoms

    @cached_property
    def covers(self) -> list[list[int]]:
        """Each slot's maximal proper sub-slots, by the slots' own point
        sets, found scanning the smaller slots downwards: one under a cover
        met already is skipped.  Every slot below slot i is below a cover,
        so `[]`'s OR down the covers is exact, even via a cover 0 in a lane."""
        slots, down, covers = self.slots, [], []
        for i, u in enumerate(slots):
            under, cs = 0, []
            for j in range(i - 1, -1, -1):
                if not under >> j & 1 and slots[j] & ~u == 0:
                    cs.append(j)
                    under |= down[j]
            down.append(under | 1 << i)
            covers.append(cs)
        return covers

    @cached_property
    def order(self) -> list[int]:
        """The slots largest open first, as `pairs_in_order` takes them."""
        return sorted(range(len(self.slots)),
                      key=lambda i: -self.slots[i].bit_count())


class Evaluator:
    """Extension table of one model, or of many valuations of spaces,
    shared by every formula it evaluates.

    Each distinct subformula has one row: at index i, the mask of the points
    of slot i that satisfy it there, in every lane (for one space, slot i
    is its i-th open).  Formulas are interned, so rows are keyed by node
    and equal subformulas of different formulas share a row.

    `Evaluator(m)` has one lane, valued by the model m, and keeps every row
    it computes.  `Evaluator(frame)` is a search pass over a `PassFrame`:
    it holds only the row of the formula it answered last, and drops it
    before it walks another, so a walk that fails leaves no row; a walk
    under a substitution (`hit_slots`) leaves none.  `mask` returns every
    lane; `extension` and `satisfies` read lane 0.
    """

    __slots__ = ("_keep", "_frame", "_rows")

    def __init__(self, m: Model | PassFrame):
        self._keep = isinstance(m, Model)
        if self._keep:
            m = PassFrame((m.space,), (1,), m.masks)
        elif not isinstance(m, PassFrame):
            raise TypeError(f"an evaluator needs a model or a frame, "
                            f"not {type(m).__name__}")
        self._frame = m
        self._rows: dict[Formula, list[int]] = {}

    def _row(self, f: Formula, subst: Mapping[str, Formula] | None = None
             ) -> list[int]:
        """f's row, kept; or, on a search pass given subst, the row of f
        with each atom named in subst read as its formula, kept nowhere."""
        if self._keep:
            if subst is not None:
                raise TypeError("a model's evaluator takes no substitution")
            return self._walk(f, None, self._rows)
        self._rows.clear()  # a search pass: release the last row
        row = self._walk(f, subst)
        if subst is None:
            self._rows[f] = row
        return row

    def _walk(self, f: Formula, subst: Mapping[str, Formula] | None,
              kept: dict[Formula, list[int]] | None = None) -> list[int]:
        """f's row: its subformulas' rows put into kept, or, with no kept,
        walked by f's plan in rows of its own.  At an atom that subst
        names, the row is its formula's, walked apart, so that an atom of
        that formula is never taken for one of subst's names."""
        if kept is None:
            body, plan = walk_plan(f)
            walk, rows, drops = (*body, f), {}, iter(plan)
        else:
            walk, rows, drops = post_order(f, kept), kept, None
        fr = self._frame
        masks = fr.masks
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
                fill, guard, n = fr.fill, fr.guard, fr.width - 1
                row = []
                for u, a in zip(masks, rows[g.arg]):
                    k = ((u ^ a) + fill) & guard
                    row.append(u & ~(k - (k >> n)))
            elif t is Box:
                # down[i]: where the operand fails at slot i or below it.
                down = []
                for d, cs in zip(map(xor, masks, rows[g.arg]), fr.covers):
                    for c in cs:
                        d |= down[c]
                    down.append(d)
                row = [u & ~d for u, d in zip(masks, down)]
            elif t is Atom:
                if subst is not None and g.name in subst:
                    row = self._walk(subst[g.name], None)
                else:
                    a = fr.atoms.get(g.name)
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
        return row

    def row(self, f: Formula) -> list[int]:
        """f's row: at slot i, the mask of the points of slot i that
        satisfy f there, in every lane."""
        return self._rows.get(f) or self._row(f)  # rows are never empty

    def _slot(self, U: PointSet) -> int:
        """The slot of the open U, found by its mask."""
        try:  # a set of other than points has no mask, or no slot
            return self._frame.slots.index(to_mask(U))
        except (TypeError, ValueError):
            raise SpaceError(f"{sorted(U)} is not an open of the space") from None

    def mask(self, U: PointSet, f: Formula) -> int:
        """The points of the open U that satisfy f at U, as a bitmask."""
        i = self._slot(U)
        return (self._rows.get(f) or self._row(f))[i]  # rows are never empty

    def slots(self, opens: Iterable[PointSet]) -> list[int]:
        """The slots of the given opens, ascending: in `sort_family` order."""
        return sorted(map(self._slot, opens))

    def stable(self, slots: Sequence[int], f: Formula) -> bool:
        """True iff f's truth at each point is constant over the given slots
        whose opens contain it.  No slots ask for no row."""
        if not slots:
            return True
        row, masks = self._rows.get(f) or self._row(f), self._frame.masks
        sat = fail = 0  # points where f holds, and fails, at some slot
        for i in slots:
            sat |= row[i]
            fail |= masks[i] ^ row[i]
        return not sat & fail

    def extension(self, U: PointSet, f: Formula) -> PointSet:
        bits = self.mask(U, f)
        return frozenset(x for x in U if bits >> x & 1)

    def satisfies(self, p: Pair, f: Formula) -> bool:
        return bool(self.mask(p.open, f) >> p.point & 1)

    def hit_slots(self, f: Formula, holds: bool,
                  subst: Mapping[str, Formula] | None = None
                  ) -> Iterator[tuple[int, int, int]]:
        """(lane, point, slot) for each lane in which the truth of f equals
        holds at some pair, ascending, with the least such pair in
        `pairs_in_order`: `pair(point, slot)`.  Given subst, f is read with
        each atom named in subst as its formula (see `_row`).

        Each row is read once, into bytes: the union of the rows, and a
        slot's row when a lane first asks it.  A lane's points start at bit
        0 to 7 of its first byte, so they lie in its first (width + 13) // 8
        bytes, and reading them costs no shift of a row."""
        row = (self._row(f, subst) if subst is not None
               else self._rows.get(f) or self._row(f))
        fr = self._frame
        masks, order = fr.masks, fr.order
        found = [row[i] if holds else masks[i] ^ row[i] for i in order]
        left = reduce(or_, found)
        if not left:
            return
        w = fr.width
        size, span = (left.bit_length() + 7) >> 3, (w + 13) >> 3
        union, read = left.to_bytes(size, "little"), int.from_bytes
        points, last = (1 << w - 1) - 1, (left.bit_length() - 1) // w
        lane = 0
        while lane <= last:
            i, shift = lane * w >> 3, lane * w & 7
            if not read(union[i:i + span], "little") >> shift & points:
                # A later lane hits: skip to the first byte with a bit set.
                lane = max(lane + 1, _NONZERO.search(
                    union, (lane + 1) * w >> 3).start() * 8 // w)
                continue
            for k, data in enumerate(found):
                if type(data) is int:  # read when a lane first asks it
                    data = found[k] = data.to_bytes(size, "little")
                bits = read(data[i:i + span], "little") >> shift & points
                if bits:
                    yield lane, (bits & -bits).bit_length() - 1, order[k]
                    break
            lane += 1

    def pair(self, point: int, slot: int) -> Pair:
        """The pair of a point and a slot whose open holds it."""
        return Pair(point, from_mask(self._frame.slots[slot]))

    def hits(self, f: Formula, holds: bool) -> Iterator[tuple[int, Pair]]:
        """Each lane of `hit_slots`, with its pair."""
        return ((lane, self.pair(point, slot))
                for lane, point, slot in self.hit_slots(f, holds))

    def first_pair(self, f: Formula, holds: bool) -> Pair | None:
        """The least pair in `pairs_in_order` at which the truth of f
        equals holds, in the least lane that has one, or None."""
        return next((p for _, p in self.hits(f, holds)), None)


_NONZERO = re.compile(rb"[^\x00]")  # a byte with a bit set


def _ones(count: int, step: int) -> int:
    """count set bits, step bits apart, from bit 0."""
    return ((1 << count * step) - 1) // ((1 << step) - 1)


# The plan of each formula, the one every search pass runs for it, kept
# while the formula lives: a pure function of an interned, immutable key.
# A plan leaves its formula out, as an entry whose value held its key
# would keep the key alive.
_PLANS: WeakKeyDictionary[Formula, tuple] = WeakKeyDictionary()


def walk_plan(f: Formula
              ) -> tuple[tuple[Formula, ...], tuple[tuple[Formula, ...], ...]]:
    """The subformulas of f, each after its operands, f left out; and after
    each of them, then f, the operands whose last parent it is.  Built
    once while f lives, in `_PLANS`."""
    plan = _PLANS.get(f)
    if plan is not None:
        return plan
    body = subformulas(f)
    last: dict[Formula, int] = {}  # operand -> its last parent's place
    for i, g in enumerate(body):
        t = type(g)
        if t is And:
            last[g.left] = last[g.right] = i
        elif t is Not or t is Knows or t is Box:
            last[g.arg] = i
    drops: list[list[Formula]] = [[] for _ in body]
    for o, i in last.items():
        drops[i].append(o)
    body.pop()  # f itself, which its plan must not hold: see _PLANS
    plan = _PLANS[f] = tuple(body), tuple([tuple(d) for d in drops])
    return plan


def satisfies(m: Model, p: Pair, f: Formula) -> bool:
    """The satisfaction relation at one pair."""
    return Evaluator(m).satisfies(p, f)


def extension(m: Model, U: PointSet, f: Formula) -> PointSet:
    """The set of points of U satisfying f at U."""
    return Evaluator(m).extension(U, f)


def find_counterexample(m: Model, f: Formula) -> Pair | None:
    """Least falsifying pair in the deterministic order, or None."""
    return Evaluator(m).first_pair(f, False)


def model_valid(m: Model, f: Formula) -> bool:
    """True iff f holds at every pair of the model."""
    return find_counterexample(m, f) is None


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
