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
owns only its rows (see `Evaluator`).  A search pass runs a formula's
program, made once (`program`): a flat list of row ops in which `~` makes
no row but flips its operand's polarity, and each row is emptied after
its last reader, so a wide pass holds few rows.  A pass can run a formula
with a substitution for its atoms, as sweeps run a scheme's template:
such an atom's row is its formula's, run apart, and no row is kept.  A
model's evaluator runs ops of the same kind, one per subformula.

The axiom schemes are written once, as formulas in `AXIOM_SCHEMES`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import repeat
from operator import add, and_, mul, or_, rshift, xor
from typing import Iterable, Iterator, Mapping, Sequence
from weakref import WeakKeyDictionary

from .formula import (And, Atom, Bot, Box, Formula, Knows, Not, Top, parse,
                      post_order, subformulas)
from .space import (Model, PointSet, SpaceError, SubsetSpace, checked_mask,
                    from_mask, sort_masks)


@dataclass(frozen=True)
class Pair:
    point: int
    open: PointSet

    def __post_init__(self) -> None:
        try:  # an open that is no container raises TypeError
            if isinstance(self.point, int) and self.point in self.open:
                return
        except TypeError:
            pass
        raise SpaceError(f"point {self.point!r} not in open {self.open!r}")


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
    it holds only the row of the formula it answered last, negated as its
    program's, and drops it before it walks another, so a walk that fails
    leaves no row; a walk under a substitution (`hit_slots`) leaves none.
    `mask` returns every lane; `extension` and `satisfies` read lane 0.
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

    def _core(self, f: Formula, subst: Mapping[str, Formula] | None = None
              ) -> tuple[list[int], bool]:
        """f's row, or with True its complement's: its program's result.
        On a search pass given subst, each atom named in subst is read as
        its formula, and no row is kept."""
        rows = self._rows
        if self._keep:
            if subst is not None:
                raise TypeError("a model's evaluator takes no substitution")
            if f not in rows:
                self._run(_compile(f, {}, set(), rows), rows, None)
            return rows[f], False
        ops, out, neg, _ = program(f)
        if subst is None and f in rows:
            return rows[f], neg
        rows.clear()  # a search pass: release the last row
        row = self._run(ops, [None] * len(ops), subst)[out]
        if subst is None:
            rows[f] = row
        return row, neg

    def _row(self, f: Formula, subst: Mapping[str, Formula] | None = None
             ) -> list[int]:
        """f's row (see `_core`): one XOR if its program's result is
        negated."""
        if self._keep and f in self._rows:
            return self._rows[f]
        row, neg = self._core(f, subst)
        return list(map(xor, self._frame.masks, row)) if neg else row

    def _run(self, ops: Sequence, regs, subst) -> list | dict:
        """Run ops (see `program`) on the registers regs, and return them.
        At an atom that subst names, the row is its formula's, run apart so
        that an atom of that formula is never taken for one of subst's."""
        fr = self._frame
        masks = fr.masks
        for op, dst, a, b, release in ops:
            if op < _K:  # no local holds an operand past its op
                if op == _AND:
                    row = list(map(and_, regs[a], regs[b]))
                elif op == _ANDNOT:
                    row = list(map(xor, regs[a], map(and_, regs[a], regs[b])))
                elif op == _OR:
                    row = list(map(or_, regs[a], regs[b]))
                else:  # `_NOT`, which only a model's evaluator runs
                    row = list(map(xor, masks, regs[a]))
            elif op < _ATOM:
                # The operand's misses: its row, if it is negated.
                misses = iter(regs[a]) if b else map(xor, masks, regs[a])
                if op < _BOX:
                    # A lane's guard bit in misses + fill is set iff a point
                    # of u is missed; shifted down to bit 0 and times
                    # 2**n - 1, it covers the points of that lane.  A slot
                    # of 0 never carries.
                    n = fr.width - 1
                    misses = map(mul, map(rshift, map(and_, map(
                        add, misses, repeat(fr.fill)), repeat(fr.guard)),
                        repeat(n)), repeat((1 << n) - 1))
                else:  # where the operand fails at slot i or below it
                    misses = list(misses)
                    for i, cs in enumerate(fr.covers):
                        for c in cs:
                            misses[i] |= misses[c]
                # K and [] clear the points missed, `~K` and `~[]` keep them.
                row = list(map(and_, masks, misses)) if op == _NK or op == \
                    _NBOX else list(map(xor, masks, map(and_, masks, misses)))
                del misses
            elif op == _ATOM:
                if subst is not None and a in subst:
                    row = self._row(subst[a], ())  # read with its own atoms
                else:
                    v = fr.atoms.get(a)
                    if v is None:
                        raise SpaceError(f"unknown atom {a!r}")
                    row = [u & v for u in masks]
            elif op == _TOP:
                row = masks
            else:
                row = [0] * len(masks)
            regs[dst] = row
            if release & 1:
                regs[a] = None
            if release & 2:
                regs[b] = None
        return regs

    def row(self, f: Formula) -> list[int]:
        """f's row: at slot i, the mask of the points of slot i that
        satisfy f there, in every lane."""
        return self._row(f)

    def _slot(self, U: PointSet) -> int:
        """The slot of the open U, found by its mask."""
        u = checked_mask(self._frame.width - 1, U, "open")
        if u in self._frame.slots:
            return self._frame.slots.index(u)
        raise SpaceError(f"{sorted(from_mask(u))} is not an open of the space")

    def mask(self, U: PointSet, f: Formula) -> int:
        """The points of the open U that satisfy f at U, as a bitmask."""
        i = self._slot(U)
        return self._row(f)[i]

    def slots(self, opens: Iterable[PointSet]) -> list[int]:
        """The slots of the given opens, ascending: in `sort_family` order."""
        return sorted(map(self._slot, opens))

    def stable(self, slots: Sequence[int], f: Formula) -> bool:
        """True iff f's truth at each point is constant over the given slots
        whose opens contain it.  No slots ask for no row."""
        if not slots:
            return True
        row, masks = self._row(f), self._frame.masks
        sat = fail = 0  # points where f holds, and fails, at some slot
        for i in slots:
            sat |= row[i]
            fail |= masks[i] ^ row[i]
        return not sat & fail

    def extension(self, U: PointSet, f: Formula) -> PointSet:
        return from_mask(self.mask(U, f) & (1 << self._frame.width - 1) - 1)

    def satisfies(self, p: Pair, f: Formula) -> bool:
        return bool(self.mask(p.open, f) >> p.point & 1)

    def hit_slots(self, f: Formula, holds: bool,
                  subst: Mapping[str, Formula] | None = None
                  ) -> Iterator[tuple[int, int, int]]:
        """(lane, point, slot) for each lane in which the truth of f equals
        holds at some pair, ascending, with the least such pair in
        `pairs_in_order`: `pair(point, slot)`.  Given subst, f is read with
        each atom named in subst as its formula (see `_core`).

        A negated result flips holds, and one test of the row tells a pass
        with no hit.  Each row is read once, into bytes: the union of the
        rows, and a slot's row when a lane first asks it.  A lane's points
        start at bit 0 to 7 of its first byte, so they lie in its first
        (width + 13) // 8 bytes, and reading them costs no shift of a row."""
        row, neg = self._core(f, subst)
        holds = holds != neg
        fr = self._frame
        masks, order = fr.masks, fr.order
        if not any(row) if holds else row == masks:
            return
        found = [row[i] if holds else masks[i] ^ row[i] for i in order]
        left = reduce(or_, found)
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


# Program ops, binary then unary then leaves; `_NK` is `~K`, `_NBOX` `~[]`.
_AND, _ANDNOT, _OR, _NOT, _K, _NK, _BOX, _NBOX, _ATOM, _TOP, _BOT = range(11)


def _compile(f: Formula, at: dict, negs: set,
             kept: Mapping[Formula, list[int]] | None = None
             ) -> Iterator[list]:
    """f's ops, [op, dst, a, b, release] each (see `program`), each after
    its operands'.  at gets the register that each node reads, and negs
    each node that reads its register negated: `~` makes no op, it flips
    its operand's polarity.  `K` and `[]` read a negated operand as its
    misses and make `L` and `<>`, `&` of a negated operand is and-not, and
    of two, `|` of a negated result.  Given kept, a model's rows, whose
    taker runs each op before it draws the next, each node is its own
    register and op, `~` too, and a kept node's row is read."""
    count = 0
    for g in subformulas(f) if kept is None else post_order(f, kept):
        t = type(g)
        if t is Not and kept is None:
            at[g] = at.get(g.arg, g.arg)
            if g.arg not in negs:
                negs.add(g)
            continue
        a = b = None
        if t is And:
            x, y = g.left, g.right
            if x in negs and y not in negs:
                x, y = y, x  # and-not takes the negated operand second
            a, b = at.get(x, x), at.get(y, y)
            op = _OR if x in negs else _ANDNOT if y in negs else _AND
        elif t is Knows or t is Box:
            a, b = at.get(g.arg, g.arg), g.arg in negs
            op = (_K if t is Knows else _BOX) + b
        elif t is Not:
            op, a = _NOT, g.arg
        elif t is Atom:
            op, a = _ATOM, g.name
        elif t is Top or t is Bot:
            op = _TOP if t is Top else _BOT
        else:
            raise TypeError(f"not a formula: {g!r}")
        if op in (_OR, _NK, _NBOX):
            negs.add(g)
        at[g], count = g if kept is not None else count, count + 1
        yield [op, at[g], a, b, 0]


# Each formula's program, run by every search pass, kept while the formula
# lives; its registers are numbers, so it does not hold its key.
_PROGRAMS: WeakKeyDictionary[Formula, tuple] = WeakKeyDictionary()


def program(f: Formula) -> tuple[tuple, int, bool, tuple[str, ...]]:
    """f's program, made once while f lives: (ops, out, neg, atoms).  Each
    op (op, dst, a, b, release) puts a row made from registers a and b in
    register dst, then empties register a if release has bit 1 and b if it
    has bit 2, so that each register is emptied by its last reader.  Then
    register out holds f's row, or if neg its complement."""
    prog = _PROGRAMS.get(f)
    if prog is None:
        at: dict[Formula, int] = {}
        negs: set[Formula] = set()
        ops, read = [*_compile(f, at, negs)], set()
        for op in reversed(ops):  # an operand is first met at its last reader
            for k in (2, 3) if op[0] < _K else (2,) if op[0] < _ATOM else ():
                if op[k] not in read:
                    read.add(op[k])
                    op[4] |= k - 1
        prog = _PROGRAMS[f] = tuple(map(tuple, ops)), at[f], f in negs, tuple(
            {op[2]: 0 for op in ops if op[0] == _ATOM})
    return prog


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
