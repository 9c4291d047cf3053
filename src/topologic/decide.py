"""Bounded decision procedures over enumerated finite models.

Validity over all topological models is decidable, but the size bound
coming from the finite-model construction grows too fast to enumerate,
so the procedures here search up to a user-supplied point bound and
report verdicts "within bound".

A search evaluates its formulas once per pass of up to LANE_CAP lanes, one
lane per model (`_space_passes`), and reports the least hit by space,
formula, valuation and pair (`_first_hit`).  Its passes and their frames
(see `semantics.PassFrame`) are fixed by its spaces and atoms, so those of
recent searches are kept under keys of plain data naming the spaces
(`_passes`), each frame built when its pass is first walked: a warm search
hashes no space and builds no kept frame.  A pass keeps no row: it holds
one formula's row while its hits are read, and no verdict or hit is kept.

`decide_sat` and `decide_valid` scan one topology per homeomorphism class:
1, 3, 9, 33 and 139 of them on 1 to 5 points (OEIS A001930), against 1, 4,
29, 355 and 6,942 labeled ones (OEIS A000798).  A homeomorphism carries
every valuation and pair along, so a space has a hit iff its class's
representative, the first labeled space of the class, does.  Scanned in
labeled order, the first representative with a hit is the first labeled
space with one, so the witness is the least labeled hit, at no rescan.
The axiom sweep stays labeled, as its report counts labeled lanes, and
walks each scheme's template under its substitutions, building no
instance but a violated one (`axiom_soundness_sweep`).  A search makes
the `Pair` and `Model` of a reported hit only, the model from masks.

The boundary search scans subset spaces in the same passes: a scheme's
instances share their atoms, and so every pass, and the least hit is by
(points, space, substitution, valuation).
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .formula import And, Atom, Bot, Box, Formula, Knows, Not, Top, parse
from .semantics import (_TEMPLATES, Evaluator, Pair, PassFrame, _ones,
                        instantiate_axiom, program_atoms, scheme_metavars)
from .space import (InternalError, Model, SpaceError, SubsetSpace,
                    check_atom_name, space_from_masks, to_mask)

HARD_POINT_CAP = 5
# Lanes per evaluator pass, a memory guard: on n points a row takes n + 1
# bits per lane and slot (10 bytes per lane on 4 points, with 16 slots),
# and a search pass holds one formula's row, or the operands its walk reads.
LANE_CAP = 4096


@dataclass(frozen=True)
class SearchBound:
    max_points: int
    atoms: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.max_points < 1:
            raise SpaceError("the point bound must be at least 1")
        for name in self.atoms:
            check_atom_name(name)


class VerdictKind(str, Enum):
    SATISFIABLE = "satisfiable"
    NO_MODEL_WITHIN_BOUND = "no_model_within_bound"
    VALID_WITHIN_BOUND = "valid_within_bound"
    INVALID = "invalid"


@dataclass
class Verdict:
    kind: VerdictKind
    model: Model | None = None
    pair: Pair | None = None

    @property
    def positive(self) -> bool:
        return self.kind in (VerdictKind.SATISFIABLE,
                             VerdictKind.VALID_WITHIN_BOUND)


def _point_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


@lru_cache(maxsize=HARD_POINT_CAP)
def _subsets_in_order(n: int) -> tuple[int, ...]:  # in `set_key` order
    return tuple([to_mask(c) for k in range(n + 1)
                  for c in itertools.combinations(range(n), k)])


def _preorder_opens(n: int) -> list[list[int]]:
    """The opens, as bitmasks, of every preorder on n points.

    A preorder on points 0..p extends one on 0..p-1 by the strict up-set U
    and down-set D of p.  It is transitive iff U is up-closed (an open), D
    is down-closed (the complement of an open C), and each d in D lies
    below each u in U, that is, every open that meets D contains U.  Then
    the new opens are the old ones inside C, and the old ones containing U
    with p added.  Each preorder arises once, so each topology does.
    """
    families = [[0]]  # the one preorder on no points
    for p in range(n):
        grown = []
        for opens in families:
            for U in opens:
                outside = 0  # the points not below all of U
                for O in opens:
                    if O & U != U:
                        outside |= O
                added = [O | 1 << p for O in opens if O & U == U]
                for C in opens:
                    if C & outside == outside:
                        grown.append([O for O in opens if O & C == O] + added)
        families = grown
    return families


@lru_cache(maxsize=HARD_POINT_CAP)
def _topologies(n: int) -> tuple[SubsetSpace, ...]:
    """The labeled topologies on n points in canonical order, built once:
    each family lists its opens in `set_key` order, and the families are
    ordered by those lists.
    """
    subsets = _subsets_in_order(n)
    rank = {u: i for i, u in enumerate(subsets)}
    families = sorted(tuple(sorted(rank[O] for O in opens))
                      for opens in _preorder_opens(n))
    names = _point_names(n)
    return tuple(space_from_masks(names, [subsets[i] for i in fam])
                 for fam in families)


@lru_cache(maxsize=HARD_POINT_CAP)
def _representatives(n: int) -> tuple[SubsetSpace, ...]:
    """The first labeled topology of each homeomorphism class on n points,
    in labeled order: a subsequence of `_topologies(n)`, sharing its spaces.

    A space starts a class unless its family of open masks was marked as
    seen; then the images of the family under every point permutation are
    marked, each through one table of the 2**n mask images.
    """
    tables = [[to_mask(perm[x] for x in range(n) if m >> x & 1)
               for m in range(1 << n)]
              for perm in itertools.permutations(range(n))]
    seen: set[frozenset[int]] = set()
    reps = []
    for space in _topologies(n):
        if frozenset(space.masks) not in seen:
            reps.append(space)
            seen.update(frozenset(map(table.__getitem__, space.masks))
                        for table in tables)
    return tuple(reps)


def enumerate_topologies(n: int) -> Iterator[SubsetSpace]:
    """Every labeled topology on n points, exactly once, in canonical order
    (see `_preorder_opens`), built once per point count and shared."""
    if n < 1:
        raise SpaceError("need at least one point")
    if n > HARD_POINT_CAP:
        raise SpaceError(f"point count {n} exceeds the cap {HARD_POINT_CAP}")
    yield from _topologies(n)


def enumerate_subset_spaces(n: int, max_opens: int) -> Iterator[SubsetSpace]:
    """All subset spaces on n points with at most max_opens opens: only X
    is required to be a member; no closure conditions."""
    names = _point_names(n)
    *others, universe = _subsets_in_order(n)  # X comes last
    for k in range(min(max_opens, len(others) + 1)):
        for combo in itertools.combinations(others, k):
            yield space_from_masks(names, (*combo, universe))


def _valuation(n: int, atom_names: Sequence[str], v: int) -> dict[str, int]:
    """The v-th valuation of the atoms on n points, as masks: a space's
    v-th lane in a search pass.  Written in base 2**n, v has one digit per
    atom, the first atom's most significant, and each digit indexes the
    subsets in cardinality-then-members order."""
    subsets, k = _subsets_in_order(n), len(atom_names)
    return {a: subsets[v >> n * (k - 1 - i) & (1 << n) - 1]
            for i, a in enumerate(atom_names)}


@lru_cache(maxsize=64)
def _atom_rows(n: int, k: int, lo: int, count: int, w: int
               ) -> tuple[int, ...]:
    """The rows of k atoms over the lanes lo, ..., lo + count - 1 on n
    points, each lane w >= n + 1 bits wide: from bit (v - lo)*w, row i
    holds the set that the v-th valuation gives the i-th atom.  Its subset
    index, a digit of v, stays put for `run` lanes and cycles through all
    2**n subsets every `period` lanes, so a row is at most 2**n + 1 runs,
    then copies of that period.  A 4-atom search to 4 points asks for 19."""
    subsets = _subsets_in_order(n)
    rows = []
    for i in range(k):
        run = 1 << n * (k - 1 - i)
        period = run << n
        end = lo + min(count, period)
        row, v = 0, lo
        while v < end:
            stop = min(end, (v // run + 1) * run)
            row |= subsets[v // run % (1 << n)] * _ones(stop - v, w) << (
                v - lo) * w
            v = stop
        if period < count:
            row = (row * _ones(-(-count // period), period * w)
                   & (1 << count * w) - 1)
        rows.append(row)
    return tuple(rows)


def _space_passes(spaces: Iterable[SubsetSpace], atom_names: Sequence[str]
                  ) -> Iterator[tuple[list, int, list[int]]]:
    """(group, lo, firsts) per pass over the models on the spaces, at most
    LANE_CAP lanes each: lane firsts[k] + v is valuation lo + v of group[k],
    so the lowest lane with a hit is the least (space, valuation) with one,
    and firsts[-1] is the pass's lane count.  A group is a run of spaces of
    any point counts, as many as fit whole, each with at most sqrt(LANE_CAP)
    = 64 valuations; a wider space passes alone, over several passes past
    LANE_CAP.  Packing every space made full scans 1.5-2.9 times faster but
    early hits 5-8 times slower, as a pass is scanned whole: 0.05 ms became
    0.26-0.43 ms for "[] (A -> K B) -> <> L A" on 4 points with A and B."""
    group, firsts = [], [0]  # the pass being filled
    for s in spaces:
        total = 1 << len(s.point_names) * len(atom_names)
        wide = total * total > LANE_CAP
        if group and (wide or firsts[-1] + total > LANE_CAP):
            yield group, 0, firsts
            group, firsts = [], [0]
        if wide:
            for lo in range(0, total, LANE_CAP):
                yield [s], lo, [0, min(LANE_CAP, total - lo)]
        else:
            group.append(s)
            firsts.append(firsts[-1] + total)
    if group:
        yield group, 0, firsts


def _new_frame(group: Sequence[SubsetSpace], lo: int, firsts: Sequence[int],
               atom_names: Sequence[str]) -> PassFrame:
    """The frame of `_space_passes`' pass (group, lo, firsts)."""
    w = max(len(s.point_names) for s in group) + 1
    lanes = [b - a for a, b in itertools.pairwise(firsts)]
    rows = [0] * len(atom_names)
    for s, first, count in zip(group, firsts, lanes):
        for i, row in enumerate(_atom_rows(len(s.point_names),
                                           len(atom_names), lo, count, w)):
            rows[i] |= row << first * w
    return PassFrame(group, lanes, dict(zip(atom_names, rows)))


# Recent layouts, least recently used first: (key, atoms, LANE_CAP) -> passes,
# the first FRAME_CAP with frames once walked; evicted whole past FRAME_CAP.
_LAYOUTS: dict[tuple, list] = {}
FRAME_CAP = 64


def _passes(key: tuple, spaces: Iterable[SubsetSpace], names: tuple[str, ...]
            ) -> Iterator[tuple[list, int, list[int], Evaluator]]:
    """(group, lo, firsts, evaluator) per pass of `_space_passes` over the
    spaces, which key names as plain data; kept in _LAYOUTS.  A frame is
    built when its pass is walked, by each thread that walks it at once."""
    key = (key, names, LANE_CAP)
    try:  # the most recent layout, found with no hash of its key
        last, layout = next(reversed(_LAYOUTS.items()), (None, None))
    except RuntimeError:  # changed in another thread meanwhile
        last = None
    hit = last == key
    if not hit:
        layout = _LAYOUTS.pop(key, None)
    if layout is None:
        layout = [(*p, None) for p in _space_passes(spaces, names)]
        # On copies, so that searches in other threads cannot break it.
        while sum(min(len(kept), FRAME_CAP)
                  for kept in [layout, *_LAYOUTS.values()]) > FRAME_CAP:
            _LAYOUTS.pop(next(iter([*_LAYOUTS]), None), None)
    if not hit:
        _LAYOUTS[key] = layout  # the most recently used
    for i, (*p, frame) in enumerate(layout):
        if frame is None and i < FRAME_CAP:
            layout[i] = (*p, frame := _new_frame(*p, names))
        yield *p, Evaluator(frame or _new_frame(*p, names))


def _lane_model(group: Sequence[SubsetSpace], lo: int, firsts: Sequence[int],
                atom_names: Sequence[str], lane: int) -> Model:
    """The model of a lane of `_space_passes`' pass (group, lo, firsts)."""
    k = bisect_right(firsts, lane) - 1
    return Model(group[k], _valuation(len(group[k].point_names), atom_names,
                                      lo + lane - firsts[k]))


def _first_hit(passes: Iterable[tuple[list, int, list[int], Evaluator]],
               atom_names: Sequence[str], formulas: Sequence[Formula],
               holds: bool) -> tuple[Model, Formula, Pair] | None:
    """The least (model, formula, pair) at which the truth of a formula
    equals holds, by space, formula, valuation and `pairs_in_order`, or
    None.  Each pass serves every formula in turn, one row held at a time.
    A formula's first hit lane is its least (space, valuation), so only the
    least (space, formula) among those is kept, until its space is done:
    at the end of its pass, unless it has more than LANE_CAP valuations.
    Only the kept hit makes its model and pair, once the search ends."""
    best = None  # (space k of the group, formula j, pass, lane, point, slot)
    for p in passes:
        group, lo, firsts, ev = p
        for j in range(best[1] if best else len(formulas)):
            for lane, point, slot in ev.hit_slots(formulas[j], holds):
                k = bisect_right(firsts, lane) - 1
                if best is None or (k, j) < best[:2]:
                    best = (k, j, p, lane, point, slot)
                break
        # Only a space passing alone can go on in the next pass.
        if best and (best[1] == 0 or lo + firsts[-1]
                     >= 1 << len(group[0].point_names) * len(atom_names)):
            break
    if best is None:
        return None
    _, j, (group, lo, firsts, ev), lane, point, slot = best
    return (_lane_model(group, lo, firsts, atom_names, lane), formulas[j],
            ev.pair(point, slot))


def _point_runs(b: SearchBound) -> list[range]:
    """1 to b.max_points, once the bound is checked against the cap, as its
    nonempty runs below the cap and at it: a search scans each in turn, so
    a hit on fewer points builds none of the 139 classes on 5 (0.3 s)."""
    if b.max_points > HARD_POINT_CAP:
        raise SpaceError(f"point bound {b.max_points} exceeds the cap "
                         f"{HARD_POINT_CAP}")
    counts = range(1, b.max_points + 1)
    return [r for r in (counts[:HARD_POINT_CAP - 1],
                        counts[HARD_POINT_CAP - 1:]) if r]


def _decide(f: Formula, b: SearchBound, holds: bool, hit_kind: VerdictKind,
            no_hit_kind: VerdictKind) -> Verdict:
    runs = _point_runs(b)
    used = set(program_atoms(f))  # off the program its passes run
    if not used <= set(b.atoms):
        raise SpaceError(f"formula atoms {sorted(used)} not covered by "
                         f"the search bound atoms {list(b.atoms)}")
    names = tuple(sorted(set(b.atoms)))
    for counts in runs:
        spaces = itertools.chain.from_iterable(map(_representatives, counts))
        hit = _first_hit(_passes(("classes", counts), spaces, names), names,
                         (f,), holds)
        if hit is not None:
            return Verdict(hit_kind, hit[0], hit[2])
    return Verdict(no_hit_kind)


def decide_sat(f: Formula, b: SearchBound) -> Verdict:
    """Search topological models up to the bound for a satisfying pair."""
    return _decide(f, b, True, VerdictKind.SATISFIABLE,
                   VerdictKind.NO_MODEL_WITHIN_BOUND)


def decide_valid(f: Formula, b: SearchBound) -> Verdict:
    """Search topological models up to the bound for a falsifying pair."""
    return _decide(f, b, False, VerdictKind.INVALID,
                   VerdictKind.VALID_WITHIN_BOUND)


def random_formula(rng: random.Random, atom_names: Sequence[str],
                   depth: int) -> Formula:
    """Random core-AST formula of at most the given connective depth.  The
    draws are made in pre-order, left operand first."""
    leaves: list[Formula] = [Atom(a) for a in atom_names] or [Top()]
    leaves += [Top(), Bot()]
    prefix: list = []  # leaves and constructors, in Polish notation
    todo = [depth]  # the depths of the operands still to draw, next last
    while todo:
        d = todo.pop()
        if d == 0 or rng.random() < 0.2:
            prefix.append(rng.choice(leaves))
        else:
            kind = rng.choice((Not, And, Knows, Box))
            prefix.append(kind)
            todo += [d - 1] * (2 if kind is And else 1)
    built: list[Formula] = []
    for item in reversed(prefix):
        if item is And:
            item = And(built.pop(), built.pop())  # left operand, then right
        elif not isinstance(item, Formula):
            item = item(built.pop())
        built.append(item)
    return built.pop()


@dataclass
class SchemeViolation:
    scheme_id: int
    instance: Formula
    model: Model
    pair: Pair


@dataclass
class SweepReport:
    checked: dict[int, int]
    violations: list[SchemeViolation]

    @property
    def clean(self) -> bool:
        return not self.violations


def axiom_soundness_sweep(b: SearchBound, scheme_ids: Sequence[int],
                          trials: int, seed: int,
                          spaces: Iterable[SubsetSpace] | None = None
                          ) -> SweepReport:
    """Check random instances of the axiom schemes for validity over all
    enumerated topologies (or supplied spaces) up to the bound.  Expected
    outcome on topologies: no violations for any of the twelve schemes.

    Every substitution is drawn first, scheme by scheme and trial by
    trial.  Each pass then walks each scheme's template under each of its
    distinct substitutions, so no instance is built or walked; an instance
    is built once, by `instantiate_axiom`, when it is first reported
    violated.  Violations come by pass, then lane, then draw."""
    if trials < 1:
        raise SpaceError("the number of trials must be at least 1")
    metavars = [scheme_metavars(scheme_id) for scheme_id in scheme_ids]
    if spaces is None:  # the bound is checked here, before any enumeration
        key, spaces = ("labeled", b.max_points), (
            s for run in _point_runs(b) for n in run
            for s in enumerate_topologies(n))
    else:
        key = spaces = tuple(spaces)
    rng = random.Random(seed)
    atom_names = tuple(b.atoms) or ("A",)
    draws: list[tuple[int, dict[str, Formula]]] = []
    for scheme_id, names in zip(scheme_ids, metavars):
        for _ in range(trials):
            draws.append((scheme_id, {
                var: Atom(rng.choice(atom_names)) if scheme_id == 2
                else random_formula(rng, atom_names, 2) for var in names}))
    # Equal draws, of one scheme and the same interned formulas, share the
    # walk of the first of them.
    first: dict[tuple, int] = {}
    same = [first.setdefault((sid, *subst.values()), j)
            for j, (sid, subst) in enumerate(draws)]
    checked = {sid: 0 for sid in scheme_ids}
    violations: list[SchemeViolation] = []
    instances: dict[int, Formula] = {}  # by first draw, once one is violated
    for group, lo, firsts, ev in _passes(key, spaces, atom_names):
        lanes = {j: list(ev.hit_slots(_TEMPLATES[draws[j][0]], False,
                                      draws[j][1])) for j in first.values()}
        found = sorted((lane, j, point, slot) for j, r in enumerate(same)
                       for lane, point, slot in lanes[r])
        models: dict[int, Model] = {}
        for lane, j, point, slot in found:
            if lane not in models:
                models[lane] = _lane_model(group, lo, firsts, atom_names,
                                           lane)
            if same[j] not in instances:
                instances[same[j]] = instantiate_axiom(*draws[j])
            violations.append(SchemeViolation(
                draws[j][0], instances[same[j]], models[lane],
                ev.pair(point, slot)))
        for scheme_id, _ in draws:
            checked[scheme_id] += firsts[-1]
    return SweepReport(checked, violations)


# Curated substitutions for the boundary search: the schemes beyond the
# subset-space axiomatization need a non-atomic operand to fail, since for
# atomic A the effort modality collapses ([]A is equivalent to A).  Each
# scheme's instances share their atoms (A; A, B, C), and so their passes.
_BOUNDARY_SUBSTITUTIONS: dict[int, list[dict[str, Formula]]] = {
    11: [{"phi": parse(phi)} for phi in ("K A", "~K A", "L A")],
    12: [{"phi": parse(phi), "psi": parse("B"), "chi": parse("C")}
         for phi in ("A", "K A", "L A")]}


@lru_cache(maxsize=None)
def _boundary_instances(sid: int) -> tuple[Sequence[str], Sequence[Formula]]:
    """The atoms that a scheme's instances share, and the instances, built
    once so that their programs stay in `semantics._PROGRAMS`."""
    fs = tuple(instantiate_axiom(sid, s) for s in _BOUNDARY_SUBSTITUTIONS[sid])
    if len({frozenset(program_atoms(f)) for f in fs}) != 1:
        raise InternalError(f"scheme {sid}'s instances differ in atoms")
    return tuple(sorted(program_atoms(fs[0]))), fs


def find_subset_space_countermodel(scheme_id: int, b: SearchBound,
                                   max_opens: int = 4
                                   ) -> tuple[Model, Formula, Pair] | None:
    """Search non-topological subset spaces for a falsifying instance of
    scheme 11 or 12: the least hit by (points, space, substitution,
    valuation), or None within the bound (see the module docstring)."""
    if scheme_id not in _BOUNDARY_SUBSTITUTIONS:
        raise SpaceError("boundary search applies to schemes 11 and 12 only")
    if max_opens < 1:
        raise SpaceError("the open bound must be at least 1")
    names, instances = _boundary_instances(scheme_id)
    for counts in _point_runs(b):
        spaces = (s for n in counts
                  for s in enumerate_subset_spaces(n, max_opens))
        hit = _first_hit(_passes(("subsets", counts, max_opens), spaces,
                                 names), names, instances, False)
        if hit is not None:
            return hit
    return None
