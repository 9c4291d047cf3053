"""Bounded decision procedures over enumerated finite models.

Validity over all topological models is decidable, but the size bound
coming from the finite-model construction grows too fast to enumerate,
so the procedures here search up to a user-supplied point bound and
report verdicts "within bound".

Topologies are enumerated through preorders (opens = up-closed sets of a
reflexive transitive relation); the tests check them against a raw
closed-family enumeration.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .formula import And, Atom, Bot, Box, Formula, Knows, Not, Top, atoms
from .semantics import AXIOM_METAVARS, Evaluator, Pair, instantiate_axiom
from .space import (Model, PointSet, SpaceError, SubsetSpace, make_model,
                    make_space, set_key)

HARD_POINT_CAP = 4
# Valuations per evaluator pass; a row then spans at most this many lanes.
# A memory guard for four or more atoms: on 4 points a pass's rows take
# about 0.25 KB per lane, and a pass is evaluated whole before its first hit.
LANE_CAP = 4096


@dataclass(frozen=True)
class SearchBound:
    max_points: int
    atoms: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.max_points < 1:
            raise SpaceError("the point bound must be at least 1")


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


def _subsets_in_order(n: int) -> list[PointSet]:
    universe = range(n)
    out = []
    for k in range(n + 1):
        for combo in itertools.combinations(universe, k):
            out.append(frozenset(combo))
    return out


def enumerate_topologies(n: int, cap: int = HARD_POINT_CAP
                         ) -> Iterator[SubsetSpace]:
    """Every labeled topology on n points, exactly once, in canonical order.

    These are the up-set families of the reflexive transitive relations;
    finite topologies and preorders correspond one to one, so no two
    relations give the same family.
    """
    if n < 1:
        raise SpaceError("need at least one point")
    if n > cap:
        raise SpaceError(f"point count {n} exceeds the cap {cap}")
    names = _point_names(n)
    subsets = _subsets_in_order(n)
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    families = []
    for choice in itertools.product((False, True), repeat=len(off_diagonal)):
        rel = {(i, i) for i in range(n)}
        rel.update(e for e, picked in zip(off_diagonal, choice) if picked)
        if any((i, j) in rel and (j, k) in rel and (i, k) not in rel
               for i in range(n) for j in range(n) for k in range(n)):
            continue
        up_sets = tuple(U for U in subsets
                        if all(j in U for i in U for (i2, j) in rel if i2 == i))
        families.append(up_sets)
    # Each family lists its opens in set_key order, as `subsets` does.
    families.sort(key=lambda fam: [set_key(U) for U in fam])
    for fam in families:
        yield make_space(names, fam)


def enumerate_subset_spaces(n: int, max_opens: int) -> Iterator[SubsetSpace]:
    """All subset spaces on n points with at most max_opens opens.

    Only X is required to be a member; no closure conditions."""
    names = _point_names(n)
    universe = frozenset(range(n))
    others = [s for s in _subsets_in_order(n) if s != universe]
    for k in range(min(max_opens, len(others) + 1)):
        for combo in itertools.combinations(others, k):
            yield make_space(names, set(combo) | {universe})


def _valuation(n: int, atom_names: Sequence[str], v: int
               ) -> dict[str, PointSet]:
    """The v-th valuation of `enumerate_valuations`."""
    subsets, k = _subsets_in_order(n), len(atom_names)
    return {a: subsets[v >> n * (k - 1 - i) & (1 << n) - 1]
            for i, a in enumerate(atom_names)}


def enumerate_valuations(n: int, atom_names: Sequence[str]
                         ) -> Iterator[dict[str, PointSet]]:
    """Every valuation of the atoms on n points.

    The v-th valuation is lane v of the search's evaluators: written in
    base 2**n, v has one digit per atom, the first atom's most significant,
    and each digit indexes the subsets in cardinality-then-members order.
    """
    for v in range(1 << n * len(atom_names)):
        yield _valuation(n, atom_names, v)


def _lane_model(space: SubsetSpace, atom_names: Sequence[str], v: int
                ) -> Model:
    return make_model(space, _valuation(len(space.point_names), atom_names, v))


def _ones(count: int, step: int) -> int:
    """count set bits, step bits apart, from bit 0."""
    return ((1 << count * step) - 1) // ((1 << step) - 1)


@lru_cache(maxsize=64)
def _atom_rows(n: int, k: int, lo: int, count: int) -> tuple[int, ...]:
    """The rows of k atoms over the lanes lo, ..., lo + count - 1 on n
    points.

    From bit (v - lo)*(n+1), row i holds the set that the v-th valuation
    gives the i-th atom.  Its subset index, a digit of v, stays put for
    `run` lanes and cycles through all 2**n subsets every `period` lanes,
    so a row is at most 2**n + 1 runs, then copies of that period.
    Searches ask for the same passes space after space; 64 entries hold
    the 19 passes of a 4-atom search up to 4 points with room to spare.
    """
    w = n + 1
    subsets = [sum(1 << x for x in s) for s in _subsets_in_order(n)]
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
                  ) -> Iterator[tuple[SubsetSpace, int, int, Evaluator]]:
    """(space, first lane, lane count, evaluator) per pass over the models
    on the spaces, in space order and then lane order, at most LANE_CAP
    lanes per pass."""
    k = len(atom_names)
    for space in spaces:
        n = len(space.point_names)
        total = 1 << n * k
        for lo in range(0, total, LANE_CAP):
            count = min(LANE_CAP, total - lo)
            rows = dict(zip(atom_names, _atom_rows(n, k, lo, count)))
            yield space, lo, count, Evaluator(space, count, rows)


def _first_hit(spaces: Iterable[SubsetSpace], atom_names: Sequence[str],
               f: Formula, holds: bool) -> tuple[Model, Pair] | None:
    """The least (model, pair), models by space and then valuation in
    `enumerate_valuations` order, pairs in `pairs_in_order`, at which the
    truth of f equals holds; None if there is none."""
    for space, lo, _, ev in _space_passes(spaces, atom_names):
        for lane, pair in ev.hits(f, holds):
            return _lane_model(space, atom_names, lo + lane), pair
    return None


def _decide(f: Formula, b: SearchBound, holds: bool, hit_kind: VerdictKind,
            no_hit_kind: VerdictKind) -> Verdict:
    if b.max_points > HARD_POINT_CAP:
        raise SpaceError(f"point bound {b.max_points} exceeds the cap "
                         f"{HARD_POINT_CAP}")
    if not atoms(f) <= set(b.atoms):
        raise SpaceError(f"formula atoms {sorted(atoms(f))} not covered by "
                         f"the search bound atoms {list(b.atoms)}")
    spaces = (space for n in range(1, b.max_points + 1)
              for space in enumerate_topologies(n))
    hit = _first_hit(spaces, sorted(set(b.atoms)), f, holds)
    return Verdict(no_hit_kind) if hit is None else Verdict(hit_kind, *hit)


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
    """Random core-AST formula of at most the given connective depth."""
    if depth == 0 or rng.random() < 0.2:
        leaves: list[Formula] = [Atom(a) for a in atom_names] or [Top()]
        leaves += [Top(), Bot()]
        return rng.choice(leaves)
    kind = rng.choice(("not", "and", "knows", "box"))
    if kind == "and":
        return And(random_formula(rng, atom_names, depth - 1),
                   random_formula(rng, atom_names, depth - 1))
    child = random_formula(rng, atom_names, depth - 1)
    if kind == "not":
        return Not(child)
    if kind == "knows":
        return Knows(child)
    return Box(child)


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
                          spaces: Iterable[SubsetSpace] | None = None,
                          substitution_depth: int = 2) -> SweepReport:
    """Check random instances of the axiom schemes for validity over all
    enumerated topologies (or supplied spaces) up to the bound.

    Expected outcome on topologies: no violations for any of the twelve
    schemes.
    """
    if trials < 1:
        raise SpaceError("the number of trials must be at least 1")
    rng = random.Random(seed)
    atom_names = list(b.atoms) or ["A"]
    instances: list[tuple[int, Formula]] = []
    for scheme_id in scheme_ids:
        for _ in range(trials):
            subst: dict[str, Formula] = {}
            for var in AXIOM_METAVARS[scheme_id]:
                if scheme_id == 2:
                    subst[var] = Atom(rng.choice(atom_names))
                else:
                    subst[var] = random_formula(rng, atom_names,
                                                substitution_depth)
            instances.append((scheme_id, instantiate_axiom(scheme_id, subst)))
    if spaces is None:
        spaces = (s for n in range(1, b.max_points + 1)
                  for s in enumerate_topologies(n))
    checked = {sid: 0 for sid in scheme_ids}
    violations: list[SchemeViolation] = []
    for space, lo, count, ev in _space_passes(spaces, atom_names):
        found = sorted(((lane, j, pair)
                        for j, (_, instance) in enumerate(instances)
                        for lane, pair in ev.hits(instance, False)),
                       key=lambda hit: hit[:2])
        models: dict[int, Model] = {}
        for lane, j, pair in found:
            if lane not in models:
                models[lane] = _lane_model(space, atom_names, lo + lane)
            scheme_id, instance = instances[j]
            violations.append(
                SchemeViolation(scheme_id, instance, models[lane], pair))
        for scheme_id, _ in instances:
            checked[scheme_id] += count
    return SweepReport(checked, violations)


# Curated substitutions for the boundary search: the schemes beyond the
# subset-space axiomatization need a non-atomic operand to fail, since for
# atomic A the effort modality collapses ([]A is equivalent to A).
_BOUNDARY_SUBSTITUTIONS: dict[int, list[dict[str, Formula]]] = {
    11: [{"phi": Knows(Atom("A"))},
         {"phi": Not(Knows(Atom("A")))},
         {"phi": Not(Knows(Not(Atom("A"))))}],
    12: [{"phi": Atom("A"), "psi": Atom("B"), "chi": Atom("C")},
         {"phi": Knows(Atom("A")), "psi": Atom("B"), "chi": Atom("C")},
         {"phi": Not(Knows(Not(Atom("A")))), "psi": Atom("B"),
          "chi": Atom("C")}],
}


def find_subset_space_countermodel(scheme_id: int, b: SearchBound,
                                   max_opens: int = 4
                                   ) -> tuple[Model, Formula, Pair] | None:
    """Search non-topological subset spaces for a falsifying instance of
    scheme 11 or 12.  Returns the least hit in the deterministic order
    (points, space, substitution, valuation), or None within the bound."""
    if scheme_id not in (11, 12):
        raise SpaceError("boundary search applies to schemes 11 and 12 only")
    instances = [instantiate_axiom(scheme_id, subst)
                 for subst in _BOUNDARY_SUBSTITUTIONS[scheme_id]]
    atom_names = [sorted(atoms(instance)) for instance in instances]
    for n in range(1, b.max_points + 1):
        for space in enumerate_subset_spaces(n, max_opens):
            for instance, names in zip(instances, atom_names):
                hit = _first_hit([space], names, instance, False)
                if hit is not None:
                    return hit[0], instance, hit[1]
    return None
