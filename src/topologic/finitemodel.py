"""Basis-model equivalence and finite-model extraction by double quotient.

A union-closed basis of a finite topology supports the same satisfaction
relation as the full topology.  Independently, quotienting the points by
open-membership plus atom profiles preserves satisfaction.  Combining a
restriction to the stable splitting of a formula with the point quotient
extracts a finite model equivalent for that formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import or_
from typing import Iterable, Sequence

from .formula import Formula, atoms
from .semantics import Evaluator, Pair, model_valid
from .space import (EMPTY, InternalError, Model, PointSet, SpaceError,
                    close_under_union, format_set, is_closed, is_topology,
                    make_model, make_space, sort_family, to_mask)
from .splitting import build_splitting


def _check_basis(m: Model, basis: Sequence[PointSet]) -> None:
    names = m.space.point_names
    for B in basis:
        if B not in m.space.opens:
            raise SpaceError(f"basis member {format_set(B, names)} is not open")
    masks = tuple(map(to_mask, set(basis)))
    members = set(masks)
    if not is_closed(masks, members, or_):
        raise SpaceError("basis is not closed under union")
    # The union of the members inside an open is itself a member, so a
    # union-closed basis generates a nonempty open iff the open is a member.
    for U, u in zip(m.space.opens, m.space.masks):
        if u and u not in members:
            raise SpaceError(f"basis does not generate the open {format_set(U, names)}")


def basis_witness(m: Model, basis: Sequence[PointSet], F: Iterable[PointSet],
                  V: PointSet, x: int) -> PointSet:
    """A basis member U with x in U, U below V and U in the remainder of V.

    Built as in the underlying existence argument: a basic neighborhood of
    x inside V, joined with one basic set per family member that fails to
    contain V, hitting the difference.
    """
    _check_basis(m, basis)
    fam = sort_family(F)
    if V not in fam:
        raise SpaceError("V must belong to the family")
    if x not in V:
        raise SpaceError("x must belong to V")
    sorted_basis = sort_family(basis)

    def basic_neighborhood(point: int, inside: PointSet) -> PointSet:
        for B in sorted_basis:
            if point in B and B <= inside:
                return B
        raise SpaceError("basis does not generate the topology")

    witness = basic_neighborhood(x, V)
    for Vi in fam:
        if not V <= Vi:
            xi = min(V - Vi)
            witness |= basic_neighborhood(xi, V)
    # Direct remainder membership: below V, below no family member that
    # fails to contain V.
    if not (x in witness and witness <= V
            and not any(witness <= Vi for Vi in fam if not V <= Vi)
            and witness in sorted_basis):
        raise InternalError("basis witness is not a basis member containing "
                            "x in the remainder of V")
    return witness


@dataclass
class BasisCounterexample:
    formula: Formula
    pair: Pair | None  # None means whole-model validity disagreed


def basis_equivalent(m: Model, basis: Sequence[PointSet],
                     formulas: Iterable[Formula]
                     ) -> BasisCounterexample | None:
    """Check pointwise and whole-model agreement between the topology model
    and its basis model on the given formulas.

    Returns None when everything agrees (the expected outcome) or the
    first disagreement found.  On a finite topology it cannot disagree:
    `_check_basis` accepts only opens, closed under union, that include
    every nonempty open, so an accepted basis is the nonempty opens, with
    or without the empty set.  The basis model differs at most by the
    empty open, which holds no point and so is in no pair.
    """
    _check_basis(m, basis)
    mb = make_model(make_space(m.space.point_names, basis), dict(m.valuation))
    ev_t = Evaluator(m)
    ev_b = Evaluator(mb)
    for f in formulas:
        for U in mb.space.opens:
            differ = ev_t.mask(U, f) ^ ev_b.mask(U, f)
            if differ:
                least = (differ & -differ).bit_length() - 1
                return BasisCounterexample(f, Pair(least, U))
        if model_valid(m, f, ev_t) != model_valid(mb, f, ev_b):
            return BasisCounterexample(f, None)
    return None


def minimal_neighborhood_basis(m: Model) -> tuple[PointSet, ...]:
    """Union closure of the minimal open neighborhoods of all points."""
    s = m.space
    seeds = []
    for x in s.universe:
        nbhd = s.universe
        for U in s.opens:
            if x in U:
                nbhd &= U
        seeds.append(nbhd)
    return close_under_union(seeds)


@dataclass
class QuotientMap:
    """Point and open classes of a membership-profile quotient."""

    point_class: dict[int, int]
    open_class: dict[PointSet, PointSet]
    model: Model

    def translate(self, p: Pair) -> Pair:
        return Pair(self.point_class[p.point], self.open_class[p.open])


def point_quotient(m: Model, atom_list: Iterable[str]) -> QuotientMap:
    """Quotient the points by (open membership, atom membership) profiles.

    The quotient space carries the image opens and the image valuation;
    when the source is a topology the image is checked to be one too.
    """
    names = tuple(sorted(set(atom_list)))
    s = m.space
    profiles: dict[tuple, int] = {}
    point_class: dict[int, int] = {}
    for x in sorted(s.universe):
        profile = (tuple(x in U for U in s.opens),
                   tuple(x in m.atom_set(a) for a in names))
        point_class[x] = profiles.setdefault(profile, len(profiles))
    open_class = {U: frozenset(point_class[x] for x in U) for U in s.opens}
    class_names = tuple(f"c{i}" for i in range(len(profiles)))
    qspace = make_space(class_names, set(open_class.values()))
    # Class members agree on every atom: the profile contains the atoms.
    qval = {a: frozenset(point_class[x] for x in m.atom_set(a)) for a in names}
    if is_topology(s) and not is_topology(qspace):
        raise InternalError("the quotient of a topology is not a topology")
    return QuotientMap(point_class, open_class, make_model(qspace, qval))


@dataclass
class ExtractionResult:
    """A model restricted to a formula's stable splitting, and its point
    quotient: `quotient.model` is the finite model, and `quotient.translate`
    maps a pair of the restricted model into it."""

    restricted_model: Model
    quotient: QuotientMap


def extract_finite_model(m: Model, f: Formula) -> ExtractionResult:
    """Restrict the opens to the stable splitting of f, topologize by
    union closure, then quotient the points.

    Satisfaction of every subformula of f is preserved at every pair whose
    open survives the restriction.
    """
    if not is_topology(m.space):
        raise SpaceError("extract_finite_model requires a topology")
    table = build_splitting(m, f)
    restricted_space = make_space(
        m.space.point_names,
        close_under_union((*table.splittings[f].family, EMPTY)))
    # Union closure of an intersection-closed family of opens stays
    # intersection-closed (the open-set lattice is distributive).
    if not is_topology(restricted_space):
        raise InternalError("the restricted family is not a topology")
    names = atoms(f)
    restricted = make_model(restricted_space,
                            {a: m.atom_set(a) for a in names})
    return ExtractionResult(restricted, point_quotient(restricted, names))
