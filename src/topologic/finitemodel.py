"""Basis-model equivalence and finite-model extraction by double quotient.

A union-closed basis of a finite topology supports the same satisfaction
relation as the full topology.  Independently, quotienting the points by
open-membership plus atom profiles preserves satisfaction.  Combining a
restriction to the stable splitting of a formula with the point quotient
extracts a finite model equivalent for that formula.

`basis_equivalent` evaluates the model and its basis model side by side,
as the two lanes of one evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_, xor
from typing import Iterable, Sequence

from .formula import Formula
from .semantics import Evaluator, Pair, PassFrame, program_atoms
from .space import (InternalError, Model, PointSet, SpaceError, checked_iter,
                    checked_mask, close, format_set, from_mask, is_closed,
                    is_topology, sort_masks, space_from_masks, to_mask)
from .splitting import build_splitting


def _check_basis(m: Model, basis: Sequence[PointSet]) -> set[int]:
    """The masks of the basis members, once checked."""
    names = m.space.point_names
    members = {checked_mask(len(names), B, "basis member is not open")
               for B in checked_iter(basis, "basis")}
    for u in sort_masks(members.difference(m.space.masks), len(names))[:1]:  # the least
        raise SpaceError(f"basis member {format_set(from_mask(u), names)} is not open")
    if not is_closed(members, members, or_):
        raise SpaceError("basis is not closed under union")
    # The union of the members inside an open is itself a member, so a
    # union-closed basis generates a nonempty open iff the open is a member.
    for u in m.space.masks:
        if u and u not in members:
            raise SpaceError(f"basis does not generate the open {format_set(from_mask(u), names)}")
    return members


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
    empty open, which holds no point and so is in no pair.  The models are
    lanes 0 and 1 of one evaluator, so each formula is walked once, and
    whole-model validity is read off the same row as the pairs.
    """
    bspace = space_from_masks(m.space.point_names, _check_basis(m, basis))
    w = len(m.space.point_names) + 1  # the lane width
    frame = PassFrame((m.space, bspace), (1, 1),
                      {a: u * (1 | 1 << w) for a, u in m.masks.items()})
    ev = Evaluator(frame)
    slots = [frame.slots.index(u) for u in bspace.masks]
    points = (1 << w - 1) - 1
    for f in formulas:
        row = ev.row(f)
        for i in slots:
            differ = (row[i] ^ row[i] >> w) & points
            if differ:
                least = (differ & -differ).bit_length() - 1
                return BasisCounterexample(f, Pair(least, from_mask(frame.slots[i])))
        fails = reduce(or_, map(xor, frame.masks, row), 0)  # lanes 0 and 1
        if (fails & points == 0) != (fails >> w & points == 0):
            return BasisCounterexample(f, None)
    return None


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
    try:
        masks = (*s.masks, *[m.masks[a] for a in names])
    except KeyError as exc:
        raise SpaceError(f"unknown atom {exc.args[0]!r}") from None
    # Point x's profile: its digit in each open's mask, then in each atom's.
    digits = [format(u, f"0{len(s.point_names)}b")[::-1] for u in masks]
    profiles: dict[tuple, int] = {}
    point_class = dict(enumerate([profiles.setdefault(p, len(profiles))
                                  for p in zip(*digits)]))
    # Class members agree on every atom: the profile contains the atoms.
    images = [to_mask({c for x, c in point_class.items() if u >> x & 1})
              for u in masks]
    qspace = space_from_masks([f"c{i}" for i in range(len(profiles))],
                              images[:len(s.masks)])
    open_class = {U: from_mask(u) for U, u in zip(s.opens, images)}
    if is_topology(s) and not is_topology(qspace):
        raise InternalError("the quotient of a topology is not a topology")
    return QuotientMap(point_class, open_class,
                       Model(qspace, dict(zip(names, images[len(s.masks):]))))


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
    restricted_space = space_from_masks(m.space.point_names, close(
        [0, *build_splitting(m, f).splittings[f].masks], or_))
    # Union closure of an intersection-closed family of opens stays
    # intersection-closed (the open-set lattice is distributive).
    if not is_topology(restricted_space):
        raise InternalError("the restricted family is not a topology")
    names = program_atoms(f)
    restricted = Model(restricted_space,  # point_quotient checks the names
                       {a: u for a, u in m.masks.items() if a in names})
    return ExtractionResult(restricted, point_quotient(restricted, names))
