"""Bimodal knowledge/effort logic over finite subset spaces and topologies."""

__version__ = "0.1.0"

from .formula import (Atom, And, Bot, Box, Diamond, Formula, Implies, Knows, L,
                      Not, Or, ParseError, Top, TOP, BOT, atoms, parse,
                      print_formula, subformulas)
from .space import (InternalError, Model, PointSet, SpaceError, SubsetSpace,
                    close_under_intersection, close_under_union,
                    closure_family, generate_topology, heyting_implication,
                    interior, is_topology, make_model, make_space, sort_family)
from .semantics import (Evaluator, Pair, SchemeError, extension,
                        find_counterexample, instantiate_axiom, model_valid,
                        pairs_in_order, satisfies)
from .splitting import (Splitting, SplittingTable, build_splitting, classify,
                        is_stable, make_splitting, partition)
from .finitemodel import (ExtractionResult, QuotientMap, basis_equivalent,
                          basis_witness, extract_finite_model,
                          minimal_neighborhood_basis, point_quotient)
from .decide import (SearchBound, SweepReport, Verdict, VerdictKind,
                     axiom_soundness_sweep, decide_sat, decide_valid,
                     enumerate_subset_spaces, enumerate_topologies,
                     enumerate_valuations, find_subset_space_countermodel,
                     random_formula)
from .modelfile import (load_model, model_from_document, model_to_document,
                        save_model)
