import random

import pytest

import topologic as t
from conftest import ReferenceEvaluator, enumerate_closed_families
from topologic.decide import _BOUNDARY_SUBSTITUTIONS

F = frozenset


def test_enumeration_counts_small():
    assert sum(1 for _ in t.enumerate_topologies(1)) == 1
    assert sum(1 for _ in t.enumerate_topologies(2)) == 4
    assert sum(1 for _ in t.enumerate_topologies(3)) == 29


def test_enumeration_matches_brute_force():
    for n in (1, 2, 3):
        preorder_route = sorted(s.opens for s in t.enumerate_topologies(n))
        brute = sorted(enumerate_closed_families(n))
        assert preorder_route == brute


def test_enumeration_cap():
    with pytest.raises(t.SpaceError):
        list(t.enumerate_topologies(5))
    with pytest.raises(t.SpaceError):
        list(t.enumerate_topologies(0))


def test_enumeration_all_are_topologies():
    for n in (1, 2, 3):
        for s in t.enumerate_topologies(n):
            assert t.is_topology(s)


def test_decide_sat_positive():
    v = t.decide_sat(t.parse("A & ~K A"), t.SearchBound(2, ("A",)))
    assert v.kind == "satisfiable"
    assert v.kind is t.VerdictKind.SATISFIABLE and v.positive
    assert len(v.model.space.point_names) == 2
    assert t.satisfies(v.model, v.pair, t.parse("A & ~K A"))


def test_decide_sat_contradiction():
    v = t.decide_sat(t.parse("A & ~A"), t.SearchBound(2, ("A",)))
    assert v.kind == "no_model_within_bound"


def test_decide_rejects_bound_above_cap():
    # Rejected before any search: "A" has a witness on one point.
    for decide in (t.decide_sat, t.decide_valid):
        with pytest.raises(t.SpaceError):
            decide(t.parse("A"), t.SearchBound(5, ("A",)))


def test_decide_sat_negated_axiom():
    v = t.decide_sat(t.parse("~(K A -> A)"), t.SearchBound(2, ("A",)))
    assert v.kind == "no_model_within_bound"


def test_decide_sat_atom_coverage():
    with pytest.raises(t.SpaceError):
        t.decide_sat(t.parse("B"), t.SearchBound(2, ("A",)))


def test_decide_valid_axioms():
    b = t.SearchBound(3, ("A",))
    for text in ("K A -> A", "[] A -> A", "<>[] A -> []<> A"):
        assert t.decide_valid(t.parse(text), b).kind == "valid_within_bound"


def test_decide_valid_refutes():
    v = t.decide_valid(t.parse("A -> K A"), t.SearchBound(3, ("A",)))
    assert v.kind == "invalid"
    assert len(v.model.space.point_names) <= 2
    assert not t.satisfies(v.model, v.pair, t.parse("A -> K A"))


def test_decide_duality():
    rng = random.Random(13)
    b = t.SearchBound(3, ("A",))
    for _ in range(25):
        f = t.random_formula(rng, ["A"], 3)
        valid = t.decide_valid(f, b).kind == "valid_within_bound"
        unsat_neg = t.decide_sat(t.Not(f), b).kind == "no_model_within_bound"
        assert valid == unsat_neg


def test_decide_deterministic():
    b = t.SearchBound(2, ("A",))
    v1 = t.decide_sat(t.parse("A & ~K A"), b)
    v2 = t.decide_sat(t.parse("A & ~K A"), b)
    assert v1.model.space.opens == v2.model.space.opens
    assert v1.model.valuation == v2.model.valuation
    assert v1.pair == v2.pair


def _reference_search(f, b, holds):
    """The nested search loop the shared search core must agree with."""
    names = sorted(set(b.atoms))
    for n in range(1, b.max_points + 1):
        for space in t.enumerate_topologies(n):
            for val in t.enumerate_valuations(n, names):
                m = t.make_model(space, val)
                ev = ReferenceEvaluator(m)
                for p in t.pairs_in_order(m):
                    if ev.satisfies(p, f) == holds:
                        return m, p
    return None


def _reference_boundary(scheme_id, b, max_opens):
    for n in range(1, b.max_points + 1):
        for space in t.enumerate_subset_spaces(n, max_opens):
            for subst in _BOUNDARY_SUBSTITUTIONS[scheme_id]:
                instance = t.instantiate_axiom(scheme_id, subst)
                names = sorted(t.atoms(instance))
                for val in t.enumerate_valuations(n, names):
                    m = t.make_model(space, val)
                    counter = ReferenceEvaluator(m).find_counterexample(instance)
                    if counter is not None:
                        return m, instance, counter
    return None


@pytest.mark.parametrize("text, bound", [
    ("A & ~K A", t.SearchBound(3, ("A",))),
    ("A -> K A", t.SearchBound(3, ("A",))),
    ("K A -> A", t.SearchBound(3, ("A",))),
    ("<> [] A & ~[] A", t.SearchBound(3, ("A",))),
    ("L A & L B & ~L (A & B)", t.SearchBound(2, ("B", "A"))),
    # A, B and C at three different points of one open: at 3 points only,
    # in a lane where all three atoms' digits are nonzero.
    ("L A & L B & L C & ~L (A & B) & ~L (B & C) & ~L (A & C)",
     t.SearchBound(3, ("C", "A", "B"))),
])
def test_witness_order_matches_reference(text, bound):
    f = t.parse(text)
    for decide, holds in ((t.decide_sat, True), (t.decide_valid, False)):
        v = decide(f, bound)
        hit = _reference_search(f, bound, holds)
        assert (v.model, v.pair) == (hit if hit else (None, None))


@pytest.mark.parametrize("scheme_id, bound, max_opens", [
    (11, t.SearchBound(3, ()), 4),
    (12, t.SearchBound(2, ()), 4),
])
def test_boundary_order_matches_reference(scheme_id, bound, max_opens):
    assert (t.find_subset_space_countermodel(scheme_id, bound, max_opens)
            == _reference_boundary(scheme_id, bound, max_opens))


def _reference_sweep(b, scheme_ids, trials, seed, spaces):
    """The sweep as a loop over models, one `ReferenceEvaluator` each,
    drawing the same random instances."""
    rng = random.Random(seed)
    atom_names = list(b.atoms) or ["A"]
    instances = []
    for sid in scheme_ids:
        for _ in range(trials):
            subst = {var: t.Atom(rng.choice(atom_names)) if sid == 2
                     else t.random_formula(rng, atom_names, 2)
                     for var in t.semantics.AXIOM_METAVARS[sid]}
            instances.append((sid, t.instantiate_axiom(sid, subst)))
    checked = {sid: 0 for sid in scheme_ids}
    violations = []
    for space in spaces:
        for val in t.enumerate_valuations(len(space.point_names), atom_names):
            m = t.make_model(space, val)
            ev = ReferenceEvaluator(m)
            for sid, instance in instances:
                checked[sid] += 1
                counter = ev.find_counterexample(instance)
                if counter is not None:
                    violations.append((sid, instance, m, counter))
    return checked, violations


def test_sweep_violations_match_reference():
    # Atoms out of sorted order; on these spaces some valuations violate
    # both instances, so (valuation, instance) order shows.
    b = t.SearchBound(3, ("B", "A"))
    spaces = list(t.enumerate_subset_spaces(3, 3))
    report = t.axiom_soundness_sweep(b, [11], 6, 4, spaces=spaces)
    checked, violations = _reference_sweep(b, [11], 6, 4, spaces)
    assert report.checked == checked
    assert [(v.scheme_id, v.instance, v.model, v.pair)
            for v in report.violations] == violations
    assert len({v.instance for v in report.violations}) > 1


def test_decide_valid_four_points_two_atoms():
    v = t.decide_valid(t.parse("K A & K B -> K (A & B)"),
                       t.SearchBound(4, ("A", "B")))
    assert v.kind == "valid_within_bound"


def test_sweep_clean_on_topologies():
    b = t.SearchBound(2, ("A",))
    report = t.axiom_soundness_sweep(b, list(range(1, 13)), trials=5, seed=0)
    assert report.clean
    assert all(count > 0 for count in report.checked.values())


def test_sweep_deterministic():
    b = t.SearchBound(2, ("A",))
    r1 = t.axiom_soundness_sweep(b, [11, 12], trials=5, seed=3)
    r2 = t.axiom_soundness_sweep(b, [11, 12], trials=5, seed=3)
    assert r1.checked == r2.checked and r1.clean == r2.clean


def test_scheme4_valid_on_every_small_model():
    inst = t.instantiate_axiom(4, {"phi": t.Atom("A")})
    for n in (1, 2):
        for space in t.enumerate_topologies(n):
            for val in t.enumerate_valuations(n, ["A"]):
                assert t.model_valid(t.make_model(space, val), inst)


def test_boundary_scheme11():
    hit = t.find_subset_space_countermodel(11, t.SearchBound(3, ()))
    assert hit is not None
    m, instance, pair = hit
    assert not t.is_topology(m.space)
    assert not t.satisfies(m, pair, instance)


def test_boundary_scheme11_none_on_topologies():
    # The same instances that fail on a subset space hold on every
    # topology at the same bound.
    b = t.SearchBound(3, ("A",))
    report = t.axiom_soundness_sweep(b, [11], trials=10, seed=5)
    assert report.clean


def test_boundary_scheme12_reproducible():
    b = t.SearchBound(3, ())
    h1 = t.find_subset_space_countermodel(12, b)
    h2 = t.find_subset_space_countermodel(12, b)
    assert (h1 is None) == (h2 is None)
    if h1 is not None:
        assert h1[0].space.opens == h2[0].space.opens
        assert h1[1] == h2[1]
        assert h1[2] == h2[2]
        assert not t.satisfies(h1[0], h1[2], h1[1])


def test_derivable_formulas_valid_within_bound():
    # A few theorems derivable from the axioms by the rules.
    b = t.SearchBound(3, ("A", "B"))
    for text in ("K ([] A -> A)",           # necessitation of scheme 4
                 "[] (K A -> A)",           # necessitation of scheme 7
                 "K A & K B -> K (A & B)",  # from scheme 6 and tautologies
                 "K [] A -> [] A",          # schemes 7, 10 chained
                 "K A -> L A"):             # from scheme 7 and duality
        assert t.decide_valid(t.parse(text), b).kind == "valid_within_bound"
