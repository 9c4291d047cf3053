"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All checks are exact Boolean properties at desk scale.
"""

import random
import time
from collections import Counter

import topologic as t
from topologic import Pair
from conftest import (basis_witness, down, enumerate_closed_families,
                      enumerate_valuations, fast_satisfies,
                      minimal_neighborhood_basis, random_model,
                      reference_closure_family)

F = frozenset


def _report(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {criterion}{suffix}")


def test_criterion_1_soundness_sweep():
    # All 29 labeled 3-point topologies x all valuations of one atom x 25
    # random instances per scheme: no violations, under ~2 minutes.
    start = time.monotonic()
    bound = t.SearchBound(3, ("A",))
    spaces = list(t.enumerate_topologies(3))
    assert len(spaces) == 29
    report = t.axiom_soundness_sweep(bound, list(range(1, 13)), trials=25,
                                     seed=2024, spaces=spaces)
    elapsed = time.monotonic() - start
    assert report.clean, report.violations[:3]
    assert elapsed < 120
    _report("criterion 1: axiom soundness sweep",
            f"{sum(report.checked.values())} instance checks, {elapsed:.1f}s")


def test_criterion_2_partition_theorem_suite():
    rng = random.Random(1001)
    cases = 0
    while cases < 200:
        n = rng.randint(2, 5)
        m = random_model(rng, n)
        f = t.random_formula(rng, ["A", "B"], 4)
        table = t.build_splitting(m, f)
        fam_m, open_part = reference_closure_family(m, sorted(t.atoms(f)))
        fam_m, open_part = set(fam_m), set(open_part)
        ev = t.Evaluator(m)
        opens = set(m.space.opens)
        for psi in t.subformulas(f):
            sp = table.splittings[psi]
            family = set(sp.family)
            assert m.space.universe in family
            assert family <= open_part and family <= opens
            part = t.partition(sp)
            below = set(down(sp))
            assert set().union(*part.values()) == below
            assert sum(len(b) for b in part.values()) == len(below)
            for rep, block in part.items():
                for v1 in block:
                    for v3 in block:
                        for v2 in opens:
                            if v1 <= v2 <= v3:
                                assert v2 in block
                for phi in t.subformulas(psi):
                    assert ev.stable(ev.slots(block), phi)
            for phi in t.subformulas(psi):
                assert set(table.splittings[phi].family) <= family
            for U in sp.family:
                assert table.evaluator.extension(U, psi) in fam_m
        cases += 1
    _report("criterion 2: partition theorem suite", f"{cases} random cases")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(1001)  # same case stream as criterion 2
    cases = 0
    pairs_checked = 0
    while cases < 200:
        n = rng.randint(2, 5)
        m = random_model(rng, n)
        f = t.random_formula(rng, ["A", "B"], 4)
        table = t.build_splitting(m, f)
        ev = t.Evaluator(m)
        for psi in t.subformulas(f):
            for p in t.pairs_in_order(m):
                assert fast_satisfies(table, p, psi) == ev.satisfies(p, psi)
                pairs_checked += 1
        cases += 1
    _report("criterion 3: fast evaluation agrees with direct evaluation",
            f"{pairs_checked} pair checks")


def test_criterion_4_quotient_lemma():
    rng = random.Random(2002)
    for _ in range(200):
        n = rng.randint(2, 5)
        m = random_model(rng, n)
        f = t.random_formula(rng, ["A", "B"], 4)
        qm = t.point_quotient(m, sorted(m.valuation))
        ev = t.Evaluator(m)
        evq = t.Evaluator(qm.model)
        for p in t.pairs_in_order(m):
            assert ev.satisfies(p, f) == evq.satisfies(qm.translate(p), f)
        res = t.extract_finite_model(m, f)
        ev_q = t.Evaluator(res.quotient.model)
        for U in res.restricted_model.space.opens:
            for x in sorted(U):
                p = Pair(x, U)
                assert (ev.satisfies(p, f)
                        == ev_q.satisfies(res.quotient.translate(p), f))
    _report("criterion 4: quotient lemma and extraction preservation",
            "200 random models")


def test_criterion_5_chain_example():
    s = t.make_space(["x0", "x1", "x2", "x3"],
                     [F(), F({0}), F({0, 1}), F({0, 1, 2}), F({0, 1, 2, 3})])
    m = t.make_model(s, {"A": F({0})})
    res = t.extract_finite_model(m, t.parse("A"))
    q = res.quotient.model
    assert len(q.space.point_names) == 2
    assert set(q.space.opens) == {F(), F({0, 1})}
    assert len(q.valuation["A"]) == 1
    _report("criterion 5: chain model quotients to the 2-point model")


def test_criterion_6_basis_theorem():
    rng = random.Random(3003)
    witness_checks = 0
    for _ in range(100):
        n = rng.randint(2, 5)
        m = random_model(rng, n)
        basis = minimal_neighborhood_basis(m)
        formulas = [t.random_formula(rng, ["A", "B"], 3) for _ in range(5)]
        assert t.basis_equivalent(m, basis, formulas) is None
        opens = list(m.space.opens)
        fam = t.sort_family([opens[rng.randrange(len(opens))]
                             for _ in range(rng.randint(1, 3))])
        for V in fam:
            for x in sorted(V):
                u = basis_witness(m, basis, fam, V, x)
                assert x in u and u <= V and u in basis
                assert not any(u <= Vi for Vi in fam if not V <= Vi)
                witness_checks += 1
    _report("criterion 6: basis-model equivalence",
            f"100 topologies, {witness_checks} witness checks")


def test_criterion_7_enumeration_calibration():
    expected = {1: 1, 2: 4, 3: 29, 4: 355}
    for n, count in expected.items():
        via_preorders = [s.opens for s in t.enumerate_topologies(n)]
        assert len(via_preorders) == count
        if n <= 3:
            brute = enumerate_closed_families(n)
            assert Counter(via_preorders) == Counter(brute)
    # n=4 brute force is the independent oracle for the 355 figure.
    assert len(enumerate_closed_families(4)) == 355
    _report("criterion 7: topology counts 1, 4, 29, 355 match brute force")


def test_criterion_8_decision_sanity():
    b = t.SearchBound(3, ("A",))
    for text in ("K A -> A", "[] A -> A", "<>[] A -> []<> A"):
        assert t.decide_valid(t.parse(text), b).kind == "valid_within_bound"
    refuted = t.decide_valid(t.parse("A -> K A"), b)
    assert refuted.kind == "invalid"
    assert len(refuted.model.space.point_names) <= 2
    rng = random.Random(4004)
    for _ in range(50):
        f = t.random_formula(rng, ["A"], 3)
        valid = t.decide_valid(f, b).kind == "valid_within_bound"
        unsat = t.decide_sat(t.Not(f), b).kind == "no_model_within_bound"
        assert valid == unsat
    _report("criterion 8: decision sanity and sat/valid duality",
            "50 random duality checks")


def test_criterion_9_boundary():
    b = t.SearchBound(3, ())
    hit = t.find_subset_space_countermodel(11, b, max_opens=4)
    assert hit is not None
    m, instance, pair = hit
    assert not t.is_topology(m.space)
    assert len(m.space.point_names) <= 3 and len(m.space.opens) <= 4
    assert not t.satisfies(m, pair, instance)
    # No topological countermodel for the same instances at the same bound.
    for subst in ({"phi": t.Knows(t.Atom("A"))},
                  {"phi": t.Not(t.Knows(t.Atom("A")))}):
        inst = t.instantiate_axiom(11, subst)
        for n in (1, 2, 3):
            for space in t.enumerate_topologies(n):
                for val in enumerate_valuations(n, ["A"]):
                    m = t.make_model(space, val)
                    assert t.find_counterexample(m, inst) is None
    # Scheme 12: record the (reproducible) outcome, whatever it is.
    h1 = t.find_subset_space_countermodel(12, b, max_opens=4)
    h2 = t.find_subset_space_countermodel(12, b, max_opens=4)
    if h1 is None:
        assert h2 is None
        outcome = "scheme 12: none within bound"
    else:
        assert h1[0].space.opens == h2[0].space.opens
        assert h1[1] == h2[1] and h1[2] == h2[2]
        assert not t.satisfies(h1[0], h1[2], h1[1])
        outcome = ("scheme 12: countermodel on "
                   f"{len(h1[0].space.point_names)} points")
    _report("criterion 9: MP/MP* boundary", outcome)


def test_criterion_10_bounded_search_stands_in():
    # The theoretical size bound behind full decidability is not
    # reproduced; the decision procedures report "within bound" verdicts
    # and never claim unbounded validity.
    v = t.decide_valid(t.parse("K A -> A"), t.SearchBound(2, ("A",)))
    assert v.kind == "valid_within_bound"
    _report("criterion 10: bounded search stands in for full decidability")
