import random

import pytest

import topologic as t
from topologic import Pair
from conftest import not_chain, random_model

F = frozenset
X = F({0, 1, 2})


def test_basis_witness_full_topology(m0):
    fam = [X, F({0, 1})]
    basis = list(m0.space.opens)
    for V in fam:
        for x in sorted(V):
            u = t.basis_witness(m0, basis, fam, V, x)
            assert x in u and u <= V


def test_basis_witness_m0_example(m0):
    basis = list(m0.space.opens)
    assert t.basis_witness(m0, basis, [X, F({0, 1})], X, 0) == X


def test_basis_witness_randomized():
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        m = random_model(rng, 4)
        basis = t.minimal_neighborhood_basis(m)
        opens = list(m.space.opens)
        fam = t.sort_family([opens[rng.randrange(len(opens))]
                             for _ in range(rng.randint(1, 3))])
        for V in fam:
            for x in sorted(V):
                u = t.basis_witness(m, basis, fam, V, x)
                assert x in u and u <= V and u in basis
                assert not any(u <= Vi for Vi in fam if not V <= Vi)
                # Exhaustive oracle: some basis member must qualify, and
                # the returned one does.
                qualifying = [b for b in basis
                              if x in b and b <= V
                              and not any(b <= Vi for Vi in fam
                                          if not V <= Vi)]
                assert u in qualifying
                checked += 1
    assert checked > 100


def test_basis_witness_rejects_bad_basis(m0):
    with pytest.raises(t.SpaceError):
        t.basis_witness(m0, [F({0}), F({0, 1})], [X], X, 0)  # no X coverage


def test_basis_equivalent_full_topology(m0):
    formulas = [t.parse(s) for s in ("K A", "[] L B -> B", "A -> <> K A")]
    assert t.basis_equivalent(m0, list(m0.space.opens), formulas) is None


def test_basis_equivalent_m0_minimal(m0):
    basis = t.minimal_neighborhood_basis(m0)
    formulas = [t.parse(s) for s in ("K A", "[] L B", "<> K B & L A")]
    assert t.basis_equivalent(m0, basis, formulas) is None


def test_basis_equivalent_randomized():
    rng = random.Random(19)
    for _ in range(30):
        m = random_model(rng, 4)
        basis = t.minimal_neighborhood_basis(m)
        formulas = [t.random_formula(rng, ["A", "B"], 3) for _ in range(10)]
        assert t.basis_equivalent(m, basis, formulas) is None


def test_point_quotient_m0(m0):
    qm = t.point_quotient(m0, ["A"])
    assert len(qm.model.space.point_names) == 3
    # All three membership/atom profiles are distinct: quotient is
    # isomorphic to the original space.
    assert len(set(qm.point_class.values())) == 3
    assert len(qm.model.space.opens) == len(m0.space.opens)


def test_point_quotient_indiscrete():
    s = t.generate_topology([], ["x0", "x1", "x2", "x3"])
    m = t.make_model(s, {"A": F({0})})
    qm = t.point_quotient(m, ["A"])
    assert len(set(qm.point_class.values())) == 2
    qm_no_atoms = t.point_quotient(m, [])
    assert len(set(qm_no_atoms.point_class.values())) == 1


def test_point_quotient_topology_preserved():
    rng = random.Random(23)
    for _ in range(20):
        m = random_model(rng, 5)
        qm = t.point_quotient(m, sorted(m.valuation))
        assert t.is_topology(qm.model.space)
        # Class members agree on every atom.
        for a, points in m.valuation.items():
            for x in m.space.universe:
                assert ((x in points)
                        == (qm.point_class[x] in qm.model.valuation[a]))


def test_quotient_lemma_random():
    rng = random.Random(29)
    for _ in range(30):
        m = random_model(rng, 5)
        qm = t.point_quotient(m, sorted(m.valuation))
        f = t.random_formula(rng, sorted(m.valuation), 3)
        ev = t.Evaluator(m)
        evq = t.Evaluator(qm.model)
        for p in t.pairs_in_order(m):
            assert ev.satisfies(p, f) == evq.satisfies(qm.translate(p), f)


def test_extract_finite_model_chain_analogue():
    # Finite stand-in for the half-open-interval chain model: a chain of
    # shrinking opens with one atom true at the bottom point only.
    s = t.make_space(["x0", "x1", "x2", "x3"],
                     [F(), F({0}), F({0, 1}), F({0, 1, 2}), F({0, 1, 2, 3})])
    m = t.make_model(s, {"A": F({0})})
    res = t.extract_finite_model(m, t.parse("A"))
    assert len(res.model.space.point_names) == 2
    assert set(res.model.space.opens) == {F(), F({0, 1})}
    assert len(res.model.valuation["A"]) == 1


def test_extract_finite_model_top(m0):
    res = t.extract_finite_model(m0, t.parse("top"))
    assert set(res.restricted_family) == {F(), X}
    assert len(res.model.space.point_names) == 1


def test_extract_finite_model_knows(m0):
    f = t.parse("K A")
    res = t.extract_finite_model(m0, f)
    assert set(res.restricted_family) == {F(), F({0}), X}
    ev = t.Evaluator(m0)
    evq = t.Evaluator(res.model)
    for U in res.restricted_family:
        for x in sorted(U):
            p = Pair(x, U)
            assert ev.satisfies(p, f) == evq.satisfies(res.translate(p), f)


def test_extract_finite_model_deep_chain(m0):
    f = not_chain(600)
    res = t.extract_finite_model(m0, f)
    assert set(res.restricted_family) == {F(), X}
    ev, evq = t.Evaluator(m0), t.Evaluator(res.model)
    for U in res.restricted_family:
        for x in sorted(U):
            p = Pair(x, U)
            for g in (f, f.arg):
                assert ev.satisfies(p, g) == evq.satisfies(res.translate(p), g)


def test_extract_finite_model_preserves_subformulas():
    rng = random.Random(37)
    for _ in range(25):
        m = random_model(rng, 5)
        f = t.random_formula(rng, ["A", "B"], 3)
        res = t.extract_finite_model(m, f)
        ev_orig = t.Evaluator(m)
        ev_restr = t.Evaluator(res.restricted_model)
        ev_q = t.Evaluator(res.model)
        for psi in t.subformulas(f):
            for U in res.restricted_family:
                for x in sorted(U):
                    p = Pair(x, U)
                    expected = ev_orig.satisfies(p, psi)
                    assert ev_restr.satisfies(p, psi) == expected
                    assert ev_q.satisfies(res.translate(p), psi) == expected


def test_extract_preserves_satisfiability():
    # A witness at any open yields, by stability, a witness at its block
    # representative inside the restricted family, which translates.
    rng = random.Random(43)
    kept = 0
    for _ in range(40):
        m = random_model(rng, 4)
        f = t.random_formula(rng, ["A"], 3)
        witnesses = [p for p in t.pairs_in_order(m) if t.satisfies(m, p, f)]
        if not witnesses:
            continue
        res = t.extract_finite_model(m, f)
        table = t.build_splitting(m, f)
        sp = table.splittings[f]
        p = witnesses[0]
        rep = t.classify(sp, p.open)
        moved = Pair(p.point, rep)
        assert t.satisfies(m, moved, f)
        assert t.satisfies(res.model, res.translate(moved), f)
        kept += 1
    assert kept > 0
