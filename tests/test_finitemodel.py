import random
from collections import Counter

import pytest

import topologic as t
from topologic import Pair, finitemodel
from conftest import (basis_witness, generate_topology,
                      minimal_neighborhood_basis, not_chain,
                      random_model, reference_basis_equivalent,
                      reference_check_basis, reference_point_quotient)

F = frozenset
X = F({0, 1, 2})


def test_basis_witness_full_topology(m0):
    fam = [X, F({0, 1})]
    basis = list(m0.space.opens)
    for V in fam:
        for x in sorted(V):
            u = basis_witness(m0, basis, fam, V, x)
            assert x in u and u <= V


def test_basis_witness_m0_example(m0):
    basis = list(m0.space.opens)
    assert basis_witness(m0, basis, [X, F({0, 1})], X, 0) == X


def test_basis_witness_randomized():
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        m = random_model(rng, 4)
        basis = minimal_neighborhood_basis(m)
        opens = list(m.space.opens)
        fam = t.sort_family([opens[rng.randrange(len(opens))]
                             for _ in range(rng.randint(1, 3))])
        for V in fam:
            for x in sorted(V):
                u = basis_witness(m, basis, fam, V, x)
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
        basis_witness(m0, [F({0}), F({0, 1})], [X], X, 0)  # no X coverage


def _basis_verdict(check, m, basis) -> str:
    try:
        check(m, basis)
    except t.SpaceError as exc:
        return next(kind for kind in ("not open", "not closed", "generate")
                    if kind in str(exc))
    return "ok"


def test_check_basis_matches_reference():
    # _check_basis accepts exactly the bases the pairwise check accepted,
    # and rejects the others for the same reason.
    rng = random.Random(41)
    verdicts = set()
    for _ in range(400):
        n = rng.randint(1, 5)
        m = random_model(rng, n)
        basis = [U for U in m.space.opens if rng.random() < 0.6]
        if rng.random() < 0.5:
            basis = list(t.close_under_union(basis))
        if rng.random() < 0.1:
            basis.append(F(i for i in range(n) if rng.random() < 0.5))
        verdict = _basis_verdict(finitemodel._check_basis, m, basis)
        assert verdict == _basis_verdict(reference_check_basis, m, basis)
        verdicts.add(verdict)
    assert verdicts == {"ok", "not open", "not closed", "generate"}
    # A member with a negative point, which has no mask, is not open.
    basis = [F({-1}), *m.space.opens]
    assert (_basis_verdict(finitemodel._check_basis, m, basis)
            == _basis_verdict(reference_check_basis, m, basis) == "not open")


def test_basis_member_with_a_point_past_the_space_is_not_open(m0):
    """A basis member with a point the space lacks is reported as not open,
    naming that point: not as an IndexError from the point names, and not
    under the name of another point (the last one, for -1)."""
    opens = [U for U in m0.space.opens if U]
    for member, point in ((F({5}), "5"), (F({-1}), "-1"), (F({0, 3}), "3")):
        with pytest.raises(t.SpaceError, match="not open") as exc:
            t.basis_equivalent(m0, [member, *opens], [t.parse("A")])
        assert point in str(exc.value) and "{x" not in str(exc.value)


def test_accepted_bases_are_the_nonempty_opens():
    # Why `basis_equivalent` cannot disagree on a finite topology: every
    # basis `_check_basis` accepts is the model's nonempty opens, with or
    # without the empty set.
    rng = random.Random(43)
    accepted = Counter()
    for _ in range(600):
        m = random_model(rng, rng.randint(1, 5))
        basis = list(minimal_neighborhood_basis(m))
        if rng.random() < 0.5:
            basis = list(t.close_under_union(
                U for U in m.space.opens if rng.random() < 0.7))
        if rng.random() < 0.5:
            basis.append(F())
        try:
            finitemodel._check_basis(m, basis)
        except t.SpaceError:
            continue
        assert set(basis) - {F()} == set(m.space.opens) - {F()}
        accepted[F() in basis] += 1
    assert accepted[True] >= 100 and accepted[False] >= 100


def test_basis_equivalent_full_topology(m0):
    formulas = [t.parse(s) for s in ("K A", "[] L B -> B", "A -> <> K A")]
    assert t.basis_equivalent(m0, list(m0.space.opens), formulas) is None


def test_basis_equivalent_m0_minimal(m0):
    basis = minimal_neighborhood_basis(m0)
    formulas = [t.parse(s) for s in ("K A", "[] L B", "<> K B & L A")]
    assert t.basis_equivalent(m0, basis, formulas) is None


def test_basis_equivalent_randomized():
    rng = random.Random(19)
    for _ in range(30):
        m = random_model(rng, 4)
        basis = minimal_neighborhood_basis(m)
        formulas = [t.random_formula(rng, ["A", "B"], 3) for _ in range(10)]
        assert t.basis_equivalent(m, basis, formulas) is None


def test_basis_equivalent_matches_reference():
    # One two-lane pass against two evaluators, on accepted bases of 1-6
    # points, with and without the empty set.
    rng = random.Random(61)
    for _ in range(60):
        m = random_model(rng, rng.randint(1, 6))
        basis = [*minimal_neighborhood_basis(m), *[F()] * rng.randint(0, 1)]
        formulas = [t.random_formula(rng, ["A", "B"], rng.randint(0, 4))
                    for _ in range(5)]
        assert t.basis_equivalent(m, basis, formulas) is None
        assert reference_basis_equivalent(m, basis, formulas) is None


def test_basis_equivalent_disagreements_match_reference(monkeypatch):
    # Families of opens with X that are not bases, with the basis check
    # taken out (the stub returns the members' masks unchecked): the only
    # way to reach the disagreement reports.  Both report the same formula
    # and pair, or validity.
    monkeypatch.setattr(finitemodel, "_check_basis",
                        lambda m, basis: {t.space.to_mask(B) for B in basis})
    rng = random.Random(67)
    kinds = Counter()
    for _ in range(800):
        m = random_model(rng, rng.randint(3, 6))
        family = [m.space.universe,
                  *[U for U in m.space.opens if rng.random() < 0.3]]
        formulas = [t.random_formula(rng, ["A", "B"], rng.randint(3, 5))
                    for _ in range(6)]
        got = t.basis_equivalent(m, family, formulas)
        assert got == reference_basis_equivalent(m, family, formulas)
        kinds["agree" if got is None else
              "validity" if got.pair is None else "pair"] += 1
    assert min(kinds["agree"], kinds["validity"], kinds["pair"]) >= 10


def test_point_quotient_matches_reference():
    # Every topology on 1 to 4 points, and every subset space on 1 to 3
    # points with at most 4 opens, under every valuation of one atom.
    spaces = [*(s for n in range(1, 5) for s in t.enumerate_topologies(n)),
              *(s for n in range(1, 4) for s in t.enumerate_subset_spaces(n, 4))]
    for s in spaces:
        for val in t.enumerate_valuations(len(s.point_names), ["A"]):
            m = t.make_model(s, val)
            for atom_list in (["A"], []):
                q = t.point_quotient(m, atom_list)
                qs = q.model.space
                assert (q.point_class, q.open_class, qs.point_names, qs.opens,
                        qs.masks, q.model.valuation
                        ) == reference_point_quotient(m, atom_list)


def test_point_quotient_m0(m0):
    qm = t.point_quotient(m0, ["A"])
    assert len(qm.model.space.point_names) == 3
    # All three membership/atom profiles are distinct: quotient is
    # isomorphic to the original space.
    assert len(set(qm.point_class.values())) == 3
    assert len(qm.model.space.opens) == len(m0.space.opens)


def test_point_quotient_indiscrete():
    s = generate_topology([], ["x0", "x1", "x2", "x3"])
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
    q = t.extract_finite_model(m, t.parse("A")).quotient.model
    assert len(q.space.point_names) == 2
    assert set(q.space.opens) == {F(), F({0, 1})}
    assert len(q.valuation["A"]) == 1


def test_extract_finite_model_top(m0):
    res = t.extract_finite_model(m0, t.parse("top"))
    assert set(res.restricted_model.space.opens) == {F(), X}
    assert len(res.quotient.model.space.point_names) == 1


def test_extract_finite_model_knows(m0):
    f = t.parse("K A")
    res = t.extract_finite_model(m0, f)
    assert set(res.restricted_model.space.opens) == {F(), F({0}), X}
    ev = t.Evaluator(m0)
    evq = t.Evaluator(res.quotient.model)
    for U in res.restricted_model.space.opens:
        for x in sorted(U):
            p = Pair(x, U)
            assert (ev.satisfies(p, f)
                    == evq.satisfies(res.quotient.translate(p), f))


def test_extract_finite_model_deep_chain(m0):
    f = not_chain(600)
    res = t.extract_finite_model(m0, f)
    assert set(res.restricted_model.space.opens) == {F(), X}
    ev, evq = t.Evaluator(m0), t.Evaluator(res.quotient.model)
    for U in res.restricted_model.space.opens:
        for x in sorted(U):
            p = Pair(x, U)
            for g in (f, f.arg):
                assert (ev.satisfies(p, g)
                        == evq.satisfies(res.quotient.translate(p), g))


def test_extract_finite_model_preserves_subformulas():
    rng = random.Random(37)
    for _ in range(25):
        m = random_model(rng, 5)
        f = t.random_formula(rng, ["A", "B"], 3)
        res = t.extract_finite_model(m, f)
        ev_orig = t.Evaluator(m)
        ev_restr = t.Evaluator(res.restricted_model)
        ev_q = t.Evaluator(res.quotient.model)
        for psi in t.subformulas(f):
            for U in res.restricted_model.space.opens:
                for x in sorted(U):
                    p = Pair(x, U)
                    expected = ev_orig.satisfies(p, psi)
                    assert ev_restr.satisfies(p, psi) == expected
                    assert (ev_q.satisfies(res.quotient.translate(p), psi)
                            == expected)


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
        assert t.satisfies(res.quotient.model,
                           res.quotient.translate(moved), f)
        kept += 1
    assert kept > 0
