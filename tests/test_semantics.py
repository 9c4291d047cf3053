import random

import pytest

import topologic as t
from topologic import Atom, Box, Knows, Not, Pair
from conftest import ReferenceEvaluator, random_model
from topologic import decide

F = frozenset
X = F({0, 1, 2})


def test_satisfies_knows(m0):
    assert t.satisfies(m0, Pair(0, F({0, 1})), t.parse("K B"))


def test_satisfies_diamond_knows(m0):
    assert t.satisfies(m0, Pair(1, X), t.parse("<> K B"))


def test_satisfies_box_l_versus_atom(m0):
    # The valuation of B is not closed: point 2 touches it under effort
    # without carrying it.
    assert t.satisfies(m0, Pair(2, X), t.parse("[] L B"))
    assert not t.satisfies(m0, Pair(2, X), t.parse("B"))


def test_satisfies_unknown_atom(m0):
    with pytest.raises(t.SpaceError):
        t.satisfies(m0, Pair(0, X), t.parse("C"))


def test_pair_requires_membership():
    with pytest.raises(t.SpaceError):
        Pair(2, F({0, 1}))


def test_extension(m0):
    assert t.extension(m0, X, t.parse("A")) == F({0})
    assert t.extension(m0, X, t.parse("K A")) == F()
    assert t.extension(m0, F({0}), t.parse("K A")) == F({0})


def test_extension_rejects_non_open(m0):
    with pytest.raises(t.SpaceError):
        t.Evaluator(m0).extension(F({1}), t.parse("A"))


def test_satisfies_rejects_non_open(m0):
    with pytest.raises(t.SpaceError):
        t.Evaluator(m0).satisfies(Pair(1, F({1, 2})), t.parse("A"))


def test_evaluator_rejects_mismatched_lanes(m0):
    """A model fixes one lane and its atoms; a space needs both given."""
    for args in ((m0, 4), (m0, 1, {"A": 1}), (m0.space,),
                 (m0.space, 0, {"A": 1})):
        with pytest.raises(t.SpaceError):
            t.Evaluator(*args)


def test_evaluator_matches_reference():
    """Every (subformula, open) cell, and the least falsifying and satisfying
    pairs, agree with the recursive evaluator on all topologies up to 3
    points and on the non-topologies the boundary search scans."""
    rng = random.Random(31)
    spaces = [s for n in (1, 2, 3) for s in t.enumerate_topologies(n)]
    spaces += t.enumerate_subset_spaces(3, 4)
    for space in spaces:
        n = len(space.point_names)
        for _ in range(2):
            val = {a: F(i for i in range(n) if rng.random() < 0.5)
                   for a in ("A", "B")}
            m = t.make_model(space, val)
            # One evaluator per model, so formulas share rows as in a sweep.
            ev, ref = t.Evaluator(m), ReferenceEvaluator(m)
            for _ in range(3):
                f = t.random_formula(rng, ["A", "B"], 4)
                for g in t.subformulas(f):
                    for U in m.space.opens:
                        assert ev.extension(U, g) == ref.extension(U, g)
                assert t.find_counterexample(m, f, ev) == ref.find_counterexample(f)
                assert ev.first_pair(f, True) == next(
                    (p for p in t.pairs_in_order(m) if ref.satisfies(p, f)), None)


@pytest.mark.parametrize("blocks", [1666, 1667])
def test_deep_chain_closed_form(m0, blocks):
    # Point 0 carries A and lies in every nonempty open of m0, so [] K ~
    # sends A to the empty extension, the empty one to the whole open, and
    # the whole open back to the empty one: 3 * blocks operators deep, the
    # chain holds nowhere for odd blocks and everywhere for even ones.
    f = Atom("A")
    for _ in range(blocks):
        f = Box(Knows(Not(f)))
    ev = t.Evaluator(m0)
    odd = blocks % 2 == 1
    for U in m0.space.opens:
        assert ev.extension(U, f) == (F() if odd else U)
    assert t.find_counterexample(m0, f, ev) == (Pair(0, X) if odd else None)


def test_model_valid_axiom7_instance(m0):
    assert t.model_valid(m0, t.parse("K A -> A"))


def test_model_valid_counterexamples(m0):
    assert t.find_counterexample(m0, t.parse("A -> K A")) == Pair(0, X)
    assert t.find_counterexample(m0, t.parse("[] L B -> B")) == Pair(2, X)


def test_instantiate_axiom_shapes():
    a = Atom("A")
    assert t.instantiate_axiom(4, {"phi": a}) == t.parse("[] A -> A")
    assert t.instantiate_axiom(9, {"phi": a}) == t.parse("A -> K L A")
    assert t.instantiate_axiom(11, {"phi": a}) == t.parse("<>[] A -> []<> A")


def test_instantiate_axiom_scheme2_atomic_only():
    assert (t.instantiate_axiom(2, {"phi": Atom("A")})
            == t.parse("(A -> [] A) & (~A -> [] ~A)"))
    with pytest.raises(t.SchemeError):
        t.instantiate_axiom(2, {"phi": Knows(Atom("A"))})


def test_instantiate_axiom_bad_scheme():
    with pytest.raises(t.SchemeError):
        t.instantiate_axiom(13, {"phi": Atom("A")})
    with pytest.raises(t.SchemeError):
        t.instantiate_axiom(3, {"phi": Atom("A")})  # psi missing


def test_reflexivity_of_k_and_box():
    rng = random.Random(2)
    for _ in range(20):
        m = random_model(rng, 4)
        f = t.random_formula(rng, ["A", "B"], 3)
        ev = t.Evaluator(m)
        for p in t.pairs_in_order(m):
            if ev.satisfies(p, t.Knows(f)):
                assert ev.satisfies(p, f)
            if ev.satisfies(p, t.Box(f)):
                assert ev.satisfies(p, f)


def test_necessitation_and_modus_ponens_preserved():
    rng = random.Random(9)
    for _ in range(30):
        m = random_model(rng, 4)
        f = t.random_formula(rng, ["A", "B"], 3)
        g = t.random_formula(rng, ["A", "B"], 3)
        if t.model_valid(m, f):
            assert t.model_valid(m, t.Knows(f))
            assert t.model_valid(m, t.Box(f))
            if t.model_valid(m, t.Implies(f, g)):
                assert t.model_valid(m, g)


def test_atom_stability_under_effort():
    rng = random.Random(4)
    for _ in range(20):
        m = random_model(rng, 4)
        inst = t.instantiate_axiom(2, {"phi": Atom("A")})
        assert t.model_valid(m, inst)


def test_extension_complement():
    rng = random.Random(6)
    for _ in range(20):
        m = random_model(rng, 4)
        f = t.random_formula(rng, ["A", "B"], 3)
        for U in m.space.opens:
            assert t.extension(m, U, t.Not(f)) == U - t.extension(m, U, f)


def test_desugaring_soundness_pointwise():
    rng = random.Random(8)
    for _ in range(15):
        m = random_model(rng, 4)
        f = t.random_formula(rng, ["A", "B"], 2)
        ev = t.Evaluator(m)
        for p in t.pairs_in_order(m):
            l_direct = any(ev.satisfies(Pair(y, p.open), f)
                           for y in sorted(p.open))
            assert ev.satisfies(p, t.L(f)) == l_direct
            dia_direct = any(
                x in ev.extension(V, f)
                for V in m.space.opens
                if V <= p.open and (x := p.point) in V)
            assert ev.satisfies(p, t.Diamond(f)) == dia_direct


@pytest.mark.parametrize("cap", [decide.LANE_CAP, 5])
def test_lanes_match_one_lane_and_reference(monkeypatch, cap):
    """Lane v of a pass holds the rows of the v-th valuation's model, on
    all topologies up to 3 points and the non-topologies the boundary
    search scans.  With 5 lanes a pass starts inside an atom's run of
    equal subsets, and on 2 points it spans more than B's period of 4."""
    monkeypatch.setattr(decide, "LANE_CAP", cap)
    rng = random.Random(37)
    names = ["A", "B"]
    spaces = [s for n in (1, 2, 3) for s in t.enumerate_topologies(n)]
    spaces += t.enumerate_subset_spaces(3, 4)
    vals = {n: list(t.enumerate_valuations(n, names)) for n in (1, 2, 3)}
    for space, lo, count, ev in decide._space_passes(spaces, names):
        n = len(space.point_names)
        f = t.random_formula(rng, names, 4)
        subs = t.subformulas(f)
        sat, fail = dict(ev.hits(f, True)), dict(ev.hits(f, False))
        for v in range(lo, lo + count):
            m = t.make_model(space, vals[n][v])
            one, ref = t.Evaluator(m), ReferenceEvaluator(m)
            for g in subs:
                for U in space.opens:
                    lane = ev.mask(U, g) >> (v - lo) * (n + 1) & (1 << n + 1) - 1
                    assert lane == one.mask(U, g)
                    assert one.extension(U, g) == ref.extension(U, g)
            assert sat.get(v - lo) == one.first_pair(f, True)
            assert fail.get(v - lo) == ref.find_counterexample(f)


@pytest.mark.parametrize("cap", [1, 3])
def test_searches_do_not_depend_on_lane_cap(monkeypatch, cap):
    b = t.SearchBound(3, ("A", "B"))
    formulas = [t.parse(text) for text in
                ("A & ~K B", "L A & L B & ~L (A & B)", "K A -> A",
                 "<> [] A -> [] <> B")]
    spaces = list(t.enumerate_subset_spaces(3, 3))

    def run():
        return ([(v.kind, v.model, v.pair) for f in formulas
                 for v in (t.decide_sat(f, b), t.decide_valid(f, b))],
                [t.find_subset_space_countermodel(11, b),
                 t.find_subset_space_countermodel(12, t.SearchBound(2, ()))],
                t.axiom_soundness_sweep(b, [11, 12], 4, 4, spaces=spaces))

    default = run()
    assert default[1][0] is not None and default[2].violations
    monkeypatch.setattr(decide, "LANE_CAP", cap)
    assert run() == default
