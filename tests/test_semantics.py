import itertools
import random

import pytest

import topologic as t
from topologic import Atom, Box, Knows, Not, Pair
from conftest import (ReferenceEvaluator, random_model,
                      reference_instantiate_axiom)
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


def test_evaluator_spaces_need_one_point_count(m0):
    """A pass's lanes have one width, so its spaces share a point count."""
    two = next(t.enumerate_topologies(2))
    for spaces in ([], [m0.space, two]):
        with pytest.raises(t.SpaceError, match="one point count"):
            t.Evaluator(spaces, 1, {"A": 1})


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


def test_instantiate_axiom_matches_constructors():
    """The table of scheme texts builds the very node the constructor
    calls build, also when a substitution mentions the metavariables."""
    rng = random.Random(11)
    names = ["A", "B", "phi", "psi", "chi"]
    for sid in range(1, 13):
        for _ in range(200):
            subst = {var: (rng.choice([Atom(rng.choice(names)), t.TOP, t.BOT])
                           if sid == 2 else t.random_formula(rng, names, 3))
                     for var in ("phi", "psi", "chi")}
            assert (t.instantiate_axiom(sid, subst)
                    is reference_instantiate_axiom(sid, subst))


def test_axiom_metavars_pinned():
    # The sweep draws one substitution per metavariable in this order.
    assert t.semantics.AXIOM_METAVARS == {
        1: ("phi", "psi"), 2: ("phi",), 3: ("phi", "psi"), 4: ("phi",),
        5: ("phi",), 6: ("phi", "psi"), 7: ("phi",), 8: ("phi",),
        9: ("phi",), 10: ("phi",), 11: ("phi",), 12: ("phi", "psi", "chi")}
    assert sorted(t.semantics.AXIOM_SCHEMES) == list(range(1, 13))


@pytest.mark.parametrize("scheme_id", [0, 13, 99, -1])
def test_unknown_scheme_id_raises_scheme_error(scheme_id):
    with pytest.raises(t.SchemeError, match=f"unknown axiom scheme {scheme_id}"):
        t.semantics.scheme_metavars(scheme_id)
    with pytest.raises(t.SchemeError, match="unknown axiom scheme"):
        t.axiom_soundness_sweep(t.SearchBound(2, ("A",)), [4, scheme_id], 1, 0)


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


# Formulas whose [] reads an operand that changes from an open to the opens
# below it, so that a sub-open missing from a slot's list shows.
LANE_PROBES = [t.parse(text) for text in
               ("[] L A", "<> K B", "K <> (A & ~B)", "[] (K A | L B)")]


@pytest.mark.parametrize("cap", [decide.LANE_CAP, 5])
def test_lanes_match_one_lane_and_reference(monkeypatch, cap):
    """Lane k*count + v of a pass is valuation lo + v on group[k]: on that
    space's opens it holds the rows of the model's one-lane evaluator, and
    on the pass's other slots 0.  The passes run over all topologies up to
    3 points and the non-topologies the boundary search scans, every
    (space, valuation) once and in order, and each answers two formulas, a
    random one and a probe.  At the default cap a pass holds up to 64
    spaces; with 5 lanes a space spans several passes, a pass starts inside
    an atom's run of equal subsets, and on 2 points it spans more than B's
    period of 4."""
    monkeypatch.setattr(decide, "LANE_CAP", cap)
    rng = random.Random(37)
    names = ["A", "B"]
    spaces = [s for n in (1, 2, 3) for s in t.enumerate_topologies(n)]
    spaces += t.enumerate_subset_spaces(3, 4)
    probes = itertools.cycle(LANE_PROBES)
    seen = []  # (space, valuation) per lane, pass after pass
    for group, lo, count, ev in decide._space_passes(spaces, names):
        w = len(group[0].point_names) + 1
        slots = {U for s in group for U in s.opens}
        lanes = range(len(group) * count)
        models = [decide._lane_model(group, lo, count, names, lane)
                  for lane in lanes]
        seen += [(m.space, m.valuation) for m in models]
        ones = [t.Evaluator(m) for m in models]
        refs = [ReferenceEvaluator(m) for m in models]
        for f in (t.random_formula(rng, names, 4), next(probes)):
            for g in t.subformulas(f):
                for U in slots:
                    row = ev.mask(U, g)
                    for k, space in enumerate(group):
                        block = row >> k * count * w & (1 << count * w) - 1
                        for v, one in enumerate(ones[k * count:][:count]):
                            bits = block >> v * w & (1 << w) - 1
                            assert bits == (one.mask(U, g) if U in space.opens
                                            else 0)
                for m, one, ref in zip(models, ones, refs):
                    for U in m.space.opens:
                        assert one.extension(U, g) == ref.extension(U, g)
            sat, fail = dict(ev.hits(f, True)), dict(ev.hits(f, False))
            for lane, one, ref in zip(lanes, ones, refs):
                assert sat.get(lane) == one.first_pair(f, True)
                assert fail.get(lane) == ref.find_counterexample(f)
    vals = {n: list(t.enumerate_valuations(n, names)) for n in (1, 2, 3)}
    expected = [(s, v) for s in spaces for v in vals[len(s.point_names)]]
    assert len(seen) == len(expected)
    assert all(a is s and b == v for (a, b), (s, v) in zip(seen, expected))


def test_search_pass_keeps_only_asked_rows():
    """A search pass drops each operand's row after its last parent, so
    it holds rows for the formulas asked only, among them a row that a
    later formula reads; a model's evaluator keeps every row."""
    ka, f, g = t.parse("K A"), t.parse("K A -> [] K A"), t.parse("~K A & [] B")
    spaces = list(t.enumerate_topologies(3))
    for group, lo, count, ev in decide._space_passes(spaces, ["A", "B"]):
        list(ev.hits(f, False))
        assert set(ev._rows) == {f}
        list(ev.hits(g, True))
        assert set(ev._rows) == {f, g}
        top = ev.mask(group[0].opens[-1], ka)
        assert set(ev._rows) == {f, g, ka}
        list(ev.hits(Not(ka), True))  # reads the kept row of K A
        assert set(ev._rows) == {f, g, ka, Not(ka)}
        assert ev.mask(group[0].opens[-1], ka) == top
    m = t.make_model(spaces[5], {"A": F({0}), "B": F({0, 1})})
    ev = t.Evaluator(m)
    ev.first_pair(f, False)
    assert set(ev._rows) == set(t.subformulas(f))


def test_forget_drops_one_row():
    """`forget` drops one held row, or nothing; asked again, the formula
    gets the same hits."""
    f, g = t.parse("K A -> [] K A"), t.parse("~K A & [] B")
    spaces = list(t.enumerate_subset_spaces(3, 3))
    for group, lo, count, ev in decide._space_passes(spaces, ["A", "B"]):
        first = list(ev.hits(f, False))
        list(ev.hits(g, True))
        ev.forget(f)
        assert set(ev._rows) == {g}
        ev.forget(f)
        ev.forget(g)
        assert not ev._rows
        assert list(ev.hits(f, False)) == first
        assert set(ev._rows) == {f}


@pytest.mark.parametrize("search_pass", [False, True])
def test_failed_walk_leaves_evaluator_consistent(search_pass):
    """An unknown atom ends a walk with SpaceError halfway: the evaluator
    keeps no row of the failed formula that is not whole, loses no row of
    an earlier formula, raises the same error when asked again, and then
    evaluates valid formulas as a fresh evaluator does."""
    space = list(t.enumerate_topologies(3))[7]
    names = ["A", "B"]

    def fresh():
        if search_pass:
            return next(decide._space_passes([space], names))[3]
        return t.Evaluator(t.make_model(space, {"A": F({0}), "B": F({1, 2})}))

    ka = t.parse("K A")
    bad = t.parse("K A & [] (B & ~C)")  # K A and B are computed before C
    later = t.parse("K A & [] (B & ~A)")
    ev, X3 = fresh(), space.opens[-1]
    before = ev.mask(X3, ka)
    for _ in range(2):
        with pytest.raises(t.SpaceError, match="unknown atom 'C'"):
            ev.mask(X3, bad)
        with pytest.raises(t.SpaceError, match="unknown atom 'C'"):
            ev.first_pair(bad, False)
        assert all(type(r) is list and len(r) == len(space.opens)
                   for r in ev._rows.values())
        if search_pass:
            assert set(ev._rows) == {ka}
    assert ev.mask(X3, ka) == before
    other = fresh()
    for U in space.opens:
        assert ev.mask(U, later) == other.mask(U, later)
    assert list(ev.hits(later, True)) == list(other.hits(later, True))
    # A walk that fails on a pass's first formula leaves no row at all.
    if search_pass:
        ev = fresh()
        with pytest.raises(t.SpaceError, match="unknown atom 'C'"):
            ev.mask(X3, bad)
        assert not ev._rows
        assert ev.mask(X3, later) == other.mask(X3, later)


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
