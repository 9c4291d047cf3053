import random

import pytest

import topologic as t
from topologic import Pair
from conftest import (down, fast_satisfies, not_chain, random_model,
                      random_topology, reference_classify,
                      reference_closure_flags, reference_is_stable,
                      reference_partition, remainder, same_class)

F = frozenset
X = F({0, 1, 2})


@pytest.fixture
def split_f(m0_space):
    return t.make_splitting(m0_space, [X, F({0, 1})])


def test_remainder(split_f):
    assert remainder(split_f, X) == {X}
    assert remainder(split_f, F({0, 1})) == {F(), F({0}), F({0, 1})}


def test_remainder_singleton_family(m0_space):
    s = t.make_splitting(m0_space, [X])
    assert remainder(s, X) == set(m0_space.opens)


def test_remainder_rejects_non_member(split_f):
    with pytest.raises(t.SpaceError):
        remainder(split_f, F({0}))


def test_splitting_requires_intersection_closed(m0_space):
    # {0,1} and {0} are fine (chain), but a non-closed pair is rejected on
    # a space where their meet is open yet absent from the family.
    s = t.generate_topology([F({0, 1}), F({0, 2})], ["x0", "x1", "x2"])
    with pytest.raises(t.SpaceError):
        t.make_splitting(s, [F({0, 1}), F({0, 2}), X])


def test_make_splitting_check_matches_reference():
    # make_splitting accepts exactly the families of opens that the
    # pairwise frozenset check accepted.
    rng = random.Random(37)
    verdicts = set()
    for _ in range(300):
        s = random_topology(rng, rng.randint(1, 5))
        fam = [U for U in s.opens if rng.random() < 0.5]
        closed = reference_closure_flags(fam)[0]
        try:
            t.make_splitting(s, fam + fam[:1])
            accepted = True
        except t.SpaceError as exc:
            assert str(exc) == "splitting family is not intersection-closed"
            accepted = False
        assert accepted == closed
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_splitting_requires_opens(m0_space):
    with pytest.raises(t.SpaceError):
        t.make_splitting(m0_space, [F({1}), X])


def test_build_splitting_families_pass_make_splitting():
    # build_splitting skips make_splitting's check; every family it builds
    # must pass that check unchanged.
    rng = random.Random(71)
    for _ in range(25):
        m = random_model(rng, 4)
        f = t.random_formula(rng, ["A", "B"], 3)
        for sp in t.build_splitting(m, f).splittings.values():
            assert t.make_splitting(m.space, sp.family) == sp


def test_classify(split_f):
    assert t.classify(split_f, F({0})) == F({0, 1})
    assert t.classify(split_f, X) == X
    assert t.classify(split_f, F()) == F({0, 1})


def test_classify_outside_ideal(m0_space):
    chain = t.make_splitting(m0_space, [F({0})])
    with pytest.raises(t.SpaceError):
        t.classify(chain, F({0, 1}))


def test_same_class(m0_space):
    g = [X, F({0, 1})]
    assert same_class(g, F({0}), F())
    assert not same_class(g, F({0, 1}), X)
    for V in m0_space.opens:
        assert same_class(g, V, V)


def test_partition_examples(split_f, m0_space):
    part = t.partition(split_f)
    assert part == {X: frozenset({X}),
                    F({0, 1}): frozenset({F(), F({0}), F({0, 1})})}
    full = t.make_splitting(m0_space, m0_space.opens)
    assert all(block == frozenset({rep})
               for rep, block in t.partition(full).items())


def test_partition_laws_random():
    rng = random.Random(12)
    for _ in range(40):
        m = random_model(rng, 4)
        opens = list(m.space.opens)
        seed = [opens[rng.randrange(len(opens))]
                for _ in range(rng.randint(1, 4))] + [m.space.universe]
        fam = t.close_under_intersection(seed)
        sp = t.make_splitting(m.space, fam)
        part = t.partition(sp)
        below = set(down(sp))
        # Coverage and disjointness.
        rep_of = {V: rep for rep, block in part.items() for V in block}
        assert set(rep_of) == below
        assert sum(len(b) for b in part.values()) == len(below)
        # Convexity.
        for rep, block in part.items():
            for v1 in block:
                for v3 in block:
                    for v2 in opens:
                        if v1 <= v2 <= v3:
                            assert v2 in block
        # The profile equivalence coincides with the remainder partition.
        for v1 in below:
            for v2 in below:
                assert (same_class(fam, v1, v2)
                        == (rep_of[v1] == rep_of[v2]))
        # Each block is the remainder of its representative.  Intersection-
        # closedness admits the simpler form: below no smaller member.
        for rep, block in part.items():
            simplified = {V for V in opens if V <= rep
                          and not any(V <= W for W in fam if W < rep)}
            assert remainder(sp, rep) == block == simplified


def test_is_stable_atom_block(m0):
    block = {F(), F({0}), F({0, 1})}
    assert t.is_stable(m0, block, t.parse("A"))


def test_is_stable_counterexample(m0):
    assert not t.is_stable(m0, {F({0}), X}, t.parse("K A"))


def test_is_stable_vacuous(m0):
    assert t.is_stable(m0, set(), t.parse("K A"))


def test_build_splitting_atomic(m0):
    table = t.build_splitting(m0, t.parse("A"))
    assert set(table.splittings[t.parse("A")].family) == {X, F()}


def test_build_splitting_knows(m0):
    f = t.parse("K A")
    table = t.build_splitting(m0, f)
    sp = table.splittings[f]
    assert set(sp.family) == {X, F(), F({0})}
    part = t.partition(sp)
    assert part[X] == frozenset({X, F({0, 1})})
    assert part[F({0})] == frozenset({F({0})})
    assert part[F()] == frozenset({F()})
    for block in part.values():
        assert t.is_stable(m0, block, f)


def test_build_splitting_box(m0):
    f = t.parse("[] A")
    table = t.build_splitting(m0, f)
    # F^A = {X, empty}; its Heyting implications add nothing new.
    assert set(table.splittings[f].family) == {X, F()}


def test_build_splitting_requires_topology():
    s = t.make_space(["x0", "x1"], [F({0}), F({0, 1})])
    m = t.make_model(s, {"A": F({0})})
    with pytest.raises(t.SpaceError):
        t.build_splitting(m, t.parse("A"))


def _check_theorem_items(m, f, table):
    fam_m, open_part = t.closure_family(m, sorted(t.atoms(f)))
    fam_m, open_part = set(fam_m), set(open_part)
    ev = t.Evaluator(m)
    subs = t.subformulas(f)
    for psi in subs:
        sp = table.splittings[psi]
        assert m.space.universe in sp.family
        assert set(sp.family) <= open_part
        for block in t.partition(sp).values():
            for phi in t.subformulas(psi):
                assert t.is_stable(m, block, phi, ev)
        for U in sp.family:
            ext = table.evaluator.extension(U, psi)
            assert ext == ev.extension(U, psi)
            assert ext in fam_m
        for phi in t.subformulas(psi):
            assert set(table.splittings[phi].family) <= set(sp.family)


def test_partition_theorem_random():
    rng = random.Random(21)
    for _ in range(25):
        m = random_model(rng, 4)
        f = t.random_formula(rng, ["A", "B"], 3)
        table = t.build_splitting(m, f)
        _check_theorem_items(m, f, table)


def test_refinement_preserves_stability():
    rng = random.Random(31)
    for _ in range(20):
        m = random_model(rng, 4)
        f = t.random_formula(rng, ["A"], 2)
        table = t.build_splitting(m, f)
        sp = table.splittings[f]
        below = down(sp)
        u0 = below[rng.randrange(len(below))]
        refined = t.make_splitting(
            m.space, t.close_under_intersection(set(sp.family) | {u0}))
        for block in t.partition(refined).values():
            assert t.is_stable(m, block, f)


def test_box_case_claim():
    rng = random.Random(41)
    for _ in range(20):
        m = random_model(rng, 4)
        f = t.Box(t.random_formula(rng, ["A"], 2))
        table = t.build_splitting(m, f)
        sp_phi = table.splittings[f.arg]
        sp_box = table.splittings[f]
        part_box = t.partition(sp_box)
        for U in sp_phi.family:
            rem_u = remainder(sp_phi, U)
            for U2 in sp_box.family:
                lhs = (U2 & U) in rem_u
                rhs = all((V & U) in rem_u
                          for V in part_box[U2])
                assert lhs == rhs


def test_box_extension_identity():
    rng = random.Random(51)
    for _ in range(20):
        m = random_model(rng, 4)
        phi = t.random_formula(rng, ["A"], 2)
        f = t.Box(phi)
        table = t.build_splitting(m, f)
        sp_phi = table.splittings[phi]
        ev = t.Evaluator(m)
        for U in table.splittings[f].family:
            vs = [V for V in sp_phi.family
                  if (U & V) in remainder(sp_phi, V)]
            union = frozenset().union(*[ev.extension(V, t.Not(phi))
                                        for V in vs]) if vs else F()
            assert ev.extension(U, t.Not(f)) == U & union


def test_fast_satisfies_examples(m0):
    f = t.parse("K A")
    table = t.build_splitting(m0, f)
    assert not fast_satisfies(table, Pair(0, F({0, 1})), f)
    assert fast_satisfies(table, Pair(0, F({0})), f)
    table_top = t.build_splitting(m0, t.parse("top"))
    for p in t.pairs_in_order(m0):
        assert fast_satisfies(table_top, p, t.parse("top"))


def test_fast_satisfies_rejects_non_subformula(m0):
    table = t.build_splitting(m0, t.parse("K A"))
    with pytest.raises(t.SpaceError, match="not a subformula"):
        fast_satisfies(table, Pair(0, X), t.parse("B"))


def test_fast_satisfies_agrees_with_satisfies():
    rng = random.Random(61)
    for _ in range(25):
        m = random_model(rng, 4)
        f = t.random_formula(rng, ["A", "B"], 3)
        table = t.build_splitting(m, f)
        ev = t.Evaluator(m)
        for psi in t.subformulas(f):
            for p in t.pairs_in_order(m):
                assert fast_satisfies(table, p, psi) == ev.satisfies(p, psi)


def test_build_splitting_deep_chain(m0):
    # Negation reuses its operand's splitting all the way up a 600-deep chain.
    f = not_chain(600)
    table = t.build_splitting(m0, f)
    order = list(table.splittings)
    assert len(order) == 601 and order[-1] is f
    atom = table.splittings[t.Atom("A")]
    assert table.splittings[f].family == atom.family
    ev = table.evaluator
    for U in atom.family:
        assert ev.extension(U, f) == ev.extension(U, t.Atom("A"))
        assert ev.extension(U, f.arg) == U - ev.extension(U, f)


def test_mask_helpers_match_reference():
    # classify, partition and is_stable compare bitmasks; the frozenset
    # code they replaced must agree on every stable splitting of random
    # formulas over topologies of 1-5 points, on a random
    # intersection-closed family that may miss X, on a raw family whose
    # meets need not be members (classify only), and on random blocks,
    # which need not be stable.  `Evaluator.stable` over a block's slots
    # must agree too.
    rng = random.Random(97)
    unstable = 0
    for _ in range(300):
        m = random_model(rng, rng.randint(1, 5))
        opens = m.space.opens
        f = t.random_formula(rng, ["A", "B"], 4)
        subs = t.subformulas(f)
        ev = t.Evaluator(m)
        sampled = t.make_splitting(m.space, t.close_under_intersection(
            rng.sample(opens, rng.randint(1, len(opens)))))
        raw = t.Splitting(t.sort_family(
            rng.sample(opens, rng.randint(1, len(opens)))), m.space)
        for sp in [*t.build_splitting(m, f).splittings.values(), sampled,
                   raw]:
            for V in opens:
                if any(V <= U for U in sp.family):
                    assert t.classify(sp, V) == reference_classify(sp, V)
                else:
                    with pytest.raises(t.SpaceError):
                        t.classify(sp, V)
            if sp is raw:
                continue
            assert t.partition(sp) == reference_partition(sp)
            blocks = [*t.partition(sp).values(),
                      F(rng.sample(opens, rng.randint(0, len(opens))))]
            for block in blocks:
                slots = ev.slots(block)
                assert [opens[i] for i in slots] == list(t.sort_family(block))
                for phi in subs:
                    want = reference_is_stable(ev, block, phi)
                    assert t.is_stable(m, block, phi, ev) == want
                    assert ev.stable(slots, phi) == want
                    unstable += not want
    assert unstable > 100  # 202 of about 31,000 verdicts
    # An empty block is stable for any formula: it asks the evaluator
    # nothing, so an atom the model does not value is no error.
    assert t.is_stable(m, [], t.Atom("Z"), ev)
    assert t.is_stable(m, (), t.Not(t.Atom("Z")))
    assert ev.slots([]) == [] and ev.stable([], t.Atom("Z"))
    # A member that is not an open is an error, raised before any row is
    # asked for, so before the unvalued atom Z could be.
    m0 = t.make_model(t.make_space(["x0", "x1", "x2"], [F(), F({0}), X]), {})
    for block in ([F({0, 1})], [X, F({0, 1})]):
        with pytest.raises(t.SpaceError, match=r"\[0, 1\] is not an open"):
            t.is_stable(m0, block, t.Atom("Z"))
        with pytest.raises(t.SpaceError, match=r"\[0, 1\] is not an open"):
            t.Evaluator(m0).slots(block)
