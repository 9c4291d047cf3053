import random

import pytest

import topologic as t
from topologic import Pair
from conftest import not_chain, random_model

F = frozenset
X = F({0, 1, 2})


@pytest.fixture
def split_f(m0_space):
    return t.make_splitting(m0_space, [X, F({0, 1})])


def test_remainder(split_f):
    assert t.remainder(split_f, X) == {X}
    assert t.remainder(split_f, F({0, 1})) == {F(), F({0}), F({0, 1})}


def test_remainder_singleton_family(m0_space):
    s = t.make_splitting(m0_space, [X])
    assert t.remainder(s, X) == set(m0_space.opens)


def test_remainder_rejects_non_member(split_f):
    with pytest.raises(t.SpaceError):
        t.remainder(split_f, F({0}))


def test_splitting_requires_intersection_closed(m0_space):
    # {0,1} and {0} are fine (chain), but a non-closed pair is rejected on
    # a space where their meet is open yet absent from the family.
    s = t.generate_topology([F({0, 1}), F({0, 2})], ["x0", "x1", "x2"])
    with pytest.raises(t.SpaceError):
        t.make_splitting(s, [F({0, 1}), F({0, 2}), X])


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
    assert t.same_class(g, F({0}), F())
    assert not t.same_class(g, F({0, 1}), X)
    for V in m0_space.opens:
        assert t.same_class(g, V, V)


def test_partition_examples(split_f, m0_space):
    part = t.partition(split_f)
    assert part.blocks == {X: frozenset({X}),
                           F({0, 1}): frozenset({F(), F({0}), F({0, 1})})}
    full = t.make_splitting(m0_space, m0_space.opens)
    assert all(block == frozenset({rep})
               for rep, block in t.partition(full).blocks.items())


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
        down = set(sp.down())
        # Coverage and disjointness.
        assert set(part.assignment) == down
        blocks = [b for b in part.blocks.values()]
        assert sum(len(b) for b in blocks) == len(down)
        # Convexity.
        for rep, block in part.blocks.items():
            for v1 in block:
                for v3 in block:
                    for v2 in opens:
                        if v1 <= v2 <= v3:
                            assert v2 in block
        # The profile equivalence coincides with the remainder partition.
        for v1 in down:
            for v2 in down:
                assert (t.same_class(fam, v1, v2)
                        == (part.assignment[v1] == part.assignment[v2]))
        # Each block is the remainder of its representative.  Intersection-
        # closedness admits the simpler form: below no smaller member.
        for rep, block in part.blocks.items():
            simplified = {V for V in opens if V <= rep
                          and not any(V <= W for W in fam if W < rep)}
            assert t.remainder(sp, rep) == block == simplified


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
    assert part.blocks[X] == frozenset({X, F({0, 1})})
    assert part.blocks[F({0})] == frozenset({F({0})})
    assert part.blocks[F()] == frozenset({F()})
    for block in part.blocks.values():
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
        part = t.partition(sp)
        for block in part.blocks.values():
            for phi in t.subformulas(psi):
                assert t.is_stable(m, block, phi, ev)
        for U in sp.family:
            ext = table.extensions[psi][U]
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
        down = sp.down()
        u0 = down[rng.randrange(len(down))]
        refined = t.make_splitting(
            m.space, t.close_under_intersection(set(sp.family) | {u0}))
        for block in t.partition(refined).blocks.values():
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
            rem_u = t.remainder(sp_phi, U)
            for U2 in sp_box.family:
                lhs = (U2 & U) in rem_u
                rhs = all((V & U) in rem_u
                          for V in part_box.blocks[U2])
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
                  if (U & V) in t.remainder(sp_phi, V)]
            union = frozenset().union(*[ev.extension(V, t.Not(phi))
                                        for V in vs]) if vs else F()
            assert ev.extension(U, t.Not(f)) == U & union


def test_fast_satisfies_examples(m0):
    f = t.parse("K A")
    table = t.build_splitting(m0, f)
    assert not t.fast_satisfies(table, Pair(0, F({0, 1})), f)
    assert t.fast_satisfies(table, Pair(0, F({0})), f)
    table_top = t.build_splitting(m0, t.parse("top"))
    for p in t.pairs_in_order(m0):
        assert t.fast_satisfies(table_top, p, t.parse("top"))


def test_fast_satisfies_agrees_with_satisfies():
    rng = random.Random(61)
    for _ in range(25):
        m = random_model(rng, 4)
        f = t.random_formula(rng, ["A", "B"], 3)
        table = t.build_splitting(m, f)
        ev = t.Evaluator(m)
        for psi in t.subformulas(f):
            for p in t.pairs_in_order(m):
                assert t.fast_satisfies(table, p, psi) == ev.satisfies(p, psi)


def test_build_splitting_deep_chain(m0):
    # Negation reuses its operand's splitting all the way up a 600-deep chain.
    f = not_chain(600)
    table = t.build_splitting(m0, f)
    assert len(table.order) == 601 and table.order[-1] is f
    atom = table.splittings[t.Atom("A")]
    assert table.splittings[f].family == atom.family
    assert table.extensions[f] == table.extensions[t.Atom("A")]
    assert table.extensions[f.arg] == {U: U - ext for U, ext
                                       in table.extensions[f].items()}
