import itertools
import random

import pytest

import topologic as t
from topologic import Atom, Box, Knows, Not, Pair
from conftest import (ReferenceEvaluator, enumerate_valuations, hits,
                      knows_box_chain, not_chain, random_model,
                      reference_hits, reference_instantiate_axiom,
                      search_passes)
from topologic import decide
from topologic.semantics import PassFrame
from topologic.space import to_mask

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
    """A model fixes one lane and its atoms; a frame over spaces needs the
    atoms and a lane count of at least 1 for each space, and an evaluator
    takes only a model or a frame."""
    for args in (((m0.space,), (1,), None), ((m0.space,), (0,), {"A": 1}),
                 ((m0.space,), (1, 1), {"A": 1}), ((), (), {"A": 1})):
        with pytest.raises(t.SpaceError):
            PassFrame(*args)
    for args in ((m0, 4), (m0, 1, {"A": 1}), (m0.space,)):
        with pytest.raises(TypeError):
            t.Evaluator(*args)


@pytest.mark.parametrize("lanes", [1, 3])
def test_one_space_frame_keeps_the_space_layout(lanes):
    """A frame over one space has the space's masks as its slots, in its
    order, each mask repeated in every lane, and reads the slots in
    `pairs_in_order` order, largest open first."""
    spaces = [s for n in range(1, 5) for s in t.decide._topologies(n)]
    spaces += t.enumerate_subset_spaces(3, 3)
    for s in spaces:
        w = len(s.point_names) + 1
        frame = PassFrame([s], [lanes], {})
        assert list(frame.slots) == list(s.masks)
        assert list(frame.masks) == [
            sum(u << lane * w for lane in range(lanes)) for u in s.masks]
        assert frame.order == sorted(range(len(s.opens)),
                                     key=lambda i: -len(s.opens[i]))
        assert tuple(map(t.space.from_mask, frame.slots)) == s.opens


@pytest.mark.parametrize("names", [["A"], ["A", "B"]])
def test_frame_pads_lanes_to_widest_space(names):
    """A frame over spaces of 1 to 4 points gives every lane the widest
    space's width, 5 bits: each lane holds, cell by cell, the rows of its
    model's one-lane evaluator, 0 in the slots of other spaces' opens and
    in the bits above its own points, and `hits` reads the pair that the
    reference evaluator finds.  1-point lanes, with A empty and full, sit
    next to 4-point lanes, and the formulas apply K and [] to them.  The
    atoms' rows are built here, lane by lane."""
    rng = random.Random(41)
    tops = {n: list(t.enumerate_topologies(n)) for n in (1, 2, 3, 4)}
    one = tops[1][0]
    spaces = [tops[4][200], one, tops[4][7], tops[2][2], one,
              list(t.enumerate_subset_spaces(4, 3))[40],
              list(t.enumerate_subset_spaces(3, 3))[20], tops[3][11], one]
    models = []
    for s in spaces:
        n = len(s.point_names)
        vals = ([{a: F() if k == 0 else F({0}) for a in names}
                 for k in range(2)] if n == 1 else
                [{a: F(x for x in range(n) if rng.random() < 0.5)
                  for a in names} for _ in range(rng.randint(1, 3))])
        models.append([t.make_model(s, v) for v in vals])
    lanes = [m for ms in models for m in ms]
    w = 5
    atoms = {a: sum(t.space.to_mask(m.valuation[a]) << lane * w
                    for lane, m in enumerate(lanes)) for a in names}
    ev = t.Evaluator(PassFrame(spaces, [len(ms) for ms in models], atoms))
    assert ev._frame.width == w
    ones = [t.Evaluator(m) for m in lanes]
    refs = [ReferenceEvaluator(m) for m in lanes]
    texts = ["K A", "~K A", "[] L A", "K ~[] A", "<> K A", "L [] ~K A",
             "K (A -> [] A)"] + (["K A & L B", "[] (K A | L B)"]
                                 if len(names) == 2 else [])
    formulas = [t.parse(text) for text in texts]
    formulas += [t.random_formula(rng, names, 4) for _ in range(6)]
    for f in formulas:
        for g in t.subformulas(f):
            for U in map(t.space.from_mask, ev._frame.slots):
                row = ev.mask(U, g)
                for lane, (m, one, ref) in enumerate(zip(lanes, ones, refs)):
                    bits = row >> lane * w & (1 << w) - 1
                    if U in m.space.opens:
                        assert bits == one.mask(U, g)
                        assert (F(x for x in U if bits >> x & 1)
                                == ref.extension(U, g))
                    else:
                        assert bits == 0
        sat, fail = dict(hits(ev, f, True)), dict(hits(ev, f, False))
        for lane, (one, ref) in enumerate(zip(ones, refs)):
            assert sat.get(lane) == one.first_pair(f, True)
            assert fail.get(lane) == ref.find_counterexample(f)
    # K A holds on a 1-point lane exactly where A does, next to 4 points.
    ka = dict(hits(ev, t.parse("K A"), True))
    assert [lane in ka for lane, m in enumerate(lanes)
            if len(m.space.point_names) == 1] == [False, True] * 3


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
                assert ev.first_pair(f, False) == ref.find_counterexample(f)
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
    assert ev.first_pair(f, False) == (Pair(0, X) if odd else None)


def test_model_valid_axiom7_instance(m0):
    assert t.find_counterexample(m0, t.parse("K A -> A")) is None


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


def _template_substitutions(sid: int, rng: random.Random) -> list[dict]:
    """Seeded substitutions for a scheme over the atoms phi and psi, named
    like its metavariables: top and bot leaves, the metavariables swapped,
    and random formulas; atoms and constants only for scheme 2."""
    metavars = t.semantics.AXIOM_METAVARS[sid]
    leaves = [Atom("phi"), Atom("psi"), t.TOP, t.BOT]
    fixed = [dict(zip(metavars, [Atom("psi"), Atom("phi"), t.BOT])),
             dict.fromkeys(metavars, t.TOP), dict.fromkeys(metavars, t.BOT)]
    drawn = [{var: rng.choice(leaves) if sid == 2
              else t.random_formula(rng, ("phi", "psi"), 2)
              for var in metavars} for _ in range(8)]
    return fixed + drawn


def test_template_walk_matches_instance_walk():
    """A pass's row of a scheme's template under a substitution is the row
    of its instance, though the atoms share the metavariables' names, and
    its hits are the instance's; the walk keeps no row."""
    rng = random.Random(26)
    names = ["phi", "psi"]
    spaces = [s for n in (1, 2, 3) for s in t.enumerate_topologies(n)]
    passes = [*search_passes(spaces, names),
              *search_passes(t.enumerate_subset_spaces(3, 3), names)]
    # One pass each: 4 + 64 + 1,856 lanes, and the 29 spaces' 64 each.
    assert [firsts[-1] for _, _, firsts, _ in passes] == [1924, 29 * 64]
    walks = 0
    for sid, template in t.semantics._TEMPLATES.items():
        for subst in _template_substitutions(sid, rng):
            instance = t.instantiate_axiom(sid, subst)
            for *_, ev in passes:
                assert ev.row(template, subst) == ev.row(instance)
                for holds in (True, False):
                    assert (list(ev.hit_slots(template, holds, subst))
                            == list(ev.hit_slots(instance, holds)))
                    assert set(ev._rows) <= {instance}
                walks += 1
    assert walks == 12 * 11 * len(passes)


def test_model_evaluator_takes_no_substitution(m0):
    ev = t.Evaluator(m0)
    with pytest.raises(TypeError, match="takes no substitution"):
        list(ev.hit_slots(t.semantics._TEMPLATES[4], False,
                          {"phi": Atom("A")}))
    assert not ev._rows


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
        if t.find_counterexample(m, f) is None:
            assert t.find_counterexample(m, t.Knows(f)) is None
            assert t.find_counterexample(m, t.Box(f)) is None
            if t.find_counterexample(m, t.Implies(f, g)) is None:
                assert t.find_counterexample(m, g) is None


def test_atom_stability_under_effort():
    rng = random.Random(4)
    for _ in range(20):
        m = random_model(rng, 4)
        inst = t.instantiate_axiom(2, {"phi": Atom("A")})
        assert t.find_counterexample(m, inst) is None


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
    """Lane firsts[k] + v of a pass is valuation lo + v on group[k]: on
    that space's opens it holds the rows of the model's one-lane evaluator,
    at the pass's width, and on the pass's other slots 0.  The passes run
    over all topologies up to 3 points and the non-topologies the boundary
    search scans, every (space, valuation) once and in order, and each
    answers two formulas, a random one and a probe.  At the default cap a
    pass holds spaces of 1 to 3 points, each lane 4 bits wide; with 5 lanes
    a space spans several passes, a pass starts inside an atom's run of
    equal subsets, and on 2 points it spans more than B's period of 4."""
    monkeypatch.setattr(decide, "LANE_CAP", cap)
    rng = random.Random(37)
    names = ["A", "B"]
    spaces = [s for n in (1, 2, 3) for s in t.enumerate_topologies(n)]
    spaces += t.enumerate_subset_spaces(3, 4)
    probes = itertools.cycle(LANE_PROBES)
    seen = []  # (space, valuation) per lane, pass after pass
    mixed = 0  # passes over spaces of more than one point count
    for group, lo, firsts, ev in search_passes(spaces, names):
        w = ev._frame.width
        assert w == max(len(s.point_names) for s in group) + 1
        mixed += w > len(group[0].point_names) + 1
        slots = {U for s in group for U in s.opens}
        lanes = range(firsts[-1])
        models = [decide._lane_model(group, lo, firsts, names, lane)
                  for lane in lanes]
        seen += [(m.space, m.valuation) for m in models]
        ones = [t.Evaluator(m) for m in models]
        refs = [ReferenceEvaluator(m) for m in models]
        for f in (t.random_formula(rng, names, 4), next(probes)):
            for g in t.subformulas(f):
                for U in slots:
                    row = ev.mask(U, g)
                    for lane, m, one in zip(lanes, models, ones):
                        bits = row >> lane * w & (1 << w) - 1
                        assert bits == (one.mask(U, g)
                                        if U in m.space.opens else 0)
                for m, one, ref in zip(models, ones, refs):
                    for U in m.space.opens:
                        assert one.extension(U, g) == ref.extension(U, g)
            sat, fail = dict(hits(ev, f, True)), dict(hits(ev, f, False))
            for lane, one, ref in zip(lanes, ones, refs):
                assert sat.get(lane) == one.first_pair(f, True)
                assert fail.get(lane) == ref.find_counterexample(f)
    vals = {n: list(enumerate_valuations(n, names)) for n in (1, 2, 3)}
    expected = [(s, v) for s in spaces for v in vals[len(s.point_names)]]
    # At the default cap, one pass holds spaces of 1 to 3 points.
    assert mixed == (cap > 5)
    assert len(seen) == len(expected)
    assert all(a is s and b == v for (a, b), (s, v) in zip(seen, expected))


def _brute_covers(slots):
    """Each slot's maximal proper sub-slots, by brute force over pairs."""
    below = [[j for j, v in enumerate(slots) if v & ~u == 0 and v != u]
             for u in slots]
    return [[j for j in js if not any(j in below[k] for k in js)]
            for js in below]


def _classes(points):
    return [s for n in points for s in decide._representatives(n)]


def _subset_spaces(points):
    return [s for n in points for s in t.enumerate_subset_spaces(n, 4)]


def test_covers_are_the_hasse_diagram():
    """`PassFrame.covers[i]` lists the maximal proper sub-slots of slot i:
    on one-lane frames of random models on 1 to 9 points, on the frames of
    the passes over the classes on 1 to 4 points with one and two atoms,
    and on the boundary search's frames of subset spaces on 1 to 3 points
    with up to 4 opens."""
    rng = random.Random(22)
    frames = [t.Evaluator(random_model(rng, n))._frame
              for n in range(1, 10) for _ in range(8)]
    for spaces, names in ((_classes(range(1, 5)), ["A"]),
                          (_classes(range(1, 5)), ["A", "B"]),
                          (_subset_spaces((1, 2, 3)), []),
                          (_subset_spaces((1, 2, 3)), ["A"])):
        frames += [ev._frame for *_, ev in search_passes(spaces, names)]
    assert len(frames) > 100
    for frame in frames:
        assert [sorted(c) for c in frame.covers] == _brute_covers(frame.slots)
    assert any(len(c) > 2 for frame in frames for c in frame.covers)


# Formulas whose `[]` must pass a miss down more than one cover.
BOX_PROBES = ["[] [] A", "[] ~[] L A", "~[] (A & ~[] [] A)"]


@pytest.mark.parametrize("spaces, names, texts", [
    (lambda: _classes(range(1, 5)), ["A"], BOX_PROBES),
    (lambda: _classes(range(1, 4)), ["A", "B"],
     [*BOX_PROBES, "[] (A -> [] K B)", "[] (K A | [] ~B)"]),
    (lambda: _subset_spaces((1, 2, 3)), ["A"], [*BOX_PROBES, 11]),
    (lambda: _subset_spaces((1, 2)), ["A", "B", "C"], [12]),
], ids=["classes-A", "classes-AB", "subsets-A", "subsets-ABC"])
def test_box_matches_reference_lane_by_lane(spaces, names, texts):
    """`[]`-heavy formulas, and the boundary search's instances of schemes
    11 and 12, hold in every lane of a packed pass exactly where
    `ReferenceEvaluator` says they hold in that lane's model, and the
    slots that the lane's space lacks are 0.  Some lane's space lacks a
    cover of one of its opens, whose misses `[]` must still pass on."""
    formulas = [f for text in texts for f in (
        decide._boundary_instances(text)[1] if type(text) is int
        else [t.parse(text)])]
    rng = random.Random(23)
    for n in range(1, 10):  # one-lane frames
        m = random_model(rng, n, names)
        ev, ref = t.Evaluator(m), ReferenceEvaluator(m)
        for f in formulas:
            for U in m.space.opens:
                assert ev.extension(U, f) == ref.extension(U, f)
    lacking = 0  # lanes whose space lacks a cover of one of its opens
    for group, lo, firsts, ev in search_passes(spaces(), names):
        frame, w = ev._frame, ev._frame.width
        index = {t.space.from_mask(u): i for i, u in enumerate(frame.slots)}
        assert len(group) > 1
        for lane in range(firsts[-1]):
            m = decide._lane_model(group, lo, firsts, names, lane)
            ref, opens = ReferenceEvaluator(m), set(m.space.opens)
            lacking += any(frame.slots[c] not in m.space.masks
                           for U in opens for c in frame.covers[index[U]])
            for f in formulas:
                row = ev.row(f)
                for U, i in index.items():
                    bits = row[i] >> lane * w & (1 << w) - 1
                    assert bits == (to_mask(ref.extension(U, f))
                                    if U in opens else 0)
    assert lacking


@pytest.mark.parametrize("holds", [True, False])
def test_hits_match_per_lane_reference(monkeypatch, holds):
    """`hits` lists the lanes with a hit, ascending, each with its least
    pair, as a lane-by-lane scan does: on lanes of 2 to 6 bits, on passes
    where most lanes hit, on passes with a few hits far apart, and under a
    lane cap that starts passes inside a space's valuations.  A lane's
    points may span more than two bytes: on a 10-point pass whose lanes
    start at every bit of a byte, and on one-lane models of 9 to 30 points
    whose only hit is the highest point."""
    cases = [(list(t.enumerate_subset_spaces(3, 4)), ["A", "B"]),
             ([s for n in (1, 2) for s in t.enumerate_topologies(n)],
              ["A", "B"]),
             (list(t.enumerate_topologies(4))[::40], ["A", "B"]),
             (list(decide._representatives(5))[:6], ["A"]),
             # In the indiscrete space K A & K B holds in 1 lane of 256.
             ([t.make_space(["a", "b", "c", "d"], [F(), F(range(4))])],
              ["A", "B"]),
             ([t.make_space([str(x) for x in range(10)],
                            [F(), F({9}), F(range(5, 10)), F(range(10))])],
              ["A"])]
    texts = ["A", "~A", "A & B", "K A | L B", "[] (A | ~K B)",
             "A & ~B & K (A | B)", "K A & K B", "~(K A & K B)", "~A & K B",
             "K A", "[] ~A", "bot", "top"]
    dense = sparse = 0
    for cap in (decide.LANE_CAP, 5):
        monkeypatch.setattr(decide, "LANE_CAP", cap)
        for spaces, names in cases:
            formulas = [t.parse(text) for text in texts
                        if t.atoms(t.parse(text)) <= set(names)]
            for group, lo, firsts, ev in search_passes(spaces, names):
                lanes = firsts[-1]
                for f in formulas:
                    got = list(hits(ev, f, holds))
                    assert got == reference_hits(ev, f, holds, lanes)
                    dense += len(got) > lanes // 2
                    sparse += 0 < len(got) <= lanes // 8
    assert dense > 100 and sparse >= 2
    # A model's evaluator has one lane.
    m = t.make_model(list(t.enumerate_topologies(3))[7],
                     {"A": F({0}), "B": F({1, 2})})
    for text in texts:
        ev = t.Evaluator(m)
        assert (list(hits(ev, t.parse(text), holds))
                == reference_hits(ev, t.parse(text), holds, 1))
    A = t.parse("A")
    for n in (9, 16, 17, 24, 30):
        top = F(range(n))
        space = t.make_space([str(x) for x in range(n)], [F(), top])
        m = t.make_model(space, {"A": F({n - 1}) if holds
                                 else F(range(n - 1))})
        ev = t.Evaluator(m)
        assert list(hits(ev, A, holds)) == [(0, Pair(n - 1, top))]
        assert reference_hits(ev, A, holds, 1) == [(0, Pair(n - 1, top))]
        assert t.find_counterexample(m, A) is not None


def test_search_pass_keeps_only_asked_rows():
    """A search pass keeps no row: none is held while a walk reads an atom
    or after any call, and asked again, a formula is walked again and gets
    the same row and hits.  A model's evaluator keeps every row."""
    ka, f, g = t.parse("K A"), t.parse("K A -> [] K A"), t.parse("~K A & [] B")
    spaces, names = list(t.enumerate_topologies(3)), ("A", "B")
    held = []  # the rows a pass holds whenever a walk reads an atom

    class Atoms(dict):
        def get(self, name):
            held.append(set(ev._rows))
            return dict.get(self, name)

    for group, lo, count in decide._space_passes(spaces, names):
        frame = decide._new_frame(group, lo, count, names)  # not kept
        frame.atoms = Atoms(frame.atoms)
        ev = t.Evaluator(frame)
        first = list(hits(ev, f, False))
        assert not ev._rows
        list(hits(ev, g, True))
        assert not ev._rows
        top = ev.mask(group[0].opens[-1], ka)
        row = ev.row(ka)
        assert ev.mask(group[0].opens[-1], ka) == top and not ev._rows
        again = ev.row(ka)
        assert again == row and again is not row  # walked again, not held
        list(hits(ev, Not(ka), True))
        assert not ev._rows
        assert list(hits(ev, f, False)) == first
        assert not ev._rows
    assert held and not any(held)
    m = t.make_model(spaces[5], {"A": F({0}), "B": F({0, 1})})
    ev = t.Evaluator(m)
    ev.first_pair(f, False)
    assert set(ev._at) == set(t.subformulas(f))
    assert set(ev._rows) == set(ev._at.values())


@pytest.mark.parametrize("search_pass", [False, True])
def test_failed_walk_leaves_evaluator_consistent(search_pass):
    """An unknown atom ends a walk with SpaceError halfway: the evaluator
    keeps no row of the failed formula that is not whole, raises the same
    error when asked again, and then evaluates valid formulas as a fresh
    evaluator does.  A model's evaluator loses no row of an earlier
    formula; a search pass, which released its row first, holds none."""
    space = list(t.enumerate_topologies(3))[7]
    names = ["A", "B"]

    def fresh():
        if search_pass:
            return next(search_passes([space], names))[3]
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
            assert not ev._rows
        else:
            assert set(t.subformulas(ka)) <= set(ev._at)
            assert all(len(ev._rows.get(r, ())) == len(space.opens)
                       for r in ev._at.values())
    assert ev.mask(X3, ka) == before
    other = fresh()
    for U in space.opens:
        assert ev.mask(U, later) == other.mask(U, later)
    assert list(hits(ev, later, True)) == list(hits(other, later, True))
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


# Formulas that a program compiles with interned duplicate operands, `~`
# chains and every polarity of `&`, `K` and `[]`.
PROGRAM_TEXTS = ["A & A", "A & ~A", "~A & A", "~~A", "~A & ~A", "K A & K A",
                 "(A | B) & ~(A | B)", "~(A & ~B) & ~(~A & B)", "L ~A & <> ~B",
                 "K ~A | [] ~~B", "<> (A | B) -> L (A & B)", "~K ~K ~A",
                 "[] <> [] A -> <> [] <> ~A", "top & ~bot", "~top | bot"]


def _program_formulas(rng: random.Random) -> list:
    return ([t.parse(text) for text in PROGRAM_TEXTS]
            + [t.random_formula(rng, ("A", "B"), d) for d in (2, 3, 4, 5)
               for _ in range(6)])


def _plan_peak(f) -> int:
    """The most rows a walk in post-order holds that drops each row right
    after its last parent, as search passes walked before programs."""
    body = t.subformulas(f)
    last = {}
    for i, g in enumerate(body):
        for o in [getattr(g, k) for k in g.__match_args__ if k != "name"]:
            last[o] = i
    live, peak = set(), 0
    for i, g in enumerate(body):
        live.add(g)
        peak = max(peak, len(live))
        live -= {o for o, j in last.items() if j == i}
    return peak


def _program_peak(ops) -> int:
    """The most registers a program's run holds at once."""
    live, peak = set(), 0
    for op, dst, a, b, release in ops:
        live.add(dst)
        peak = max(peak, len(live))
        live -= {r for r, bit in ((a, 1), (b, 2)) if release & bit}
    return peak


def test_program_matches_reference_and_holds_no_more_rows():
    """Program rows equal `ReferenceEvaluator`'s, on model evaluators and on
    every lane of multi-space search passes, for formulas with interned
    duplicate operands, `~` chains and seeded random formulas; a program
    never holds more rows at once than the walk it replaced."""
    rng = random.Random(33)
    formulas = _program_formulas(rng)
    for f in formulas:
        assert _program_peak(t.semantics.program(f)[0]) <= _plan_peak(f)
    for n in range(1, 6):
        m = random_model(rng, n)
        ev, ref = t.Evaluator(m), ReferenceEvaluator(m)
        for f in formulas:
            for g in (f, *t.subformulas(f)):
                for U in m.space.opens:
                    assert ev.extension(U, g) == ref.extension(U, g)
    spaces = [*t.enumerate_subset_spaces(2, 3), *t.enumerate_topologies(3)]
    for group, lo, firsts, ev in search_passes(spaces, ["A", "B"]):
        w = ev._frame.width
        index = {t.space.from_mask(u): i for i, u in enumerate(ev._frame.slots)}
        for lane in range(0, firsts[-1], 7):
            m = decide._lane_model(group, lo, firsts, ["A", "B"], lane)
            ref = ReferenceEvaluator(m)
            for f in formulas:
                row = ev.row(f)
                for U in m.space.opens:
                    assert (row[index[U]] >> lane * w & (1 << w) - 1
                            == to_mask(ref.extension(U, f)))


def test_not_makes_no_op():
    """`~` compiles to no op, down a chain of 20,000, whose row is its
    atom's or that row's complement."""
    ka = t.parse("K A")
    assert len(t.semantics.program(t.parse("~~~~K A"))[0]) == len(
        t.semantics.program(ka)[0]) == 2
    space = list(t.enumerate_topologies(3))[7]
    m = t.make_model(space, {"A": F({0, 2})})
    (*_, search), = search_passes([space], ["A"])
    for depth in (20_000, 20_001):
        f = not_chain(depth)
        ops, out, neg, atoms = t.semantics.program(f)
        assert len(ops) == 1 and neg == depth % 2 and atoms == ("A",)
        for ev in (t.Evaluator(m), search):
            A = ev.row(Atom("A"))
            assert ev.row(f) == (A if not neg else [u ^ a for u, a in zip(
                ev._frame.masks, A)])
        assert (t.find_counterexample(m, f) is None) is (
            not neg and m.valuation["A"] == X)
    # A model's evaluator shares registers across formulas: after K A,
    # ~~~~K A & ~B adds B's and the &'s, and no op for any `~`.
    m = t.make_model(space, {"A": F({0, 2}), "B": F({1})})
    ev, ref = t.Evaluator(m), ReferenceEvaluator(m)
    ev.row(ka)
    held = set(ev._rows)
    f = t.parse("~~~~K A & ~B")
    ev.row(f)
    assert len(ev._rows) == len(held) + 2 and held < set(ev._rows)
    assert set(ev._rows) == set(ev._at.values())
    for g in t.subformulas(f):
        for U in space.opens:
            assert ev.extension(U, g) == ref.extension(U, g)
    assert len(ev._rows) == len(held) + 2


def test_model_evaluator_holds_one_register_per_op():
    """Asked the row of every subformula of a 2,000-deep `K []` chain, and
    then of each one's negation, a model's evaluator holds one register per
    subformula: a subformula asked again, or negated, reads the register it
    has, at a cost that does not grow with the formula."""
    space = list(t.enumerate_topologies(3))[7]
    ev = t.Evaluator(t.make_model(space, {"A": F({0}), "B": F({0, 1})}))
    body = t.subformulas(t.parse(knows_box_chain(2000)))
    assert not any(type(g) is Not for g in body)
    rows = [ev.row(g) for g in body]
    negated = [ev.row(Not(g)) for g in body]
    assert len(ev._rows) == len(body)
    assert all(neg == [u ^ r for u, r in zip(ev._frame.masks, row)]
               for row, neg in zip(rows, negated))


def test_template_program_matches_reference_lane_by_lane():
    """A scheme template run under a substitution holds in each lane of a
    pass exactly where `ReferenceEvaluator` says its instance holds."""
    rng = random.Random(34)
    spaces = list(t.enumerate_topologies(2))
    (group, lo, firsts, ev), = search_passes(spaces, ["phi", "psi"])
    w = ev._frame.width
    index = {t.space.from_mask(u): i for i, u in enumerate(ev._frame.slots)}
    for sid, template in t.semantics._TEMPLATES.items():
        for subst in _template_substitutions(sid, rng)[::3]:
            instance = t.instantiate_axiom(sid, subst)
            row = ev.row(template, subst)
            assert not ev._rows
            for lane in range(firsts[-1]):
                m = decide._lane_model(group, lo, firsts, ["phi", "psi"], lane)
                ref = ReferenceEvaluator(m)
                for U in m.space.opens:
                    assert (row[index[U]] >> lane * w & (1 << w) - 1
                            == to_mask(ref.extension(U, instance)))


@pytest.mark.parametrize("point, open_", [
    (0, 5), (0, None), ("a", {"a"}), (1.0, {1.0}), (None, F({0}))])
def test_pair_rejects_what_is_no_pair(point, open_):
    """A `Pair` with a non-container open or a non-int point is a
    SpaceError, not a raw TypeError."""
    with pytest.raises(t.SpaceError, match="not in open"):
        Pair(point, open_)
