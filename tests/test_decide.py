import hashlib
import random
import sys
import threading
from collections import Counter

import pytest

import topologic as t
from topologic.cli import main
from conftest import (ReferenceEvaluator, enumerate_closed_families,
                      enumerate_valuations, hits, homeomorphism_class,
                      reference_labeled_decide, reference_sweep,
                      search_passes)
from topologic.decide import (_BOUNDARY_SUBSTITUTIONS, _boundary_instances,
                              _first_hit, _representatives)

F = frozenset


def test_enumeration_counts_small():
    assert sum(1 for _ in t.enumerate_topologies(1)) == 1
    assert sum(1 for _ in t.enumerate_topologies(2)) == 4
    assert sum(1 for _ in t.enumerate_topologies(3)) == 29


def test_enumeration_matches_brute_force():
    for n in (1, 2, 3):
        preorder_route = Counter(s.opens for s in t.enumerate_topologies(n))
        brute = Counter(enumerate_closed_families(n))
        assert preorder_route == brute


def test_enumeration_exact_order():
    """The labeled order itself, not only the set of families: witnesses
    are the least hit in this order."""
    for n in (1, 2, 3, 4):
        assert (tuple(s.opens for s in t.enumerate_topologies(n))
                == enumerate_closed_families(n))


def test_enumeration_memo_shares_spaces():
    for n in (1, 3, 4):
        first = list(t.enumerate_topologies(n))
        again = list(t.enumerate_topologies(n))
        assert len(first) == len(again)
        assert all(a is b for a, b in zip(first, again))


def test_enumeration_five_points():
    spaces = list(t.enumerate_topologies(5))
    assert len(spaces) == 6942  # OEIS A000798
    assert len({s.opens for s in spaces}) == 6942
    assert all(t.is_topology(s) for s in spaces)


def test_enumeration_cap():
    with pytest.raises(t.SpaceError):
        list(t.enumerate_topologies(6))
    with pytest.raises(t.SpaceError):
        list(t.enumerate_topologies(0))


def test_enumeration_all_are_topologies():
    for n in (1, 2, 3):
        for s in t.enumerate_topologies(n):
            assert t.is_topology(s)


def test_representatives_counts_and_order():
    # One topology per homeomorphism class (OEIS A001930), an ordered
    # subsequence of the labeled spaces, starting with the first.
    counts = []
    for n in range(1, 6):
        position = {id(s): i for i, s in enumerate(t.enumerate_topologies(n))}
        indices = [position[id(s)] for s in _representatives(n)]
        assert indices == sorted(indices) and indices[0] == 0
        counts.append(len(indices))
    assert counts == [1, 3, 9, 33, 139]


def test_representatives_first_of_each_class():
    """The representatives are, as the very objects, the first labeled
    space of each homeomorphism class in labeled order, so each labeled
    space is homeomorphic to exactly one of them."""
    for n in (1, 2, 3, 4):
        first = {}
        for s in t.enumerate_topologies(n):
            first.setdefault(homeomorphism_class(s), s)
        reps = _representatives(n)
        assert len(reps) == len(first)
        assert all(a is b for a, b in zip(reps, first.values()))


def _random_search_formulas():
    """Seeded 2-atom formulas, and formulas whose least witness lies on
    2 to 4 points, some past the first labeled space, or that have none."""
    rng = random.Random(1407)
    texts = ["L (A & [] L ~A) & L (~A & <> K ~A)",
             "L (A & [] L ~A) & L (A & <> K A)",
             "L (A & B) & L (A & ~B) & L (~A & B)",
             "L (A & B) & L (A & ~B) & L (~A & B) & L (~A & ~B)",
             "L (A & B & [] L ~A) & L (A & B & <> K A) & L (~A & B) & L (~A & ~B)",
             "L (A & [] L ~A) & L (A & <> K A) & L (~A & <> K ~A) & L (~A & [] L A)",
             "K A & K B -> K (A & B)", "<> [] A -> [] <> A"]
    fixed = [t.parse(text) for text in texts]
    return (fixed + [t.Not(f) for f in fixed]
            + [t.random_formula(rng, ["A", "B"], rng.randint(2, 5))
               for _ in range(40)])


def test_reduced_search_matches_labeled():
    seen = Counter()
    for points in (3, 4):
        b = t.SearchBound(points, ("B", "A"))
        for f in _random_search_formulas():
            for decide, holds in ((t.decide_sat, True),
                                  (t.decide_valid, False)):
                v = decide(f, b)
                hit = reference_labeled_decide(f, b, holds)
                assert v.positive == ((hit is not None) == holds)
                assert (v.model, v.pair) == (hit if hit else (None, None))
                if v.model is None:
                    seen["none"] += 1
                else:
                    n = len(v.model.space.point_names)
                    seen[n] += 1
                    first = next(t.enumerate_topologies(n))
                    seen["past first"] += v.model.space is not first
    # Hits on 1 to 4 points, some past the first labeled space on their
    # count, and searches with none were all compared.
    assert all(seen[key] for key in (1, 2, 3, 4, "past first", "none"))


def test_searches_scan_representatives_only(monkeypatch):
    """Full scans and early hits alike lay out their passes over
    representatives only, never the labeled spaces."""
    reps = {id(s) for n in range(1, 5) for s in _representatives(n)}
    space_passes = t.decide._space_passes
    passed = []

    def spy(spaces, *args):
        def recorded():
            for s in spaces:
                passed.append(s)
                yield s
        return space_passes(recorded(), *args)

    monkeypatch.setattr(t.decide, "_space_passes", spy)
    b = t.SearchBound(4, ("A", "B"))
    searches = [lambda d=d, text=text: d(t.parse(text), b)
                for text in ("K A & K B -> K (A & B)",
                             "~(K A & K B -> K (A & B))",
                             "L (A & B) & L (A & ~B) & L (~A & B) & L (~A & ~B)")
                for d in (t.decide_valid, t.decide_sat)]
    searches.append(lambda: t.decide_valid(t.parse("<> K A -> K <> A"),
                                           t.SearchBound(4, ("A",))))
    for search in searches:
        t.decide._LAYOUTS.clear()  # so that each search lays out its passes
        search()
    # Each search draws the classes on 1 to 4 points in passes.  A space on
    # n points takes 2**(n*atoms) lanes, and spaces of at most 64 lanes
    # share a pass, whatever their point counts, up to 4096 lanes.  With
    # two atoms the 1 + 3 + 9 classes on 1 to 3 points (4, 16, 64 lanes
    # each, 628 in all) take one pass, and each of the 33 classes on 4
    # points (256 lanes) a pass of its own; with one atom the 46 classes
    # take 2 + 12 + 72 + 528 = 614 lanes, one pass.  A layout is built
    # whole: so each of the seven searches, whether it hits on one, two or
    # four points or scans fully, draws all 46 classes.
    assert len(passed) == 7 * (1 + 3 + 9 + 33)
    assert all(id(s) in reps for s in passed)


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
            decide(t.parse("A"), t.SearchBound(6, ("A",)))


def test_search_bound_rejects_reserved_atoms():
    """`top` and `bot` name constants, never atoms: a bound that lists one
    is rejected, as `make_model` rejects a valuation of one."""
    for name in ("top", "bot"):
        with pytest.raises(t.SpaceError, match=f"atom name '{name}' is reserved"):
            t.SearchBound(2, ("A", name))
        with pytest.raises(t.SpaceError, match=f"atom name '{name}' is reserved"):
            t.make_model(next(t.enumerate_topologies(1)), {name: F()})


def test_search_bound_rejects_non_atom_names():
    """A bound lists atoms only, so no witness is made over an operator or
    a name that parse cannot read."""
    for name in ("K", "A B", "", "[]"):
        with pytest.raises(t.SpaceError, match="is not an atom name"):
            t.SearchBound(1, ("A", name))
    assert t.SearchBound(1, ("A_1", "_b")).atoms == ("A_1", "_b")


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
            for val in enumerate_valuations(n, names):
                m = t.make_model(space, val)
                ev = ReferenceEvaluator(m)
                for p in t.pairs_in_order(m):
                    if ev.satisfies(p, f) == holds:
                        return m, p
    return None


def test_boundary_substitutions_match_constructors():
    # The substitution texts parse to the very nodes the constructors give.
    A, B, C = t.Atom("A"), t.Atom("B"), t.Atom("C")
    expected = {
        11: [{"phi": t.Knows(A)}, {"phi": t.Not(t.Knows(A))},
             {"phi": t.Not(t.Knows(t.Not(A)))}],
        12: [{"phi": phi, "psi": B, "chi": C}
             for phi in (A, t.Knows(A), t.Not(t.Knows(t.Not(A))))],
    }
    assert _BOUNDARY_SUBSTITUTIONS.keys() == expected.keys()
    for sid, substs in expected.items():
        assert len(_BOUNDARY_SUBSTITUTIONS[sid]) == len(substs)
        for got, want in zip(_BOUNDARY_SUBSTITUTIONS[sid], substs):
            assert got.keys() == want.keys()
            assert all(got[v] is want[v] for v in want)


def _reference_boundary(scheme_id, b, max_opens):
    for n in range(1, b.max_points + 1):
        for space in t.enumerate_subset_spaces(n, max_opens):
            for subst in _BOUNDARY_SUBSTITUTIONS[scheme_id]:
                instance = t.instantiate_axiom(scheme_id, subst)
                names = sorted(t.atoms(instance))
                for val in enumerate_valuations(n, names):
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
    (11, t.SearchBound(2, ()), 4),  # no hit
    (11, t.SearchBound(3, ()), 3),
    (11, t.SearchBound(3, ()), 1),  # X alone: no hit
    (12, t.SearchBound(2, ()), 5),
])
def test_boundary_order_matches_reference(scheme_id, bound, max_opens):
    assert (t.find_subset_space_countermodel(scheme_id, bound, max_opens)
            == _reference_boundary(scheme_id, bound, max_opens))


def _boundary_digest() -> str:
    """sha256 over schemes 11 and 12, 1 to 3 points and 2 to 5 opens of
    each boundary result: (opens, valuation, instance text, pair) or None."""
    h = hashlib.sha256()
    for sid in (11, 12):
        for n in (1, 2, 3):
            for max_opens in (2, 3, 4, 5):
                hit = t.find_subset_space_countermodel(
                    sid, t.SearchBound(n, ()), max_opens)
                row = None
                if hit is not None:
                    m, inst, p = hit
                    row = ([sorted(U) for U in m.space.opens],
                           sorted((a, sorted(s))
                                  for a, s in m.valuation.items()),
                           t.print_formula(inst), (p.point, sorted(p.open)))
                h.update(repr((sid, n, max_opens, row)).encode() + b"\n")
    return h.hexdigest()


def test_boundary_golden_hash():
    # Computed with the search that built one evaluator per (space,
    # substitution); a shared pass must report the same hits.
    assert _boundary_digest() == (
        "e131bcd7a43077bcce656909299d8779dcfca1d119fba3be7648140787358e41")


def _reference_least_failure(spaces, formulas, names):
    """The least (model, formula, pair) at which a formula fails, by space,
    formula and valuation, then pair: a plain loop, one
    `ReferenceEvaluator` per model."""
    for space in spaces:
        n = len(space.point_names)
        models = [t.make_model(space, val)
                  for val in enumerate_valuations(n, names)]
        evaluators = [ReferenceEvaluator(m) for m in models]
        for f in formulas:
            for m, ev in zip(models, evaluators):
                counter = ev.find_counterexample(f)
                if counter is not None:
                    return m, f, counter
    return None


# One-atom formulas and the (space, valuation) of their first failure over
# enumerate_subset_spaces(3, 4): see test_order_cases_fail_first_as_stated.
LATE = "<> [] K A -> [] <> K A"  # space 26, valuation 4
LATE_L = "<> [] L A -> [] <> L A"  # space 26, valuation 2
MIDDLE = "<> K A -> K A"  # space 2, valuation 1
ALL_A = "~K A"  # space 0, valuation 7
NOT_A = "[] A"  # space 0, valuation 0
VALID = "K A -> [] K A"  # none
FIRST_FAILURES = {LATE: (26, 4), LATE_L: (26, 2), MIDDLE: (2, 1),
                  ALL_A: (0, 7), NOT_A: (0, 0), VALID: None}


def test_order_cases_fail_first_as_stated():
    spaces = list(t.enumerate_subset_spaces(3, 4))
    valuations = list(enumerate_valuations(3, ["A"]))
    for text, where in FIRST_FAILURES.items():
        hit = _reference_least_failure(spaces, [t.parse(text)], ["A"])
        assert where == (hit and (spaces.index(hit[0].space),
                                  valuations.index(hit[0].valuation)))


@pytest.mark.parametrize("cap", [None, 1, 3])
@pytest.mark.parametrize("texts", [
    # A later formula fails in an earlier space: space comes first.
    [LATE, MIDDLE, "A"], [LATE, MIDDLE], [MIDDLE, LATE], [VALID, LATE],
    # Two formulas fail in one space, the later one at an earlier
    # valuation: the formula comes before the valuation.  With 1 or 3
    # lanes a pass, the two valuations lie in different passes.
    [LATE, LATE_L], [VALID, LATE_L, LATE], [VALID, LATE, LATE_L],
    [ALL_A, NOT_A], [VALID],
])
def test_first_hit_order_matches_reference(monkeypatch, cap, texts):
    if cap is not None:  # a space's 8 valuations span passes
        monkeypatch.setattr(t.decide, "LANE_CAP", cap)
    formulas = [t.parse(text) for text in texts]
    for spaces in (list(t.enumerate_subset_spaces(3, 4)),
                   [*t.enumerate_subset_spaces(2, 4),
                    *t.enumerate_subset_spaces(3, 4)]):
        assert (_first_hit(search_passes(spaces, ["A"]), ["A"], formulas,
                           False)
                == _reference_least_failure(spaces, formulas, ["A"]))


def test_first_hit_holds_one_asked_row(monkeypatch):
    """Each formula of a pass is asked with no row held, and a pass keeps
    none after it answers; asked again at once, a formula gets the same
    hits."""
    hit_slots = t.Evaluator.hit_slots
    asked = []
    last = {}  # evaluator -> the formula it was last asked

    def spy(ev, f, holds, subst=None):
        assert not ev._rows and subst is None
        found = list(hit_slots(ev, f, holds))
        assert list(hit_slots(ev, f, holds)) == found and not ev._rows
        asked.append(f)
        last[ev] = f
        return iter(found)

    monkeypatch.setattr(t.Evaluator, "hit_slots", spy)
    for sid in (11, 12):
        assert t.find_subset_space_countermodel(sid, t.SearchBound(3, ()))
    assert len(set(asked)) == 6
    assert last and not any(ev._rows for ev in last)


def test_sweep_pass_holds_one_row(monkeypatch):
    """A sweep asks each pass for every scheme's template under each of its
    substitutions in turn, and the pass holds no row after such a walk, so
    at most the row of the formula asked before; the report is the one of
    an unwatched sweep."""
    hit_slots = t.Evaluator.hit_slots
    asked: dict = {}  # evaluator -> (formula, substitution) asked, in order

    def spy(ev, f, holds, subst=None):
        done = asked.setdefault(ev, [])
        assert set(ev._rows) <= {f for f, s in done[-1:] if s is None}
        done.append((f, subst))
        return hit_slots(ev, f, holds, subst)

    b, spaces = t.SearchBound(3, ("A", "B")), list(t.enumerate_subset_spaces(3, 3))
    runs = [lambda: t.axiom_soundness_sweep(b, [11, 12], 4, 4, spaces=spaces),
            lambda: t.axiom_soundness_sweep(b, [3, 7, 8], 3, 1)]
    reports = [run() for run in runs]
    monkeypatch.setattr(t.Evaluator, "hit_slots", spy)
    assert [run() for run in runs] == reports
    assert reports[0].violations
    # One pass each: the 29 subset spaces of 64 lanes, and the 1 + 4 + 29
    # topologies on 1 to 3 points, 4 + 64 + 1,856 lanes in one pass.
    assert len(asked) == 2 and all(len(fs) in (8, 9) for fs in asked.values())
    assert all(f in t.semantics._TEMPLATES.values() and s is not None
               for fs in asked.values() for f, s in fs)
    assert not any(ev._rows for ev in asked)


def _mixed_searches():
    """Searches of every kind over different points, atoms and schemes."""
    formulas = [t.parse(text) for text in
                ("A & ~K B", "K A -> [] K A", "L A & L B & ~L (A & B)",
                 "<> [] A -> [] <> A")]
    subset = list(t.enumerate_subset_spaces(3, 3))
    calls = [lambda f=f, b=b, d=d: (lambda v: (v.kind, v.model, v.pair))(d(f, b))
             for f in formulas
             for b in (t.SearchBound(3, ("A", "B")), t.SearchBound(2, ("A", "B", "C")))
             for d in (t.decide_sat, t.decide_valid)]
    calls += [lambda: t.decide_valid(t.parse("K A -> A"),
                                     t.SearchBound(4, ("A",))).kind,
              lambda: t.find_subset_space_countermodel(11, t.SearchBound(3, ())),
              lambda: t.find_subset_space_countermodel(12, t.SearchBound(2, ())),
              lambda: t.axiom_soundness_sweep(t.SearchBound(3, ("A",)),
                                              [7, 11], 2, 1),
              lambda: t.axiom_soundness_sweep(t.SearchBound(2, ("A", "B")),
                                              [3, 8], 2, 2),
              lambda: t.axiom_soundness_sweep(t.SearchBound(3, ("A", "B")),
                                              [11, 12], 4, 4, spaces=subset)]
    return calls


def _held_frames() -> int:
    """The frames that the kept layouts hold."""
    return sum(frame is not None for layout in t.decide._LAYOUTS.values()
               for *_, frame in layout)


def test_kept_frames_change_no_result(monkeypatch):
    """Searches repeated and interleaved over kept layouts, at the default
    lane cap and at a patched one, return what they return when every
    layout is built afresh, and build no layout when repeated."""
    calls = _mixed_searches()
    fresh, built = {}, []
    walked = Counter()  # the passes walked, per lane cap
    passes, space_passes = t.decide._passes, t.decide._space_passes

    def walk(*args):
        for p in passes(*args):
            walked[t.decide.LANE_CAP] += 1
            yield p

    with pytest.MonkeyPatch.context() as spying:
        # Room for every layout at both caps: at 5 lanes a pass, each space
        # of more than 2 valuations passes alone, with a frame.
        spying.setattr(t.decide, "FRAME_CAP", 4096)
        spying.setattr(t.decide, "_passes", walk)
        spying.setattr(t.decide, "_space_passes",
                       lambda *args: built.append(args) or space_passes(*args))
        for cap in (None, 5):
            if cap is not None:
                monkeypatch.setattr(t.decide, "LANE_CAP", cap)
            for i, call in enumerate(calls):
                t.decide._LAYOUTS.clear()
                fresh[cap, i] = call()
            monkeypatch.undo()
        # At 5 lanes a pass, the searches walk more passes.
        assert walked[5] > walked[t.decide.LANE_CAP] > 0
        assert any(v.violations for v in fresh.values()
                   if isinstance(v, t.SweepReport))
        once = dict(walked)
        walked.clear()
        order = [(cap, i) for i in range(len(calls)) for cap in (None, 5)]
        for k, run in enumerate((order, order[::-1], order)):
            for cap, i in run:
                if cap is not None:
                    monkeypatch.setattr(t.decide, "LANE_CAP", cap)
                assert calls[i]() == fresh[cap, i]
                monkeypatch.undo()
            if k == 0:  # each search has laid out its passes once
                built.clear()
        assert not built and _held_frames() <= t.decide.FRAME_CAP
        # Each search walked the passes of its own lane cap's layout.
        assert walked == {cap: 3 * n for cap, n in once.items()}


def test_threads_share_layouts():
    """Searches in four threads at once, each over its own atom, so that
    the memo is full and most searches evict a layout, all return their
    verdict: no thread breaks another's eviction."""
    # Built here and held: the threads build and free no formula.
    searches = [(t.parse(f"K P{i} -> P{i}"), t.SearchBound(2, (f"P{i}",)))
                for i in range(300)]
    wrong, errors = [], []

    def worker(shift):
        try:
            for i in range(900):
                f, b = searches[(i + shift) % 300]
                if not t.decide_valid(f, b).positive:
                    wrong.append(b)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(37 * k,))
                   for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors and not wrong
    # Threads that insert at once may each keep one layout past the bound.
    assert len(t.decide._LAYOUTS) <= t.decide.FRAME_CAP + 3


def test_passes_start_with_no_rows():
    """Each evaluator of a pass starts with no rows and keeps none, also
    over a kept frame that an earlier evaluator ran."""
    f, g = t.parse("K A -> [] K A"), t.parse("~K A & [] B")
    spaces = tuple(t.enumerate_topologies(3))

    def passes():
        return t.decide._passes(spaces, spaces, ("A", "B"))

    first = []
    for group, lo, count, ev in passes():
        assert not ev._rows
        list(hits(ev, f, False))
        ev.mask(group[0].opens[-1], g)
        assert not ev._rows
        first.append(ev)
    for k, (group, lo, count, ev) in enumerate(passes()):
        assert not ev._rows
        assert ev is not first[k] and ev._frame is first[k]._frame
        assert list(hits(ev, f, False)) == list(hits(first[k], f, False))


def test_warm_search_builds_nothing(monkeypatch):
    """A search repeated with the same bound reads its kept layout: it
    builds no layout and no frame, and returns an equal verdict or hit.
    A search over other atoms or another point run builds its own."""
    built = Counter()
    for name in ("_space_passes", "_new_frame"):
        real = getattr(t.decide, name)
        monkeypatch.setattr(t.decide, name, lambda *args, real=real, name=name:
                            built.update([name]) or real(*args))
    b = t.SearchBound(3, ("A",))
    searches = [
        lambda: t.decide_valid(t.parse("K A -> A"), b),
        lambda: t.decide_valid(t.parse("A -> K A"), b),
        lambda: t.decide_sat(t.parse("A & ~K A"), b),
        lambda: t.decide_sat(t.parse("K A & ~A"), b),
        lambda: t.find_subset_space_countermodel(11, t.SearchBound(3, ())),
        # Spaces of more than 64 valuations, each passing alone.
        lambda: t.decide_valid(t.parse("K A & K B -> K (A & B)"),
                               t.SearchBound(4, ("A", "B"))),
        lambda: t.decide_valid(t.parse("K A -> A"),
                               t.SearchBound(3, ("A", "B", "C")))]
    t.decide._LAYOUTS.clear()
    first = [search() for search in searches]
    # One frame a pass: one pass each for the one-atom searches, 1 + 33
    # with two atoms to 4 points and 1 + 9 with three atoms to 3 points.
    assert built["_space_passes"] == 4
    assert built["_new_frame"] == 1 + 1 + 34 + 10
    assert {v.kind for v in first[:4]} == {
        t.VerdictKind.VALID_WITHIN_BOUND, t.VerdictKind.INVALID,
        t.VerdictKind.SATISFIABLE, t.VerdictKind.NO_MODEL_WITHIN_BOUND}
    assert first[4] is not None
    assert first[5].positive and first[6].positive
    built.clear()
    for search, before in zip(searches, first):
        got = search()
        assert (got == before if isinstance(got, tuple) else
                (got.kind, got.model, got.pair)
                == (before.kind, before.model, before.pair))
    assert not built
    # Other atoms, and another point run, lay out their own passes.
    t.decide_valid(t.parse("K A -> A"), t.SearchBound(3, ("A", "B")))
    assert built["_space_passes"] == 1
    t.decide_valid(t.parse("K A -> A"), t.SearchBound(2, ("A",)))
    assert built["_space_passes"] == 2


def test_frame_memo_stays_bounded(monkeypatch):
    """The kept layouts hold at most FRAME_CAP frames: a layout keeps the
    frames of its first FRAME_CAP passes, packed or passing one space
    alone, and the least recently used layouts are evicted whole."""
    memo = t.decide._LAYOUTS
    memo.clear()
    f = t.parse("K A & K B -> K (A & B)")
    assert t.decide_valid(f, t.SearchBound(5, ("A", "B"))).positive
    # The 13 classes on 1 to 3 points share a pass, and the 33 on 4 points
    # pass alone: 34 frames.  Each of the 139 classes on 5 points passes
    # alone, so their layout keeps its first 64 frames, and the layout to 4
    # points is evicted to make room.
    (layout,) = memo.values()
    assert len(layout) == 139 and _held_frames() == t.decide.FRAME_CAP
    # On one atom, the 46 classes on 1 to 4 points share one pass, and 128
    # of the 139 classes on 5 points another, the other 11 a third: all
    # kept, and the two-atom layout evicted.
    assert t.decide_valid(t.parse("K A -> A"), t.SearchBound(5, ("A",))).positive
    assert len(memo) == 2 and _held_frames() == 1 + 2
    # The largest searches of the CLI and the benchmark, in one process.
    assert main(["axioms", "--enumerate", "5", "--trials", "2"]) == 0
    assert 40 < _held_frames() <= t.decide.FRAME_CAP
    assert t.decide_valid(t.parse("K A -> A"), t.SearchBound(5, ("A",))).positive
    assert t.find_subset_space_countermodel(11, t.SearchBound(4, ()))
    assert _held_frames() <= t.decide.FRAME_CAP
    # Whole layouts go, least recently used first: each of these three
    # searches keeps one frame, and the first is used again before the
    # third is laid out.
    monkeypatch.setattr(t.decide, "FRAME_CAP", 2)
    memo.clear()
    keys = []
    for atoms in (("A",), ("A", "B"), ("A",), ("B",)):
        t.decide_valid(t.parse("K A -> A" if atoms != ("B",) else "K B -> B"),
                       t.SearchBound(3, atoms))
        keys.append(next(reversed(memo)))
    assert list(memo) == [keys[0], keys[3]] and _held_frames() == 2
    # A layout of more passes than FRAME_CAP keeps the first FRAME_CAP
    # frames, and its other passes build theirs per search.  At
    # 64 lanes a pass, the 34 topologies on 1 to 3 points take 4 passes.
    # Scheme 7 is replaced by the unsound phi -> K phi, so that the
    # reports hold violations.
    monkeypatch.setitem(t.semantics._TEMPLATES, 7, t.parse("phi -> K phi"))
    b = t.SearchBound(3, ("A",))
    want = t.axiom_soundness_sweep(b, [7, 11], 3, 5)
    assert want.violations
    monkeypatch.setattr(t.decide, "LANE_CAP", 64)
    memo.clear()
    for _ in range(2):
        assert t.axiom_soundness_sweep(b, [7, 11], 3, 5) == want
        layout, = memo.values()
        assert _held_frames() == 2 and len(layout) == 4


def test_layout_builds_each_frame_once(monkeypatch):
    """A layout of more passes than FRAME_CAP builds each frame as its
    pass is walked: on a first run, one frame per pass.  It keeps the
    frames of its first FRAME_CAP passes, and a warm run builds each
    other one again."""
    spaces = list(t.enumerate_topologies(3))
    b = t.SearchBound(3, ("A",))
    want = t.axiom_soundness_sweep(b, [7, 11], 3, 5, spaces=spaces)
    monkeypatch.setattr(t.decide, "FRAME_CAP", 2)
    monkeypatch.setattr(t.decide, "LANE_CAP", 64)  # 8 spaces a pass
    built = []
    new_frame = t.decide._new_frame
    monkeypatch.setattr(t.decide, "_new_frame",
                        lambda *args: built.append(args) or new_frame(*args))
    t.decide._LAYOUTS.clear()
    assert t.axiom_soundness_sweep(b, [7, 11], 3, 5, spaces=spaces) == want
    layout, = t.decide._LAYOUTS.values()
    assert _held_frames() == 2 and len(layout) == len(built) == 4
    built.clear()  # a warm run builds the frames that were not kept
    assert t.axiom_soundness_sweep(b, [7, 11], 3, 5, spaces=spaces) == want
    assert len(built) == 2


def test_boundary_instances_share_atoms_and_are_kept(monkeypatch):
    for sid, names in ((11, ("A",)), (12, ("A", "B", "C"))):
        got_names, instances = _boundary_instances(sid)
        assert tuple(got_names) == names
        assert all(t.atoms(f) == set(names) for f in instances)
        assert _boundary_instances(sid)[1] is instances
    # Instances that differ in atoms cannot share passes.
    monkeypatch.setitem(_BOUNDARY_SUBSTITUTIONS, 7,
                        [{"phi": t.Atom("A")}, {"phi": t.Atom("B")}])
    with pytest.raises(t.InternalError, match="differ in atoms"):
        t.find_subset_space_countermodel(7, t.SearchBound(1, ()))


def _cold_search_memos():
    """Empty the memos of spaces and pass layouts, as in a new process."""
    for memo in (t.decide._topologies, t.decide._representatives):
        memo.cache_clear()
    t.decide._LAYOUTS.clear()


@pytest.mark.parametrize("search", [
    lambda: t.decide_sat(t.parse("A & ~K A"), t.SearchBound(4, ("A", "B"))),
    lambda: t.decide_valid(t.parse("[] (A -> K B) -> <> L A"),
                           t.SearchBound(4, ("A", "B"))),
])
def test_early_hit_builds_only_its_pass_frame(monkeypatch, search):
    """A search builds a pass's frame when it first walks the pass: with
    the memo cleared, a hit in the first of the 34 passes of two atoms to
    4 points builds one frame, and a warm repeat builds none."""
    built = []
    new_frame = t.decide._new_frame
    monkeypatch.setattr(t.decide, "_new_frame",
                        lambda *args: built.append(args) or new_frame(*args))
    t.decide._LAYOUTS.clear()
    verdict = search()
    assert verdict.model is not None
    layout, = t.decide._LAYOUTS.values()
    assert len(layout) == 34 and len(built) == _held_frames() == 1
    assert search() == verdict and len(built) == 1


def test_cold_searches_make_no_views():
    """Cold searches read masks only: no space that a full scan to 4
    points or a boundary search scans, and no frame they keep, makes its
    frozenset view, though each search ends with a hit or a verdict."""
    _cold_search_memos()
    verdict = t.decide_valid(t.parse("K A -> A"), t.SearchBound(4, ("A",)))
    assert verdict.kind is t.VerdictKind.VALID_WITHIN_BOUND
    assert t.find_subset_space_countermodel(
        11, t.SearchBound(3, ())) is not None
    # The labeled spaces, then the kept layouts' classes and subset spaces.
    kept = [p for layout in t.decide._LAYOUTS.values() for p in layout]
    spaces = [s for n in range(1, 5) for s in t.decide._topologies(n)]
    spaces += [s for group, *_ in kept for s in group]
    frames = [frame for *_, frame in kept]
    assert len(spaces) == 1 + 4 + 29 + 355 + 46 + 2 + 8 + 64
    assert len(frames) == 2
    assert not [s for s in spaces if "opens" in vars(s)]
    # A frame keeps ints, and lists and maps of them: no point set.
    assert not [f for f in frames if "frozenset" in repr(vars(f))]


@pytest.mark.parametrize("search", [
    lambda: t.decide_valid(t.parse("A -> K A"), t.SearchBound(3, ("A",))),
    lambda: t.decide_sat(t.parse("A & ~K A"), t.SearchBound(4, ("A", "B"))),
    lambda: t.find_subset_space_countermodel(11, t.SearchBound(3, ())),
])
def test_search_with_hit_makes_only_its_witness_point_sets(monkeypatch,
                                                          search):
    """A cold search with a hit makes the point sets of its witness only:
    the pair's open and the valuation of its model, once, though each of
    the boundary search's three instances hits."""
    made = []
    real = t.space.from_mask
    # decide imports no from_mask; should it import one, its calls count.
    for module in (t.space, t.semantics, t.decide):
        monkeypatch.setattr(module, "from_mask",
                            lambda u: made.append(u) or real(u), raising=False)
    _cold_search_memos()
    hit = search()
    model, pair = (hit.model, hit.pair) if isinstance(hit, t.Verdict) else (
        hit[0], hit[2])
    assert pair is not None
    witness = [t.space.to_mask(S) for S in (pair.open,
                                            *model.valuation.values())]
    assert set(made) == set(witness)
    assert len(made) == len(witness)


def test_boundary_search_checks_bounds_first(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated before checking the bounds")
    monkeypatch.setattr(t.decide, "enumerate_subset_spaces", no_enumeration)
    with pytest.raises(t.SpaceError, match="point bound 6 exceeds the cap 5"):
        t.find_subset_space_countermodel(11, t.SearchBound(6, ()))
    for max_opens in (0, -1):
        with pytest.raises(t.SpaceError, match="open bound must be at least"):
            t.find_subset_space_countermodel(12, t.SearchBound(2, ()),
                                             max_opens)


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
        for val in enumerate_valuations(len(space.point_names), atom_names):
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


@pytest.mark.parametrize("bound, schemes, trials, seed, spaces, count", [
    # Every scheme over atoms named like the metavariables, on topologies
    # and on subset spaces.
    ((3, ("phi", "psi")), range(1, 13), 3, 2, None, 0),
    ((3, ("psi", "chi", "phi")), range(1, 13), 5, 7, "subsets", 576),
    ((3, ("A", "B")), [11, 12], 4, 4, "subsets", 96),
    # "unsound" puts the unsound phi -> K phi in place of scheme 7.
    ((3, ("phi",)), [7, 1], 30, 3, "unsound", 728),
    ((3, ("psi", "phi")), [7, 1, 12], 10, 5, "unsound subsets", 5568),
])
def test_sweep_matches_reference_sweep(monkeypatch, bound, schemes, trials,
                                       seed, spaces, count):
    """A sweep, which walks each scheme's template under its substitutions,
    reports what the sweep that builds every instance reports: the counts,
    and the violations in order, each with its instance, model and pair."""
    if "unsound" in (spaces or ""):
        monkeypatch.setitem(t.semantics._TEMPLATES, 7,
                            t.parse("phi -> K phi"))
    spaces = (list(t.enumerate_subset_spaces(3, 3))
              if "subsets" in (spaces or "") else None)
    b = t.SearchBound(*bound)
    report = t.axiom_soundness_sweep(b, list(schemes), trials, seed, spaces)
    assert report == reference_sweep(b, list(schemes), trials, seed, spaces)
    assert len(report.violations) == count


def test_sweep_walks_equal_draws_once(monkeypatch):
    """Draws of one scheme with the same formulas share one walk per pass,
    and each still counts and reports: scheme 2's five draws over one atom
    are all A, and two of the unsound phi -> K phi's five are equal."""
    monkeypatch.setitem(t.semantics._TEMPLATES, 7, t.parse("phi -> K phi"))
    b = t.SearchBound(3, ("A",))
    hit_slots, walked = t.Evaluator.hit_slots, Counter()

    def spy(ev, f, holds, subst=None):
        walked[ev, f, *subst.values()] += 1
        return hit_slots(ev, f, holds, subst)

    expected = reference_sweep(b, [2, 7], 5, 5)
    monkeypatch.setattr(t.Evaluator, "hit_slots", spy)
    report = t.axiom_soundness_sweep(b, [2, 7], 5, 5)
    assert report == expected
    assert set(walked.values()) == {1}
    assert len({ev for ev, *_ in walked}) == 1  # one pass
    # One walk for scheme 2 and four for scheme 7, over 2 + 16 + 232 lanes.
    assert len(walked) == 1 + 4 and report.checked == {2: 1250, 7: 1250}
    assert len(report.violations) == 546


@pytest.mark.parametrize("cap", [None, 64])
def test_mixed_sweep_matches_sweeps_per_point_count(monkeypatch, cap):
    """A sweep over supplied spaces of 1 to 3 points, which share passes,
    reports the same counts, and the same violations in the same order, as
    one sweep per point count, concatenated.  Scheme 7 is replaced by the
    unsound phi -> K phi, which fails from 2 points on (on one point, K phi
    is phi).  With 64 lanes
    a pass, 3-point spaces pass 8 to a pass, after the 2-point ones."""
    if cap is not None:
        monkeypatch.setattr(t.decide, "LANE_CAP", cap)
    monkeypatch.setitem(t.semantics._TEMPLATES, 7, t.parse("phi -> K phi"))
    b = t.SearchBound(3, ("A",))
    runs = [list(t.enumerate_topologies(1)),
            [*t.enumerate_topologies(2), *t.enumerate_subset_spaces(2, 3)],
            [*t.enumerate_topologies(3)][::3] + [
                *t.enumerate_subset_spaces(3, 3)][::5]]
    mixed = t.axiom_soundness_sweep(b, [7, 11], 3, 5,
                                    spaces=[s for run in runs for s in run])
    apart = [t.axiom_soundness_sweep(b, [7, 11], 3, 5, spaces=run)
             for run in runs]
    assert mixed.checked == {sid: sum(r.checked[sid] for r in apart)
                             for sid in (7, 11)}
    assert mixed.violations == [v for r in apart for v in r.violations]
    assert all(r.violations for r in apart[1:])


def test_search_below_cap_builds_no_space_at_cap(monkeypatch):
    """A search whose hit lies below HARD_POINT_CAP asks for no space on
    the cap, and reports the hit it reports under a lower bound."""
    asked = []

    def spy(memo):
        def counted(n, *args):
            asked.append(n)
            return memo(n, *args)
        return counted

    for name in ("_representatives", "enumerate_subset_spaces"):
        monkeypatch.setattr(t.decide, name, spy(getattr(t.decide, name)))
    v = t.decide_sat(t.parse("A"), t.SearchBound(5, ("A",)))
    one = next(t.enumerate_topologies(1))
    assert (v.kind, v.model, v.pair) == (
        "satisfiable", t.make_model(one, {"A": F({0})}), t.Pair(0, F({0})))
    hit = t.find_subset_space_countermodel(11, t.SearchBound(5, ()))
    assert hit == t.find_subset_space_countermodel(11, t.SearchBound(3, ()))
    assert len(hit[0].space.point_names) == 3
    assert asked and max(asked) == 4


def test_decide_valid_four_points_two_atoms():
    v = t.decide_valid(t.parse("K A & K B -> K (A & B)"),
                       t.SearchBound(4, ("A", "B")))
    assert v.kind == "valid_within_bound"


def test_decide_valid_five_points_two_atoms():
    v = t.decide_valid(t.parse("K A & K B -> K (A & B)"),
                       t.SearchBound(5, ("A", "B")))
    assert v.kind == "valid_within_bound"


def test_decide_sat_witness_same_at_five_points():
    f = t.parse("A & ~K A")
    v2 = t.decide_sat(f, t.SearchBound(2, ("A",)))
    v5 = t.decide_sat(f, t.SearchBound(5, ("A",)))
    assert v5.kind == v2.kind == "satisfiable"
    assert v5.model == v2.model and v5.pair == v2.pair


def test_sweep_clean_on_topologies():
    b = t.SearchBound(2, ("A",))
    report = t.axiom_soundness_sweep(b, list(range(1, 13)), trials=5, seed=0)
    assert report.clean
    assert all(count > 0 for count in report.checked.values())


def test_sweep_rejects_bound_above_cap_at_once(monkeypatch):
    """The sweep checks its point bound before it enumerates anything."""
    def no_enumeration(n):
        raise AssertionError("enumerated before checking the bound")
    monkeypatch.setattr(t.decide, "enumerate_topologies", no_enumeration)
    with pytest.raises(t.SpaceError, match="point bound 9 exceeds the cap 5"):
        t.axiom_soundness_sweep(t.SearchBound(9, ("A",)), [4], 1, 0)


def test_boundary_search_rejects_other_schemes():
    with pytest.raises(t.SpaceError, match="schemes 11 and 12 only"):
        t.find_subset_space_countermodel(4, t.SearchBound(2, ()))


def test_sweep_deterministic():
    b = t.SearchBound(2, ("A",))
    r1 = t.axiom_soundness_sweep(b, [11, 12], trials=5, seed=3)
    r2 = t.axiom_soundness_sweep(b, [11, 12], trials=5, seed=3)
    assert r1.checked == r2.checked and r1.clean == r2.clean


def test_scheme4_valid_on_every_small_model():
    inst = t.instantiate_axiom(4, {"phi": t.Atom("A")})
    for n in (1, 2):
        for space in t.enumerate_topologies(n):
            for val in enumerate_valuations(n, ["A"]):
                m = t.make_model(space, val)
                assert t.find_counterexample(m, inst) is None


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


def test_warm_layout_hit_hashes_no_space(monkeypatch):
    """A search whose layout is the most recent one finds it with no hash
    of its key, so a repeated sweep over supplied spaces hashes no space;
    another layout between them costs one hash of each space per lookup."""
    spaces = tuple(t.enumerate_subset_spaces(2, 3))
    b = t.SearchBound(2, ("A",))

    def sweep():
        return t.axiom_soundness_sweep(b, [4], 2, 9, spaces=spaces)

    report = sweep()
    hashes = []
    space_hash = t.SubsetSpace.__hash__
    monkeypatch.setattr(t.SubsetSpace, "__hash__",
                        lambda s: hashes.append(s) or space_hash(s))
    assert sweep() == report and not hashes
    assert t.decide_valid(t.parse("K A -> A"), b).positive
    assert sweep() == report and len(hashes) == 2 * len(spaces)
    assert next(reversed(t.decide._LAYOUTS))[0] == spaces
