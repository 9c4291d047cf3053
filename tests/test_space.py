import copy
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import topologic as t
from topologic.space import from_mask, set_key, space_from_masks
from conftest import (ReferenceEvaluator, generate_topology, random_model,
                      random_topology, reference_basis_equivalent,
                      reference_classify, reference_closure_family,
                      reference_close_under_intersection,
                      reference_close_under_union, reference_closure_flags,
                      reference_interior, reference_is_stable)

F = frozenset
X = F({0, 1, 2})


def test_make_space_m0_is_topology(m0_space):
    assert t.is_topology(m0_space)
    assert m0_space.is_intersection_closed and m0_space.is_union_closed


def test_make_space_minimal():
    s = t.make_space(["x0"], [F({0})])
    assert s.opens == (F({0}),)
    assert not t.is_topology(s)  # empty set missing


def test_make_space_rejects_missing_x():
    with pytest.raises(t.SpaceError):
        t.make_space(["x0", "x1"], [F({0})])


def test_make_space_rejects_duplicate_names():
    with pytest.raises(t.SpaceError, match="^duplicate point names$"):
        t.make_space(["x0", "x1", "x0"], [F({0, 1, 2})])


def test_make_space_rejects_out_of_range():
    with pytest.raises(t.SpaceError):
        t.make_space(["x0"], [F({0}), F({1})])
    for bad in (F({-1}), F({0, 5})):
        with pytest.raises(t.SpaceError, match="out-of-range"):
            t.make_space(["x0", "x1"], [bad, F({0, 1})])


def test_is_topology_missing_intersection():
    s = t.make_space(["x0", "x1", "x2"], [F(), X, F({0, 1}), F({0, 2})])
    assert not t.is_topology(s)


def test_is_topology_indiscrete():
    s = t.make_space(["x0", "x1"], [F(), F({0, 1})])
    assert t.is_topology(s)


def test_generate_topology_two_sets():
    s = generate_topology([F({0, 1}), F({0, 2})], ["x0", "x1", "x2"])
    assert set(s.opens) == {F(), F({0}), F({0, 1}), F({0, 2}), X}
    assert t.is_topology(s)


def test_generate_topology_empty_subbasis():
    s = generate_topology([], ["x0", "x1"])
    assert set(s.opens) == {F(), F({0, 1})}


def test_generate_topology_discrete():
    s = generate_topology([F({i}) for i in range(3)], ["x0", "x1", "x2"])
    assert len(s.opens) == 8


def test_interior(m0_space):
    assert t.interior(m0_space, F({0, 1})) == F({0, 1})
    assert t.interior(m0_space, F({1, 2})) == F()
    assert t.interior(m0_space, F({0, 2})) == F({0})


def test_interior_requires_topology():
    s = t.make_space(["x0", "x1"], [F({0}), F({0, 1})])
    with pytest.raises(t.SpaceError):
        t.interior(s, F({0}))


def test_interior_properties():
    rng = random.Random(7)
    for _ in range(20):
        s = random_topology(rng, 4)
        universe = s.universe
        for _ in range(10):
            raw = frozenset(i for i in universe if rng.random() < 0.5)
            i1 = t.interior(s, raw)
            assert i1 <= raw
            assert i1 in s.opens
            assert t.interior(s, i1) == i1
            assert (i1 == raw) == (raw in s.opens)


def test_heyting_implication(m0_space):
    assert t.heyting_implication(m0_space, F({0, 1}), F({0})) == F({0})
    assert t.heyting_implication(m0_space, F({0, 1}), F({0, 1})) == X
    assert t.heyting_implication(m0_space, X, F()) == F()


def test_heyting_rejects_non_open(m0_space):
    with pytest.raises(t.SpaceError):
        t.heyting_implication(m0_space, F({1}), F({0}))


def test_heyting_residuation_law():
    rng = random.Random(3)
    for _ in range(15):
        s = random_topology(rng, 4)
        for U in s.opens:
            for W in s.opens:
                imp = t.heyting_implication(s, U, W)
                for V in s.opens:
                    assert (V <= imp) == (V & U <= W)


def test_close_under_intersection():
    fam = t.close_under_intersection([F({0, 1}), F({0, 2})])
    assert set(fam) == {F({0}), F({0, 1}), F({0, 2})}


def test_close_under_intersection_chain():
    chain = [F({0}), F({0, 1}), X]
    assert set(t.close_under_intersection(chain)) == set(chain)


def test_close_under_intersection_empty():
    assert t.close_under_intersection([]) == ()


def test_close_under_intersection_idempotent_extensive():
    rng = random.Random(11)
    for _ in range(25):
        fam = [frozenset(i for i in range(4) if rng.random() < 0.5)
               for _ in range(rng.randint(0, 5))]
        closed = t.close_under_intersection(fam)
        assert set(fam) <= set(closed)
        assert t.close_under_intersection(closed) == closed
        assert all(a & b in closed for a in closed for b in closed)
        assert len(closed) <= 2 ** len(fam) if fam else True


def test_closure_family_m0(m0):
    fam, open_part = reference_closure_family(m0, ["A"])
    assert {F(), F({0}), F({1, 2}), X} <= set(fam)
    assert set(open_part) == {F(), F({0}), X}


def test_closure_family_no_atoms(m0):
    fam, open_part = reference_closure_family(m0, [])
    assert set(fam) == {F(), X}
    assert set(open_part) == {F(), X}


def test_closure_family_discrete_boolean():
    s = generate_topology([F({i}) for i in range(3)], ["x0", "x1", "x2"])
    m = t.make_model(s, {"A": F({0})})
    fam, open_part = reference_closure_family(m, ["A"])
    assert set(fam) == {F(), F({0}), F({1, 2}), X}
    assert set(open_part) == set(fam)  # discrete: everything open


def test_closure_family_closed_under_generators():
    rng = random.Random(5)
    for _ in range(15):
        m = random_model(rng, 4)
        fam, open_part = reference_closure_family(m, sorted(m.valuation))
        fam = set(fam)
        universe = m.space.universe
        for a in fam:
            assert universe - a in fam
            assert t.interior(m.space, a) in fam
            for b in fam:
                assert a & b in fam
        assert set(open_part) == fam & set(m.space.opens)


def test_make_space_mask_flags_match_reference():
    # make_space's closure flags are computed on bitmasks; the frozenset
    # code they replaced must agree on random families, closed or not.
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 5)
        universe = F(range(n))
        fam = [F(i for i in range(n) if rng.random() < 0.5)
               for _ in range(rng.randint(0, 6))]
        space = t.make_space([f"x{i}" for i in range(n)], fam + [universe])
        assert ((space.is_intersection_closed, space.is_union_closed)
                == reference_closure_flags(space.opens))
        assert space.masks == tuple(sum(1 << x for x in U)
                                    for U in space.opens)


def test_closures_match_reference():
    # The single-pass closures against the parent's fixpoints, on families
    # of 0-8 members over 1-6 points, with repeats, the empty family too.
    rng = random.Random(29)
    sizes = set()
    for _ in range(400):
        n = rng.randint(1, 6)
        fam = [F(i for i in range(n) if rng.random() < 0.4)
               for _ in range(rng.randint(0, 8))]
        fam += rng.sample(fam, min(len(fam), rng.randint(0, 2)))
        assert (t.close_under_intersection(fam)
                == reference_close_under_intersection(fam))
        assert t.close_under_union(fam) == reference_close_under_union(fam)
        sizes.add(len(fam))
    assert 0 in sizes and max(sizes) >= 8


def test_interior_rejects_points_outside_the_space():
    two = t.make_space(["x0", "x1"], [F(), F({0}), F({0, 1})])
    for S in (F({-1}), F({5}), F({0, 2})):
        with pytest.raises(t.SpaceError, match="outside the space"):
            t.interior(two, S)
    assert t.interior(two, F({0})) == F({0})


def _spaces_of_every_source():
    rng = random.Random(41)
    m0_doc = {"points": ["x0", "x1", "x2"],
              "opens": [["x0", "x1", "x2"], ["x0"], [], ["x0", "x1"]],
              "valuation": {"A": ["x0"]}}
    model = t.model_from_document(m0_doc)
    yield t.make_space(["x0", "x1", "x2"], [X, F({1}), F(), F({0, 1})])
    for _ in range(20):
        n = rng.randint(1, 5)
        yield space_from_masks([f"x{i}" for i in range(n)], [
            rng.randrange(1 << n) for _ in range(rng.randint(0, 5))] + [
            (1 << n) - 1])
        m = random_model(rng, n)
        yield t.point_quotient(m, ["A"]).model.space
    yield model.space
    yield t.point_quotient(model, ["A"]).model.space
    for n in range(1, 5):
        yield from t.decide._topologies(n)


def test_space_is_its_masks():
    """A space stores its names and masks; `opens` is their view, made on
    first read, in `sort_family` order.  Equality and hash follow names
    and masks, whether or not the view was made."""
    count = 0
    for s in _spaces_of_every_source():
        twin = t.SubsetSpace(s.point_names, s.masks)
        assert "opens" not in vars(twin)
        assert twin == s and hash(twin) == hash(s) and {s, twin} == {s}
        assert s.opens == tuple(map(from_mask, s.masks))
        assert s.opens == t.sort_family(s.opens)
        assert "opens" in vars(s)
        renamed = t.SubsetSpace(tuple(f"y{x}" for x in s.universe), s.masks)
        assert renamed != s and renamed.opens == s.opens
        if len(s.masks) > 1:
            assert t.SubsetSpace(s.point_names, s.masks[1:]) != s
        count += 1
    assert count == 1 + 40 + 2 + 1 + 4 + 29 + 355


def test_space_hash_is_stored_and_not_copied():
    """A space hashes its masks once, on first use; a copy or a pickle
    may carry that hash, which equals a fresh space's, and stays equal to
    the space it came from."""
    for s in _spaces_of_every_source():
        twin = space_from_masks(s.point_names, reversed(s.masks))
        assert hash(twin) == hash(s) == hash(s.masks)
        assert vars(s)["_hash"] == hash(s)
        for other in (copy.copy(s), copy.deepcopy(s),
                      pickle.loads(pickle.dumps(s))):
            fresh = hash(t.SubsetSpace(s.point_names, s.masks))
            assert vars(other).get("_hash", fresh) == fresh
            assert other == s and hash(other) == hash(s)
            assert {other: 1}[s] == 1


def test_space_pickled_under_another_hash_seed_is_found():
    """A space pickled by a process under another string-hash salt, after
    it hashed the space, is found as a dict key next to its twin here."""
    names, masks = ("p", "q", "r"), (0, 1, 3, 7)
    child = (f"import pickle, sys\n"
             f"from topologic.space import space_from_masks\n"
             f"s = space_from_masks({names!r}, {masks!r})\n"
             f"{{s: 1}}\n"
             f"sys.stdout.buffer.write(pickle.dumps(s))\n")
    salt = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    src = str(pathlib.Path(t.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", child], check=True,
                         capture_output=True, timeout=60,
                         env={**os.environ, "PYTHONHASHSEED": salt,
                              "PYTHONPATH": src}).stdout
    there = pickle.loads(out)
    here = space_from_masks(names, masks)
    table = {space_from_masks(("p", "q"), (0, 3)): 0, here: 1}
    assert table[there] == 1 and there == here and hash(there) == hash(here)


def test_interior_and_heyting_match_reference():
    # The frozenset wrappers of interior_mask against the union of the
    # opens inside a set, on random topologies of 1-6 points.
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(1, 6)
        s = random_topology(rng, n)
        for _ in range(5):
            S = F(i for i in range(n) if rng.random() < 0.6)
            assert t.interior(s, S) == reference_interior(s, S)
        for U in s.opens:
            for W in s.opens:
                assert (t.heyting_implication(s, U, W)
                        == reference_interior(s, s.universe - (U - W)))


def test_closure_flags_computed_when_read():
    space = t.make_space(["x0", "x1"], [F({0}), F({1}), F({0, 1})])
    assert "is_union_closed" not in vars(space)
    assert not t.is_topology(space)  # no empty open: no flag is read
    assert "is_union_closed" not in vars(space)
    assert (space.is_intersection_closed, space.is_union_closed) == (
        False, True) == reference_closure_flags(space.opens)


# Every exported function that takes a caller's point set, each call given
# that set S in the one place it reads one: a topology on 3 points with 5
# opens, its model and splitting, and one formula over both atoms.
_DOOR_SPACE = t.make_space(["x0", "x1", "x2"],
                           [F(), F({0}), F({1}), F({0, 1}), X])
_DOOR_MODEL = t.make_model(_DOOR_SPACE, {"A": F({0}), "B": F({1, 2})})
_DOOR_SPLIT = t.make_splitting(_DOOR_SPACE, [F({0, 1}), X])
_DOOR_F = t.parse("A & ~K B | [] (A -> <> B)")
_DOOR_NONEMPTY = [U for U in _DOOR_SPACE.opens if U]
_DOOR_CALLS = {  # name -> (call on S, whether S must be an open)
    "make_space": (lambda S: t.make_space(["x0", "x1", "x2"], [S, X]), False),
    "make_model": (lambda S: t.make_model(_DOOR_SPACE, {"A": S}), False),
    "interior": (lambda S: t.interior(_DOOR_SPACE, S), False),
    "heyting_implication U": (
        lambda S: t.heyting_implication(_DOOR_SPACE, S, F({0})), True),
    "heyting_implication W": (
        lambda S: t.heyting_implication(_DOOR_SPACE, F({1}), S), True),
    "make_splitting": (lambda S: t.make_splitting(_DOOR_SPACE, [S, X]), True),
    "classify": (lambda S: t.classify(_DOOR_SPLIT, S), False),
    "is_stable": (lambda S: t.is_stable(_DOOR_MODEL, [X, S], _DOOR_F), True),
    "extension": (lambda S: t.extension(_DOOR_MODEL, S, _DOOR_F), True),
    "satisfies": (lambda S: t.satisfies(
        _DOOR_MODEL, t.Pair(next(iter(S)), S), _DOOR_F), True),
    "Evaluator.mask": (lambda S: t.Evaluator(_DOOR_MODEL).mask(S, _DOOR_F), True),
    "Evaluator.slots": (lambda S: t.Evaluator(_DOOR_MODEL).slots([X, S]), True),
    "basis_equivalent": (lambda S: t.basis_equivalent(
        _DOOR_MODEL, [S, *_DOOR_NONEMPTY], [_DOOR_F]), True),
}


def _door_reference(name: str, S: frozenset):
    """What each call returns on a well-formed S, from the references."""
    s, m = _DOOR_SPACE, _DOOR_MODEL
    ref = ReferenceEvaluator(m)
    return {
        "make_space": lambda: tuple(sorted({S, X}, key=set_key)),
        "make_model": lambda: {"A": S},
        "interior": lambda: reference_interior(s, S),
        "heyting_implication U": lambda: reference_interior(s, X - (S - F({0}))),
        "heyting_implication W": lambda: reference_interior(s, X - (F({1}) - S)),
        "make_splitting": lambda: tuple(sorted({S, X}, key=set_key)),
        "classify": lambda: reference_classify(_DOOR_SPLIT, S),
        "is_stable": lambda: reference_is_stable(t.Evaluator(m), [X, S], _DOOR_F),
        "extension": lambda: ref.extension(S, _DOOR_F),
        "satisfies": lambda: ref.satisfies(t.Pair(min(S), S), _DOOR_F),
        "Evaluator.mask": lambda: sum(1 << x for x in ref.extension(S, _DOOR_F)),
        "Evaluator.slots": lambda: sorted([s.opens.index(S), len(s.opens) - 1]),
        "basis_equivalent": lambda: reference_basis_equivalent(
            m, [S, *_DOOR_NONEMPTY], [_DOOR_F]),
    }[name]()


def _door_result(name: str, value):
    """The part of a call's result that its reference gives."""
    return {"make_space": lambda: value.opens, "make_model": lambda: value.valuation,
            "make_splitting": lambda: value.family}.get(name, lambda: value)()


# Any iterable of points is a point set: a frozenset, a set, a list, a tuple.
_CONTAINERS = st.sampled_from([frozenset, set, sorted, tuple])
_BAD_MEMBERS = st.sampled_from([3, 5, -1, 2**70, -2**70, "a", "0", 1.5, 0.0, None])
_NOT_ITERABLE = st.sampled_from([7, None, 1.5, 2**70])


@pytest.mark.parametrize("name", list(_DOOR_CALLS))
@settings(max_examples=40, deadline=None)
@given(points=st.frozensets(st.integers(0, 2), min_size=1),
       open_=st.sampled_from(_DOOR_NONEMPTY), container=_CONTAINERS,
       bad=_BAD_MEMBERS, not_iterable=_NOT_ITERABLE)
def test_point_sets_pass_one_checked_door(name, points, open_, container,
                                          bad, not_iterable):
    """A well-formed point set, in any container, gives what the reference
    gives; one with a member that is not an int point of the space (out of
    range, negative, 2**70, a str, a float, None), or that is no set at
    all, is a SpaceError, never a raw TypeError, OverflowError or
    IndexError.  `basis_equivalent` reports the member as not open."""
    call, needs_open = _DOOR_CALLS[name]
    good = open_ if needs_open else points
    assert _door_result(name, call(container(good))) == _door_reference(name, good)
    malformed = [[bad, *sorted(good)]]  # the bad member first: Pair holds it
    if name != "satisfies":  # a Pair's open must be a container of its point
        malformed.append(not_iterable)
    for S in malformed:
        with pytest.raises(t.SpaceError) as exc:
            call(S)
        if name == "basis_equivalent":
            assert "not open" in str(exc.value)


def test_bools_are_the_points_0_and_1():
    """A bool member is the point 0 or 1, as frozenset({True}) equals
    frozenset({1}): the door takes any int, bool included."""
    assert t.space.checked_mask(2, [True, False], "set") == 0b11
    assert t.interior(_DOOR_SPACE, {True}) == F({1})
    assert t.make_model(_DOOR_SPACE, {"A": [False]}).masks == {"A": 1}
