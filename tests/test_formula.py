import copy
import gc
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import topologic as t
from topologic import And, Atom, Bot, Box, Knows, Not, Top, formula
from conftest import (FORMULA_TEXT, not_chain, reference_parse,
                      reference_print, reference_random_formula)


def test_parse_implication_desugars():
    assert t.parse("K A -> A") == Not(And(Knows(Atom("A")), Not(Atom("A"))))


def test_parse_reserved_constants():
    assert t.parse("top") == Top()
    assert t.parse("bot") == Bot()


def test_parse_box_l_desugars():
    assert t.parse("[] L Q") == Box(Not(Knows(Not(Atom("Q")))))


def test_parse_or_desugars():
    assert t.parse("p | q") == Not(And(Not(Atom("p")), Not(Atom("q"))))


def test_parse_diamond_desugars():
    assert t.parse("<> p") == Not(Box(Not(Atom("p"))))


def test_implies_right_associative():
    assert t.parse("a -> b -> c") == t.parse("a -> (b -> c)")


def test_precedence_unary_over_and_over_or_over_implies():
    assert t.parse("~a & b | c -> d") == t.parse("(((~a) & b) | c) -> d")
    assert t.parse("K a & b") == And(Knows(Atom("a")), Atom("b"))


@pytest.mark.parametrize("text, position_of_error", [
    ("(A & B", 0),
    ("A &", 3),
    ("K", 1),
    ("A B", 2),
    ("~(A & (B", 6),
    ("A )", 2),
    ("A & 1", 4),
])
def test_parse_errors_carry_position(text, position_of_error):
    with pytest.raises(t.ParseError) as exc:
        t.parse(text)
    assert exc.value.position == position_of_error


def test_reserved_words_not_idents():
    # "K K" is a dangling operator chain, not an atom named K.
    with pytest.raises(t.ParseError):
        t.parse("K")
    with pytest.raises(t.ParseError):
        t.parse("A & L")


def test_print_simple():
    assert t.print_formula(Knows(Atom("A"))) == "K A"


def test_print_resugars_l():
    assert t.print_formula(Not(Knows(Not(Atom("A"))))) == "L A"


def test_print_parenthesizes_by_precedence():
    assert t.print_formula(Box(And(Atom("A"), Atom("B")))) == "[] (A & B)"


def formulas(atom_names=("A", "B", "Q")):
    leaves = st.one_of(
        st.sampled_from([Atom(a) for a in atom_names]),
        st.just(Top()), st.just(Bot()))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Not), sub.map(Knows), sub.map(Box),
            st.tuples(sub, sub).map(lambda ab: And(*ab)),
            # Sugar constructors exercise the printer's re-sugaring paths.
            st.tuples(sub, sub).map(lambda ab: t.Or(*ab)),
            st.tuples(sub, sub).map(lambda ab: t.Implies(*ab)),
            sub.map(t.L), sub.map(t.Diamond)),
        max_leaves=25)


def _reference_repr(f):
    """The recursive repr that `repr` of a formula must agree with."""
    args = []
    for name in f.__match_args__:
        value = getattr(f, name)
        args.append(_reference_repr(value) if isinstance(value, t.Formula)
                    else repr(value))
    return f"{type(f).__name__}({', '.join(args)})"


@given(formulas())
def test_roundtrip(f):
    assert t.parse(t.print_formula(f)) == f
    assert t.print_formula(f) == reference_print(f)
    assert repr(f) == _reference_repr(f)


def test_subformulas_leaf():
    assert t.subformulas(Atom("A")) == [Atom("A")]


def test_subformulas_one_child():
    assert t.subformulas(Knows(Atom("A"))) == [Atom("A"), Knows(Atom("A"))]


def test_subformulas_dedup():
    f = And(Atom("A"), Atom("A"))
    assert t.subformulas(f) == [Atom("A"), f]


@given(formulas())
def test_subformulas_closed_and_self_last(f):
    subs = t.subformulas(f)
    assert subs[-1] == f
    assert len(set(subs)) == len(subs)
    for i, g in enumerate(subs):
        children = {
            Not: lambda x: [x.arg], Knows: lambda x: [x.arg],
            Box: lambda x: [x.arg], And: lambda x: [x.left, x.right],
        }.get(type(g), lambda x: [])(g)
        for child in children:
            assert child in subs[:i]


def _subformulas_reference(f):
    """The recursive walk subformulas must agree with."""
    seen, out = set(), []

    def walk(g):
        match g:
            case Not(x) | Knows(x) | Box(x):
                walk(x)
            case And(a, b):
                walk(a)
                walk(b)
        if g not in seen:
            seen.add(g)
            out.append(g)

    walk(f)
    return out


def test_subformulas_match_recursive_reference():
    rng = random.Random(17)
    for _ in range(200):
        f = t.random_formula(rng, ["A", "B"], rng.randint(0, 6))
        assert t.subformulas(f) == _subformulas_reference(f)


def test_subformulas_deep_chain():
    f = Atom("A")
    for _ in range(5000):
        f = Not(f)
    subs = t.subformulas(f)
    assert len(subs) == 5001
    assert subs[0] is subs[1].arg and subs[-1] is f


def test_atoms():
    assert t.atoms(t.parse("K A & L B")) == {"A", "B"}
    assert t.atoms(t.parse("top")) == set()
    assert t.atoms(t.parse("[] (A -> A)")) == {"A"}


def test_equal_formulas_are_one_object():
    f = And(Knows(Atom("A")), Not(Box(Atom("B"))))
    assert And(Knows(Atom("A")), Not(Box(Atom("B")))) is f
    assert t.parse("K A & ~[] B") is f
    assert copy.deepcopy(f) is f and pickle.loads(pickle.dumps(f)) is f
    assert t.parse("A -> B") is t.Implies(Atom("A"), Atom("B"))
    assert Top() is t.TOP and Bot() is t.BOT
    assert Not(Atom("A")) is not Not(Atom("B"))


def test_deep_chain_hash_eq_and_dict_key():
    f, g = not_chain(5000), not_chain(5000)
    assert f is g and f == g and hash(f) == hash(g)
    assert f != f.arg and f != not_chain(4999, Atom("B"))
    table = {f: 1, f.arg: 2}
    assert table[g] == 1 and table[g.arg] == 2 and len(table) == 2


def test_dropped_formula_is_freed():
    f = Knows(Not(Atom("freed_probe")))
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
    assert Knows(Not(Atom("freed_probe"))).arg.arg.name == "freed_probe"


def test_table_keeps_no_sweep_instance():
    gc.collect()
    before = len(formula._nodes)
    t.axiom_soundness_sweep(t.SearchBound(1, ("A",)), [3, 12], 5, 0)
    gc.collect()
    assert len(formula._nodes) <= before


def test_late_callback_keeps_newer_node():
    # A callback that runs after a newer node took the key leaves it alone.
    key = (Atom, "late_probe")
    f = Atom("late_probe")
    stale = formula._nodes[key]
    del f
    gc.collect()
    g = Atom("late_probe")
    formula._drop(stale)
    assert formula._nodes[key]() is g
    assert Atom("late_probe") is g


@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_interning_is_thread_safe():
    # Four threads build and free equal nodes, switching as often as the
    # interpreter allows: a node stays the one its key names while it
    # lives, and no callback fails.
    mixed = []

    def churn():
        for _ in range(3000):
            for i in range(4):
                f = Not(Atom(f"P{i}"))
                if f.arg is not Atom(f"P{i}") or Not(f.arg) is not f:
                    mixed.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    gc.collect()
    assert not any(thread.is_alive() for thread in threads) and not mixed
    for i in range(4):
        a = Atom(f"P{i}")
        assert Atom(f"P{i}") is a and formula._nodes[Atom, f"P{i}"]() is a


def test_parse_keeps_texts_not_errors():
    # A repeated text gives the same node; a bad text raises the same
    # ParseError, at the same position, each time it is parsed.
    assert t.parse("K A -> [] K A") is t.parse("K A -> [] K A")
    for text in ("K A ->", "(A & B", "A $ B", "A B", ""):
        seen = []
        for _ in range(2):
            with pytest.raises(t.ParseError) as info:
                t.parse(text)
            seen.append((str(info.value), info.value.position))
        assert seen[0] == seen[1]


def test_constructors_check_arity_and_stay_immutable():
    with pytest.raises(TypeError):
        Not()
    with pytest.raises(TypeError):
        And(Atom("A"))
    with pytest.raises(AttributeError):
        Not(Atom("A")).arg = Atom("B")
    assert repr(And(Atom("A"), Top())) == "And(Atom('A'), Top())"


@settings(max_examples=500, deadline=None)
@given(FORMULA_TEXT)
def test_parse_fuzz(text):
    """Text over the token alphabet parses or raises ParseError, and a
    parsed formula prints back to itself."""
    try:
        f = t.parse(text)
    except t.ParseError:
        return
    assert isinstance(f, t.Formula)
    assert t.parse(t.print_formula(f)) is f


# Text that follows the grammar, with no parentheses around binary
# operands unless drawn, so that precedence and grouping decide the tree.
GRAMMAR_TEXT = st.recursive(
    st.sampled_from(["A", "B", "top", "bot"]),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["~", "K ", "L ", "[] ", "<> "]),
                  sub).map("".join),
        st.tuples(sub, st.sampled_from([" & ", " | ", " -> "]),
                  sub).map("".join),
        sub.map("({})".format)),
    max_leaves=12)


@settings(max_examples=1000, deadline=None)
@given(FORMULA_TEXT | GRAMMAR_TEXT)
def test_parse_matches_reference(text):
    """parse returns the reference parser's node, or raises its message at
    its position; print_formula and repr match the recursive versions."""
    try:
        expected = reference_parse(text)
    except t.ParseError as exc:
        with pytest.raises(t.ParseError) as got:
            t.parse(text)
        assert (str(got.value), got.value.position) == (str(exc),
                                                         exc.position)
        return
    f = t.parse(text)
    assert f is expected
    assert t.print_formula(f) == reference_print(f)
    assert repr(f) == _reference_repr(f)


def test_random_formula_matches_reference():
    # Same formulas and the same generator state afterwards, so seeded
    # callers such as axiom_soundness_sweep draw the same instances.
    for seed in range(300):
        for depth in (0, 1, 2, 3, 5, 8):
            for atom_names in ([], ["A"], ["A", "B", "C"]):
                rng, ref = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    f = t.random_formula(rng, atom_names, depth)
                    assert f is reference_random_formula(ref, atom_names,
                                                         depth)
                assert rng.getstate() == ref.getstate()


def test_deep_chains_round_trip():
    n = 20000
    f = not_chain(n)
    assert t.print_formula(f) == "~" * n + "A"
    assert repr(f) == "Not(" * n + "Atom('A')" + ")" * n
    assert t.parse(t.print_formula(f)) is f
    g = Atom("A")
    for _ in range(n):
        g = Box(And(g, Atom("B")))
    assert t.print_formula(g) == "[] (" * n + "A" + " & B)" * n
    assert repr(g) == "Box(And(" * n + "Atom('A')" + ", Atom('B')))" * n
    assert t.parse(t.print_formula(g)) is g
    # Every operator of the table, each side of each binary one, 20,000
    # deep: parse inverts print.
    a, b = Atom("A"), Atom("B")
    steps = [lambda f: t.Or(f, b), lambda f: t.Implies(b, f),
             lambda f: And(Knows(f), b), lambda f: t.L(t.Diamond(Not(f))),
             lambda f: t.Implies(f, b), lambda f: t.Or(b, f),
             lambda f: And(b, Box(f))]
    h = a
    for i in range(n):
        h = steps[i % len(steps)](h)
    assert t.parse(t.print_formula(h)) is h


def _print_formulas_agree(f) -> None:
    subs = t.subformulas(f)
    texts = formula.print_formulas(subs)
    assert list(texts) == subs
    for g in subs:
        assert texts[g] == t.print_formula(g)


@settings(max_examples=500, deadline=None)
@given(FORMULA_TEXT | GRAMMAR_TEXT)
def test_print_formulas_match_print_formula(text):
    """Each text built from its operands' texts is print_formula's."""
    try:
        f = t.parse(text)
    except t.ParseError:
        return
    _print_formulas_agree(f)


def test_print_formulas_deep_chain():
    # A chain through every sugar pattern, on each side of each binary
    # one.  At 200 deep every subformula is checked; at 2,000 deep, where
    # printing each subformula alone is quadratic, every 97th and the
    # last 30, plus parse of the whole text.
    a, b = Atom("A"), Atom("B")
    steps = [lambda f: t.Or(f, b), lambda f: t.Implies(b, f),
             lambda f: And(Knows(f), b), lambda f: t.L(t.Diamond(Not(f))),
             lambda f: t.Implies(f, b), lambda f: t.Or(b, f),
             lambda f: And(b, Box(f)), lambda f: Not(Not(f))]
    h = a
    for i in range(2000):
        h = steps[i % len(steps)](h)
        if i == 199:
            _print_formulas_agree(h)
    subs = t.subformulas(h)
    texts = formula.print_formulas(subs)
    for g in subs[::97] + subs[-30:]:
        assert texts[g] == t.print_formula(g)
    assert t.parse(texts[h]) is h
