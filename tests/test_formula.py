import copy
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import topologic as t
from topologic import And, Atom, Bot, Box, Knows, Not, Top, formula
from conftest import FORMULA_TEXT, not_chain


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
])
def test_parse_errors_carry_position(text, position_of_error):
    with pytest.raises(t.ParseError):
        t.parse(text)


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


@given(formulas())
def test_roundtrip(f):
    assert t.parse(t.print_formula(f)) == f


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
