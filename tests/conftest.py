import itertools
import random

import pytest
from hypothesis import strategies as st

import topologic as t
from topologic.formula import And, Atom, Bot, Box, Knows, Not, Top
from topologic.space import set_key

F = frozenset


@pytest.fixture
def m0_space():
    return t.make_space(["x0", "x1", "x2"], [F(), F({0}), F({0, 1}), F({0, 1, 2})])


@pytest.fixture
def m0(m0_space):
    return t.make_model(m0_space, {"A": F({0}), "B": F({0, 1})})


def random_topology(rng: random.Random, n: int) -> t.SubsetSpace:
    names = [f"x{i}" for i in range(n)]
    k = rng.randint(0, 4)
    subbasis = [frozenset(i for i in range(n) if rng.random() < 0.5)
                for _ in range(k)]
    return t.generate_topology(subbasis, names)


def random_model(rng: random.Random, n: int, atom_names=("A", "B")) -> t.Model:
    space = random_topology(rng, n)
    val = {a: frozenset(i for i in range(n) if rng.random() < 0.5)
           for a in atom_names}
    return t.make_model(space, val)


def not_chain(depth: int, f=Atom("A")):
    """f behind depth negations, built without recursion."""
    for _ in range(depth):
        f = Not(f)
    return f


# Formula text over the parser's token alphabet, plus a few stray
# characters; concatenation also forms identifiers such as "KA".
FORMULA_TEXT = st.lists(
    st.sampled_from(["~", "&", "|", "->", "[]", "<>", "(", ")", "K", "L",
                     "A", "B", "C", "top", "bot", " ", "-", "[", ">", "1"]),
    max_size=40).map("".join)


def enumerate_closed_families(n: int) -> list[tuple[frozenset, ...]]:
    """Brute-force oracle: all families containing the empty set and X and
    closed under pairwise intersection and union."""
    universe = frozenset(range(n))
    middle = [frozenset(c) for k in range(1, n)
              for c in itertools.combinations(range(n), k)]
    out = []
    for k in range(len(middle) + 1):
        for combo in itertools.combinations(middle, k):
            fam = set(combo) | {F(), universe}
            if all(a & b in fam and a | b in fam for a in fam for b in fam):
                out.append(t.sort_family(fam))
    return sorted(out, key=lambda fam: tuple(set_key(U) for U in fam))


class ReferenceEvaluator:
    """The recursive evaluator, memoized per (subformula, open): the oracle
    that `t.Evaluator` must agree with."""

    def __init__(self, m: t.Model):
        self.model = m
        self._ext = {}

    def extension(self, U, f):
        key = (f, U)
        cached = self._ext.get(key)
        if cached is not None:
            return cached
        match f:
            case Top():
                result = U
            case Bot():
                result = F()
            case Atom(name):
                result = self.model.atom_set(name) & U
            case Not(x):
                result = U - self.extension(U, x)
            case And(a, b):
                result = self.extension(U, a) & self.extension(U, b)
            case Knows(x):
                result = U if self.extension(U, x) == U else F()
            case Box(x):
                bad = F()
                for V in self.model.space.opens:
                    if V <= U:
                        bad |= V - self.extension(V, x)
                result = U - bad
            case _:
                raise TypeError(f"not a formula: {f!r}")
        self._ext[key] = result
        return result

    def satisfies(self, p, f):
        return p.point in self.extension(p.open, f)

    def find_counterexample(self, f):
        """Least falsifying pair in `pairs_in_order`, or None."""
        for p in t.pairs_in_order(self.model):
            if not self.satisfies(p, f):
                return p
        return None
