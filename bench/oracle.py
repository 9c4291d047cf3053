"""Independent oracle for the benchmark's correctness checks.

Nothing here imports `topologic`.  Formulas are nested tuples:

    ("atom", name)  ("top",)  ("bot",)  ("not", f)  ("and", f, g)
    ("K", f)        ("box", f)

A model is a `Model(n, opens, val)` with points 0..n-1, opens a tuple of
frozensets and val a dict from atom names to frozensets.  Satisfaction is
computed pair by pair, straight from the definition: `K` ranges over the
points of U, `[]` over the opens V <= U that contain x.  There is no memo
and no extension set, so the oracle shares no algorithm with the library.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

# Labelled topologies on n points, OEIS A000798.
TOPOLOGY_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355}


class Model(NamedTuple):
    n: int
    opens: tuple[frozenset, ...]
    val: dict


# Formula constructors, including the sugar the schemes are stated in.

def atom(name):
    return ("atom", name)


TOP = ("top",)
BOT = ("bot",)


def neg(f):
    return ("not", f)


def conj(f, g):
    return ("and", f, g)


def know(f):
    return ("K", f)


def box(f):
    return ("box", f)


def imp(f, g):
    return neg(conj(f, neg(g)))


def poss(f):
    """L f, the dual of K."""
    return neg(know(neg(f)))


def dia(f):
    """<> f, the dual of []."""
    return neg(box(neg(f)))


def scheme(sid: int, p, q=None, c=None):
    """The twelve axiom schemes of the topological logic, as stated in the
    paper; scheme 1 stands for the propositional tautologies."""
    return {
        1: lambda: imp(p, imp(q, p)),
        2: lambda: conj(imp(p, box(p)), imp(neg(p), box(neg(p)))),
        3: lambda: imp(box(imp(p, q)), imp(box(p), box(q))),
        4: lambda: imp(box(p), p),
        5: lambda: imp(box(p), box(box(p))),
        6: lambda: imp(know(imp(p, q)), imp(know(p), know(q))),
        7: lambda: imp(know(p), p),
        8: lambda: imp(know(p), know(know(p))),
        9: lambda: imp(p, know(poss(p))),
        10: lambda: imp(know(box(p)), box(know(p))),
        11: lambda: imp(dia(box(p)), box(dia(p))),
        12: lambda: imp(conj(dia(conj(know(p), q)), poss(dia(conj(know(p), c)))),
                        dia(conj(know(dia(p)), conj(dia(q), poss(dia(c)))))),
    }[sid]()


SCHEME_ARITY = {sid: 1 for sid in range(1, 13)}
SCHEME_ARITY.update({1: 2, 3: 2, 6: 2, 12: 3})


def render(f) -> str:
    """Surface syntax with every binary node parenthesized, so the text
    parses back to exactly this tree."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "top":
        return "top"
    if tag == "bot":
        return "bot"
    if tag == "not":
        return "~" + render(f[1])
    if tag == "and":
        return "(" + render(f[1]) + " & " + render(f[2]) + ")"
    if tag == "K":
        return "K " + render(f[1])
    if tag == "box":
        return "[] " + render(f[1])
    raise ValueError(f"not a formula: {f!r}")


def subterms(f) -> set:
    out = {f}
    for g in f[1:]:
        if isinstance(g, tuple):
            out |= subterms(g)
    return out


def modal_depth(f) -> int:
    inner = max((modal_depth(g) for g in f[1:] if isinstance(g, tuple)),
                default=0)
    return inner + (f[0] in ("K", "box"))


def from_ast(f):
    """Read a library formula object by its class name and fields."""
    kind = type(f).__name__
    if kind == "Atom":
        return atom(f.name)
    if kind == "Top":
        return TOP
    if kind == "Bot":
        return BOT
    if kind == "Not":
        return neg(from_ast(f.arg))
    if kind == "And":
        return conj(from_ast(f.left), from_ast(f.right))
    if kind == "Knows":
        return know(from_ast(f.arg))
    if kind == "Box":
        return box(from_ast(f.arg))
    raise ValueError(f"unknown formula node {kind}")


def from_library_model(m) -> Model:
    """Read a library model object through its public data fields."""
    return Model(len(m.space.point_names), tuple(m.space.opens),
                 dict(m.valuation))


def from_document(doc: dict) -> tuple[Model, tuple[str, ...]]:
    """Read a JSON model document; returns the model and its point names."""
    names = tuple(doc["points"])
    index = {name: i for i, name in enumerate(names)}
    opens = tuple(frozenset(index[p] for p in U) for U in doc["opens"])
    val = {a: frozenset(index[p] for p in S) for a, S in doc["valuation"].items()}
    return Model(len(names), opens, val), names


def to_document(m: Model, names: tuple[str, ...]) -> dict:
    return {"points": list(names),
            "opens": [[names[i] for i in sorted(U)] for U in m.opens],
            "valuation": {a: [names[i] for i in sorted(S)]
                          for a, S in sorted(m.val.items())}}


def sat(m: Model, x: int, U: frozenset, f) -> bool:
    tag = f[0]
    if tag == "atom":
        return x in m.val[f[1]]
    if tag == "top":
        return True
    if tag == "bot":
        return False
    if tag == "not":
        return not sat(m, x, U, f[1])
    if tag == "and":
        return sat(m, x, U, f[1]) and sat(m, x, U, f[2])
    if tag == "K":
        return all(sat(m, y, U, f[1]) for y in U)
    if tag == "box":
        return all(sat(m, x, V, f[1]) for V in m.opens if x in V and V <= U)
    raise ValueError(f"not a formula: {f!r}")


def pairs_in_order(m: Model):
    """Opens largest first (ties by sorted members), points ascending."""
    for U in sorted(m.opens, key=lambda s: (-len(s), tuple(sorted(s)))):
        for x in sorted(U):
            yield x, U


def first_falsifying(m: Model, f):
    return next(((x, U) for x, U in pairs_in_order(m)
                 if not sat(m, x, U, f)), None)


def is_topology(n: int, opens) -> bool:
    fam = set(opens)
    return (frozenset() in fam and frozenset(range(n)) in fam
            and all(a & b in fam and a | b in fam for a in fam for b in fam))


def close_family(n: int, family) -> tuple[frozenset, ...]:
    """Least topology on n points containing the given sets."""
    fam = set(family) | {frozenset(), frozenset(range(n))}
    while True:
        new = {op(a, b) for a in fam for b in fam
               for op in (frozenset.__and__, frozenset.__or__)} - fam
        if not new:
            return tuple(sorted(fam, key=lambda s: (len(s), sorted(s))))
        fam |= new


@functools.lru_cache(maxsize=None)
def topologies(n: int) -> tuple[tuple[frozenset, ...], ...]:
    """Every labelled topology on n points, by brute force over families."""
    universe = frozenset(range(n))
    middle = [frozenset(c) for k in range(1, n)
              for c in itertools.combinations(range(n), k)]
    out = []
    for mask in range(2 ** len(middle)):
        fam = {s for i, s in enumerate(middle) if mask >> i & 1}
        fam |= {frozenset(), universe}
        if is_topology(n, fam):
            out.append(tuple(sorted(fam, key=lambda s: (len(s), sorted(s)))))
    return tuple(out)


def valuations(n: int, names):
    subsets = [frozenset(c) for k in range(n + 1)
               for c in itertools.combinations(range(n), k)]
    for choice in itertools.product(subsets, repeat=len(names)):
        yield dict(zip(names, choice))


def valid_up_to(f, names, max_points: int) -> bool:
    """True iff f holds at every pair of every topological model on at most
    max_points points over the given atoms."""
    for n in range(1, max_points + 1):
        for opens in topologies(n):
            for val in valuations(n, names):
                if first_falsifying(Model(n, opens, val), f) is not None:
                    return False
    return True


def satisfiable_up_to(f, names, max_points: int) -> bool:
    return not valid_up_to(neg(f), names, max_points)


def quotient(m: Model, family, names) -> tuple[Model, dict[int, int]]:
    """Identify points with the same membership in the family's opens and
    the named atoms; returns the quotient model over the family's images
    and the class of each point."""
    family = tuple(family)
    profiles: dict[tuple, int] = {}
    cls = {}
    for x in range(m.n):
        key = (tuple(x in U for U in family), tuple(x in m.val[a] for a in names))
        cls[x] = profiles.setdefault(key, len(profiles))
    opens = tuple({frozenset(cls[x] for x in U) for U in family})
    val = {a: frozenset(cls[x] for x in m.val[a]) for a in names}
    return Model(len(profiles), opens, val), cls


def self_check() -> None:
    """Hand-worked cases; raises RuntimeError naming any that fail."""
    F = frozenset
    a = atom("A")
    checks = []
    # Counts of labelled topologies, by brute force, up to 4 points.
    for n in (1, 2, 3, 4):
        checks.append((f"{TOPOLOGY_COUNTS[n]} topologies on {n} points",
                       len(topologies(n)) == TOPOLOGY_COUNTS[n]))
    # Sierpinski space with A = {0}.
    sier = Model(2, (F(), F({0}), F({0, 1})), {"A": F({0})})
    checks.append(("A -> K A fails first at (0, X)",
                   first_falsifying(sier, imp(a, know(a))) == (0, F({0, 1}))))
    checks.append(("K A -> A valid", first_falsifying(sier, imp(know(a), a)) is None))
    checks.append(("[] A -> A valid", first_falsifying(sier, imp(box(a), a)) is None))
    checks.append(("K A at (0, {0})", sat(sier, 0, F({0}), know(a))))
    checks.append(("<> K A at (0, X)", sat(sier, 0, F({0, 1}), dia(know(a)))))
    checks.append(("not [] K A at (0, X)", not sat(sier, 0, F({0, 1}), box(know(a)))))
    # Criterion 5: the 4-point chain restricted to {empty, X} quotients to
    # two points, one of them in A, and agrees on A, K A and L A.
    chain = Model(4, (F(), F({0}), F({0, 1}), F({0, 1, 2}), F({0, 1, 2, 3})),
                  {"A": F({0})})
    q, cls = quotient(chain, (F(), F(range(4))), ["A"])
    checks.append(("chain quotients to 2 points", q.n == 2
                   and set(q.opens) == {F(), F({0, 1})}
                   and len(q.val["A"]) == 1))
    checks.append(("chain quotient preserves A, K A, L A", all(
        sat(chain, x, F(range(4)), g) == sat(q, cls[x], F(cls.values()), g)
        for x in range(4) for g in (a, know(a), poss(a)))))
    # Scheme 11 holds on topologies but fails on the subset space
    # {{0,1}, {0,2}, X}: take p = K A with A = {0, 1}.
    s11 = scheme(11, know(a))
    bad = Model(3, (F({0, 1}), F({0, 2}), F({0, 1, 2})), {"A": F({0, 1})})
    checks.append(("scheme 11 fails off topologies",
                   not is_topology(3, bad.opens)
                   and not sat(bad, 0, F({0, 1, 2}), s11)))
    checks.append(("scheme 11 on all 3-point topologies", valid_up_to(s11, ["A"], 3)))
    checks.append(("render", render(scheme(7, a)) == "~(K A & ~A)"))
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise RuntimeError(f"oracle self-check failed: {failed}")
