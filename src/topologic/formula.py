"""Bimodal formulas: knowledge `K` and effort `[]` over a propositional base.

The core AST has exactly seven constructors: Atom, Top, Bot, Not, And,
Knows, Box.  They take positional operands and intern their nodes, so equal
formulas are one object and `==` and `hash` are identity, never recursive.
The surface syntax also offers `|`, `->`, `L` and `<>`, desugared by parse:

    L p    ==  ~K~p
    <> p   ==  ~[]~p
    p | q  ==  ~(~p & ~q)
    p -> q ==  ~(p & ~q)

The grammar, loosest binding first; every binary operator groups to the
right, and nesting depth has no limit:

    f ::= f "->" f | f "|" f | f "&" f
        | "~" f | "K" f | "L" f | "[]" f | "<>" f
        | "(" f ")" | "top" | "bot" | IDENT

The printer re-sugars these patterns, so parse(print_formula(f)) is f.
Both read one operator table, and neither recurses.  `print_formulas`
prints many subformulas of one formula from the same layout table, each
text built from its operands' texts.
"""

from __future__ import annotations

import re
import weakref
from functools import lru_cache
from threading import RLock
from typing import Callable, Container, Iterable, Iterator


class _Ref(weakref.ref):  # a KeyedRef made in C, 4 times as fast
    __slots__ = ("key",)  # set after the ref is made


# Interned nodes by constructor and operands.  A key holds only what its node
# holds, and its entry goes when the node does.  A table change checks and
# writes under one lock, reentrant as a callback may fire inside it.
_nodes: dict[tuple, _Ref] = {}
_lock = RLock()


def _drop(ref: _Ref, nodes=_nodes, lock=_lock) -> None:
    lock.acquire()  # not `with`: measured slower, and this runs per node
    try:
        if nodes.get(ref.key) is ref:  # not a newer node's ref, which stays
            del nodes[ref.key]
    finally:
        lock.release()


class Formula:
    """Base of the seven core constructors.  Nodes are interned and
    immutable, equality is identity, and operands are positional."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __new__(cls, *operands):
        key = (cls, *operands)  # operand formulas hash and compare by id
        node = (ref := _nodes.get(key)) and ref()
        if node is None:
            fields = cls.__match_args__
            if len(operands) != len(fields):
                raise TypeError(f"{cls.__name__} takes {len(fields)} operand(s)")
            _lock.acquire()
            try:  # another thread may have interned it meanwhile
                node = (ref := _nodes.get(key)) and ref()
                if node is None:
                    node = object.__new__(cls)
                    for field, value in zip(fields, operands):
                        object.__setattr__(node, field, value)
                    _nodes[key] = new = _Ref(node, _drop)
                    new.key = key
            finally:
                _lock.release()
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # copies and pickles rebuild through the table
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        return _render(self, _repr_layout)

    def __str__(self) -> str:
        return print_formula(self)


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)


class Top(Formula):
    __slots__ = ()


class Bot(Formula):
    __slots__ = ()


class Not(Formula):
    __slots__ = __match_args__ = ("arg",)


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Knows(Formula):
    __slots__ = __match_args__ = ("arg",)


class Box(Formula):
    __slots__ = __match_args__ = ("arg",)


TOP = Top()
BOT = Bot()


# Sugar constructors (always yield core ASTs).

def Or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def Implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def L(arg: Formula) -> Formula:
    return Not(Knows(Not(arg)))


def Diamond(arg: Formula) -> Formula:
    return Not(Box(Not(arg)))


class ParseError(ValueError):
    """Syntax error with the offending position in the input string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# A token, or in group 1 a character that starts none.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(rf"->|\[\]|<>|[~&|()]|{_NAME_RE.pattern}|(\S)")

# The operator table that parse and print_formula both read: token ->
# (binding strength, constructor).  Unary operators bind tightest; the
# binary ones all group to the right.
_UNARY = 4
_OPERATORS = {
    "->": (1, Implies), "|": (2, Or), "&": (3, And),
    "~": (_UNARY, Not), "K": (_UNARY, Knows), "L": (_UNARY, L),
    "[]": (_UNARY, Box), "<>": (_UNARY, Diamond),
}


def is_atom_name(name: str) -> bool:
    """True iff parse reads name alone as an atom, or as top or bot."""
    return _NAME_RE.fullmatch(name) is not None and name not in _OPERATORS


def _binding(tok: str | None) -> int:
    """Binding strength of an operator token, 0 for any other token."""
    return _OPERATORS[tok][0] if tok in _OPERATORS else 0


@lru_cache(maxsize=256)
def parse(text: str) -> Formula:
    """Parse surface syntax into the desugared core AST.

        f ::= f "->" f | f "|" f | f "&" f        (loosest first)
            | "~" f | "K" f | "L" f | "[]" f | "<>" f
            | "(" f ")" | "top" | "bot" | IDENT

    Every binary operator groups to the right.  Operands and pending
    operators live on two explicit stacks, so nesting depth has no limit.
    A syntax error raises ParseError at the offending token, or at the
    innermost open "(" when its ")" is missing.  The nodes of the 256 texts
    parsed last are kept by text, and so are their walk plans
    (`semantics._PLANS`); a ParseError is never kept.
    """
    matches = list(_TOKEN_RE.finditer(text))
    for m in matches:
        if m[1]:
            raise ParseError(f"unexpected character {m[1]!r}", m.start())
    operands: list[Formula] = []
    pending: list[tuple[str, int]] = []  # "(" and operators, with positions
    expect_operand = True
    for tok, pos in [(m[0], m.start()) for m in matches] + [(None, len(text))]:
        if expect_operand:
            if tok == "(" or _binding(tok) == _UNARY:
                pending.append((tok, pos))
                continue
            if tok is None:
                raise ParseError("unexpected end of input", pos)
            if tok == ")" or tok in _OPERATORS:
                raise ParseError(f"unexpected token {tok!r}", pos)
            operands.append(TOP if tok == "top" else
                            BOT if tok == "bot" else Atom(tok))
        else:
            # A binary tok reduces the operators that bind tighter, so that
            # it groups to the right; any other token reduces back to "(".
            prec = _binding(tok)
            floor = prec if prec < _UNARY else 0
            while pending and _binding(pending[-1][0]) > floor:
                build = _OPERATORS[pending.pop()[0]][1]
                right = operands.pop()
                operands.append(build(operands.pop(), right))
            if floor:
                pending.append((tok, pos))
                expect_operand = True
                continue
            if tok == ")" and pending:
                pending.pop()
            elif pending:
                raise ParseError("unbalanced parenthesis", pending[-1][1])
            elif tok is None:
                return operands.pop()
            else:
                raise ParseError(f"unexpected token {tok!r}", pos)
        # An operand is complete: apply the unary operators waiting for it.
        while pending and _binding(pending[-1][0]) == _UNARY:
            operands.append(_OPERATORS[pending.pop()[0]][1](operands.pop()))
        expect_operand = False


def _render(f: Formula, layout: Callable[[Formula], tuple[int, list]]
            ) -> str:
    """Join the pieces of f's layout, laying out each (operand, minimum
    binding) slot in its place, in parentheses when its layout binds
    looser than that.  An explicit stack keeps this linear in the size of
    f at any depth."""
    out: list[str] = []
    todo: list = [(f, 0)]
    while todo:
        piece = todo.pop()
        if type(piece) is str:
            out.append(piece)
        else:
            prec, pieces = layout(piece[0])
            if prec < piece[1]:
                pieces = ["(", *pieces, ")"]
            todo.extend(reversed(pieces))
    return "".join(out)


def _print_layout(f: Formula) -> tuple[int, list]:
    """The binding strength of f's printed form, and its pieces: strings,
    and (operand, minimum binding) slots.  Leaves bind as tightly as the
    unary operators, so that no slot asks for their parentheses."""
    match f:
        case Atom(name):
            return _UNARY, [name]
        case Top():
            return _UNARY, ["top"]
        case Bot():
            return _UNARY, ["bot"]
        case Not(Knows(Not(x))):
            tok, args = "L", (x,)
        case Not(Box(Not(x))):
            tok, args = "<>", (x,)
        case Not(And(Not(a), Not(b))):
            tok, args = "|", (a, b)
        case Not(And(a, Not(b))):
            tok, args = "->", (a, b)
        case Not(x):
            tok, args = "~", (x,)
        case And(a, b):
            tok, args = "&", (a, b)
        case Knows(x):
            tok, args = "K", (x,)
        case Box(x):
            tok, args = "[]", (x,)
        case _:
            raise TypeError(f"not a formula: {f!r}")
    prec = _OPERATORS[tok][0]
    if len(args) == 1:
        return prec, [tok if tok == "~" else tok + " ", (args[0], prec)]
    # Grouping to the right: a left operand binds one level tighter.
    return prec, [(args[0], prec + 1), f" {tok} ", (args[1], prec)]


def _repr_layout(f: Formula) -> tuple[int, list]:
    pieces: list = []
    for field in f.__match_args__:
        value = getattr(f, field)
        pieces += [", ", (value, 0) if isinstance(value, Formula)
                   else repr(value)]
    return _UNARY, [f"{type(f).__name__}(", *pieces[1:], ")"]


def print_formula(f: Formula) -> str:
    """Render a core AST, re-sugaring L, <>, | and ->."""
    return _render(f, _print_layout)


def print_formulas(order: Iterable[Formula]) -> dict[Formula, str]:
    """print_formula of each formula of order, built from the texts of its
    operands, so that each node is laid out once.  Each formula's
    subformulas must come before it, as in `subformulas`."""
    done: dict[Formula, tuple[int, str]] = {}
    for f in order:
        prec, pieces = _print_layout(f)
        parts = []
        for piece in pieces:
            if type(piece) is str:
                parts.append(piece)
            else:
                inner, text = done[piece[0]]
                parts.append(f"({text})" if inner < piece[1] else text)
        done[f] = prec, "".join(parts)
    return {f: text for f, (_, text) in done.items()}


def post_order(f: Formula, done: Container[Formula]) -> Iterator[Formula]:
    """The subformulas of f not in done, each after its operands, f last.
    The caller adds each yielded node to done before drawing the next, so
    shared subformulas are yielded once."""
    todo = [f]
    while todo:
        g = todo.pop()
        if g in done:
            continue
        t = type(g)
        if t is And and (g.left not in done or g.right not in done):
            todo += (g, g.right, g.left)  # g again once its operands are done
        elif (t is Not or t is Knows or t is Box) and g.arg not in done:
            todo += (g, g.arg)
        else:
            yield g


def subformulas(f: Formula) -> list[Formula]:
    """All subformulas in post-order, duplicates removed, f itself last."""
    seen: dict[Formula, None] = {}  # insertion-ordered
    for g in post_order(f, seen):
        seen[g] = None
    return list(seen)


def atoms(f: Formula) -> set[str]:
    """Atom names occurring in f (top/bot are not atoms here)."""
    return {g.name for g in subformulas(f) if isinstance(g, Atom)}
