"""Bimodal formulas: knowledge `K` and effort `[]` over a propositional base.

The core AST has exactly seven constructors: Atom, Top, Bot, Not, And,
Knows, Box.  They take positional operands and intern their nodes, so equal
formulas are one object and `==` and `hash` are identity, never recursive.
The surface syntax also offers `|`, `->`, `L` and `<>`, desugared by parse:

    L p    ==  ~K~p
    <> p   ==  ~[]~p
    p | q  ==  ~(~p & ~q)
    p -> q ==  ~(p & ~q)

The printer re-sugars these patterns, so parse(print_formula(f)) is f.
"""

from __future__ import annotations

import re
from typing import Container, Iterator
from weakref import KeyedRef

# Interned nodes by constructor and operands.  A key holds only what its node
# holds, and its entry goes when the node does.
_nodes: dict[tuple, KeyedRef] = {}


def _drop(ref: KeyedRef, nodes: dict[tuple, KeyedRef] = _nodes) -> None:
    # The key may already name a newer node whose ref must stay.
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


class Formula:
    """Base of the seven core constructors.  Nodes are interned and
    immutable, equality is identity, and operands are positional."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __new__(cls, *operands):
        key = (cls, *operands)  # operand formulas hash and compare by id
        ref = _nodes.get(key)
        node = ref and ref()
        if node is None:
            fields = cls.__match_args__
            if len(operands) != len(fields):
                raise TypeError(f"{cls.__name__} takes {len(fields)} operand(s)")
            node = object.__new__(cls)
            for field, value in zip(fields, operands):
                object.__setattr__(node, field, value)
            _nodes[key] = KeyedRef(node, _drop, key)
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # copies and pickles rebuild through the table
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        args = ", ".join(repr(getattr(self, f)) for f in self.__match_args__)
        return f"{type(self).__name__}({args})"

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


_TOKEN_RE = re.compile(r"\s*(->|\[\]|<>|[~&|()]|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over the grammar:

    formula := implies
    implies := or ("->" implies)?
    or      := and ("|" or)?
    and     := unary ("&" and)?
    unary   := "~" unary | "K" unary | "L" unary | "[]" unary | "<>" unary
             | "(" formula ")" | "top" | "bot" | IDENT
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def pos(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][1]
        return len(self.text)

    def advance(self) -> str:
        tok = self.tokens[self.index][0]
        self.index += 1
        return tok

    def parse(self) -> Formula:
        f = self.implies()
        if self.peek() is not None:
            raise ParseError(f"unexpected token {self.peek()!r}", self.pos())
        return f

    def implies(self) -> Formula:
        left = self.or_()
        if self.peek() == "->":
            self.advance()
            return Implies(left, self.implies())
        return left

    def or_(self) -> Formula:
        left = self.and_()
        if self.peek() == "|":
            self.advance()
            return Or(left, self.or_())
        return left

    def and_(self) -> Formula:
        left = self.unary()
        if self.peek() == "&":
            self.advance()
            return And(left, self.and_())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos())
        if tok == "~":
            self.advance()
            return Not(self.unary())
        if tok == "K":
            self.advance()
            return Knows(self.unary())
        if tok == "L":
            self.advance()
            return L(self.unary())
        if tok == "[]":
            self.advance()
            return Box(self.unary())
        if tok == "<>":
            self.advance()
            return Diamond(self.unary())
        if tok == "(":
            open_pos = self.pos()
            self.advance()
            f = self.implies()
            if self.peek() != ")":
                raise ParseError("unbalanced parenthesis", open_pos)
            self.advance()
            return f
        if tok == "top":
            self.advance()
            return TOP
        if tok == "bot":
            self.advance()
            return BOT
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            self.advance()
            return Atom(tok)
        raise ParseError(f"unexpected token {tok!r}", self.pos())


def parse(text: str) -> Formula:
    """Parse surface syntax into the desugared core AST."""
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ParseError("formula nested too deeply", 0) from None


# Precedence levels for printing; unary operators bind tightest.
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4


def _fmt(f: Formula, min_prec: int) -> str:
    match f:
        case Atom(name):
            return name
        case Top():
            return "top"
        case Bot():
            return "bot"
        case Not(Knows(Not(x))):
            s, prec = "L " + _fmt(x, _PREC_UNARY), _PREC_UNARY
        case Not(Box(Not(x))):
            s, prec = "<> " + _fmt(x, _PREC_UNARY), _PREC_UNARY
        case Not(And(Not(a), Not(b))):
            s = _fmt(a, _PREC_OR + 1) + " | " + _fmt(b, _PREC_OR)
            prec = _PREC_OR
        case Not(And(a, Not(b))):
            s = _fmt(a, _PREC_IMPLIES + 1) + " -> " + _fmt(b, _PREC_IMPLIES)
            prec = _PREC_IMPLIES
        case Not(x):
            s, prec = "~" + _fmt(x, _PREC_UNARY), _PREC_UNARY
        case And(a, b):
            s = _fmt(a, _PREC_AND + 1) + " & " + _fmt(b, _PREC_AND)
            prec = _PREC_AND
        case Knows(x):
            s, prec = "K " + _fmt(x, _PREC_UNARY), _PREC_UNARY
        case Box(x):
            s, prec = "[] " + _fmt(x, _PREC_UNARY), _PREC_UNARY
        case _:
            raise TypeError(f"not a formula: {f!r}")
    if prec < min_prec:
        return "(" + s + ")"
    return s


def print_formula(f: Formula) -> str:
    """Render a core AST, re-sugaring L, <>, | and ->."""
    return _fmt(f, 0)


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
