"""Bimodal formulas: knowledge `K` and effort `[]` over a propositional base.

The core AST has exactly seven constructors: Atom, Top, Bot, Not, And,
Knows, Box.  The surface syntax additionally offers `|`, `->`, `L` and
`<>`, all of which desugar at parse time:

    L p    ==  ~K~p
    <> p   ==  ~[]~p
    p | q  ==  ~(~p & ~q)
    p -> q ==  ~(p & ~q)

The printer re-sugars these patterns, so parse(print_formula(f)) == f.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class Formula:
    """Base class for the seven core constructors."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Top(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Bot(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Knows(Formula):
    arg: Formula


@dataclass(frozen=True, slots=True)
class Box(Formula):
    arg: Formula


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


def walk(f: Formula) -> list[tuple[Formula, tuple[int, ...]]]:
    """The distinct subformulas of f in post-order, f itself last, each with
    the positions of its operands in the returned list.

    A compound subformula is matched by its constructor and the positions of
    its operands, so no deep formula is hashed or recursed into.
    """
    out: list[tuple[Formula, tuple[int, ...]]] = []
    position: dict[object, int] = {}
    done: list[int] = []  # positions of finished operands
    expanded = object()  # on the stack: the node below has its operands done
    todo: list[object] = [f]
    while todo:
        g = todo.pop()
        t = type(g)
        if g is expanded:
            g = todo.pop()
            ops: tuple[int, ...] = (done.pop(),)
            if type(g) is And:
                ops = (done.pop(), ops[0])
            key: object = (type(g), ops)
        elif t is And:
            todo += [g, expanded, g.right, g.left]
            continue
        elif t is Not or t is Knows or t is Box:
            todo += [g, expanded, g.arg]
            continue
        else:
            ops, key = (), g  # a leaf's hash is shallow
        pos = position.get(key)
        if pos is None:
            pos = position[key] = len(out)
            out.append((g, ops))
        done.append(pos)
    return out


def subformulas(f: Formula) -> list[Formula]:
    """All subformulas in post-order, duplicates removed, f itself last."""
    return [g for g, _ in walk(f)]


def atoms(f: Formula) -> set[str]:
    """Atom names occurring in f (top/bot are not atoms here)."""
    return {g.name for g in subformulas(f) if isinstance(g, Atom)}
