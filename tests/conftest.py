import functools
import itertools
import random
import re

import pytest
from hypothesis import strategies as st

import topologic as t
from topologic.formula import (BOT, TOP, And, Atom, Bot, Box, Diamond,
                               Formula, Implies, Knows, L, Not, Or,
                               ParseError, Top)
from topologic import finitemodel
from topologic.finitemodel import BasisCounterexample, _check_basis
from topologic.space import set_key

F = frozenset


@pytest.fixture
def m0_space():
    return t.make_space(["x0", "x1", "x2"], [F(), F({0}), F({0, 1}), F({0, 1, 2})])


@pytest.fixture
def m0(m0_space):
    return t.make_model(m0_space, {"A": F({0}), "B": F({0, 1})})


def generate_topology(subbasis, point_names) -> t.SubsetSpace:
    """Least topology on the named points containing every subbasis set."""
    names = tuple(point_names)
    universe = F(range(len(names)))
    family = {F(), universe}
    for raw in subbasis:
        s = F(raw)
        if not s <= universe:
            raise t.SpaceError(f"subbasis set {sorted(s)} has out-of-range points")
        family.add(s)
    # Still intersection-closed: the opens form a distributive lattice.
    return t.make_space(
        names, t.close_under_union(t.close_under_intersection(family)))


def random_topology(rng: random.Random, n: int) -> t.SubsetSpace:
    names = [f"x{i}" for i in range(n)]
    k = rng.randint(0, 4)
    subbasis = [frozenset(i for i in range(n) if rng.random() < 0.5)
                for _ in range(k)]
    return generate_topology(subbasis, names)


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


def knows_box_chain(depth: int) -> str:
    """depth `K []` pairs over a conjunction: a splitting asks for the row
    of each K's operand, so a cost per asked row that grows with the
    formula shows."""
    return "K [] (" * depth + "A" + " & B)" * depth


# Formula text over the parser's token alphabet, plus a few stray
# characters; concatenation also forms identifiers such as "KA".
FORMULA_TEXT = st.lists(
    st.sampled_from(["~", "&", "|", "->", "[]", "<>", "(", ")", "K", "L",
                     "A", "B", "C", "top", "bot", " ", "-", "[", ">", "1"]),
    max_size=40).map("".join)


def same_class(family, V1, V2) -> bool:
    """Second characterization of the remainder partition: V1 and V2 lie
    below exactly the same members of the family."""
    return all((V1 <= U) == (V2 <= U) for U in family)


@functools.cache
def enumerate_closed_families(n: int) -> tuple[tuple[frozenset, ...], ...]:
    """Brute-force oracle: all families containing the empty set and X and
    closed under pairwise intersection and union, in canonical order.
    Memoized, so the tests pay for the 4-point brute force once."""
    universe = frozenset(range(n))
    middle = [frozenset(c) for k in range(1, n)
              for c in itertools.combinations(range(n), k)]
    out = []
    for k in range(len(middle) + 1):
        for combo in itertools.combinations(middle, k):
            fam = set(combo) | {F(), universe}
            if all(a & b in fam and a | b in fam for a in fam for b in fam):
                out.append(t.sort_family(fam))
    return tuple(sorted(out, key=lambda fam: tuple(set_key(U) for U in fam)))


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
                result = self.model.valuation[name] & U
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


class _ReferenceParser:
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


def reference_parse(text: str) -> Formula:
    """The recursive-descent parser that `t.parse` must agree with, on
    inputs shallow enough for the interpreter's recursion limit."""
    return _ReferenceParser(text).parse()


# Precedence levels of the reference printer; unary operators bind tightest.
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4


def reference_print(f: Formula, min_prec: int = 0) -> str:
    """The recursive printer that `t.print_formula` must agree with."""
    fmt = reference_print
    match f:
        case Atom(name):
            return name
        case Top():
            return "top"
        case Bot():
            return "bot"
        case Not(Knows(Not(x))):
            s, prec = "L " + fmt(x, _PREC_UNARY), _PREC_UNARY
        case Not(Box(Not(x))):
            s, prec = "<> " + fmt(x, _PREC_UNARY), _PREC_UNARY
        case Not(And(Not(a), Not(b))):
            s = fmt(a, _PREC_OR + 1) + " | " + fmt(b, _PREC_OR)
            prec = _PREC_OR
        case Not(And(a, Not(b))):
            s = fmt(a, _PREC_IMPLIES + 1) + " -> " + fmt(b, _PREC_IMPLIES)
            prec = _PREC_IMPLIES
        case Not(x):
            s, prec = "~" + fmt(x, _PREC_UNARY), _PREC_UNARY
        case And(a, b):
            s = fmt(a, _PREC_AND + 1) + " & " + fmt(b, _PREC_AND)
            prec = _PREC_AND
        case Knows(x):
            s, prec = "K " + fmt(x, _PREC_UNARY), _PREC_UNARY
        case Box(x):
            s, prec = "[] " + fmt(x, _PREC_UNARY), _PREC_UNARY
        case _:
            raise TypeError(f"not a formula: {f!r}")
    if prec < min_prec:
        return "(" + s + ")"
    return s


def reference_random_formula(rng: random.Random, atom_names,
                             depth: int) -> Formula:
    """The recursive generator that `t.random_formula` must agree with,
    draw for draw."""
    if depth == 0 or rng.random() < 0.2:
        leaves = [Atom(a) for a in atom_names] or [Top()]
        leaves += [Top(), Bot()]
        return rng.choice(leaves)
    kind = rng.choice(("not", "and", "knows", "box"))
    if kind == "and":
        return And(reference_random_formula(rng, atom_names, depth - 1),
                   reference_random_formula(rng, atom_names, depth - 1))
    child = reference_random_formula(rng, atom_names, depth - 1)
    if kind == "not":
        return Not(child)
    if kind == "knows":
        return Knows(child)
    return Box(child)


def reference_instantiate_axiom(scheme_id: int, substitution) -> Formula:
    """The schemes as constructor calls, which the table of scheme texts
    must agree with node for node."""
    p, q, c = (substitution.get(v) for v in ("phi", "psi", "chi"))
    match scheme_id:
        case 1:
            return Implies(p, Implies(q, p))
        case 2:
            return And(Implies(p, Box(p)), Implies(Not(p), Box(Not(p))))
        case 3:
            return Implies(Box(Implies(p, q)), Implies(Box(p), Box(q)))
        case 4:
            return Implies(Box(p), p)
        case 5:
            return Implies(Box(p), Box(Box(p)))
        case 6:
            return Implies(Knows(Implies(p, q)), Implies(Knows(p), Knows(q)))
        case 7:
            return Implies(Knows(p), p)
        case 8:
            return Implies(Knows(p), Knows(Knows(p)))
        case 9:
            return Implies(p, Knows(L(p)))
        case 10:
            return Implies(Knows(Box(p)), Box(Knows(p)))
        case 11:
            return Implies(Diamond(Box(p)), Box(Diamond(p)))
        case 12:
            return Implies(
                And(Diamond(And(Knows(p), q)), L(Diamond(And(Knows(p), c)))),
                Diamond(And(Knows(Diamond(p)), And(Diamond(q), L(Diamond(c))))))
    raise ValueError(f"unknown axiom scheme {scheme_id}")


# The frozenset versions of the splitting and space helpers, which the
# library's bitmask versions must agree with.

def reference_closure_flags(family) -> tuple[bool, bool]:
    """`make_space`'s (intersection-closed, union-closed) flags."""
    members = set(family)
    return (all(a & b in members for a in family for b in family),
            all(a | b in members for a in family for b in family))


def reference_classify(s: t.Splitting, V) -> frozenset:
    above = [U for U in s.family if V <= U]
    if not above:
        raise t.SpaceError(f"{sorted(V)} is below no member of the splitting")
    rep = s.space.universe
    for U in above:
        rep &= U
    return rep


def down(s: t.Splitting) -> tuple:
    """All opens below some member of the family, in the space's order."""
    return tuple(V for V in s.space.opens
                 if any(V <= U for U in s.family))


def remainder(s: t.Splitting, U) -> frozenset:
    """The paper's remainder of U in the family: the opens below U but
    below no member of the family not containing U."""
    if U not in s.family:
        raise t.SpaceError(f"{sorted(U)} is not in the splitting family")
    return frozenset(V for V in s.space.opens
                     if V <= U
                     and not any(V <= W for W in s.family if not U <= W))


def fast_satisfies(table: t.SplittingTable, p: t.Pair, psi: Formula) -> bool:
    """Satisfaction read at the block representative of p's open, which
    agrees with p's open on psi when the splitting is stable."""
    sp = table.splittings.get(psi)
    if sp is None:
        raise t.SpaceError(f"{psi} is not a subformula of the table's formula")
    rep = t.classify(sp, p.open)
    return table.evaluator.satisfies(t.Pair(p.point, rep), psi)


def reference_partition(s: t.Splitting) -> dict:
    blocks = {U: set() for U in s.family}
    for V in down(s):
        blocks[reference_classify(s, V)].add(V)
    return {U: frozenset(b) for U, b in blocks.items()}


def reference_interior(s: t.SubsetSpace, S) -> frozenset:
    """The union of the opens inside S."""
    return F().union(*[U for U in s.opens if U <= S])


def reference_build_splitting(m: t.Model, f: Formula) -> dict:
    """The frozenset construction of `build_splitting`: each subformula's
    family, by subformula in post-order."""
    s = m.space
    fams: dict = {}
    for psi in t.subformulas(f):
        match psi:
            case Atom(_) | Top() | Bot():
                fam = t.sort_family([s.universe, F()])
            case Not(x):
                fam = fams[x]
            case And(a, b):
                fam = reference_close_under_intersection(fams[a] + fams[b])
            case Knows(x):
                sub = t.Splitting(tuple(map(s.opens.index, fams[x])), s)
                extra = []
                for U in sub.family:
                    W = reference_interior(s, t.extension(m, U, x))
                    if reference_classify(sub, W) == U:
                        extra.append(W)
                fam = reference_close_under_intersection(
                    (*sub.family, *extra))
            case Box(x):
                fam = reference_close_under_intersection((*fams[x], *(
                    reference_interior(s, s.universe - (U - V))
                    for U in fams[x] for V in fams[x])))
        fams[psi] = fam
    return fams


def reference_basis_equivalent(m: t.Model, basis, formulas):
    """`basis_equivalent` on two evaluators, one per model, after the
    library's basis check, looked up at each call."""
    finitemodel._check_basis(m, basis)
    mb = t.make_model(t.make_space(m.space.point_names, basis),
                      dict(m.valuation))
    ev_t, ev_b = t.Evaluator(m), t.Evaluator(mb)
    for f in formulas:
        for U in mb.space.opens:
            differ = ev_t.mask(U, f) ^ ev_b.mask(U, f)
            if differ:
                least = (differ & -differ).bit_length() - 1
                return BasisCounterexample(f, t.Pair(least, U))
        if ((ev_t.first_pair(f, False) is None)
                != (ev_b.first_pair(f, False) is None)):
            return BasisCounterexample(f, None)
    return None


def hits(ev: t.Evaluator, f: Formula, holds: bool):
    """Each lane of `ev.hit_slots(f, holds)`, with its pair."""
    return ((lane, ev.pair(point, slot))
            for lane, point, slot in ev.hit_slots(f, holds))


def enumerate_valuations(n: int, atom_names):
    """Every valuation of the atoms on n points, in the order of a space's
    lanes in a search pass: the first atom's set changes slowest, and each
    atom runs through the subsets by size, then by sorted members."""
    subsets = sorted((F(x for x in range(n) if bits[x])
                      for bits in itertools.product((0, 1), repeat=n)),
                     key=lambda S: (len(S), sorted(S)))
    for sets in itertools.product(subsets, repeat=len(atom_names)):
        yield dict(zip(atom_names, sets))


def reference_hits(ev: t.Evaluator, f: Formula, holds: bool,
                   lanes: int) -> list:
    """`hits` one lane at a time: in each lane, the opens largest
    first and the points ascending, each slot's row shifted to the lane."""
    frame = ev._frame
    w = frame.width
    slots = sorted(enumerate(map(t.space.from_mask, frame.slots)),
                   key=lambda slot: -len(slot[1]))
    out, rows = [], ev.row(f)  # read once: a search pass keeps no row
    for lane in range(lanes):
        for i, U in slots:
            row = rows[i]
            if not holds:
                row ^= frame.masks[i]
            bits = row >> lane * w & (1 << w - 1) - 1
            if bits:
                out.append((lane, t.Pair((bits & -bits).bit_length() - 1, U)))
                break
    return out


def reference_is_stable(ev: t.Evaluator, block, f: Formula) -> bool:
    sat = fail = 0  # points where f holds, and fails, at some member
    for V in block:
        sat |= ev.mask(V, f)
        fail |= ev.mask(V, Not(f))
    return not sat & fail


# The fixpoint closures, and the pairwise basis check, that the library's
# single-pass closures, worklist and `is_closed` must agree with.

def _reference_close(family, op) -> tuple:
    result = set(family)
    while True:
        new = {op(a, b) for a in result for b in result} - result
        if not new:
            return t.sort_family(result)
        result |= new


def reference_close_under_intersection(family) -> tuple:
    return _reference_close(family, frozenset.__and__)


def reference_close_under_union(family) -> tuple:
    return _reference_close(family, frozenset.__or__)


def reference_closure_family(m: t.Model, atom_list) -> tuple[tuple, tuple]:
    s = m.space
    universe = s.universe
    family = {universe, F()}
    for name in atom_list:
        family.add(m.valuation[name])
    while True:
        new = set()
        for a in family:
            c = universe - a
            if c not in family:
                new.add(c)
            i = t.interior(s, a)
            if i not in family:
                new.add(i)
            for b in family:
                if a & b not in family:
                    new.add(a & b)
        if not new:
            break
        family |= new
    open_part = t.sort_family(t.interior(s, a) for a in family)
    return t.sort_family(family), open_part


def reference_check_basis(m: t.Model, basis) -> None:
    """The pairwise basis check, with its messages naming point indices."""
    opens = set(m.space.opens)
    fam = set(basis)
    for B in fam:
        if B not in opens:
            raise t.SpaceError(f"basis member {sorted(B)} is not open")
    for a in fam:
        for b in fam:
            if a | b not in fam:
                raise t.SpaceError("basis is not closed under union")
    for U in opens:
        if U and F().union(*[B for B in fam if B <= U] or [F()]) != U:
            raise t.SpaceError(f"basis does not generate the open {sorted(U)}")


def minimal_neighborhood_basis(m: t.Model) -> tuple:
    """Union closure of the minimal open neighborhoods of all points: the
    least basis of a finite topology closed under union."""
    s = m.space
    seeds = []
    for x in s.universe:
        nbhd = s.universe
        for U in s.opens:
            if x in U:
                nbhd &= U
        seeds.append(nbhd)
    return t.close_under_union(seeds)


def basis_witness(m: t.Model, basis, family, V, x: int) -> frozenset:
    """The basis lemma's witness: a basis member U with x in U, U below V
    and U in the remainder of V in the family.

    Built as in the existence argument: a basic neighborhood of x inside V,
    joined with one basic set per family member that fails to contain V,
    hitting the difference.  The basis is checked as the library checks it.
    """
    _check_basis(m, basis)
    fam = t.sort_family(family)
    if V not in fam:
        raise t.SpaceError("V must belong to the family")
    if x not in V:
        raise t.SpaceError("x must belong to V")
    sorted_basis = t.sort_family(basis)

    def basic_neighborhood(point: int, inside) -> frozenset:
        for B in sorted_basis:
            if point in B and B <= inside:
                return B
        raise t.SpaceError("basis does not generate the topology")

    witness = basic_neighborhood(x, V)
    for Vi in fam:
        if not V <= Vi:
            witness |= basic_neighborhood(min(V - Vi), V)
    # Direct remainder membership: below V, below no family member that
    # fails to contain V.
    if not (x in witness and witness <= V
            and not any(witness <= Vi for Vi in fam if not V <= Vi)
            and witness in sorted_basis):
        raise t.InternalError("basis witness is not a basis member "
                              "containing x in the remainder of V")
    return witness


def reference_labeled_decide(f: Formula, b: t.SearchBound, holds: bool):
    """The labeled search that `decide_sat` and `decide_valid` ran before
    they scanned one topology per homeomorphism class: the least
    (model, pair) over every labeled topology on 1 to b.max_points points
    at which f has the truth value holds, or None."""
    spaces = (s for n in range(1, b.max_points + 1)
              for s in t.enumerate_topologies(n))
    names = sorted(set(b.atoms))
    hit = t.decide._first_hit(search_passes(spaces, names), names, (f,), holds)
    return hit and (hit[0], hit[2])


def search_passes(spaces, names):
    """The passes of `decide._space_passes` over the spaces, each with an
    evaluator over its frame, every frame built afresh: the passes that a
    search runs, without the layout memo."""
    for group, lo, firsts in t.decide._space_passes(spaces, names):
        yield group, lo, firsts, t.Evaluator(
            t.decide._new_frame(group, lo, firsts, names))


def reference_sweep(b: t.SearchBound, scheme_ids, trials: int, seed: int,
                    spaces=None) -> t.SweepReport:
    """`axiom_soundness_sweep` as it ran before sweeps walked templates: it
    draws the same substitutions, builds every instance before the first
    pass, and asks each pass, every frame built afresh, for the instances'
    own hits, in order."""
    if spaces is None:
        spaces = [s for n in range(1, b.max_points + 1)
                  for s in t.enumerate_topologies(n)]
    rng = random.Random(seed)
    names = tuple(b.atoms) or ("A",)
    instances = []
    for sid in scheme_ids:
        for _ in range(trials):
            subst = {var: Atom(rng.choice(names)) if sid == 2
                     else t.random_formula(rng, names, 2)
                     for var in t.semantics.AXIOM_METAVARS[sid]}
            instances.append((sid, t.instantiate_axiom(sid, subst)))
    checked = {sid: 0 for sid in scheme_ids}
    violations = []
    for group, lo, firsts, ev in search_passes(spaces, names):
        found = sorted(((lane, j, pair)
                        for j, (_, instance) in enumerate(instances)
                        for lane, pair in hits(ev, instance, False)),
                       key=lambda hit: hit[:2])
        for lane, j, pair in found:
            model = t.decide._lane_model(group, lo, firsts, names, lane)
            violations.append(t.decide.SchemeViolation(*instances[j], model,
                                                       pair))
        for sid, _ in instances:
            checked[sid] += firsts[-1]
    return t.SweepReport(checked, violations)


def homeomorphism_class(s: t.SubsetSpace) -> tuple:
    """Brute-force canonical form: the least image of the opens, as sorted
    point tuples, under every permutation of the points."""
    perms = itertools.permutations(range(len(s.point_names)))
    return min(tuple(sorted(tuple(sorted(perm[x] for x in U))
                            for U in s.opens)) for perm in perms)


def reference_model_from_document(doc: dict) -> tuple:
    """The frozenset loader that `modelfile.model_from_document` replaced:
    each open a set of point indices, sorted by `set_key`, its mask built
    afterwards.  Returns (point names, opens, masks, valuation), or raises
    the library's SpaceError with the library's message."""
    for key in ("points", "opens", "valuation"):
        if key not in doc:
            raise t.SpaceError(f"model document is missing the {key!r} key")
    points = doc["points"]
    if (not isinstance(points, list)
            or not all(isinstance(p, str) for p in points)):
        raise t.SpaceError("'points' must be a list of identifiers")
    index = {name: i for i, name in enumerate(points)}

    def to_set(raw, where: str) -> frozenset:
        if (not isinstance(raw, list)
                or not all(isinstance(name, str) for name in raw)):
            raise t.SpaceError(f"{where} must be a list of point identifiers")
        out = set()
        for name in raw:
            if name not in index:
                raise t.SpaceError(
                    f"{where} mentions undeclared point {name!r}")
            out.add(index[name])
        return frozenset(out)

    if not isinstance(doc["opens"], list):
        raise t.SpaceError("'opens' must be a list of opens")
    opens = [to_set(raw, "each open") for raw in doc["opens"]]
    if not isinstance(doc["valuation"], dict):
        raise t.SpaceError("'valuation' must be a map from atoms to point lists")
    for atom in doc["valuation"]:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", atom) or atom in (
                "K", "L"):
            raise t.SpaceError(f"valuation: {atom!r} is not an atom name")
    valuation = {atom: to_set(raw, f"valuation of {atom!r}")
                 for atom, raw in doc["valuation"].items()}
    names = tuple(points)
    if not names:
        raise t.SpaceError("a space needs at least one point")
    if len(set(names)) != len(names):
        raise t.SpaceError("duplicate point names")
    family = tuple(sorted(set(opens), key=set_key))
    masks = tuple(sum(1 << x for x in U) for U in family)
    if (1 << len(names)) - 1 not in masks:
        raise t.SpaceError("the full point set X must be open")
    for atom in valuation:
        if atom in ("top", "bot"):
            raise t.SpaceError(f"atom name {atom!r} is reserved")
    return names, family, masks, valuation


def reference_point_quotient(m: t.Model, atom_list) -> tuple:
    """`finitemodel.point_quotient` by membership tests over frozensets:
    (point classes, open classes, quotient point names, opens, masks,
    valuation)."""
    names = tuple(sorted(set(atom_list)))
    s = m.space
    profiles: dict = {}
    point_class = {}
    for x in range(len(s.point_names)):
        profile = (tuple(x in U for U in s.opens),
                   tuple(x in m.valuation[a] for a in names))
        point_class[x] = profiles.setdefault(profile, len(profiles))
    open_class = {U: F(point_class[x] for x in U) for U in s.opens}
    family = tuple(sorted(set(open_class.values()), key=set_key))
    return (point_class, open_class, tuple(f"c{i}" for i in range(len(profiles))),
            family, tuple(sum(1 << x for x in U) for U in family),
            {a: F(point_class[x] for x in m.valuation[a]) for a in names})
