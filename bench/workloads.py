"""The three workloads: seeded inputs, the operations run on them, and the
checks of each operation's output against the oracle.

Each workload has two halves.  `<workload>_inputs(rng)` builds plain data
on the benchmark's side (oracle formulas, model documents); it never
touches the library.  `<workload>_setup(lib, inputs, ...)` turns that data
into library calls and files, and is what `setup_s` times.  An operation is an `Op`: `run` is the
timed call, `signature` reduces its result to plain data that later rounds
must reproduce exactly, and `check` compares the result with the oracle,
returning a description of the first problem or None.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any, Callable, NamedTuple

import oracle as O


class Op(NamedTuple):
    label: str
    run: Callable[[], Any]
    signature: Callable[[Any], Any]
    check: Callable[[Any], "str | None"]


class OpFailed(Exception):
    """An operation ended in an error instead of a verdict."""


def random_formula(rng: random.Random, names, size: int, leaves=True):
    """Random oracle formula with exactly `size` connectives over `names`
    (plus top and bot when `leaves` is set)."""
    if size == 0:
        pool = [O.atom(a) for a in names] + ([O.TOP, O.BOT] if leaves else [])
        return rng.choice(pool)
    kind = rng.choice(("not", "and", "K", "box"))
    if kind == "and":
        left = rng.randrange(size)
        return O.conj(random_formula(rng, names, left, leaves),
                      random_formula(rng, names, size - 1 - left, leaves))
    child = random_formula(rng, names, size - 1, leaves)
    return {"not": O.neg, "K": O.know, "box": O.box}[kind](child)


def _model_signature(m) -> tuple:
    return (m.space.point_names, m.space.opens,
            tuple(sorted(m.valuation.items())))


# ---------------------------------------------------------------- decide

# Composition of one round.  SCHEME_INSTANCES instances of each of the
# twelve schemes are valid and their negations unsatisfiable, so both scan
# every model up to 3 points; FOUR_POINT_QUERIES copies of K A -> A
# (scheme 7) add full scans of the 355 topologies on 4 points.  The
# random queries are picked by the oracle so that a witness exists on one
# point (sat) or a falsifier on at most two points (valid): they end early.
# RANDOM_VALID random formulas are valid up to 3 points and scan fully.
SCHEME_INSTANCES = 2
FOUR_POINT_QUERIES = 1
RANDOM_SAT = 8
RANDOM_INVALID = 4
RANDOM_VALID = 4
# The scheme-11 search takes no seeded input, so its copies cost the same
# in every run; five of them span the 90th percentile of a round, which
# then reads close to their median.
BOUNDARY_QUERIES = 5


def _scheme_instance(rng: random.Random, sid: int):
    """An instance with each metavariable replaced by ~A, K A or [] A
    (scheme 2 takes atoms only), so that instances of one scheme cost
    about the same whatever the seed."""
    if sid == 2:
        return O.scheme(2, O.atom("A"))
    args = [rng.choice((O.neg, O.know, O.box))(O.atom("A"))
            for _ in range(O.SCHEME_ARITY[sid])]
    return O.scheme(sid, *args)


def _pick_random(rng: random.Random, want: str, count: int) -> list:
    """Random one-atom formulas of 2-4 connectives with the wanted
    oracle verdict: 'sat' (true somewhere on one point), 'invalid' (false
    somewhere on at most two points) or 'valid' (true everywhere up to 3)."""
    out = []
    while len(out) < count:
        f = random_formula(rng, ["A"], rng.randint(2, 4))
        if want == "sat":
            ok = O.satisfiable_up_to(f, ["A"], 1)
        elif want == "invalid":
            ok = not O.valid_up_to(f, ["A"], 2)
        else:
            ok = O.valid_up_to(f, ["A"], 3)
        if ok and f not in out:
            out.append(f)
    return out


def decide_inputs(rng: random.Random) -> list[tuple]:
    """(mode, oracle formula, points, expected verdict kind, confirm) per
    query; mode 'boundary' is the scheme-11 subset-space search, and
    `confirm` asks for a valid verdict to be confirmed by the oracle."""
    queries = []
    for sid in range(1, 13):
        for _ in range(SCHEME_INSTANCES):
            f = _scheme_instance(rng, sid)
            queries.append(("valid", f, 3, "valid_within_bound", False))
            queries.append(("sat", O.neg(f), 3, "no_model_within_bound", False))
    queries += [("valid", O.scheme(7, O.atom("A")), 4, "valid_within_bound",
                 False)] * FOUR_POINT_QUERIES
    queries += [("sat", f, 3, "satisfiable", False)
                for f in _pick_random(rng, "sat", RANDOM_SAT)]
    queries += [("valid", f, 3, "invalid", False)
                for f in _pick_random(rng, "invalid", RANDOM_INVALID)]
    queries += [("valid", f, 3, "valid_within_bound", True)
                for f in _pick_random(rng, "valid", RANDOM_VALID)]
    queries += [("boundary", None, 3, "hit", False)] * BOUNDARY_QUERIES
    rng.shuffle(queries)
    return queries


def _check_decide(mode, f, points, expected, confirm, verdict) -> str | None:
    if verdict.kind != expected:
        return f"{mode} {O.render(f)}: {verdict.kind}, expected {expected}"
    if verdict.model is None:
        if confirm and not O.valid_up_to(f, ["A"], 3):
            return f"{O.render(f)} judged valid but the oracle falsifies it"
        return None
    m = O.from_library_model(verdict.model)
    x, U = verdict.pair.point, verdict.pair.open
    if len(verdict.model.space.point_names) > points:
        return f"{O.render(f)}: witness beyond the point bound"
    if not O.is_topology(m.n, m.opens):
        return f"{O.render(f)}: witness is not a topology"
    if x not in U or U not in m.opens or O.sat(m, x, U, f) != (mode == "sat"):
        return f"{O.render(f)}: the oracle disagrees at the witness pair"
    return None


def _check_boundary(hit) -> str | None:
    if hit is None:
        return "scheme 11 boundary search found nothing"
    model, instance, pair = hit
    m = O.from_library_model(model)
    if O.is_topology(m.n, m.opens) or m.n > 3 or len(m.opens) > 4:
        return "scheme 11 hit is not a non-topology within 3 points, 4 opens"
    f = O.from_ast(instance)
    if O.scheme(11, _scheme11_operand(f)) != f:
        return "scheme 11 hit is not an instance of scheme 11"
    if pair.open not in m.opens or pair.point not in pair.open:
        return "scheme 11 hit pair is not a pair of the model"
    if O.sat(m, pair.point, pair.open, f):
        return "the oracle satisfies the scheme 11 hit at its pair"
    return None


def _scheme11_operand(f):
    """p from an oracle formula shaped like <>[]p -> []<>p, else None."""
    try:
        return f[1][1][1][1][1][1]
    except (IndexError, TypeError):
        return None


def decide_setup(lib, queries) -> list[Op]:
    parse = lib.formula.parse
    ops = []
    for mode, f, points, expected, confirm in queries:
        if mode == "boundary":
            bound = lib.decide.SearchBound(3, ())
            ops.append(Op(
                "boundary",
                lambda b=bound: lib.decide.find_subset_space_countermodel(11, b),
                lambda hit: None if hit is None else (
                    _model_signature(hit[0]), O.from_ast(hit[1]),
                    hit[2].point, hit[2].open),
                _check_boundary))
            continue
        ast = parse(O.render(f))
        if O.from_ast(ast) != f:
            raise RuntimeError(f"parse does not round-trip {O.render(f)}")
        bound = lib.decide.SearchBound(points, ("A",))
        name = "decide_sat" if mode == "sat" else "decide_valid"
        ops.append(Op(
            f"{mode}@{points}",
            lambda name=name, ast=ast, bound=bound:
                getattr(lib.decide, name)(ast, bound),
            lambda v: (v.kind, None if v.model is None else (
                _model_signature(v.model), v.pair.point, v.pair.open)),
            lambda v, q=(mode, f, points, expected, confirm):
                _check_decide(*q, v)))
    return ops


# ----------------------------------------------------------------- sweep

SWEEP_TRIALS = 1
# Fixed calls in a fixed order: two for each of schemes 1-11 and three for
# scheme 12, whose calls cost several times any other and form the tail of
# a round.  The sweep takes no seeded input.  With seeded sweep seeds the
# time of one call moved by up to a factor of 2 with its random instance,
# and with a seeded order the allocation peak moved by up to a fifth,
# since what stays allocated from one call to the next depends on the order.
SWEEP_CALLS = [(sid, seed) for seed in (1, 2) for sid in range(1, 12)]
SWEEP_CALLS += [(12, seed) for seed in (1, 2, 3)]
SWEEP_MODELS = 29 * 8  # 3-point topologies times one-atom valuations


def sweep_inputs(rng: random.Random) -> list[tuple[int, int]]:
    """(scheme id, sweep seed) per call; the same for every workload seed."""
    return list(SWEEP_CALLS)


def _check_sweep(sid, report) -> str | None:
    if not report.clean:
        return f"scheme {sid}: {len(report.violations)} violations on topologies"
    if dict(report.checked) != {sid: SWEEP_MODELS * SWEEP_TRIALS}:
        return f"scheme {sid}: checked {dict(report.checked)}"
    return None


def sweep_setup(lib, calls) -> list[Op]:
    spaces = list(lib.decide.enumerate_topologies(3))
    if len(spaces) != O.TOPOLOGY_COUNTS[3] or not all(
            O.is_topology(3, s.opens) for s in spaces) or len(
            {s.opens for s in spaces}) != len(spaces):
        raise RuntimeError("enumerate_topologies(3) is not the 29 topologies")
    bound = lib.decide.SearchBound(3, ("A",))
    return [Op(f"scheme{sid}",
               lambda sid=sid, seed=seed: lib.decide.axiom_soundness_sweep(
                   bound, [sid], SWEEP_TRIALS, seed, spaces=spaces),
               lambda r: (r.clean, tuple(r.checked.items()), len(r.violations)),
               lambda r, sid=sid: _check_sweep(sid, r))
            for sid, seed in calls]


# ---------------------------------------------------------------- models

# Nine models at each size from 6 to 9 points, 10 to 18 opens each.
MODEL_SIZES = (6, 7, 8, 9) * 9
MIN_OPENS, MAX_OPENS = 10, 18
MIN_SUBFORMULAS = 10


def _random_topology(rng: random.Random, n: int) -> tuple[frozenset, ...]:
    while True:
        subbasis = [frozenset(i for i in range(n) if rng.random() < 0.5)
                    for _ in range(rng.randint(2, 4))]
        opens = O.close_family(n, subbasis)
        if MIN_OPENS <= len(opens) <= MAX_OPENS:
            return opens


def _model_formula(rng: random.Random):
    while True:
        f = random_formula(rng, ["A", "B"], rng.randint(10, 12), leaves=False)
        if len(O.subterms(f)) >= MIN_SUBFORMULAS and O.modal_depth(f) <= 3:
            return f


def models_inputs(rng: random.Random) -> list[dict]:
    """Per model: the oracle model, its formula, an evaluation pair, and
    the texts of its model, basis and formula files."""
    out = []
    for n in MODEL_SIZES:
        opens = _random_topology(rng, n)
        val = {a: frozenset(i for i in range(n) if rng.random() < 0.5)
               for a in ("A", "B")}
        m = O.Model(n, opens, val)
        names = tuple(f"x{i}" for i in range(n))
        U = rng.choice([U for U in opens if U])
        x = rng.choice(sorted(U))
        basis = [[names[y] for y in sorted(B)]
                 for B in _min_neighbourhood_basis(m)]
        formula = _model_formula(rng)
        out.append({
            "model": m, "names": names, "formula": formula, "at": (x, U),
            "formula_text": O.render(formula),
            "at_text": f"{names[x]}:{','.join(names[y] for y in sorted(U))}",
            "model_file": json.dumps(O.to_document(m, names)),
            "basis_file": json.dumps(basis),
            "formulas_file": "".join(O.render(_model_formula(rng)) + "\n"
                                     for _ in range(3))})
    return out


def _fmt_set(names, S) -> str:
    return "{" + ", ".join(names[i] for i in sorted(S)) + "}"


def _parse_set(text: str, index: dict) -> frozenset:
    inner = text.strip()[1:-1]
    return frozenset(index[p.strip()] for p in inner.split(",") if p.strip())


def _check_quotient(spec, out_path: Path, code, text) -> str | None:
    m, names, f = spec["model"], spec["names"], spec["formula"]
    if code != 0:
        return f"quotient exit code {code}"
    q, qnames = O.from_document(json.loads(out_path.read_text()))
    if not O.is_topology(q.n, q.opens):
        return "quotient model is not a topology"
    index = {p: i for i, p in enumerate(names)}
    qindex = {p: i for i, p in enumerate(qnames)}
    point_class, open_class, section = {}, {}, None
    for line in text.splitlines():
        if line in ("point classes:", "open classes:"):
            section = line
        elif line.startswith("  ") and section == "point classes:":
            src, dst = line.split(" -> ")
            point_class[index[src.strip()]] = qindex[dst.strip()]
        elif line.startswith("  ") and section == "open classes:":
            src, dst = line.split(" -> ")
            open_class[_parse_set(src, index)] = _parse_set(dst, qindex)
        elif not line.startswith("  "):
            section = None
    if set(point_class) != set(range(m.n)) or not open_class:
        return "quotient output lacks the point or open classes"
    for U, qU in open_class.items():
        if U not in m.opens or qU not in q.opens:
            return f"quotient maps {_fmt_set(names, U)} outside the opens"
        for x in U:
            if O.sat(m, x, U, f) != O.sat(q, point_class[x], qU, f):
                return (f"quotient disagrees at {names[x]}, "
                        f"{_fmt_set(names, U)}")
    return None


def _check_models(kind, spec, res) -> str | None:
    code, text = res
    m, names, f = spec["model"], spec["names"], spec["formula"]
    if kind == "check":
        bad = O.first_falsifying(m, f)
        want = ("valid" if bad is None else
                f"counterexample: point {names[bad[0]]}, "
                f"open {_fmt_set(names, bad[1])}")
        if (code, text.strip()) != (0 if bad is None else 1, want):
            return f"check: got {code} {text.strip()!r}, expected {want!r}"
    elif kind == "check_at":
        x, U = spec["at"]
        holds = O.sat(m, x, U, f)
        tail = ": satisfied" if holds else ": not satisfied"
        if code != (0 if holds else 1) or not text.strip().endswith(tail):
            return f"check --at: got {code} {text.strip()!r}"
    elif kind == "split":
        heads = sum(line.startswith("subformula: ") for line in text.splitlines())
        if code != 0 or "UNSTABLE" in text or heads != len(O.subterms(f)):
            return f"split: exit {code}, {heads} subformulas, unstable={'UNSTABLE' in text}"
    elif kind == "basis":
        if code != 0 or not text.startswith("equivalent on 3 formula(s)"):
            return f"basis: got {code} {text.strip()!r}"
    return None


def _run_cli(lib, argv: list[str], sink: list[int]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lib.cli.main(argv)
    text = out.getvalue()
    sink[0] += len(text.encode())
    if code not in (0, 1):
        raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
    return code, text


def _min_neighbourhood_basis(m: O.Model) -> list[frozenset]:
    """Unions of the points' least neighbourhoods (the oracle's own)."""
    seeds = []
    for x in range(m.n):
        nb = frozenset(range(m.n))
        for U in m.opens:
            if x in U:
                nb &= U
        seeds.append(nb)
    fam = set(seeds)
    while True:
        new = {a | b for a in fam for b in fam} - fam
        if not new:
            return sorted(fam, key=lambda s: (len(s), sorted(s)))
        fam |= new


def models_setup(lib, specs, workdir: Path, stdout_bytes: list[int]) -> list[Op]:
    """Write each model, basis and formula file, and build the five CLI
    commands per model.  `stdout_bytes[0]` accumulates captured output."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, spec in enumerate(specs):
        model_path = workdir / f"model{i}.json"
        model_path.write_text(spec["model_file"])
        basis_path = workdir / f"basis{i}.json"
        basis_path.write_text(spec["basis_file"])
        formulas_path = workdir / f"formulas{i}.txt"
        formulas_path.write_text(spec["formulas_file"])
        out_path = workdir / f"quotient{i}.json"
        text = spec["formula_text"]
        commands = {
            "check": ["check", str(model_path), text],
            "check_at": ["check", str(model_path), text, "--at", spec["at_text"]],
            "split": ["split", str(model_path), text],
            "quotient": ["quotient", str(model_path), text, "--out", str(out_path)],
            "basis": ["basis", str(model_path), str(basis_path),
                      "--formulas", str(formulas_path)],
        }
        for kind, argv in commands.items():
            if kind == "quotient":
                check = (lambda res, spec=spec, p=out_path:
                         _check_quotient(spec, p, *res))
                sig = (lambda res, p=out_path: (res, p.read_text()))
            else:
                check = (lambda res, kind=kind, spec=spec:
                         _check_models(kind, spec, res))
                sig = (lambda res: res)
            ops.append(Op(kind,
                          lambda argv=argv: _run_cli(lib, argv, stdout_bytes),
                          sig, check))
    return ops
