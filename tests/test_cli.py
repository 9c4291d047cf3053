import ast
import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import topologic as t
from topologic import cli, finitemodel
from topologic.cli import main
from conftest import (FORMULA_TEXT, ReferenceEvaluator, generate_topology,
                      knows_box_chain, reference_model_from_document)

F = frozenset

M0_DOC = {
    "points": ["x0", "x1", "x2"],
    "opens": [[], ["x0"], ["x0", "x1"], ["x0", "x1", "x2"]],
    "valuation": {"A": ["x0"], "B": ["x0", "x1"]},
}


@pytest.fixture
def m0_file(tmp_path):
    path = tmp_path / "m0.json"
    path.write_text(json.dumps(M0_DOC))
    return str(path)


@pytest.fixture
def non_topology_file(tmp_path):
    doc = {"points": ["x0", "x1", "x2"],
           "opens": [["x0", "x1"], ["x0", "x2"], ["x0", "x1", "x2"]],
           "valuation": {"A": ["x0"]}}
    path = tmp_path / "nontop.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_valid(m0_file, capsys):
    assert main(["check", m0_file, "K A -> A"]) == 0
    assert "valid" in capsys.readouterr().out


def test_check_counterexample(m0_file, capsys):
    assert main(["check", m0_file, "A -> K A"]) == 1
    out = capsys.readouterr().out
    assert "counterexample" in out and "x0" in out and "{x0, x1, x2}" in out


def test_check_unknown_atom(m0_file, capsys):
    assert main(["check", m0_file, "K C"]) == 2
    assert "unknown atom" in capsys.readouterr().err


def test_check_at_pair(m0_file, capsys):
    assert main(["check", m0_file, "K B", "--at", "x0:x0,x1"]) == 0
    assert "satisfied" in capsys.readouterr().out


def test_check_at_and_basis_make_no_point_set(m0_file, tmp_path):
    """`load_model`, `check --at` and `basis` read the model's masks: none
    makes a point set through `space.from_mask`, as the frozenset views
    of a space and a model do when read."""
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(M0_DOC["opens"]))

    def made():  # every call of from_mask is a hit or a miss
        return sum(t.space.from_mask.cache_info()[:2])

    before = made()
    m = t.load_model(m0_file)
    assert main(["check", m0_file, "K B", "--at", "x0:x0,x1"]) == 0
    assert main(["check", m0_file, "K A", "--at", "x1:x0,x1"]) == 1
    assert main(["basis", m0_file, str(basis), "--trials", "20"]) == 0
    assert made() == before
    assert m.masks == {"A": 1, "B": 3}
    assert m.valuation == {"A": F({0}), "B": F({0, 1})}
    assert made() == before + 2


def test_check_at_point_outside_open(m0_file, capsys):
    assert main(["check", m0_file, "A", "--at", "x1:x0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: point x1 not in open {x0}\n"
    assert captured.out == ""


def test_duplicate_point_names_exit_2(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"points": ["x0", "x1", "x0"],
                                "opens": [["x0", "x1"]], "valuation": {}}))
    assert main(["check", str(path), "top"]) == 2
    assert capsys.readouterr().err == "error: duplicate point names\n"


def test_check_parse_error(m0_file, capsys):
    assert main(["check", m0_file, "(A & B"]) == 2


def test_check_deep_nesting(m0_file, capsys):
    # Parsing and evaluation recurse nowhere: A inside 300 parentheses, and
    # A behind 600 negations, fail at x1.
    assert main(["check", m0_file, "(" * 300 + "A" + ")" * 300]) == 1
    assert capsys.readouterr().out.startswith("counterexample: point x1")
    assert main(["check", m0_file, "~" * 600 + "A"]) == 1
    assert capsys.readouterr().out.startswith("counterexample: point x1")


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent.json", "A"]) == 2


# Each file a command reads, with BAD in its place.
READ_ARGVS = [
    ["check", "BAD", "A"], ["check", "BAD", "A", "--at", "x0:x0"],
    ["split", "BAD", "A"], ["quotient", "BAD", "A"], ["axioms", "BAD"],
    ["basis", "BAD", "BASIS"], ["basis", "MODEL", "BAD"],
    ["basis", "MODEL", "BASIS", "--formulas", "BAD"],
]


@pytest.mark.parametrize("argv", READ_ARGVS, ids=" ".join)
@pytest.mark.parametrize("bad", ["missing", "directory", "not UTF-8"])
def test_unreadable_files_exit_2(m0_file, tmp_path, capsys, argv, bad):
    """A missing path, a directory or bytes that are not UTF-8 (here a
    Latin-1 e-acute) end as one error line and exit 2, with no output."""
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(M0_DOC["opens"]))
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b'["x\xe9"]\n')
    path = {"missing": tmp_path / "missing.json", "directory": tmp_path,
            "not UTF-8": latin1}[bad]
    names = {"BAD": str(path), "MODEL": m0_file, "BASIS": str(basis)}
    assert main([names.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if bad == "not UTF-8":
        assert "can't decode byte 0xe9" in captured.err


@pytest.mark.parametrize("argv", [
    ["quotient", "MODEL", "K A"],
    ["decide", "A & ~K A", "--mode", "sat", "--points", "2"],
], ids=" ".join)
@pytest.mark.parametrize("out", ["a directory", "under a missing directory",
                                 "empty"])
def test_unwritable_out_exits_2(m0_file, tmp_path, capsys, argv, out):
    path = {"a directory": tmp_path, "empty": "",
            "under a missing directory": tmp_path / "none" / "out.json"}[out]
    argv = [m0_file if arg == "MODEL" else arg for arg in argv]
    assert main([*argv, "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "none").exists()


def test_split_knows(m0_file, capsys, monkeypatch):
    built = []
    init = t.Evaluator.__init__
    monkeypatch.setattr(t.Evaluator, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    assert main(["split", m0_file, "K A"]) == 0
    out = capsys.readouterr().out
    assert "K A" in out
    assert "stable" in out and "UNSTABLE" not in out
    # The stability checks read the evaluator that built the splittings.
    assert len(built) == 1


def test_split_atom(m0_file, capsys):
    assert main(["split", m0_file, "A"]) == 0
    out = capsys.readouterr().out
    assert "family: {{}, {x0, x1, x2}}" in out


def test_split_deep_chain(tmp_path, capsys):
    # The report lists every sub-subformula per block, so its size grows
    # with the cube of the depth; one point keeps it near 50 MB.
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"points": ["x0"], "opens": [[], ["x0"]],
                                "valuation": {"A": ["x0"]}}))
    assert main(["split", str(path), "~" * 520 + "A"]) == 0
    out = capsys.readouterr().out
    assert out.count("subformula: ") == 521
    assert "UNSTABLE" not in out
    _assert_stability_lines(out, t.parse("~" * 520 + "A"))


def _assert_stability_lines(out: str, f: t.Formula) -> None:
    """Each subformula psi of f heads its part of split's report, in
    post-order, and each of its blocks' stability lines names exactly
    subformulas(psi), in the order of f's subformulas, each stable."""
    order = t.subformulas(f)
    text = {phi: t.print_formula(phi) for phi in order}
    heads, lines = [], []
    for line in out.splitlines():
        if line.startswith("subformula: "):
            heads.append(line[len("subformula: "):])
        elif line.startswith("    stability: "):
            lines.append((len(heads) - 1, line[len("    stability: "):]))
    assert heads == [text[psi] for psi in order]
    expected = {}
    for k, listed in lines:
        if k not in expected:
            inner = set(t.subformulas(order[k]))
            expected[k] = "; ".join([text[phi] + ": stable"
                                     for phi in order if phi in inner])
        assert listed == expected[k]
    assert set(expected) == set(range(len(order)))


# Shared operands, which post-order lists once: the second & operand
# already listed, an operand shared across branches, and double negation.
SHARED_OPERAND_TEXTS = ["A & A", "K A & ~K A", "~~A", "(A & B) & (B & A)",
                        "[] (K A & A) & ~K A", "K ~~A & ~A", "(A | B) -> (B | A)"]


def test_split_stability_lines_match_reference(m0_file, tmp_path, capsys):
    rng = random.Random(3434)
    paths = [m0_file]
    for i in range(3):
        path = tmp_path / f"model{i}.json"
        t.save_model(_golden_model(rng, rng.randint(4, 7)), path)
        paths.append(str(path))
    texts = SHARED_OPERAND_TEXTS + [
        t.print_formula(t.random_formula(rng, ["A", "B"], rng.randint(2, 5)))
        for _ in range(24)]
    for i, text in enumerate(texts):
        assert main(["split", paths[i % len(paths)], text]) == 0
        _assert_stability_lines(capsys.readouterr().out, t.parse(text))


def test_quotient_deep_chain(m0_file, capsys):
    assert main(["quotient", m0_file, "~" * 600 + "A"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("restricted family: {{}, {x0, x1, x2}}")


# 5,000 boxes, each over a parenthesised conjunction: 10,000 deep.
DEEP = "[] (" * 5000 + "A" + " & B)" * 5000


@pytest.mark.parametrize("command, code, first_line", [
    ("check", 1, "counterexample: point x1, open {x0, x1, x2}"),
    ("quotient", 0, "restricted family: {{}, {x0, x1, x2}}"),
    ("basis", 0, "equivalent on 1 formula(s)"),
    ("decide", 1, "invalid"),
])
def test_commands_on_deep_formula(m0_file, tmp_path, capsys, command, code,
                                  first_line):
    basis_path, formulas_path = tmp_path / "basis.json", tmp_path / "f.txt"
    basis_path.write_text(json.dumps(M0_DOC["opens"]))
    formulas_path.write_text(DEEP + "\n")
    argv = {"check": ["check", m0_file, DEEP],
            "quotient": ["quotient", m0_file, DEEP],
            "basis": ["basis", m0_file, str(basis_path),
                      "--formulas", str(formulas_path)],
            "decide": ["decide", DEEP, "--points", "2"]}[command]
    assert main(argv) == code
    assert capsys.readouterr().out.splitlines()[0] == first_line


@pytest.mark.parametrize("command, code, first_line", [
    ("check", 1, "counterexample: point x0, open {x0, x1, x2}"),
    ("quotient", 0, "restricted family: {{}, {x0}, {x0, x1, x2}}"),
])
def test_commands_on_deep_knows_chain(m0_file, capsys, command, code,
                                      first_line):
    assert main([command, m0_file, knows_box_chain(2000)]) == code
    assert capsys.readouterr().out.splitlines()[0] == first_line


def test_split_non_topology(non_topology_file, capsys):
    assert main(["split", non_topology_file, "A"]) == 2
    assert "not a topology" in capsys.readouterr().err


def test_quotient_chain(tmp_path, capsys):
    doc = {"points": ["x0", "x1", "x2", "x3"],
           "opens": [[], ["x0"], ["x0", "x1"], ["x0", "x1", "x2"],
                     ["x0", "x1", "x2", "x3"]],
           "valuation": {"A": ["x0"]}}
    model_path = tmp_path / "chain.json"
    model_path.write_text(json.dumps(doc))
    out_path = tmp_path / "finite.json"
    assert main(["quotient", str(model_path), "A", "--out", str(out_path)]) == 0
    emitted = t.load_model(out_path)
    assert len(emitted.space.point_names) == 2
    assert set(emitted.space.opens) == {F(), F({0, 1})}
    assert len(emitted.valuation["A"]) == 1


def test_quotient_emitted_model_revalidates(m0_file, tmp_path):
    out_path = tmp_path / "q.json"
    assert main(["quotient", m0_file, "K A", "--out", str(out_path)]) == 0
    t.load_model(out_path)  # must parse and validate


# Full stdout of split and quotient on M0_DOC, pinned so that a change to
# how splittings and quotients are stored cannot change what they print.
SPLIT_BOX_KNOWS_A = """\
subformula: A
  family: {{}, {x0, x1, x2}}
  block of {}: {{}}
    extension: {}
    stability: A: stable
  block of {x0, x1, x2}: {{x0}, {x0, x1}, {x0, x1, x2}}
    extension: {x0}
    stability: A: stable
subformula: K A
  family: {{}, {x0}, {x0, x1, x2}}
  block of {}: {{}}
    extension: {}
    stability: A: stable; K A: stable
  block of {x0}: {{x0}}
    extension: {x0}
    stability: A: stable; K A: stable
  block of {x0, x1, x2}: {{x0, x1}, {x0, x1, x2}}
    extension: {}
    stability: A: stable; K A: stable
subformula: [] K A
  family: {{}, {x0}, {x0, x1, x2}}
  block of {}: {{}}
    extension: {}
    stability: A: stable; K A: stable; [] K A: stable
  block of {x0}: {{x0}}
    extension: {x0}
    stability: A: stable; K A: stable; [] K A: stable
  block of {x0, x1, x2}: {{x0, x1}, {x0, x1, x2}}
    extension: {}
    stability: A: stable; K A: stable; [] K A: stable
"""

QUOTIENT_KNOWS_A = """\
restricted family: {{}, {x0}, {x0, x1, x2}}
finite model: 2 points, 3 opens
point classes:
  x0 -> c0
  x1 -> c1
  x2 -> c1
open classes:
  {} -> {}
  {x0} -> {c0}
  {x0, x1, x2} -> {c0, c1}
{
  "points": [
    "c0",
    "c1"
  ],
  "opens": [
    [],
    [
      "c0"
    ],
    [
      "c0",
      "c1"
    ]
  ],
  "valuation": {
    "A": [
      "c0"
    ]
  }
}
"""


@pytest.mark.parametrize("command, formula, expected", [
    ("split", "[] K A", SPLIT_BOX_KNOWS_A),
    ("quotient", "K A", QUOTIENT_KNOWS_A),
])
def test_split_and_quotient_golden_output(m0_file, capsys, command, formula,
                                          expected):
    assert main([command, m0_file, formula]) == 0
    assert capsys.readouterr().out == expected


# sha256 of the concatenated stdout of each command over the 60 models of
# `test_split_and_quotient_golden_hashes`, as the frozenset-based splitting
# and quotient code printed it.
GOLDEN_HASHES = {
    "split": "2f5c143320ffee9882f90451be974766fd8ec079f481bc7e2319cb65f8d82057",
    "quotient": "1fe66bb412f54271209ab35aa9666af964267b2db31a0767aa562760d37cc842",
}


def _golden_model(rng: random.Random, n: int) -> t.Model:
    names = [f"x{i}" for i in range(n)]
    subbasis = [F(i for i in range(n) if rng.random() < 0.5)
                for _ in range(rng.randint(2, 5))]
    valuation = {a: F(i for i in range(n) if rng.random() < 0.5)
                 for a in ("A", "B")}
    return t.make_model(generate_topology(subbasis, names), valuation)


def _golden_formula(rng: random.Random) -> t.Formula:
    while True:
        f = t.random_formula(rng, ["A", "B"], 8)
        if 10 <= len(t.subformulas(f)) <= 20:
            return f


def test_split_and_quotient_golden_hashes(tmp_path, capsys):
    # Seeded random topologies of 3-7 points with a 10-20 node formula each
    # (about half of the splittings have more than two members): the
    # reports must not change by a byte when the point-set code changes.
    rng = random.Random(2024)
    digests = {command: hashlib.sha256() for command in GOLDEN_HASHES}
    for i in range(60):
        m = _golden_model(rng, rng.randint(3, 7))
        text = t.print_formula(_golden_formula(rng))
        path = tmp_path / f"model{i}.json"
        t.save_model(m, path)
        for command, digest in digests.items():
            assert main([command, str(path), text]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert {c: d.hexdigest() for c, d in digests.items()} == GOLDEN_HASHES


# sha256 of the `quotient --out` files over the 60 models of
# `test_split_and_quotient_golden_hashes`, as `save_model` wrote them
# through pathlib.
QUOTIENT_OUT_HASH = (
    "bdf376ac8930e63bdd49a0daf736a94df59a0af154f359f4fc44eba6a0d8c47e")


def test_quotient_out_files_golden_hash(tmp_path, capsys):
    rng = random.Random(2024)  # the models and formulas of the test above
    digest = hashlib.sha256()
    out = tmp_path / "finite.json"
    for i in range(60):
        m = _golden_model(rng, rng.randint(3, 7))
        text = t.print_formula(_golden_formula(rng))
        path = tmp_path / f"model{i}.json"
        t.save_model(m, path)
        assert main(["quotient", str(path), text, "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith(f"wrote {out}\n")
        digest.update(out.read_bytes())
        # The file holds the model that stdout shows when no --out is given.
        assert main(["quotient", str(path), text]) == 0
        assert capsys.readouterr().out.endswith(out.read_text())
    assert digest.hexdigest() == QUOTIENT_OUT_HASH


# sha256 of the concatenated `split` stdout over the models of
# `test_split_golden_hash_at_benchmark_sizes`, as printed before `split`
# read block stability from each block's slots.
SPLIT_BENCH_HASH = (
    "f924d67f80410bbd95153083d4e56121bdc74601a6d37050365f6a3c6f8a0173")


def _sized_formula(rng: random.Random, size: int) -> t.Formula:
    """A random formula over A and B with exactly `size` connectives."""
    if size == 0:
        return t.Atom(rng.choice("AB"))
    kind = rng.choice((t.Not, t.And, t.Knows, t.Box))
    if kind is not t.And:
        return kind(_sized_formula(rng, size - 1))
    left = rng.randint(0, size - 1)
    return t.And(_sized_formula(rng, left),
                 _sized_formula(rng, size - 1 - left))


def test_split_golden_hash_at_benchmark_sizes(tmp_path, capsys):
    # The sizes of the benchmark's `models` workload: 8-9 points, 10-18
    # opens, formulas of 10-12 connectives over A and B.
    rng = random.Random(77)
    digest = hashlib.sha256()
    for i in range(12):
        while True:
            m = _golden_model(rng, rng.randint(8, 9))
            if 10 <= len(m.space.opens) <= 18:
                break
        text = t.print_formula(_sized_formula(rng, rng.randint(10, 12)))
        path = tmp_path / f"model{i}.json"
        t.save_model(m, path)
        assert main(["split", str(path), text]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SPLIT_BENCH_HASH


# Formulas for `test_decide_golden_hash`: least witnesses on 2 to 5 points,
# some past the first labeled topology on their count, and formulas valid
# up to 5 points (full scans in both modes once negated).
DECIDE_GOLDEN_TEXTS = [
    "L (A & [] L ~A) & L (~A & <> K ~A)",
    "L (A & [] L ~A) & L (A & <> K A)",
    "L (A & B) & L (A & ~B) & L (~A & B) & L (~A & ~B)",
    "L (A & B & [] L ~A) & L (A & B & <> K A) & L (~A & B) & L (~A & ~B)",
    "L (A & B & [] L ~A) & L (A & B & <> K A) & L (A & ~B) & L (~A & B)"
    " & L (~A & ~B)",
    "L (A & [] L ~A) & L (A & <> K A) & L (~A & <> K ~A) & L (~A & [] L A)",
    "K A & K B -> K (A & B)",
    "<> [] A -> [] <> A",
    "[] (K A -> A)",
    "K [] A -> [] A",
]
# sha256 of `decide` stdout and witness files over those formulas, their
# negations and ten seeded random ones, as the labeled search printed them.
DECIDE_GOLDEN_HASH = (
    "e92d6d3f1667e8b5f2aa6a77ee878e50eeb7408f7165438c1242a83cf49b70d0")


def test_decide_golden_hash(tmp_path, capsys):
    # Searching one topology per homeomorphism class must report the very
    # verdicts, pairs and witness models of the scan over every labeled one.
    rng = random.Random(1414)
    texts = DECIDE_GOLDEN_TEXTS + [f"~({text})" for text in DECIDE_GOLDEN_TEXTS]
    texts += [t.print_formula(t.random_formula(rng, ["A", "B"], 4))
              for _ in range(10)]
    out = tmp_path / "witness.json"
    digest = hashlib.sha256()
    for text in texts:
        for points in ("3", "4", "5"):
            for mode in ("sat", "valid"):
                code = main(["decide", text, "--mode", mode, "--points", points,
                             "--out", str(out)])
                stdout = capsys.readouterr().out.replace(str(out), "OUT")
                digest.update(f"{code}\n{stdout}".encode())
                if out.exists():
                    digest.update(out.read_bytes())
                    out.unlink()
    assert digest.hexdigest() == DECIDE_GOLDEN_HASH


# sha256 of `axioms` stdout over every topology up to 4 and 5 points, as
# the sweep printed it with one evaluator per labeled space: the counts of
# instance checks and the verdicts must not change when spaces share passes.
AXIOMS_GOLDEN_HASHES = {
    ("--enumerate", "4"):
        "8eefb638362a11230518c1f75c2814cc81752713f882f6f4d6865c17b8a9e9e5",
    ("--enumerate", "5", "--trials", "2"):
        "77f2d15a66378c37d2fa45f5335ab3bd24116a912686a425f8e4d1d540894c11",
}


@pytest.mark.parametrize("args", list(AXIOMS_GOLDEN_HASHES))
def test_axioms_golden_hash(capsys, args):
    assert main(["axioms", *args]) == 0
    out = capsys.readouterr().out
    assert out.count(": pass  (") == 12
    assert hashlib.sha256(out.encode()).hexdigest() == AXIOMS_GOLDEN_HASHES[args]


def test_readme_session_runs(tmp_path, monkeypatch, capsys):
    # Every ```python block of the README, run in order against model.json
    # written from M0_DOC, so that removed names cannot live on in the docs.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = [b.split("```")[0] for b in readme.split("```python\n")[1:]]
    assert len(blocks) == 2
    (tmp_path / "model.json").write_text(json.dumps(M0_DOC))
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["Pair(point=0, open=frozenset({0, 1, 2}))",
                        "('c0', 'c1')"]


def test_basis_full_topology(m0_file, tmp_path, capsys):
    basis_path = tmp_path / "basis.json"
    basis_path.write_text(json.dumps(M0_DOC["opens"]))
    assert main(["basis", m0_file, str(basis_path),
                 "--trials", "20", "--seed", "1"]) == 0
    assert "equivalent" in capsys.readouterr().out


@pytest.mark.parametrize("basis, message", [
    # The first open in the model's order that the basis misses.
    ([[]], "basis does not generate the open {x0}"),
    ([["x0"], ["x1"], ["x0", "x1", "x2"]], "basis member {x1} is not open"),
    # The first name that is not a point, in file order: a str, a number or
    # an unhashable list.
    ([["x0", "y"], ["z"]], "unknown point 'y'"),
    ([["x0"], [0]], "unknown point 0"),
    ([["x0"], [["x1"]], ["z"]], "unknown point ['x1']"),
])
def test_basis_errors_name_points(m0_file, tmp_path, capsys, basis, message):
    basis_path = tmp_path / "basis.json"
    basis_path.write_text(json.dumps(basis))
    assert main(["basis", m0_file, str(basis_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_basis_with_formula_file(m0_file, tmp_path):
    basis_path = tmp_path / "basis.json"
    basis_path.write_text(json.dumps(M0_DOC["opens"]))
    formulas_path = tmp_path / "formulas.txt"
    formulas_path.write_text("K A\n[] L B -> B\n")
    assert main(["basis", m0_file, str(basis_path),
                 "--formulas", str(formulas_path)]) == 0


def test_basis_deep_random_formulas(m0_file, tmp_path, capsys):
    basis_path = tmp_path / "basis.json"
    basis_path.write_text(json.dumps(M0_DOC["opens"]))
    assert main(["basis", m0_file, str(basis_path),
                 "--depth", "1000", "--trials", "50"]) == 0
    assert "equivalent on 50 formula(s)" in capsys.readouterr().out


def test_decide_valid_mode(capsys):
    assert main(["decide", "K A -> A", "--points", "3"]) == 0
    assert "valid within bound" in capsys.readouterr().out


def test_decide_sat_mode_with_witness(tmp_path, capsys):
    out_path = tmp_path / "witness.json"
    assert main(["decide", "A & ~K A", "--mode", "sat", "--points", "2",
                 "--out", str(out_path)]) == 0
    assert "satisfiable" in capsys.readouterr().out
    witness = t.load_model(out_path)
    # The emitted witness must actually satisfy the formula somewhere.
    assert any(t.satisfies(witness, p, t.parse("A & ~K A"))
               for p in t.pairs_in_order(witness))


def test_decide_atoms_option(tmp_path, capsys):
    """--atoms widens the search alphabet: the witness valuation names every
    listed atom.  Empty names are dropped, so "," adds no atom."""
    out_path = tmp_path / "witness.json"
    assert main(["decide", "A", "--atoms", "B,A", "--mode", "sat",
                 "--out", str(out_path)]) == 0
    assert set(t.load_model(out_path).valuation) == {"A", "B"}
    assert capsys.readouterr().out.startswith("satisfiable\n")
    outs = []
    for extra in ([], ["--atoms", ","]):
        assert main(["decide", "A", "--mode", "sat", *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert set(json.loads(outs[0].split("\n", 2)[2])["valuation"]) == {"A"}


def test_decide_atoms_stripped(tmp_path, capsys):
    """Whitespace around each --atoms name is dropped."""
    out_path = tmp_path / "witness.json"
    assert main(["decide", "A", "--atoms", " B , A,C ", "--mode", "sat",
                 "--points", "1", "--out", str(out_path)]) == 0
    assert set(t.load_model(out_path).valuation) == {"A", "B", "C"}


@pytest.mark.parametrize("atoms,bad", [("A, B,x&y", "x&y"), ("K", "K"),
                                       ("A,L", "L"), ("1x", "1x"),
                                       ("A B", "A B"), ("(A)", "(A)")])
def test_decide_atoms_not_names_exit_2(atoms, bad, capsys):
    """A name the formula parser cannot read as an atom is an input error."""
    assert main(["decide", "A", "--atoms", atoms, "--mode", "sat",
                 "--points", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --atoms: {bad!r} is not an atom name\n"


@pytest.mark.parametrize("argv", [["A | ~A", "--atoms", "top"],
                                  ["A", "--atoms", "top", "--mode", "sat"],
                                  ["A", "--atoms", "A,bot"]])
def test_decide_reserved_atoms_exit_2(argv, capsys):
    assert main(["decide", *argv]) == 2
    name = "bot" if "A,bot" in argv else "top"
    assert capsys.readouterr().err == f"error: atom name {name!r} is reserved\n"


@pytest.mark.parametrize("argv", [
    ["check", "DEEP", "A"], ["split", "DEEP", "A"], ["quotient", "DEEP", "A"],
    ["basis", "DEEP", "BASIS"], ["axioms", "DEEP"], ["basis", "M0", "DEEP"]])
def test_deeply_nested_json_exits_2(argv, m0_file, tmp_path, capsys):
    """A model or basis file of 100,000 nested lists is an input error."""
    deep, basis = tmp_path / "deep.json", tmp_path / "basis.json"
    deep.write_text("[" * 100_000)
    basis.write_text(json.dumps(M0_DOC["opens"]))
    files = {"DEEP": str(deep), "BASIS": str(basis), "M0": m0_file}
    assert main([files.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {deep}: JSON nested too deeply\n"


def test_decide_no_model(capsys):
    assert main(["decide", "~top", "--mode", "sat", "--points", "2"]) == 1
    assert "no model within bound" in capsys.readouterr().out


def test_axioms_enumerate(capsys):
    assert main(["axioms", "--enumerate", "2", "--trials", "3",
                 "--schemes", "4,7,11"]) == 0
    out = capsys.readouterr().out
    assert "scheme  4: pass" in out and "scheme 11: pass" in out


def test_axioms_repeated_scheme_ids_fold(capsys):
    # A repeated id is swept once, at its first place: "4,4" reports what
    # "4" does, and "7,4,7" what "7,4" does.
    for repeated, once in (("4,4", "4"), ("7,4,7", "7,4")):
        outs = []
        for schemes in (repeated, once):
            assert main(["axioms", "--enumerate", "2", "--trials", "3",
                         "--schemes", schemes]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
    assert outs[0].splitlines()[1] == "scheme  4: pass  (54 instance checks)"


def test_axioms_model_file(m0_file, capsys):
    assert main(["axioms", m0_file, "--trials", "3"]) == 0


VIOLATION = re.compile(r"  scheme (\d+): (.+) fails at point (\w+), open "
                       r"\{(.*?)\} in model over opens \{(.*)\} with (.+)")


def test_axioms_non_topology_violations(non_topology_file, capsys):
    """Scheme 11 fails on the space {x0x1, x0x2, X}, under two valuations
    of A: exit 1, and each violation line names its valuation, so no two
    lines are the same.  Each line's instance, read back, fails at its pair
    under `ReferenceEvaluator`, on the opens and valuation it prints."""
    code = main(["axioms", non_topology_file, "--trials", "5",
                 "--schemes", "11"])
    lines = capsys.readouterr().out.splitlines()[1:]
    assert code == 1 and len(lines) == 2 == len(set(lines))
    names = ("x0", "x1", "x2")

    def points(listed):
        return F(names.index(x) for x in listed.split(", ") if x)

    for line in lines:
        sid, text, point, open_, opens, valuation = VIOLATION.fullmatch(
            line).groups()
        space = t.make_space(names, [points(U) for U in
                                     re.findall(r"\{([^{}]*)\}", opens)])
        m = t.make_model(space, {a: points(S) for a, S in
                                 re.findall(r"(\w+) = \{([^{}]*)\}",
                                            valuation)})
        pair = t.Pair(names.index(point), points(open_))
        assert sid == "11" and not ReferenceEvaluator(m).satisfies(
            pair, t.parse(text))


@pytest.mark.parametrize("argv, message", [
    (["axioms", "--enumerate", "0"], "the point bound must be at least 1"),
    (["axioms", "--enumerate", "9"], "point bound 9 exceeds the cap 5"),
    (["axioms", "--enumerate", "2", "--schemes", "4,99"],
     "unknown axiom scheme 99"),
    (["axioms"], "give either a model file or --enumerate N"),
    (["axioms", "model.json", "--enumerate", "3"],
     "give either a model file or --enumerate N"),
])
def test_axioms_bad_input_messages(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_axioms_model_file_above_cap(tmp_path, capsys):
    """A model file is swept whatever its size; the cap bounds
    --enumerate only."""
    names = [f"x{i}" for i in range(7)]
    path = tmp_path / "chain7.json"
    path.write_text(json.dumps({"points": names,
                                "opens": [names[:k] for k in range(8)],
                                "valuation": {"A": names[:3]}}))
    assert main(["axioms", str(path), "--trials", "2",
                 "--schemes", "4,7,11"]) == 0
    assert "scheme 11: pass  (256 instance checks)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["axioms", "--enumerate", "2", "--trials", "0"],
    ["axioms", "--enumerate", "2", "--trials", "-3"],
    ["axioms", "--enumerate", "2", "--schemes", "x"],
    ["decide", "K A -> A", "--points", "0"],
    ["basis", "M0", "BASIS"],
    ["decide", "A", "--mode", "sat", "--points", "6"],
    ["basis", "M0", "OPENS", "--trials", "0"],
    ["basis", "M0", "OPENS", "--trials", "-2"],
    ["basis", "M0", "OPENS", "--formulas", "EMPTY"],
    ["basis", "M0", "OPENS", "--depth", "-1"],
    ["check", "OPENS_INT", "A"],
    ["check", "OPEN_NAME_DICT", "A"],
    ["check", "VALUATION_NAME_LIST", "A"],
    ["check", "DIRECTORY", "A"],
    ["check", "BINARY", "A"],
    ["check", "NO_POINTS", "A"],
    ["axioms", "--enumerate", "0"],
    ["check", "ATOM_K", "A"],
    ["axioms", "ATOM_SPACE", "--trials", "2", "--schemes", "7"],
    ["basis", "ATOM_EMPTY", "OPENS"],
    # An empty value is a value, not an option left out.
    ["axioms", "--enumerate", "2", "--schemes", ""],
    ["axioms", "", "--enumerate", "2"],
    ["basis", "M0", "OPENS", "--formulas", ""],
    # A pair with no open, or with a set that is no open; a non-topology
    # given to quotient or basis; a model document that is no object.
    ["check", "M0", "A", "--at", "x0"],
    ["check", "M0", "A", "--at", "x0:x1"],
    ["quotient", "NON_TOPOLOGY", "A"],
    ["basis", "NON_TOPOLOGY", "OPENS"],
    ["check", "NOT_OBJECT", "A"],
])
def test_bad_numeric_input_exits_2(argv, m0_file, tmp_path, capsys):
    """Bad numbers, vacuous requests and malformed files exit 2."""
    texts = {
        "BASIS": "[5]",
        "OPENS": json.dumps(M0_DOC["opens"]),
        "EMPTY": "\n",
        "OPENS_INT": json.dumps({**M0_DOC, "opens": 5}),
        "OPEN_NAME_DICT": json.dumps({**M0_DOC, "opens": [[{"a": 1}]]}),
        "VALUATION_NAME_LIST": json.dumps({**M0_DOC,
                                           "valuation": {"A": [["x0"]]}}),
        "NO_POINTS": json.dumps({"points": [], "opens": [[]],
                                 "valuation": {"A": []}}),
        # Valuations naming what the parser cannot read as an atom.
        "ATOM_K": json.dumps({**M0_DOC, "valuation": {"K": ["x0"]}}),
        "ATOM_SPACE": json.dumps({**M0_DOC, "valuation": {"A B": ["x0"]}}),
        "ATOM_EMPTY": json.dumps({**M0_DOC, "valuation": {"": []}}),
        "NON_TOPOLOGY": json.dumps({**M0_DOC, "opens": [
            ["x0", "x1"], ["x0", "x2"], ["x0", "x1", "x2"]]}),
        "NOT_OBJECT": json.dumps([M0_DOC]),
    }
    files = {"M0": m0_file, "DIRECTORY": str(tmp_path)}
    for key, text in texts.items():
        files[key] = str(tmp_path / f"{key}.json")
        (tmp_path / f"{key}.json").write_text(text)
    files["BINARY"] = str(tmp_path / "binary.json")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00{")
    assert main([files.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=12)
# Arbitrary JSON, or the right shapes over a few names, so that documents
# also reach the checks past the type checks.
_NAMES = st.sampled_from(["x0", "x1", "top", "A"])
_DOCUMENTS = st.fixed_dictionaries({
    "points": _JSON_VALUES | st.lists(_NAMES, max_size=3),
    "opens": _JSON_VALUES | st.lists(st.lists(_NAMES, max_size=3),
                                     max_size=4),
    "valuation": _JSON_VALUES | st.dictionaries(
        _NAMES, _JSON_VALUES | st.lists(_NAMES, max_size=3), max_size=2),
})


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_model_document_fuzz(doc):
    """Any JSON under the three keys gives a Model or a SpaceError."""
    try:
        assert isinstance(t.model_from_document(doc), t.Model)
    except t.SpaceError:
        pass


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("docs") / "doc.json"


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_load_model_matches_reference(doc_path, doc):
    """On the fuzz documents, `load_model` gives the frozenset loader's
    point names, opens, masks in order and valuation, or its SpaceError
    message."""
    doc_path.write_text(json.dumps(doc))
    try:
        want = reference_model_from_document(json.loads(doc_path.read_text()))
    except t.SpaceError as exc:
        with pytest.raises(t.SpaceError) as got:
            t.load_model(doc_path)
        assert str(got.value) == str(exc)
        return
    m = t.load_model(doc_path)
    assert (m.space.point_names, m.space.opens, m.space.masks,
            m.valuation) == want


@pytest.fixture(scope="module")
def m0_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m0.json"
    path.write_text(json.dumps(M0_DOC))
    return str(path)


@settings(max_examples=300, deadline=None)
@given(text=FORMULA_TEXT)
def test_check_fuzz(m0_path, text):
    """Any formula text gives exit 0, 1 or 2 from check, never a
    traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["check", m0_path, text])
        except SystemExit as exc:  # argparse takes "->A" for an option
            code = exc.code
    assert code in (0, 1, 2)
    assert (code == 2) == bool(err.getvalue())


@pytest.fixture(scope="module")
def basis_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "basis.json"
    path.write_text(json.dumps(M0_DOC["opens"]))
    return str(path)


@settings(max_examples=200, deadline=None)
@given(text=FORMULA_TEXT)
def test_formula_commands_fuzz(m0_path, basis_path, text):
    """Any formula text gives exit 0, 1 or 2 from split, quotient, basis
    and decide, never an exception."""
    formulas_path = Path(basis_path).with_name("formulas.txt")
    formulas_path.write_text(text + "\n")
    commands = [["split", m0_path, text], ["quotient", m0_path, text],
                ["basis", m0_path, basis_path,
                 "--formulas", str(formulas_path)]]
    try:
        few_atoms = len(t.atoms(t.parse(text))) <= 8
    except t.ParseError:
        few_atoms = True
    # decide scans 4**atoms valuations per 2-point space: 12 atoms take 6 s.
    if few_atoms:
        commands.append(["decide", text, "--points", "2"])
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse takes "->A" for an option
                code = exc.code
        assert code in (0, 1, 2), argv
        assert (code == 2) == bool(err.getvalue()), argv


# Scheme lists: ids in and out of range, and items that are not ids.
_SCHEME_ITEMS = st.integers(-1, 14).map(str) | st.sampled_from(
    ["", "x", " 3", "1.5", "0x4", "1_2", "\u0663"])
_SCHEMES = st.none() | st.lists(_SCHEME_ITEMS, min_size=1,
                                max_size=4).map(",".join)


@settings(max_examples=100, deadline=None)
@given(schemes=_SCHEMES,
       # 4 and 5 points are valid but slow to sweep; the rest is fast.
       points=st.integers(-1, 9).filter(
           lambda n: n <= 3 or n > t.decide.HARD_POINT_CAP),
       trials=st.integers(-1, 3))
def test_axioms_fuzz(schemes, points, trials):
    """Any scheme list, point bound and trial count gives exit 0, 1 or 2
    from axioms, exit 2 with one error line, never a traceback."""
    argv = ["axioms", f"--enumerate={points}", f"--trials={trials}"]
    if schemes is not None:
        argv.append(f"--schemes={schemes}")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), argv
    else:
        assert not lines and out.getvalue().startswith("scheme "), argv


def _main_result(argv: list[str]) -> tuple:
    """Exit code, stdout and stderr of one `main` call, argparse's exits
    included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cached_parser_keeps_no_state(m0_file, tmp_path, monkeypatch):
    """One parser serves every call in a process; calls that set options
    and calls that leave them out, interleaved, each print what a freshly
    built parser prints."""
    assert cli.build_parser() is cli.build_parser()
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(M0_DOC["opens"]))
    formulas = tmp_path / "formulas.txt"
    formulas.write_text("K A -> A\n[] B\n")
    witness = str(tmp_path / "witness.json")
    calls = [
        ["check", m0_file, "K B", "--at", "x0:x0,x1"],
        ["check", m0_file, "K B"],
        ["basis", m0_file, str(basis), "--trials", "3"],
        ["basis", m0_file, str(basis), "--formulas", str(formulas)],
        ["decide", "A & ~K A", "--mode", "sat", "--out", witness],
        ["decide", "A & ~K A", "--mode", "sat"],
        ["decide", "A", "--points", "many"],
        ["check", m0_file],
        ["--version"],
        ["--help"],
        ["split", "--help"],
        ["check", m0_file, "K B"],
    ]
    cached = [_main_result(argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_main_result(argv) for argv in calls]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 1, 0, 0, 0, 0, 2, 2, 0, 0,
                                              0, 1]


def test_internal_error_exits_3(m0_file, monkeypatch, capsys):
    # A restricted family without the empty set fails the topology check:
    # its union closure, of masks, loses the empty mask 0.
    close = finitemodel.close
    monkeypatch.setattr(finitemodel, "close",
                        lambda family, op: close(family, op) - {0})
    assert main(["quotient", m0_file, "A"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "Traceback" not in err


def test_basis_builds_each_plan_once(m0_file, tmp_path, monkeypatch):
    """Parsed texts are kept, so a second basis command over the same
    formula file walks the plans that the first one built."""
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(M0_DOC["opens"]))
    texts = ["K (B & ~A) -> [] (A | L B)", "L [] ~(B & K ~A) & top"]
    formulas = tmp_path / "formulas.txt"
    formulas.write_text("\n".join(texts) + "\n")
    built = []  # texts, as a formula held here would keep its plan
    compile_ = t.semantics._compile
    monkeypatch.setattr(t.semantics, "_compile", lambda f, *args: built.append(
        t.print_formula(f)) or compile_(f, *args))
    argv = ["basis", m0_file, str(basis), "--formulas", str(formulas)]
    assert main(argv) == 0
    assert set(texts) <= set(built) and len(built) == len(set(built))
    before = len(built)
    assert main(argv) == 0
    assert len(built) == before


def test_model_commands_walk_each_formula_once(m0_file, tmp_path, monkeypatch):
    """Run again on the same files, a model command walks its formula's
    subformulas only to build splittings: once in split and quotient, and
    not at all in check or basis, whose formulas' atoms are read off their
    kept programs."""
    basis, formulas = tmp_path / "basis.json", tmp_path / "formulas.txt"
    basis.write_text(json.dumps(M0_DOC["opens"]))
    formulas.write_text("K (B & ~A) -> [] (A | L B)\nL [] ~(B & K A)\n")
    text = "K (A & ~[] B) | L (B -> A)"
    walks = []
    subformulas = t.formula.subformulas
    for module in (t.formula, t.semantics, t.splitting, t.decide, cli):
        if getattr(module, "subformulas", None) is subformulas:
            monkeypatch.setattr(module, "subformulas",
                                lambda f: walks.append(f) or subformulas(f))
    for argv, expected in [
            (["check", m0_file, text], 0),
            (["check", m0_file, text, "--at", "x1:x0,x1"], 0),
            (["split", m0_file, text], 1),
            (["quotient", m0_file, text, "--out", str(tmp_path / "q.json")], 1),
            (["basis", m0_file, str(basis), "--formulas", str(formulas)], 0)]:
        with redirect_stdout(io.StringIO()):
            assert main(argv) in (0, 1)
            walks.clear()
            assert main(argv) in (0, 1)
        assert len(walks) == expected, argv


def test_split_unstable_block_exits_3(m0_file, monkeypatch, capsys):
    monkeypatch.setattr(t.Evaluator, "stable", lambda *args: False)
    assert main(["split", m0_file, "K A"]) == 3
    captured = capsys.readouterr()
    assert "UNSTABLE" in captured.out
    assert captured.err.startswith("internal error: unstable block")
    assert "Traceback" not in captured.err


def test_library_has_no_assert():
    # Self-checks raise InternalError, so they also run under python -O.
    for path in Path(t.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Assert)
                       for node in ast.walk(tree)), path


def test_roundtrip_model_document(m0):
    doc = t.model_to_document(m0)
    again = t.model_from_document(doc)
    assert again.space.opens == m0.space.opens
    assert again.valuation == m0.valuation
    assert again.masks == {a: t.space.to_mask(S)
                           for a, S in m0.valuation.items()}


def test_made_models_save_and_load(tmp_path):
    """`make_model` takes only the names that parse reads as atoms, so a
    model that it makes saves to a file that `load_model` reads back."""
    space = t.make_space(["x0", "x1"], [F(), F({0}), F({0, 1})])
    for name in ("A B", "K", "", "->", "1A", 3):
        with pytest.raises(t.SpaceError, match="is not an atom name"):
            t.make_model(space, {name: F({0})})
    m = t.make_model(space, {"A_1": F({0}), "_b": F({0, 1})})
    t.save_model(m, tmp_path / "m.json")
    again = t.load_model(tmp_path / "m.json")
    assert (again.space, again.valuation) == (m.space, m.valuation)
    assert again.masks == {a: t.space.to_mask(S)
                           for a, S in m.valuation.items()} == {"A_1": 1,
                                                                "_b": 3}


def test_model_document_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": ["x0"], "opens": [["x0"]]}))
    with pytest.raises(t.SpaceError):
        t.load_model(bad)
    bad.write_text("not json")
    with pytest.raises(t.SpaceError):
        t.load_model(bad)
    bad.write_text(json.dumps({"points": ["x0", "x0"], "opens": [["x0"]],
                               "valuation": {}}))
    with pytest.raises(t.SpaceError):
        t.load_model(bad)
