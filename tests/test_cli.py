import ast
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import topologic as t
from topologic import cli, finitemodel
from topologic.cli import main
from conftest import FORMULA_TEXT

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


def test_check_parse_error(m0_file, capsys):
    assert main(["check", m0_file, "(A & B"]) == 2


def test_check_deep_nesting(m0_file, capsys):
    assert main(["check", m0_file, "(" * 300 + "A" + ")" * 300]) == 2
    assert "nested too deeply" in capsys.readouterr().err
    # Evaluation recurses nowhere: A behind 600 negations fails at x1.
    assert main(["check", m0_file, "~" * 600 + "A"]) == 1
    assert capsys.readouterr().out.startswith("counterexample: point x1")


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent.json", "A"]) == 2


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


def test_quotient_deep_chain(m0_file, capsys):
    assert main(["quotient", m0_file, "~" * 600 + "A"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("restricted family: {{}, {x0, x1, x2}}")


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


def test_basis_full_topology(m0_file, tmp_path, capsys):
    basis_path = tmp_path / "basis.json"
    basis_path.write_text(json.dumps(M0_DOC["opens"]))
    assert main(["basis", m0_file, str(basis_path),
                 "--trials", "20", "--seed", "1"]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_basis_with_formula_file(m0_file, tmp_path):
    basis_path = tmp_path / "basis.json"
    basis_path.write_text(json.dumps(M0_DOC["opens"]))
    formulas_path = tmp_path / "formulas.txt"
    formulas_path.write_text("K A\n[] L B -> B\n")
    assert main(["basis", m0_file, str(basis_path),
                 "--formulas", str(formulas_path)]) == 0


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


def test_decide_no_model(capsys):
    assert main(["decide", "~top", "--mode", "sat", "--points", "2"]) == 1
    assert "no model within bound" in capsys.readouterr().out


def test_axioms_enumerate(capsys):
    assert main(["axioms", "--enumerate", "2", "--trials", "3",
                 "--schemes", "4,7,11"]) == 0
    out = capsys.readouterr().out
    assert "scheme  4: pass" in out and "scheme 11: pass" in out


def test_axioms_model_file(m0_file, capsys):
    assert main(["axioms", m0_file, "--trials", "3"]) == 0


def test_axioms_non_topology_violations(non_topology_file, capsys):
    # Schemes beyond the subset-space axiomatization may fail here; the
    # sweep must report rather than crash, with exit 1 on violations.
    code = main(["axioms", non_topology_file, "--trials", "15", "--seed", "2",
                 "--schemes", "11,12"])
    assert code in (0, 1)


@pytest.mark.parametrize("argv", [
    ["axioms", "--enumerate", "2", "--trials", "0"],
    ["axioms", "--enumerate", "2", "--trials", "-3"],
    ["axioms", "--enumerate", "2", "--schemes", "x"],
    ["decide", "K A -> A", "--points", "0"],
    ["basis", "M0", "BASIS"],
    ["decide", "A", "--mode", "sat", "--points", "5"],
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
    }
    files = {"M0": m0_file, "DIRECTORY": str(tmp_path)}
    for key, text in texts.items():
        files[key] = str(tmp_path / f"{key}.json")
        (tmp_path / f"{key}.json").write_text(text)
    files["BINARY"] = str(tmp_path / "binary.json")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00{")
    assert main([files.get(a, a) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


def test_internal_error_exits_3(m0_file, monkeypatch, capsys):
    # A restricted family without the empty set fails the topology check.
    monkeypatch.setattr(
        finitemodel, "close_under_union",
        lambda family: tuple(U for U in t.sort_family(family) if U))
    assert main(["quotient", m0_file, "A"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "Traceback" not in err


def test_split_unstable_block_exits_3(m0_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "is_stable", lambda *args: False)
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
