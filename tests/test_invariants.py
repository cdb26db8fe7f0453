"""A broken invariant raises InvariantError, which python -O cannot strip."""

import ast
import json
from pathlib import Path

import pytest

import psr.vcc
from genutil import pt
from psr import jsonio
from psr.cli import main
from psr.errors import InvariantError
from psr.polynomials import PolyPolynomial, coefficient_msum

QUAD = PolyPolynomial.make({0: pt(3), 1: pt(1), 2: pt(0)})


def test_broken_root_invariant_is_typed_and_reaches_cli(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(psr.vcc, "is_root", lambda phi, p: (False, {}))
    v = sorted(coefficient_msum(QUAD).value.vertices)[0]
    with pytest.raises(InvariantError):
        psr.vcc.enumerate_mw_minimal_local_solutions(QUAD, v)
    path = tmp_path / "phi.json"
    path.write_text(jsonio.dumps(jsonio.polynomial_to_json(QUAD)))
    capsys.readouterr()
    assert main(["solve-local", "--poly", str(path), "--vertex", "0"]) == 2
    doc = json.loads(capsys.readouterr().out)  # exactly one document
    assert doc["error"] == "InvariantError"


def test_library_has_no_assert_statements():
    src = Path(psr.vcc.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_has_no_float_outside_metric():
    # no float ever decides a predicate: only metric.py, whose solid angles
    # and distances are floats by definition, may make or write one
    src = Path(psr.vcc.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "metric.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
        or isinstance(node, ast.Constant) and type(node.value) is float
    ]
    assert found == []
