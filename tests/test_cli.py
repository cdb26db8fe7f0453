import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from genutil import pt, random_polytope, seg
from psr import jsonio
from psr.cli import main
from psr.linalg import as_vec
from psr.polyhedra import Polyhedron
from psr.polynomials import PolyPolynomial
from fractions import Fraction as F


@pytest.fixture
def run(tmp_path, capsys):
    """Invoke the CLI in-process; returns (exit_code, parsed stdout)."""

    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, json.loads(out) if out.strip() else None

    return _run


@pytest.fixture
def write(tmp_path):
    counter = iter(range(10**6))

    def _write(obj):
        p = tmp_path / f"in{next(counter)}.json"
        p.write_text(jsonio.dumps(obj))
        return str(p)

    return _write


LIN = PolyPolynomial.make({1: seg(-1, 1), 0: seg(-2, 2)})
QUAD = PolyPolynomial.make({0: pt(3), 1: pt(1), 2: pt(0)})


def poly_file(write, phi):
    return write(jsonio.polynomial_to_json(phi))


def phd_file(write, p):
    return write(jsonio.polyhedron_to_json(p))


def test_eval(run, write):
    code, out = run("eval", "--poly", poly_file(write, QUAD),
                    "--at", phd_file(write, pt(0)))
    assert code == 0
    assert jsonio.polyhedron_from_json(out) == seg(0, 3)


def test_root_true_false(run, write):
    p = poly_file(write, QUAD)
    code, out = run("root", "--poly", p, "--at", phd_file(write, seg(1, F(3, 2))))
    assert code == 0 and out["root"] is True
    assert all(len(ix) >= 2 for ix in out["witness"].values())
    code, out = run("root", "--poly", p, "--at", phd_file(write, pt(5)))
    assert code == 1 and out["root"] is False


def test_generic(run, write):
    code, out = run("generic", "--poly", poly_file(write, QUAD))
    assert code == 0 and out == {"generic": True}
    ng = PolyPolynomial.make({0: pt(1), 1: pt(0), 2: pt(F(-1, 2)), 3: pt(-1)})
    code, out = run("generic", "--poly", poly_file(write, ng))
    assert code == 1 and out["generic"] is False
    assert "vertex" in out["witness"] and len(out["witness"]["pairs"]) == 2


def test_fan_and_lcs(run, write):
    p = poly_file(write, QUAD)
    code, out = run("fan", "--poly", p, "--vertex", "0")
    assert code == 0
    assert out["vertex"] == ["4"]
    assert len(out["cells"]) == 2
    assert set(out["rho"]) == {"0,1", "1,2", "0,2"}
    code, out = run("lcs", "--poly", p, "--vertex", "0")
    assert code == 0 and len(out["lcs"]) == 4


def test_lcs_non_generic_exit_1(run, write):
    ng = PolyPolynomial.make({0: pt(1), 1: pt(0), 2: pt(F(-1, 2)), 3: pt(-1)})
    code, out = run("lcs", "--poly", poly_file(write, ng), "--vertex", "0")
    assert code == 1 and out["error"] == "non-generic"


def test_solve_local(run, write):
    code, out = run("solve-local", "--poly", poly_file(write, QUAD), "--vertex", "0")
    assert code == 0
    sols = [jsonio.polyhedron_from_json(s) for s in out["solutions"]]
    assert seg(1, F(3, 2)) in sols and len(sols) == 4


def test_glue_success_and_failure(run, write):
    p = poly_file(write, LIN)
    good = write(jsonio.locals_to_json({
        as_vec((F(-3),)): Polyhedron.from_generators([(F(-1),)], [(F(1),)]),
        as_vec((F(3),)): Polyhedron.from_generators([(F(1),)], [(F(-1),)]),
    }))
    code, out = run("glue", "--poly", p, "--locals", good)
    assert code == 0 and jsonio.polyhedron_from_json(out) == seg(-1, 1)

    quad2 = PolyPolynomial.make({0: seg(2, 3), 1: seg(0, 1), 2: pt(0)})
    bad = write(jsonio.locals_to_json({
        as_vec((F(2),)): Polyhedron.from_generators([(F(2),)], [(F(1),)]),
        as_vec((F(4),)): Polyhedron.from_generators([(F(3, 2),)], [(F(-1),)]),
    }))
    code, out = run("glue", "--poly", poly_file(write, quad2), "--locals", bad)
    assert code == 1 and out == {"vertex": ["2"], "gamma": ["3/2"]}


def test_classify(run, write):
    code, out = run("classify", "--poly", poly_file(write, QUAD), "--vertex", "0")
    assert code == 0 and out["case"] == "Split" and out["delta"] == ["-1"]
    cubic = PolyPolynomial.make({0: pt(3), 1: pt(1), 3: pt(0)})
    code, out = run("classify", "--poly", poly_file(write, cubic), "--vertex", "0")
    assert code == 0 and out["case"] == "Split"
    bad = PolyPolynomial.make({0: pt(0), 4: pt(0)})
    code, out = run("classify", "--poly", poly_file(write, bad), "--vertex", "0")
    assert code == 2 and out["error"] == "ParseError"


def test_summand_and_shephard(run, write):
    q1, q0 = phd_file(write, seg(0, 1)), phd_file(write, seg(0, 3))
    code, out = run("summand", "--q1", q1, "--q0", q0)
    assert code == 0 and out["summand"] is True
    assert jsonio.polyhedron_from_json(out["witness"]) == seg(0, 2)
    code, out = run("summand", "--q1", q0, "--q0", q1)
    assert code == 1 and out == {"summand": False}
    code, out = run("shephard", "--q1", q1, "--q0", q0)
    assert code == 0 and all(e["lambda"] == "1/3" for e in out["lambdas"])
    tri = phd_file(write, Polyhedron.from_generators(
        [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]))
    e1 = phd_file(write, Polyhedron.from_generators([(F(0), F(0)), (F(1), F(0))]))
    code, out = run("shephard", "--q1", tri, "--q0", e1)
    assert code == 1 and out["failure"] == [["0", "0"]]


def test_disc(run, write):
    sq = [seg(0, 2), seg(0, 1), pt(0)]
    t = write([jsonio.polyhedron_to_json(q) for q in sq])
    code, out = run("disc", "--support", "0,1,2", "--tuple", t, "--check-converse")
    assert code == 0 and out["root"] is True
    assert len(out["cone_roots"]) == 2
    # (Y + [0,1])(Y + [2,3]) has distinct factors: not a discriminant root
    distinct = write([jsonio.polyhedron_to_json(q)
                      for q in (seg(2, 4), seg(0, 3), pt(0))])
    code, out = run("disc", "--support", "0,1,2", "--tuple", distinct)
    assert code == 1 and out["root"] is False
    code, out = run("disc", "--support", "0,2", "--tuple", distinct)
    assert code == 2 and out["error"] == "UnknownSupport"


def test_trop(run, write):
    code, out = run("trop", "--poly", poly_file(write, QUAD), "--omega", "1")
    assert code == 0
    roots = {r["root"]: r["multiplicity"] for r in out["roots"]}
    assert roots == {"1": 1, "2": 1}


def test_dist_reproducible(run, write):
    a = phd_file(write, Polyhedron.from_generators([(F(0), F(0))], [(F(1), F(0))]))
    b = phd_file(write, Polyhedron.from_generators([(F(3), F(0))], [(F(1), F(0))]))
    code, out1 = run("dist", "--q0", a, "--q1", b, "--seed", "7")
    assert code == 0 and out1["distance"] == 3.0
    _, out2 = run("dist", "--q0", a, "--q1", b, "--seed", "7")
    assert out1 == out2


def test_malformed_input_exit_2(run, write, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run("root", "--poly", str(bad), "--at", str(bad))
    assert code == 2 and out["error"] == "ParseError"
    code, out = run("root", "--poly", str(tmp_path / "missing.json"),
                    "--at", str(tmp_path / "missing.json"))
    assert code == 2
    code, out = run("frobnicate")
    assert code == 2 and out["error"] == "usage"
    code, out = run("fan", "--poly", poly_file(write, QUAD), "--vertex", "9")
    assert code == 2


PT1 = {"vertices": [["0"]]}
COEFF1 = {"exp": [0], "coeff": PT1}

# malformed inputs: (name, files to write, argv with {0}, {1} for the files)
MALFORMED = [
    ("line-in-rays", [{"vars": 1, "terms": [COEFF1]}, {"vertices": [["0"]], "rays": [["1"], ["-1"]]}],
     ["root", "--poly", "{0}", "--at", "{1}"]),
    ("vertex-lengths", [{"vars": 1, "terms": [COEFF1]}, {"vertices": [["0"], ["1", "2"]]}],
     ["root", "--poly", "{0}", "--at", "{1}"]),
    ("coefficient-dims", [{"vars": 1, "terms": [
        COEFF1, {"exp": [1], "coeff": {"vertices": [["0", "1"]]}}]}, PT1],
     ["eval", "--poly", "{0}", "--at", "{1}"]),
    ("at-dim", [{"vars": 1, "terms": [COEFF1]}, {"vertices": [["0", "0"]]}],
     ["eval", "--poly", "{0}", "--at", "{1}"]),
    ("term-without-exp", [{"vars": 1, "terms": [{"coeff": PT1}]}, PT1],
     ["eval", "--poly", "{0}", "--at", "{1}"]),
    ("term-without-coeff", [{"vars": 1, "terms": [{"exp": [0]}]}, PT1],
     ["eval", "--poly", "{0}", "--at", "{1}"]),
    ("locals-without-solution", [{"vars": 1, "terms": [COEFF1]}, [{"vertex": ["0"]}]],
     ["glue", "--poly", "{0}", "--locals", "{1}"]),
    ("vars-not-integer", [{"vars": 1.5, "terms": [COEFF1]}, PT1],
     ["eval", "--poly", "{0}", "--at", "{1}"]),
    ("disc-coefficient-dims", [[PT1, PT1, {"vertices": [["0", "0"]]}]],
     ["disc", "--support", "0,1,2", "--tuple", "{0}"]),
    ("empty-coordinates", [{"vars": 1, "terms": [{"exp": [0], "coeff": {"vertices": [[]]}}]}, PT1],
     ["eval", "--poly", "{0}", "--at", "{1}"]),
]


@pytest.mark.parametrize("files,argv", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_malformed_json_exit_2(run, write, files, argv):
    paths = [write(f) for f in files]
    code, out = run(*(a.format(*paths) for a in argv))  # parses one JSON document
    assert code == 2 and out["error"] == "ParseError"


def test_environment_fills_seed_and_cap(run, write, monkeypatch):
    p = poly_file(write, QUAD)  # two fan cells at vertex 0
    monkeypatch.setenv("PSR_CAP_CELLS", "1")
    code, out = run("lcs", "--poly", p, "--vertex", "0")
    assert code == 2 and out["error"] == "SizeLimit"
    assert run("lcs", "--poly", p, "--vertex", "0", "--cap-cells", "2")[0] == 0
    monkeypatch.setenv("PSR_CAP_CELLS", "one")
    assert run("lcs", "--poly", p, "--vertex", "0")[1]["error"] == "usage"

    monkeypatch.setattr("psr.cli.hausdorff_angle_distance", lambda q0, q1, seed: seed)
    a = phd_file(write, pt(0))
    assert run("dist", "--q0", a, "--q1", a)[1] == {"distance": 0}
    monkeypatch.setenv("PSR_SEED", "11")
    assert run("dist", "--q0", a, "--q1", a)[1] == {"distance": 11}
    assert run("dist", "--q0", a, "--q1", a, "--seed", "4")[1] == {"distance": 4}


def test_roundtrip_serialisation():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        p = random_polytope(rng, n, 4)
        assert jsonio.polyhedron_from_json(json.loads(
            jsonio.dumps(jsonio.polyhedron_to_json(p)))) == p
    phi = PolyPolynomial.make({0: pt(3), 1: pt(1), 2: pt(0)})
    back = jsonio.polynomial_from_json(json.loads(
        jsonio.dumps(jsonio.polynomial_to_json(phi))))
    assert back == phi


def test_stdout_byte_identical_given_seed(run, write, capsys):
    a = phd_file(write, Polyhedron.from_generators([(F(0), F(0))], [(F(1), F(0)), (F(0), F(1))]))
    b = phd_file(write, Polyhedron.from_generators([(F(0), F(0))], [(F(1), F(1))]))
    main(["dist", "--q0", a, "--q1", b, "--seed", "3"])
    first = capsys.readouterr().out
    main(["dist", "--q0", a, "--q1", b, "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second and first.strip()


def test_readme_example_command():
    repo = Path(__file__).resolve().parents[1]
    cmd = "psr root --poly examples/phi.json --at examples/candidate.json"
    assert cmd in (repo / "README.md").read_text()
    path = os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "psr.cli", *cmd.split()[1:]],
        cwd=repo, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["root"] is True  # exactly one document
