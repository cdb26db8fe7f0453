"""The four benchmark workloads.

A workload turns a seed into an ordered stream of distinct operations.
The stream is built cycle by cycle; one cycle holds a fixed number of
operations of every input class, so every seed gets the same mix and a
run that stops at a cycle boundary has the same composition whatever the
seed.  ``run`` and ``run_inproc`` execute an operation in the timed
process; ``make``, ``check``, ``canon`` and ``refused`` run in the input
process of `feed.py`, so that building and checking inputs warms no
cache of the timed one.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import corpus
from psr import cli
from psr.globalglue import classify_quadratic_local, classify_reduced_cubic_local
from psr.localfan import build_local_fan, enumerate_lcs
from psr.polyhedra import Polyhedron, inner_normal_cone, minkowski_sum, normal_fan_support
from psr.polynomials import PolyPolynomial, coefficient_msum, is_root, product_expand
from psr.vcc import (
    enumerate_mw_minimal_local_solutions,
    lcs_to_vcc,
    minimalize,
    vcc_is_root,
    vcc_to_lcs,
)


class WrongAnswer(Exception):
    """The program returned an answer that fails the workload's check."""


@dataclass(frozen=True)
class Refusal:
    """The answer of an operation that raised a PsrError."""

    error: str


@dataclass
class Op:
    cls: str
    key: str  # canonical encoding of the input; unique within a run
    data: tuple
    expect: object = None


@dataclass
class Workload:
    seed: int
    root: Path
    ops: list[Op] = field(default_factory=list)

    name = ""
    cycle = ()  # the input class of every slot in one cycle
    # inputs built during set-up: whole cycles, and enough of them that the
    # seed-to-seed spread of their build time stays small (rejection
    # sampling makes a single input's build time vary widely)
    setup_ops = 0
    # does `run` start a process (timed against a process-start probe)?
    starts_process = False

    def __post_init__(self) -> None:
        self._seen: set[str] = set()
        self._rngs: dict[str, random.Random] = {}

    def rng(self, cls: str) -> random.Random:
        if cls not in self._rngs:
            self._rngs[cls] = corpus.class_rng(self.name, cls, self.seed)
        return self._rngs[cls]

    def extend(self, n: int) -> None:
        """Build the inputs of the next n operations of the stream."""
        for _ in range(n):
            cls = self.cycle[len(self.ops) % len(self.cycle)]
            op = self.make(cls)
            while op.key in self._seen:
                op = self.make(cls)
            self._seen.add(op.key)
            self.ops.append(op)

    def make(self, cls: str) -> Op:
        raise NotImplementedError

    def run(self, op: Op):
        """The timed operation."""
        raise NotImplementedError

    def run_inproc(self, op: Op):
        """The operation as the traced run executes it, inside this process."""
        return self.run(op)

    def refused(self, op: Op, answer) -> bool:
        """Did the program refuse the input (counted in `failed`)?"""
        return isinstance(answer, Refusal)

    def check(self, op: Op, answer) -> None:
        raise NotImplementedError

    def canon(self, op: Op, answer):
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


def _vertex_of_m(rng: random.Random, phi: PolyPolynomial):
    verts = sorted(coefficient_msum(phi).value.vertices)
    i = rng.randrange(len(verts))
    return i, verts[i]


# ---------------------------------------------------------------------------


class LocalSolve(Workload):
    """enumerate_mw_minimal_local_solutions(phi, v): the `psr solve-local` query."""

    name = "local-solve"
    # class -> (dimension, support, points per coefficient, point coefficients,
    #           band of fan cells at v, number of LCSs of that fan)
    CLASSES = {
        "r1-quad": (1, (0, 1, 2), (1, 3), 0, None, None),
        "r2-quad": (2, (0, 1, 2), (1, 3), 0, None, None),
        "r1-rcubic": (1, (0, 1, 3), (1, 3), 0, None, None),
        "r2-rcubic": (2, (0, 1, 3), (1, 3), 0, None, None),
        "r1-cubic": (1, (0, 1, 2, 3), (1, 3), 0, None, None),
        "r2-cubic-small": (2, (0, 1, 2, 3), (1, 3), 0, (1, 2), None),
        "r1-point-cubic": (1, (0, 1, 2, 3), (1, 1), 0, None, None),
        # two point coefficients make larger fans common; larger fans are left
        # out (the all-point cubic in R^2 has 12 cells and takes about 20 s).
        # The cost of a 4-cell fan grows with its number of LCSs (about 40 ms
        # for one, 60 ms for four, 90-150 ms for five to seven); fixing it at
        # the commonest count keeps the 90th percentile from moving with the seed
        "r2-cubic-large": (2, (0, 1, 2, 3), (2, 2), 2, (4, 4), 4),
    }
    # the costliest class fills two slots of twelve, so the 90th percentile
    # falls inside it; the point-coefficient cubic, whose cost varies least,
    # fills four, so the median falls inside it
    cycle = tuple(CLASSES) + ("r1-point-cubic",) * 3 + ("r2-cubic-large",)
    setup_ops = 20 * 12

    def make(self, cls: str) -> Op:
        n, support, (lo, hi), n_points, band, n_lcs = self.CLASSES[cls]
        rng = self.rng(cls)
        while True:
            phi = corpus.generic_poly(rng, n, support, hi, lo, n_points=n_points)
            verts = sorted(coefficient_msum(phi).value.vertices)
            rng.shuffle(verts)
            for v in verts:
                fan = build_local_fan(phi, v) if band else None
                if band and not band[0] <= len(fan.cells) <= band[1]:
                    continue
                if n_lcs is None or len(enumerate_lcs(fan)) == n_lcs:
                    key = corpus.dumps([corpus.polynomial(phi), corpus.vec(v)])
                    return Op(cls, key, (phi, v))

    def run(self, op: Op):
        phi, v = op.data
        return enumerate_mw_minimal_local_solutions(phi, v)

    def check(self, op: Op, sols) -> None:
        phi, v = op.data
        for s in sols:
            if not is_root(phi, s)[0]:
                raise WrongAnswer(f"solution {corpus.polyhedron(s)} is not a root")
        classify = {
            (0, 1, 2): classify_quadratic_local,
            (0, 1, 3): classify_reduced_cubic_local,
        }.get(phi.support)
        if classify is not None:
            nv = inner_normal_cone(coefficient_msum(phi).value, v)
            full = {s for s in sols if normal_fan_support(s) == nv}
            if full != set(classify(phi, v).solutions):
                raise WrongAnswer("full-support solutions differ from the closed-form classifier")

    def canon(self, op: Op, sols):
        return [corpus.polyhedron(s) for s in sols]


class VccRoundtrip(Workload):
    """One LCS through lcs_to_vcc -> vcc_is_root -> minimalize -> vcc_to_lcs.

    Fans and LCS lists are built while the stream is filled.  Cubic LCSs
    are banded by the number of fan cells they leave free, which is what
    the cost of `minimalize` grows with; LCSs leaving more than three cells
    free (from 0.1 s to 10 s each) are left out.
    """

    name = "vcc-roundtrip"
    SUPPORTS = {"quad": (0, 1, 2), "rcubic": (0, 1, 3), "cubic": (0, 1, 2, 3)}
    # fans of more cells (the point-coefficient cubics, 12 cells) are left out
    MAX_CELLS = 8
    # the 50th percentile falls inside the quadratic and reduced-cubic
    # classes, the 90th inside the heavy band
    cycle = ("quad", "rcubic", "quad", "cubic-mid", "rcubic", "cubic-heavy",
             "quad", "rcubic", "quad", "cubic-mid", "rcubic", "cubic-heavy")
    setup_ops = 20 * 12
    # LCSs taken per fan and class, so that a run samples many fans
    PER_FAN = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        self._queues: dict[str, deque[Op]] = {cls: deque() for cls in self.cycle}

    @staticmethod
    def band(family: str, cells: int, free: int) -> str | None:
        """The class of an LCS; minimalize tries 2^free enlargements at most."""
        if family != "cubic":
            return family
        if cells <= 2 or free > 3:
            return None
        return "cubic-mid" if free <= 2 else "cubic-heavy"

    def make(self, cls: str) -> Op:
        family = cls.split("-")[0]
        while not self._queues[cls]:
            self._produce(family)
        return self._queues[cls].popleft()

    def _produce(self, family: str) -> None:
        rng = self.rng(family)
        phi = corpus.generic_poly(rng, 2, self.SUPPORTS[family], 2)
        for v in sorted(coefficient_msum(phi).value.vertices):
            fan = build_local_fan(phi, v)
            if len(fan.cells) > self.MAX_CELLS:
                continue
            by_class: dict[str, list] = {}
            for lcs in enumerate_lcs(fan):
                cls = self.band(family, len(fan.cells), len(fan.cells) - len(lcs.cells))
                if cls is not None:
                    by_class.setdefault(cls, []).append(lcs)
            for cls, found in by_class.items():
                for lcs in rng.sample(found, min(self.PER_FAN, len(found))):
                    key = corpus.dumps([corpus.polynomial(phi), corpus.vec(v),
                                        list(lcs.cells), [list(p) for p in lcs.pairs]])
                    self._queues[cls].append(Op(cls, key, (fan, lcs)))

    def run(self, op: Op):
        fan, lcs = op.data
        g = lcs_to_vcc(fan, lcs)
        ok, _ = vcc_is_root(fan.phi, g)
        return g, ok, minimalize(fan, g), vcc_to_lcs(fan, g)

    def check(self, op: Op, answer) -> None:
        _, lcs = op.data
        g, ok, minimal, back = answer
        if not ok:
            raise WrongAnswer("the VCC of an LCS is not a root")
        if minimal != g:
            raise WrongAnswer("minimalize changed the VCC of an LCS")
        if back != lcs:
            raise WrongAnswer("vcc_to_lcs did not give back the LCS")

    def canon(self, op: Op, answer):
        g, ok, minimal, back = answer
        return {"vcc": corpus.vcc(g), "root": ok, "minimal": corpus.vcc(minimal),
                "lcs": [list(back.cells), [list(p) for p in back.pairs]]}


class SemiringEval(Workload):
    """is_root(phi, p) with its witness.

    Half of the candidates are factors P_i of a product form
    q * prod (Y + P_i), which must test as roots.  The other half are
    random polytopes, tried on random polynomials whose coefficients have
    up to four vertices.
    """

    name = "semiring-eval"
    # shape -> (dimension, degree)
    SHAPES = {"r2-d2": (2, 2), "r2-d3": (2, 3), "r2-d4": (2, 4), "r3-d2": (3, 2), "r3-d3": (3, 3)}
    # the costliest class fills the top two slots of eleven, so the 90th
    # percentile falls inside it
    cycle = tuple(f"{s}-{kind}" for s in SHAPES for kind in ("factor", "random")) + (
        "r3-d3-random",)
    setup_ops = 20 * 11

    def make(self, cls: str) -> Op:
        shape, kind = cls.rsplit("-", 1)
        n, deg = self.SHAPES[shape]
        rng = self.rng(cls)
        # fixed multisets of point counts keep the cost of a class narrow
        if kind == "factor":
            sizes = [1 + k % 2 for k in range(deg)]
            rng.shuffle(sizes)
            phi, factors = corpus.product_form(rng, n, sizes)
            p, expect = factors[rng.randrange(deg)], True
        else:
            sizes = [1 + k % 4 for k in range(deg + 1)]
            rng.shuffle(sizes)
            phi = PolyPolynomial.make({
                i: corpus.polytope(rng, n, k) for i, k in enumerate(sizes)})
            p, expect = corpus.polytope(rng, n, 3), None
        key = corpus.dumps([corpus.polynomial(phi), corpus.polyhedron(p)])
        return Op(cls, key, (phi, p), expect)

    def run(self, op: Op):
        phi, p = op.data
        return is_root(phi, p)

    def check(self, op: Op, answer) -> None:
        phi, p = op.data
        ok, witness = answer
        if not witness:
            raise WrongAnswer("empty witness")
        if ok != all(len(ix) >= 2 for ix in witness.values()):
            raise WrongAnswer("the verdict disagrees with its witness")
        if op.expect is True and not ok:
            raise WrongAnswer("a factor of a product form did not test as a root")
        if ok:
            _check_support_functions(phi, p, random.Random(op.key))

    def canon(self, op: Op, answer):
        ok, witness = answer
        return {"root": ok,
                "witness": sorted([corpus.vec(v), sorted(ix)] for v, ix in witness.items())}


def _check_support_functions(phi: PolyPolynomial, p: Polyhedron, rng: random.Random) -> None:
    """Independent necessary condition for a root of polytope data.

    The support function of Q_i + i*P in direction l is h_Qi(l) + i*h_P(l);
    at a root every face of phi(P) minimising l holds a vertex shared by
    two summands, so the minimum over i is attained at least twice.
    """

    def h(q: Polyhedron, ell) -> Fraction:
        return min(sum(a * b for a, b in zip(ell, v)) for v in q.vertices)

    for _ in range(24):
        ell = [rng.randint(-9, 9) for _ in range(p.dim_ambient)]
        vals = [h(q, ell) + i * h(p, ell) for i, q in phi.terms]
        if vals.count(min(vals)) < 2:
            raise WrongAnswer(f"functional {ell} is minimised by a single summand")


# ---------------------------------------------------------------------------


class Cli(Workload):
    """One `python -m psr.cli <subcommand>` subprocess per operation."""

    name = "cli"
    # subcommand variant -> occurrences per cycle of 100; the slowest fifth
    # is solve-local on cubics in R^2, so the 90th percentile falls inside
    # one class
    MIX = (("eval", 5), ("root-factor", 6), ("root-random", 6), ("generic", 4),
           ("fan", 6), ("lcs", 6), ("solve-local", 6), ("solve-local-cubic", 20),
           ("glue", 6), ("classify", 6), ("summand", 4), ("shephard", 4), ("disc", 6),
           ("disc-3d", 1), ("trop", 6), ("dist", 4), ("malformed", 4))
    cycle = tuple(
        kind for kind in itertools.chain.from_iterable(
            itertools.zip_longest(*[[k] * c for k, c in MIX]))
        if kind is not None)
    setup_ops = 100
    starts_process = True

    def __post_init__(self) -> None:
        super().__post_init__()
        self.dir: Path | None = None  # input files, made by the first _write
        self._files = itertools.count()
        self._peak_kb = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PSR_")}
        self.env["PYTHONPATH"] = str(self.root / "src")

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)

    def _write(self, obj) -> tuple[str, str]:
        if self.dir is None:
            self.dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=self.root))
        text = obj if isinstance(obj, str) else corpus.dumps(obj)
        path = self.dir / f"in{next(self._files)}.json"
        path.write_text(text)
        return str(path), text

    def make(self, cls: str) -> Op:
        rng = self.rng(cls)
        argv, expect = getattr(self, "_make_" + cls.replace("-", "_"))(rng)
        contents = {}
        for i, a in enumerate(argv):
            if isinstance(a, tuple):
                argv[i], contents[i] = a
        key = corpus.dumps([contents.get(i, a) for i, a in enumerate(argv)])
        return Op(cls, key, (argv,), expect)

    # -- input makers: (argv with (path, text) file arguments, expected exit code)

    def _poly(self, phi: PolyPolynomial):
        return self._write({"vars": 1, "terms": [
            {"exp": [i], "coeff": corpus.polyhedron(q)} for i, q in phi.terms]})

    def _make_eval(self, rng):
        n = rng.choice([1, 2])
        phi = corpus.generic_poly(rng, n, rng.choice([(0, 1, 2), (0, 1, 3)]), 2)
        at = corpus.polytope(rng, n, rng.randint(1, 3))
        return ["eval", "--poly", self._poly(phi), "--at", self._write(corpus.polyhedron(at))], 0

    def _root(self, rng, factor: bool):
        n = rng.choice([1, 2])
        sizes = [rng.randint(1, 2) for _ in range(rng.choice([2, 3]))]
        phi, factors = corpus.product_form(rng, n, sizes)
        p = rng.choice(factors) if factor else corpus.polytope(rng, n, rng.randint(1, 3), -3, 3)
        argv = ["root", "--poly", self._poly(phi), "--at", self._write(corpus.polyhedron(p))]
        return argv, (0 if factor else None)

    def _make_root_factor(self, rng):
        return self._root(rng, True)

    def _make_root_random(self, rng):
        return self._root(rng, False)

    def _make_generic(self, rng):
        n = rng.choice([1, 2])
        phi = PolyPolynomial.make({
            i: corpus.polytope(rng, n, rng.randint(1, 2), -2, 2) for i in (0, 1, 2, 3)})
        return ["generic", "--poly", self._poly(phi)], None

    def _local(self, rng, cmd: str, supports):
        n = rng.choice([1, 2])
        support = rng.choice(supports)
        phi = corpus.generic_poly(rng, n, support, 2)
        idx, _ = _vertex_of_m(rng, phi)
        return [cmd, "--poly", self._poly(phi), "--vertex", str(idx)], 0

    def _make_fan(self, rng):
        return self._local(rng, "fan", [(0, 1, 2), (0, 1, 3)])

    def _make_lcs(self, rng):
        return self._local(rng, "lcs", [(0, 1, 2), (0, 1, 3)])

    def _make_solve_local(self, rng):
        return self._local(rng, "solve-local", [(0, 1, 2), (0, 1, 3)])

    def _make_solve_local_cubic(self, rng):
        while True:
            phi = corpus.generic_poly(rng, 2, (0, 1, 2, 3), 3, 2, n_points=2)
            verts = sorted(coefficient_msum(phi).value.vertices)
            order = list(range(len(verts)))
            rng.shuffle(order)
            for idx in order:
                if len(build_local_fan(phi, verts[idx]).cells) == 3:
                    return ["solve-local", "--poly", self._poly(phi), "--vertex", str(idx)], 0

    def _make_classify(self, rng):
        return self._local(rng, "classify", [(0, 1, 2), (0, 1, 3)])

    def _make_glue(self, rng):
        phi = corpus.generic_poly(rng, 1, (0, 1, 2), 2)
        local = []
        for v in sorted(coefficient_msum(phi).value.vertices):
            sols = classify_quadratic_local(phi, v).solutions
            local.append({"vertex": corpus.vec(v),
                          "solution": corpus.polyhedron(sols[rng.randrange(len(sols))])})
        return ["glue", "--poly", self._poly(phi), "--locals", self._write(local)], None

    def _summand_pair(self, rng):
        q1 = corpus.polytope(rng, 2, rng.randint(1, 4), -3, 3)
        if rng.random() < 0.5:
            q0 = minkowski_sum(q1, corpus.polytope(rng, 2, rng.randint(1, 3), -3, 3))
        else:
            q0 = corpus.polytope(rng, 2, rng.randint(1, 5), -3, 3)
        return self._write(corpus.polyhedron(q1)), self._write(corpus.polyhedron(q0))

    def _make_summand(self, rng):
        q1, q0 = self._summand_pair(rng)
        return ["summand", "--q1", q1, "--q0", q0], None

    def _make_shephard(self, rng):
        q1, q0 = self._summand_pair(rng)
        return ["shephard", "--q1", q1, "--q0", q0], None

    def _disc(self, rng, n: int, npts: int):
        f = corpus.polytope(rng, n, npts, -3, 3)
        phi = product_expand(corpus.polytope(rng, n, 1, -2, 2), [f, f])
        coeffs = [corpus.polyhedron(phi.coefficient(i)) for i in (0, 1, 2)]
        return ["disc", "--support", "0,1,2", "--tuple", self._write(coeffs),
                "--check-converse", "--seed", "1"], 0

    def _make_disc(self, rng):
        return self._disc(rng, rng.choice([1, 2]), rng.randint(1, 2))

    def _make_disc_3d(self, rng):
        # a segment factor in R^3: the converse search finds one cone root at
        # each of the two vertices of M and samples a 3-D solid angle for each
        f = corpus.polytope(rng, 3, 2, -3, 3)
        while len(f.vertices) != 2:
            f = corpus.polytope(rng, 3, 2, -3, 3)
        phi = product_expand(corpus.polytope(rng, 3, 1, -2, 2), [f, f])
        coeffs = [corpus.polyhedron(phi.coefficient(i)) for i in (0, 1, 2)]
        return ["disc", "--support", "0,1,2", "--tuple", self._write(coeffs),
                "--check-converse", "--seed", "1"], 0

    def _make_trop(self, rng):
        n = rng.choice([1, 2])
        phi = PolyPolynomial.make({
            i: corpus.polytope(rng, n, rng.randint(1, 3)) for i in (0, 1, 2, 3)})
        omega = ",".join(str(rng.randint(1, 5)) for _ in range(n))
        return ["trop", "--poly", self._poly(phi), "--omega", omega], 0

    def _make_dist(self, rng):
        n = rng.choice([1, 2])
        dirs = [(1,)] if n == 1 else [(1, 0), (1, 1), (0, 1)]  # all in one open half
        qs = []
        for _ in range(2):
            pts = [corpus.vec(rng.randint(-4, 4) for _ in range(n))
                   for _ in range(rng.randint(1, 3))]
            rays = [corpus.vec(d) for d in dirs if rng.random() < 0.5]
            qs.append(self._write({"vertices": pts, "rays": rays}))
        return ["dist", "--q0", qs[0], "--q1", qs[1], "--seed", "7"], 0

    def _make_malformed(self, rng):
        variant = rng.randrange(3)
        tag = rng.randrange(10**9)
        if variant == 0:
            bad = self._write('{"vars": 1, "terms": [' + str(tag))
            return ["root", "--poly", bad, "--at", bad], 2
        if variant == 1:
            return [f"frobnicate-{tag}"], 2
        argv, _ = self._local(rng, "fan", [(0, 1, 2)])
        argv[-1] = str(100 + tag % 1000)
        return argv, 2

    # -- execution

    def run(self, op: Op):
        (argv,) = op.data
        proc = subprocess.Popen([sys.executable, "-m", "psr.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                cwd=self.root, env=self.env)
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            # wait4, not wait: the child's own peak memory comes with it
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._peak_kb = max(self._peak_kb, usage.ru_maxrss)
        return proc.returncode, out.decode()

    def run_inproc(self, op: Op):
        (argv,) = op.data
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    def refused(self, op: Op, answer) -> bool:
        return answer[0] == 2 and op.expect != 2

    def check(self, op: Op, answer) -> None:
        code, out = answer
        try:
            doc = json.loads(out)
        except ValueError as exc:
            raise WrongAnswer(f"stdout is not exactly one JSON document: {exc}") from None
        if code not in (0, 1, 2) or (op.expect is not None and code != op.expect):
            raise WrongAnswer(f"exit code {code}, expected {op.expect}")
        ref_code, ref_out = self.run_inproc(op)
        if (code, doc) != (ref_code, json.loads(ref_out)):
            raise WrongAnswer("the subprocess answer differs from the in-process answer")

    def canon(self, op: Op, answer):
        code, out = answer
        # error messages name the input file, whose directory differs per run
        if self.dir is not None:
            out = out.replace(str(self.dir), "INPUTS")
        return {"code": code, "out": json.loads(out)}

    def peak_rss_kb(self) -> int:
        return self._peak_kb


WORKLOADS = {w.name: w for w in (LocalSolve, VccRoundtrip, SemiringEval, Cli)}
