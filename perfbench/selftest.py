"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py            # everything (several minutes)
    python3 perfbench/selftest.py --quick    # in-process checks only

1. The answer checks reject corrupted answers: a factor root translated by
   one unit, a forged verdict, a translated local solution, a changed
   minimal VCC, a changed CLI document; and a wrong answer sent to the
   input process (`feed.py`) comes back as an error.
2. The span wrappers leave every answer digest unchanged.
3. (not with --quick) Two traced runs of the same seed, each a fresh
   process, print identical digests and deterministic per-layer metrics,
   and a timed run of that seed prints the same digest.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import spans  # noqa: E402
from feed import Feed  # noqa: E402
from psr.globalglue import (  # noqa: E402
    classify_quadratic_local,
    classify_reduced_cubic_local,
)
from psr.polynomials import is_root  # noqa: E402
from psr.vcc import VCC  # noqa: E402
from workloads import WORKLOADS, Op, WrongAnswer  # noqa: E402

SEED = 11
# per-layer metrics that are times, not counts or ratios of counts
TIMED = ("self_s", "cli.startup_ms", "trace.overhead_ratio")


class SelfTestFailure(Exception):
    pass


def expect_rejected(wl, op, answer, what: str) -> None:
    try:
        wl.check(op, answer)
    except WrongAnswer:
        return
    raise SelfTestFailure(f"{wl.name}: the check accepted {what}")


def _shifted(p, k: int = 0):
    """p translated by one unit along coordinate k."""
    t = [Fraction(int(i == k)) for i in range(p.dim_ambient)]
    return p.translate(t)


def check_corrupted_semiring() -> None:
    wl = WORKLOADS["semiring-eval"](SEED, ROOT)
    wl.extend(3 * len(wl.cycle))
    tried = 0
    for op in wl.ops:
        if op.expect is not True:
            continue
        phi, p = op.data
        moved = _shifted(p)
        if is_root(phi, moved)[0]:
            continue  # this translate happens to be a root too
        bad = Op(op.cls, op.key + "/moved", (phi, moved), True)
        # the program's own (correct) verdict on the moved factor is "no root"
        expect_rejected(wl, bad, wl.run(bad), "a translated factor that tests false")
        # a forged "root" verdict for it, with a witness that agrees
        _, witness = wl.run(bad)
        forged = {v: [0, 1] for v in witness}
        expect_rejected(wl, bad, (True, forged), "a forged root verdict")
        tried += 1
    if not tried:
        raise SelfTestFailure("semiring-eval: no translated factor to test with")
    op = wl.ops[0]
    ok, witness = wl.run(op)
    expect_rejected(wl, op, (not ok, witness), "a verdict that disagrees with its witness")


def check_corrupted_local_solve() -> None:
    wl = WORKLOADS["local-solve"](SEED, ROOT)
    wl.extend(len(wl.cycle))
    for op in wl.ops:
        phi, _ = op.data
        sols = wl.run(op)
        for k, s in enumerate(sols):
            moved = _shifted(s)
            if not is_root(phi, moved)[0]:
                expect_rejected(wl, op, sols[:k] + [moved] + sols[k + 1:],
                                "a translated local solution")
                break
        classify = {(0, 1, 2): classify_quadratic_local,
                    (0, 1, 3): classify_reduced_cubic_local}.get(phi.support)
        if classify is not None:
            full = set(classify(phi, op.data[1]).solutions)
            dropped = next(s for s in sols if s in full)
            expect_rejected(wl, op, [s for s in sols if s != dropped],
                            "a solution list missing a full-support solution")
            return
    raise SelfTestFailure("local-solve: no quadratic or reduced cubic op in the first cycle")


def check_corrupted_vcc() -> None:
    wl = WORKLOADS["vcc-roundtrip"](SEED, ROOT)
    wl.extend(len(wl.cycle))
    op = wl.ops[0]
    g, ok, minimal, back = wl.run(op)
    moved = VCC.make([(tuple(x + 1 for x in v), c) for v, c in minimal.pairs])
    expect_rejected(wl, op, (g, ok, moved, back), "a changed minimal VCC")
    expect_rejected(wl, op, (g, False, minimal, back), "a VCC that is not a root")
    _, other = wl.ops[1].data
    if other != back:
        expect_rejected(wl, op, (g, ok, minimal, other), "a different LCS")


def check_corrupted_cli() -> None:
    wl = WORKLOADS["cli"](SEED, ROOT)
    try:
        wl.extend(len(wl.cycle))
        op = next(o for o in wl.ops if o.cls == "root-factor")
        code, out = wl.run_inproc(op)
        doc = json.loads(out)
        doc["root"] = not doc["root"]
        expect_rejected(wl, op, (code, json.dumps(doc)), "a flipped CLI verdict")
        expect_rejected(wl, op, (code, out + out), "two JSON documents on stdout")
        expect_rejected(wl, op, (1 - code, out), "a wrong exit code")
        bad = next(o for o in wl.ops if o.cls == "malformed")
        expect_rejected(wl, bad, (0, wl.run_inproc(bad)[1]), "exit 0 on malformed input")
    finally:
        wl.close()


def check_feed_rejects() -> None:
    wl = WORKLOADS["semiring-eval"](SEED, ROOT)
    feed = Feed("semiring-eval", SEED)
    try:
        ops = feed.take(len(wl.cycle))
        i, op = next((i, op) for i, op in enumerate(ops) if op.expect is True)
        for j in range(i):
            if feed.check(j, wl.run(ops[j]))[1] is not None:
                raise SelfTestFailure("feed: a correct answer was rejected")
        _, witness = wl.run(op)
        if feed.check(i, (False, witness))[1] is None:
            raise SelfTestFailure("feed: a factor reported as no root was accepted")
    finally:
        feed.close()


def _deterministic(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not any(t in k for t in TIMED)}


def check_tracing_keeps_answers() -> None:
    for name, cls in WORKLOADS.items():
        wl = cls(SEED, ROOT)
        try:
            wl.extend(len(wl.cycle))
            plain = [wl.canon(op, wl.run_inproc(op)) for op in wl.ops]
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = [wl.canon(op, wl.run_inproc(op)) for op in wl.ops]
            finally:
                tracer.uninstall()
            if corpus.digest(traced) != corpus.digest(plain):
                raise SelfTestFailure(f"{name}: tracing changed an answer")
            if tracer.missing:
                raise SelfTestFailure(f"{name}: targets not traced: {tracer.missing}")
            if not any(v for k, v in tracer.metrics().items() if k.endswith(".calls")):
                raise SelfTestFailure(f"{name}: the tracer recorded no calls")
        finally:
            wl.close()


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True).stdout.splitlines()
    return json.loads(out[-2])["run_info"], json.loads(out[-1])


def check_same_seed_twice() -> None:
    for name in WORKLOADS:
        (info1, res1), (info2, res2) = _bench(name, 1), _bench(name, 1)
        if info1["digest"] != info2["digest"]:
            raise SelfTestFailure(f"{name}: two traced runs of one seed gave different digests")
        m1 = _deterministic({k: v["value"] for k, v in res1["metrics"].items()})
        m2 = _deterministic({k: v["value"] for k, v in res2["metrics"].items()})
        if m1 != m2:
            raise SelfTestFailure(f"{name}: per-layer counts differ between traced runs")
        info3, _ = _bench(name, 0)
        if info3["digest"] != info1["digest"]:
            raise SelfTestFailure(f"{name}: the timed and the traced run gave different digests")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="skip the subprocess runs")
    args = ap.parse_args()
    checks = [check_corrupted_semiring, check_corrupted_local_solve, check_corrupted_vcc,
              check_corrupted_cli, check_feed_rejects, check_tracing_keeps_answers]
    if not args.quick:
        checks.append(check_same_seed_twice)
    failed = 0
    for check in checks:
        try:
            check()
        except SelfTestFailure as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
