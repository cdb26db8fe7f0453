"""psr benchmark: one seeded workload per run, answers checked, metrics as JSON.

    python3 perfbench/run.py --workload local-solve --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout; it imports the library from
``src/`` next to this directory and exits with code 2 if there is none.

Inputs are built, and answers checked, by a second process (`feed.Feed`),
which waits while this one times an operation; this process only runs
the operations, so none of the benchmark's own library calls warms a
cache here, and it keeps no input or answer once that is checked.

With ``--trace 0`` the run sets up (`_setup`: ``setup_s`` is the median
time to start a fresh input process that has imported psr, over
``SETUP_REPEATS`` of them, plus the time the last one takes to build the
inputs of the workload's first ``setup_ops`` operations), then runs
operations one after another (one closed-loop client) until at least
``--seconds`` of operation time and at least
``MIN_OPS`` operations have passed, stopping only at a cycle boundary so
that every run holds the same mix of input classes.  Every input is used
once.  Each answer is checked right after its operation, outside the
timed span; a wrong answer names the operation and seed and exits with
code 3.  ``peak_rss_mb`` is read after exactly ``MIN_OPS`` operations, so
it does not grow with how many operations a run completes.  Every
duration is scaled to a reference host speed by `speed.Speed` (raw
figures are in ``run_info``), and the process is pinned to one core,
which its children share.

With ``--trace 1`` the first ``MIN_OPS`` operations run untraced in a
fresh process (for ``cli`` a second one runs them as subprocesses), then
here with every layer wrapped by `spans.Tracer`.  The run prints the
per-layer metrics, which are deterministic except the ``self_s`` times,
and requires every pass to give the same answer digest.

The second-to-last line of output is ``{"run_info": ...}`` (seed, Python
version, nproc, ``src/psr`` line count, answer digest, per-class median
latencies); the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

from feed import DIGEST_OPS, Feed
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# every run completes at least this many operations, so that at least ten
# latencies lie beyond the 90th percentile
MIN_OPS = DIGEST_OPS
# set-up starts this many input processes and keeps the last
SETUP_REPEATS = 3
# probes timed before and after a set-up, which runs in another process
SETUP_PROBES = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _percentile(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "psr").rglob("*.py")))


def _setup(cls, seed: int, speed: Speed):
    """The input process of the run, ready to hand out the inputs of its
    first `cls.setup_ops` operations, and the reference-speed set-up time:
    the median time to start an input process up to a usable library
    (over SETUP_REPEATS fresh ones) plus the time the kept one took to
    build those inputs."""
    starts = []
    feed = None
    try:
        for _ in range(SETUP_REPEATS):
            if feed is not None:
                feed.close()
                feed = None
            for _ in range(SETUP_PROBES):
                speed.probe()
            t0 = time.perf_counter()
            feed = Feed(cls.name, seed)
            feed.ready()
            t1 = time.perf_counter()
            for _ in range(SETUP_PROBES):
                speed.probe()
            starts.append(speed.scaled(t0, t1))
        build_s = feed.build(cls.setup_ops)
    except BaseException:
        if feed is not None:
            feed.close()
        raise
    return feed, starts, build_s


def _loop(wl, feed: Feed, speed: Speed, run, seed: int, done):
    """Run operations in stream order until done(count, raw_seconds).

    The host speed is probed before each operation; each answer is sent
    to the input process for checking as soon as its span has ended.
    Returns the raw (start, end) and class of each operation, the number
    refused, and the peak RSS (kB) after MIN_OPS operations.
    """
    from psr.errors import PsrError
    from workloads import Refusal

    pending: deque = deque()
    spans_, classes = [], []
    failed, raw, peak_kb = 0, 0.0, 0
    while True:
        if not pending:
            pending.extend(feed.take(len(wl.cycle)))
        op = pending.popleft()
        speed.probe()
        t0 = time.perf_counter()
        try:
            answer = run(op)
        except PsrError as exc:
            answer = Refusal(type(exc).__name__)
        t1 = time.perf_counter()
        spans_.append((t0, t1))
        classes.append(op.cls)
        raw += t1 - t0
        refused, error = feed.check(len(spans_) - 1, answer)
        if error is not None:
            sys.stderr.write(f"wrong answer: workload {wl.name}, seed {seed}, {error}\n")
            sys.exit(3)
        failed += refused
        del op, answer
        if len(spans_) == MIN_OPS:
            peak_kb = wl.peak_rss_kb()
        if done(len(spans_), raw):
            break
    speed.probe()
    return spans_, classes, failed, peak_kb


def timed_run(cls, seed: int, seconds: float, fixed_ops: int | None = None,
              inproc: bool = False):
    """The end-to-end metrics.  With fixed_ops, exactly that many operations
    and no set-up measured (an untraced pass of a traced run)."""
    speed = Speed(process=cls.starts_process and not inproc)
    wl = cls(seed, ROOT)
    baseline_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls = [time.perf_counter()]
    starts, build_s = [], 0.0
    if fixed_ops:
        feed = Feed(cls.name, seed)
    else:
        feed, starts, build_s = _setup(cls, seed, speed)
    try:
        walls.append(time.perf_counter())
        cycle = len(cls.cycle)
        if fixed_ops:
            done = lambda i, raw: i == fixed_ops  # noqa: E731
        else:
            done = lambda i, raw: i % cycle == 0 and i >= MIN_OPS and raw >= seconds  # noqa: E731
        spans_, classes, failed, peak_kb = _loop(
            wl, feed, speed, wl.run_inproc if inproc else wl.run, seed, done)
        walls.append(time.perf_counter())
        digest = feed.digest()
    finally:
        feed.close()
    n = len(spans_)
    latencies = [speed.scaled(t0, t1) for t0, t1 in spans_]
    lat = sorted(latencies)
    raw_lat = sorted(t1 - t0 for t0, t1 in spans_)
    by_class: dict[str, list[float]] = {}
    for c, dt in zip(classes, latencies):
        by_class.setdefault(c, []).append(dt)
    info = {
        "ops": n,
        "fail_ratio": failed / n,
        "digest": digest,
        "digest_ops": DIGEST_OPS,
        "raw_seconds": sum(raw_lat),
        "raw_latency_p50_ms": 1e3 * _percentile(raw_lat, 0.5),
        "raw_latency_p90_ms": 1e3 * _percentile(raw_lat, 0.9),
        "probe_median_ms": 1e3 * speed.probe_median_s(),
        "probe_nominal_ms": 1e3 * speed.nominal,
        "class_p50_ms": {c: 1e3 * statistics.median(v) for c, v in sorted(by_class.items())},
        "setup_start_s": starts,
        "setup_build_s": build_s,
        "setup_ops": cls.setup_ops,
        "baseline_rss_mb": baseline_kb / 1024,
        "wall_setup_loop_s": [b - a for a, b in zip(walls, walls[1:])],
    }
    if fixed_ops:
        info["latencies_s"] = latencies
    metrics = {
        "ops_per_s": n / sum(latencies),
        "latency_p50_ms": 1e3 * _percentile(lat, 0.5),
        "latency_p90_ms": 1e3 * _percentile(lat, 0.9),
        "setup_s": statistics.median(starts or [0.0]) + build_s,
        "peak_rss_mb": peak_kb / 1024,
    }
    return n, failed, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}, info


def _pass(name: str, seed: int, inproc: bool) -> dict:
    """run_info of MIN_OPS untraced operations in a fresh process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--trace", "0", "--fixed-ops", str(MIN_OPS)]
    out = subprocess.run(argv + (["--inproc"] if inproc else []), cwd=ROOT,
                         stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(f"an untraced pass of workload {name}, seed {seed} "
                         f"exited with code {out.returncode}\n")
        sys.exit(out.returncode)
    return json.loads(out.stdout.splitlines()[-2])["run_info"]


def traced_run(cls, seed: int):
    import spans

    plain = _pass(cls.name, seed, inproc=True)
    sub = _pass(cls.name, seed, inproc=False) if cls.name == "cli" else plain
    speed = Speed()
    wl = cls(seed, ROOT)
    feed = Feed(cls.name, seed)
    try:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_spans, _, failed, _ = _loop(
                wl, feed, speed, wl.run_inproc, seed, lambda i, raw: i == MIN_OPS)
        finally:
            tracer.uninstall()
        digest = feed.digest()
    finally:
        feed.close()
    if not digest == plain["digest"] == sub["digest"]:
        sys.stderr.write(f"tracing changed the answers: workload {cls.name}, seed {seed}\n")
        sys.exit(3)
    plain_s = sum(plain["latencies_s"])
    traced_s = sum(speed.scaled(*s) for s in traced_spans)
    metrics = tracer.metrics()
    metrics["cli.startup_ms"] = 1e3 * statistics.median(
        s - p for s, p in zip(sub["latencies_s"], plain["latencies_s"]))
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    info = {"ops": MIN_OPS, "digest": digest, "digest_ops": DIGEST_OPS,
            "untraced_s": plain_s, "traced_s": traced_s, "spans": len(tracer.span_start),
            "untraced_targets": tracer.missing}
    return MIN_OPS, failed, {
        k: {"value": metrics[k], "unit": u} for k, u in spans.PER_LAYER.items()}, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one untraced pass of a traced run: exactly N operations, in-process for cli
    ap.add_argument("--fixed-ops", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--inproc", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "psr").is_dir():
        sys.stderr.write(f"no psr sources under {SRC}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        # children (the input process, the CLI, untraced passes) share the
        # core the probe measures
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for k in [k for k in os.environ if k.startswith("PSR_")]:
        del os.environ[k]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    cls = WORKLOADS[args.workload]
    if args.trace:
        attempted, failed, metrics, info = traced_run(cls, args.seed)
    else:
        attempted, failed, metrics, info = timed_run(
            cls, args.seed, args.seconds, args.fixed_ops, args.inproc)
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_psr_lines": _src_lines(),
    })
    print(json.dumps({"run_info": info}))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
