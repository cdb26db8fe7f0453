"""The input side of a run, in a process of its own.

`run.py` times operations; this process builds their inputs, checks their
answers and keeps the answer digest.  Building an input can call the
library (banding local-solve inputs by fan size, building vcc-roundtrip
fans, writing CLI inputs), and so can checking an answer; doing both here
keeps every library call of the benchmark's own out of the timed process,
so a cache there can only be warmed by the timed operations themselves.

    python3 perfbench/feed.py <workload> <seed>

The timed process sends pickled requests on stdin and reads one pickled
reply per request on stdout, waiting for it, so the two processes never
run at once:

    ("ready",)           -> None, once the library is imported
    ("build", n)         -> the reference-speed seconds taken to build the
                            inputs of the next n operations (probed per input)
    ("take", n)          -> the next n Ops of the stream, built if need be
    ("check", i, answer) -> (refused, error message or None) for op i
    ("digest",)          -> digest of the first DIGEST_OPS answers
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# answers hashed into the digest; every run completes at least this many
DIGEST_OPS = 100


class Feed:
    """Client end, used by the timed process."""

    def __init__(self, workload: str, seed: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "feed.py"), workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)

    def _ask(self, *request):
        pickle.dump(request, self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def ready(self) -> None:
        self._ask("ready")

    def build(self, n: int) -> float:
        return self._ask("build", n)

    def take(self, n: int) -> list:
        return self._ask("take", n)

    def check(self, i: int, answer) -> tuple[bool, str | None]:
        return self._ask("check", i, answer)

    def digest(self) -> str:
        return self._ask("digest")

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve(workload: str, seed: int) -> None:
    # replies go to the original stdout; anything else printed goes to stderr
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    inp = sys.stdin.buffer
    sys.path.insert(0, str(ROOT / "src"))
    import corpus
    from speed import Speed
    from workloads import WORKLOADS, WrongAnswer

    wl = WORKLOADS[workload](seed, ROOT)
    taken = 0
    digest, hashed = hashlib.sha256(), 0
    try:
        while True:
            try:
                request = pickle.load(inp)
            except EOFError:
                return
            if request[0] == "ready":
                reply = None
            elif request[0] == "build":
                speed, spans = Speed(), []
                for _ in range(request[1]):
                    speed.probe()
                    t0 = time.perf_counter()
                    wl.extend(1)
                    spans.append((t0, time.perf_counter()))
                speed.probe()
                reply = sum(speed.scaled(t0, t1) for t0, t1 in spans)
            elif request[0] == "take":
                wl.extend(taken + request[1] - len(wl.ops))
                reply = wl.ops[taken:taken + request[1]]
                taken += request[1]
            elif request[0] == "check":
                _, i, answer = request
                op = wl.ops[i]
                refused, error = wl.refused(op, answer), None
                if not refused:
                    try:
                        wl.check(op, answer)
                    except WrongAnswer as exc:
                        error = (f"operation {i} (class {op.cls}): {exc}\n"
                                 f"input: {op.key[:2000]}")
                if i == hashed < DIGEST_OPS:
                    canon = {"refused": repr(answer)} if refused else wl.canon(op, answer)
                    digest.update(corpus.dumps(canon).encode() + b"\n")
                    hashed += 1
                wl.ops[i] = None  # checked once; its input is not used again
                reply = (refused, error)
            else:
                reply = digest.hexdigest()
            pickle.dump(reply, out, protocol=pickle.HIGHEST_PROTOCOL)
            out.flush()
    finally:
        wl.close()


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]))
