"""Per-layer tracing from outside the program.

`Tracer.install` wraps public functions of the `psr` modules.  Every
module's binding of a wrapped name is replaced (``from .cones import
covers`` in `vcc` is patched as well as `cones.covers`), static and plain
methods are patched on their class, and an ``lru_cache`` keeps working
because the wrapper calls the cached function and exposes its
``cache_info``.  Spans (name, parent, start, end) stay in compact arrays
in memory until `metrics` turns them into counts and self times once the
run has ended.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import psr.cli
import psr.cones
import psr.discriminants
import psr.globalglue
import psr.jsonio
import psr.linalg
import psr.localfan
import psr.metric
import psr.polyhedra
import psr.polynomials
import psr.vcc

# span name -> (module, class or None, attribute names)
_TARGETS = {
    "linalg.rref": (psr.linalg, None, ("rref",)),
    "linalg.primitive": (psr.linalg, None, ("primitive",)),
    "cones.from_ineqs": (psr.cones, "Cone", ("from_ineqs",)),
    "cones.from_rays": (psr.cones, "Cone", ("from_rays",)),
    "cones.dim": (psr.cones, "Cone", ("dim",)),
    **{f"cones.{f}": (psr.cones, None, (f,)) for f in (
        "intersect_cones", "conic_sum", "covers", "maximal_convex_subfamilies",
        "restrict_arrangement", "union_is_convex")},
    "polyhedra.from_generators": (psr.polyhedra, "Polyhedron", ("from_generators",)),
    **{f"polyhedra.{f}": (psr.polyhedra, None, (f,)) for f in (
        "minkowski_sum", "convex_hull", "inner_normal_cone")},
    **{f"polynomials.{f}": (psr.polynomials, None, (f,)) for f in (
        "evaluate", "is_root", "coefficient_msum")},
    **{f"localfan.{f}": (psr.localfan, None, (f,)) for f in (
        "build_local_fan", "enumerate_lcs", "validate_lcs")},
    **{f"vcc.{f}": (psr.vcc, None, (f,)) for f in (
        "lcs_to_vcc", "vcc_to_lcs", "vcc_minkowski_sum", "vcc_convex_hull", "completion",
        "associated_polyhedron", "vcc_is_root", "minimalize")},
    "globalglue.glue_global": (psr.globalglue, None, ("glue_global",)),
    "globalglue.classify": (psr.globalglue, None, ("_classify",)),
    "globalglue.summand_shephard": (
        psr.globalglue, None, ("minkowski_summand_certificate", "shephard_weak_summand")),
    "discriminants.find_high_multiplicity_cone_root": (
        psr.discriminants, None, ("find_high_multiplicity_cone_root",)),
    "metric.solid_angle": (psr.metric, None, ("solid_angle",)),
    "metric.hausdorff_angle_distance": (psr.metric, None, ("hausdorff_angle_distance",)),
    "cli.main": (psr.cli, None, ("main",)),
    "jsonio": (psr.jsonio, None, tuple(
        f for f in vars(psr.jsonio)
        if not f.startswith("_") and callable(getattr(psr.jsonio, f))
        and getattr(getattr(psr.jsonio, f), "__module__", None) == "psr.jsonio"
        and not isinstance(getattr(psr.jsonio, f), type))),
}

# metric name -> unit; every name is printed by a traced run of every workload
PER_LAYER: dict[str, str] = {}
for _name in _TARGETS:
    if _name not in ("polynomials.coefficient_msum", "jsonio", "cli.main"):
        PER_LAYER[f"{_name}.calls"] = "count"
        PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update({
    "cones.construct.distinct_ratio": "ratio",
    "cones.restrict_arrangement.cells_out": "count",
    "cones.union_is_convex.true_ratio": "ratio",
    "cones.union_is_convex.distinct_ratio": "ratio",
    "polynomials.is_root.true_ratio": "ratio",
    "polynomials.coefficient_msum.hit_ratio": "ratio",
    "localfan.build_local_fan.cells_out": "count",
    "localfan.enumerate_lcs.found": "count",
    "localfan.validate_lcs.accept_ratio": "ratio",
    **{f"localfan.validate_lcs.reject_cond{k}": "count" for k in (1, 2, 3, 4)},
    "vcc.vcc_is_root.true_ratio": "ratio",
    "vcc.minimalize.root_checks": "count",
    "vcc.minimalize.convexity_checks": "count",
    "cli.startup_ms": "ms",
    "cli.main.self_s": "s",
    "jsonio.self_s": "s",
    "trace.overhead_ratio": "ratio",
})


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = list(_TARGETS)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._active: Counter[str] = Counter()
        self._keys: dict[str, set[int]] = {"construct": set(), "union": set()}
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._cache_before = None

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        ident = self.names.index(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        stack, active = self._stack, self._active
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args, kwargs)
            idx = len(starts)
            names.append(ident)
            parents.append(stack[-1] if stack else -1)
            starts.append(perf_counter())
            ends.append(0.0)
            stack.append(idx)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                active[name] -= 1
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        """Wrap every target.  A target the library no longer has as a
        function (say a method turned into a field) is listed in `missing`
        and reads 0 calls; the rest are traced as usual."""
        # the benchmark's own modules hold bindings too (`from psr.vcc import ...`)
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for name, (module, cls_name, attrs) in _TARGETS.items():
            for attr in attrs:
                if cls_name is not None:
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__.get(attr)
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if not callable(fn):
                        self.missing.append(f"{name}:{attr}")
                        continue
                    wrapped = self._wrap(name, fn)
                    new = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
                    self._patches.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{name}:{attr}")
                    continue
                wrapped = self._wrap(name, fn)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            self._patches.append((m, k, v))
                            setattr(m, k, wrapped)
        self._cache_before = _msum_cache_info()

    def uninstall(self) -> None:
        after = _msum_cache_info()
        self.counts["msum_hits"] += after[0] - self._cache_before[0]
        self.counts["msum_lookups"] += sum(after) - sum(self._cache_before)
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self.span_end[i] - self.span_start[i] - child[i]

        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for name in _TARGETS:
            if f"{name}.calls" in PER_LAYER:
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.self_s"] = self_s[name]
        constructs = calls["cones.from_ineqs"] + calls["cones.from_rays"]
        validated = calls["localfan.validate_lcs"]
        out.update({
            "cones.construct.distinct_ratio": ratio(len(self._keys["construct"]), constructs),
            "cones.restrict_arrangement.cells_out": c["cells_out"],
            "cones.union_is_convex.true_ratio": ratio(
                c["union_true"], calls["cones.union_is_convex"]),
            "cones.union_is_convex.distinct_ratio": ratio(
                len(self._keys["union"]), calls["cones.union_is_convex"]),
            "polynomials.is_root.true_ratio": ratio(
                c["is_root_true"], calls["polynomials.is_root"]),
            "polynomials.coefficient_msum.hit_ratio": ratio(c["msum_hits"], c["msum_lookups"]),
            "localfan.build_local_fan.cells_out": c["fan_cells"],
            "localfan.enumerate_lcs.found": c["lcs_found"],
            "localfan.validate_lcs.accept_ratio": ratio(c["lcs_accept"], validated),
            **{f"localfan.validate_lcs.reject_cond{k}": c[f"cond{k}"] for k in (1, 2, 3, 4)},
            "vcc.vcc_is_root.true_ratio": ratio(c["vcc_root_true"], calls["vcc.vcc_is_root"]),
            "vcc.minimalize.root_checks": c["min_root_checks"],
            "vcc.minimalize.convexity_checks": c["min_convexity_checks"],
            "cli.main.self_s": self_s["cli.main"],
            "jsonio.self_s": self_s["jsonio"],
        })
        return out


def _msum_cache_info() -> tuple[int, int]:
    """(hits, misses) of the coefficient_msum memo; (0, 0) if it has none."""
    info = getattr(psr.polynomials.coefficient_msum, "cache_info", None)
    return (0, 0) if info is None else info()[:2]


# -- hooks: `before` may replace the positional arguments, `after` sees the result


def _construct_key(kind: str):
    def before(t: Tracer, args, kwargs):
        vecs = list(args[0])
        dim = args[1] if len(args) > 1 else kwargs.get("dim")
        t._keys["construct"].add(hash((kind, dim, tuple(tuple(v) for v in vecs))))
        return (vecs,) + tuple(args[1:])
    return before


def _union_before(t: Tracer, args, kwargs):
    cones = list(args[0])
    t._keys["union"].add(hash(frozenset((c.lines, c.extreme_rays) for c in cones)))
    if t._active["vcc.minimalize"]:
        t.counts["min_convexity_checks"] += 1
    return (cones,) + tuple(args[1:])


def _vcc_root_before(t: Tracer, args, kwargs):
    if t._active["vcc.minimalize"]:
        t.counts["min_root_checks"] += 1
    return args


def _count(key: str, f):
    def after(t: Tracer, args, result):
        t.counts[key] += f(result)
    return after


def _validate_after(t: Tracer, args, result):
    ok, reason = result
    if ok:
        t.counts["lcs_accept"] += 1
    elif reason and reason.startswith("condition "):
        t.counts[f"cond{reason[len('condition ')]}"] += 1


_BEFORE = {
    "cones.from_ineqs": _construct_key("ineqs"),
    "cones.from_rays": _construct_key("rays"),
    "cones.union_is_convex": _union_before,
    "vcc.vcc_is_root": _vcc_root_before,
}

_AFTER = {
    "cones.restrict_arrangement": _count("cells_out", len),
    "cones.union_is_convex": _count("union_true", bool),
    "polynomials.is_root": _count("is_root_true", lambda r: bool(r[0])),
    "vcc.vcc_is_root": _count("vcc_root_true", lambda r: bool(r[0])),
    "localfan.build_local_fan": _count("fan_cells", lambda fan: len(fan.cells)),
    "localfan.enumerate_lcs": _count("lcs_found", len),
    "localfan.validate_lcs": _validate_after,
}
