"""Span tracing at the package's module boundaries, from outside the package.

``Tracer.install`` wraps every public function of every ``twostage`` module
and rebinds the wrapper in each module that holds the function under its
name, because a module that did ``from .lp import solve_lp`` calls its own
binding, not ``lp.solve_lp``.  Spans are kept in memory, one list per run,
with a span stack per thread: the bench pool runs trials on worker threads,
and a span that opens on a thread with an empty stack is attributed to the
innermost open span of the thread that runs the op.

A span's self time is its duration minus the part of that interval its
child spans cover, so a parent waiting on pool workers is charged only for
the time no worker span covers.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

import numpy as np

PACKAGE = "twostage"


class Span:
    __slots__ = ("layer", "name", "op", "parent", "t0", "t1", "info")

    def __init__(self, layer, name, op, parent, t0):
        self.layer, self.name, self.op, self.parent, self.t0 = layer, name, op, parent, t0
        self.t1 = t0
        self.info = None

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3


# Counters read off a call's arguments or result where the work happens.
PROBES = {
    ("oracle", "brute_force_optimal"): lambda args, kwargs, res: res.nodes_explored,
    ("saa", "saa_build"): lambda args, kwargs, res: args[1] if len(args) > 1 else kwargs["n"],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        self._local = threading.local()
        self._op_stack: list[Span] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn):
        probe = PROBES.get((layer, name))
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._op_stack[-1] if self._op_stack else None)
            span = Span(layer, name, self._op, parent, time.perf_counter())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in modules:
            if mod.__name__ == PACKAGE:
                continue
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).copy().items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for holder in modules:
                    if getattr(holder, name, None) is fn:
                        self._patches.append((holder, name, fn))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._patches):
            setattr(holder, name, fn)
        self._patches.clear()

    def begin_op(self, i: int) -> None:
        self._op = i
        root = Span("op", "op", i, None, time.perf_counter())
        self.roots.append(root)
        self._op_stack = self._stack()
        self._op_stack.append(root)

    def end_op(self) -> None:
        self._op_stack.pop().t1 = time.perf_counter()


def self_times(spans: list[Span], roots: list[Span]) -> dict[int, float]:
    """Self time in ms of every span and root, keyed by id()."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans + roots:
        covered, end = 0.0, s.t0
        for c in sorted(children.get(id(s), ()), key=lambda c: c.t0):
            lo, hi = max(c.t0, end), min(c.t1, s.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[id(s)] = (s.t1 - s.t0 - covered) * 1e3
    return out


def dump(tracer: Tracer, path) -> None:
    """Write every span as one JSON line, ops first, each with its index,
    its parent's index (None for an op), times in ms from its op's start,
    its self time and its probe counter."""
    own = self_times(tracer.spans, tracer.roots)
    start = {r.op: r.t0 for r in tracer.roots}
    ordered = tracer.roots + tracer.spans
    index = {id(s): k for k, s in enumerate(ordered)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for k, s in enumerate(ordered):
            record = {
                "id": k,
                "parent": None if s.parent is None else index[id(s.parent)],
                "op": s.op,
                "layer": s.layer,
                "name": s.name,
                "start_ms": (s.t0 - start[s.op]) * 1e3,
                "ms": s.ms,
                "self_ms": own[id(s)],
                "info": s.info,
            }
            f.write(json.dumps(record) + "\n")


def _ancestors(span: Span):
    p = span.parent
    while p is not None:
        yield p
        p = p.parent


LAYERS = (
    "bench", "cli", "cover", "generators", "instances", "lp", "lp_builders",
    "model", "oracle", "saa", "steiner", "ufl",
)


def layer_metrics(tracer: Tracer, exact_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass.

    Times are averaged over every traced op; counts marked exact are taken
    over the first ``exact_ops`` ops only, so that they do not depend on how
    many ops a run completes.
    """
    spans, roots = tracer.spans, tracer.roots
    n_ops = len(roots)
    own = self_times(spans, roots)
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        total = sum(own[id(s)] for s in spans if s.layer == layer)
        out[f"{layer}.self_ms_per_op"] = (total / n_ops, "ms/op")

    def pct(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    head = [s for s in spans if s.op < exact_ops]
    solves = [s.ms for s in spans if (s.layer, s.name) == ("lp", "solve_lp")]
    out["lp.solve_ms_p50"] = (pct(solves, 50), "ms/call")
    out["lp.solve_ms_p90"] = (pct(solves, 90), "ms/call")
    out["lp.solve_calls_per_op"] = (
        sum((s.layer, s.name) == ("lp", "solve_lp") for s in head) / exact_ops, "calls/op"
    )
    builds = [
        s.ms for s in spans
        if s.layer == "lp_builders" and s.name.startswith("build_")
        and not any(p.layer == "lp_builders" and p.name.startswith("build_") for p in _ancestors(s))
    ]
    out["lp_builders.build_ms_p50"] = (pct(builds, 50), "ms/call")
    out["oracle.nodes_per_op"] = (
        sum(s.info for s in head if (s.layer, s.name) == ("oracle", "brute_force_optimal")) / exact_ops,
        "nodes/op",
    )
    out["saa.build_ms_p50"] = (
        pct([s.ms for s in spans if (s.layer, s.name) == ("saa", "saa_build")], 50), "ms/call"
    )
    out["saa.draws_per_op"] = (
        sum(s.info for s in head if (s.layer, s.name) == ("saa", "saa_build")) / exact_ops, "draws/op"
    )
    out["saa.inner_calls_per_op"] = (
        sum(
            1 for s in head
            if (s.layer, s.name) == ("oracle", "brute_force_optimal")
            and any(p.name == "repeating_saa" for p in _ancestors(s))
        ) / exact_ops,
        "calls/op",
    )
    op_ms = sum((r.t1 - r.t0) * 1e3 for r in roots)
    out["trace.coverage_frac"] = (sum(own[id(s)] for s in spans) / op_ms, "frac")
    out["trace.spans_per_op"] = (len(spans) / n_ops, "spans/op")
    return out
