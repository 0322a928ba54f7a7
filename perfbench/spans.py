"""Span recording around gmacpam's public functions, and the per-layer
metrics derived from the spans.

The tracer wraps functions from outside the package: it replaces the name
at the module where the caller looks it up (``cli.design``,
``design.exact_error``, ``_kernels.mc_error_count`` ...), so nothing under
``src/`` changes and untraced passes run the original functions with no
wrapper at all. Spans stay in memory and are written out once, at the end
of the run.
"""

from __future__ import annotations

import importlib
import json
import threading
import time

# Metric name -> unit, in the order they are reported. The package module
# ``_kernels`` appears as ``kernels`` because metric names must start with a
# letter or digit.
LAYER_METRICS = {
    "kernels.collinear_pe_batch.calls": "count",
    "kernels.collinear_pe_batch.rows": "count",
    "kernels.collinear_pe_batch.rows_per_s": "1/s",
    "kernels.collinear_pe_batch.busy_s": "s",
    "kernels.collinear_pe_batch.bytes_computed": "B",
    "kernels.mc_error_count.calls": "count",
    "kernels.mc_error_count.trials": "count",
    "kernels.mc_error_count.trials_per_s": "1/s",
    "kernels.mc_error_count.busy_s": "s",
    "kernels.mc_error_count.bytes_computed": "B",
    "analysis.exact_error.calls.collinear": "count",
    "analysis.exact_error.us_per_call.collinear": "us",
    "analysis.exact_error.calls.planar": "count",
    "analysis.exact_error.us_per_call.planar": "us",
    "analysis.union_bound.calls": "count",
    "analysis.union_bound.us_per_call": "us",
    "analysis.calls_per_row": "calls/row",
    "design.design.calls": "count",
    "design.design.us_per_call": "us",
    "design.numerical_search.calls.collinear": "count",
    "design.numerical_search.s_per_call.collinear": "s",
    "design.numerical_search.calls.planar": "count",
    "design.numerical_search.s_per_call.planar": "s",
    "simulate.simulate.calls": "count",
    "simulate.simulate.self_s": "s",
    "cli.rows": "count",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# Metrics that must repeat exactly from pass to pass and run to run.
COUNT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items()
    if unit in ("count", "B", "calls/row")
)

# Each counter draw of the Monte-Carlo stream is one 64-bit word, and the
# stream fixes three draws per trial.
_MC_BYTES_PER_TRIAL = 3 * 8


class Tracer:
    """In-memory span store. Each span is a list:
    [id, parent_id, pass_id, name, label, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id: int | None = None
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        # a span opened in a pool thread belongs to whatever the main
        # thread has open (simulate fans its kernel calls out to threads)
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            span = [len(self.spans), parent, self.pass_id, name, "", 0.0, 0.0, {}]
            self.spans.append(span)
        stack.append(span[0])
        span[5] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[6] = time.perf_counter()
        self._stack().pop()

    def begin_pass(self, pass_id: int) -> list:
        self.pass_id = pass_id
        return self._open("pass")

    def end_pass(self, span: list) -> None:
        self._close(span)
        self.pass_id = None

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace owner.attr by a wrapper that records one span per call.

        describe(args, kwargs, result) returns (label, attrs) for the span.
        """
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self._close(span)
            if describe is not None:
                span[4], span[7] = describe(args, kwargs, result)
            return result

        traced.__wrapped__ = inner
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the public functions of every measured layer."""
        from gmacpam import _kernels, cli

        # gmacpam.design is also the name of a function in the package
        design_mod = importlib.import_module("gmacpam.design")

        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "design", "design.design",
                  lambda a, k, r: (a[0], {}))
        self.wrap(design_mod, "numerical_search", "design.numerical_search",
                  lambda a, k, r: (_geometry(a[0].gamma_phi), {}))
        for owner in (cli, design_mod):
            self.wrap(owner, "exact_error", "analysis.exact_error",
                      lambda a, k, r: (r.method, {}))
        self.wrap(design_mod, "exact_error_collinear", "analysis.exact_error",
                  lambda a, k, r: (r.method, {}))
        self.wrap(cli, "union_bound", "analysis.union_bound")
        self.wrap(cli, "simulate", "simulate.simulate")
        self.wrap(_kernels, "collinear_pe_batch", "kernels.collinear_pe_batch",
                  lambda a, k, r: ("", {
                      "rows": int(a[0].shape[0]),
                      "bytes": int(a[0].nbytes + a[1].nbytes + r.nbytes)}))
        self.wrap(_kernels, "mc_error_count", "kernels.mc_error_count",
                  lambda a, k, r: ("", {
                      "trials": int(a[7]),
                      "bytes": int(sum(x.nbytes for x in a[:4]))
                      + _MC_BYTES_PER_TRIAL * int(a[7])}))

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _geometry(gamma_phi: float) -> str:
    return "collinear" if abs(gamma_phi) == 1.0 else "planar"


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def layer_metrics(spans: list[list], pass_id: int, rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_s excluded)."""
    own = [s for s in spans if s[2] == pass_id]
    by_id = {s[0]: s for s in own}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in own:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[5], s[6]))

    def under_search(span) -> bool:
        parent = span[1]
        while parent is not None and parent in by_id:
            if by_id[parent][3] == "design.numerical_search":
                return True
            parent = by_id[parent][1]
        return False

    def duration(s):
        return s[6] - s[5]

    def self_time(s):
        return duration(s) - _covered(children.get(s[0], []))

    def select(name, label=None):
        return [s for s in own if s[3] == name and (label is None or s[4] == label)]

    def per_call(group, scale):
        return scale * sum(map(duration, group)) / len(group) if group else 0.0

    m: dict[str, float] = {}
    for kernel, work in (("kernels.collinear_pe_batch", "rows"),
                         ("kernels.mc_error_count", "trials")):
        group = select(kernel)
        busy = sum(map(duration, group))
        done = sum(s[7][work] for s in group)
        m[f"{kernel}.calls"] = len(group)
        m[f"{kernel}.{work}"] = done
        m[f"{kernel}.{work}_per_s"] = done / busy if busy > 0 else 0.0
        m[f"{kernel}.busy_s"] = busy
        m[f"{kernel}.bytes_computed"] = sum(s[7]["bytes"] for s in group)

    for geometry in ("collinear", "planar"):
        group = select("analysis.exact_error", geometry)
        m[f"analysis.exact_error.calls.{geometry}"] = len(group)
        m[f"analysis.exact_error.us_per_call.{geometry}"] = per_call(group, 1e6)
    union = select("analysis.union_bound")
    m["analysis.union_bound.calls"] = len(union)
    m["analysis.union_bound.us_per_call"] = per_call(union, 1e6)
    outside = [s for s in select("analysis.exact_error") + union if not under_search(s)]
    m["analysis.calls_per_row"] = len(outside) / rows if rows else 0.0

    closed = [s for s in select("design.design") if s[4] != "numerical"]
    m["design.design.calls"] = len(closed)
    m["design.design.us_per_call"] = per_call(closed, 1e6)
    for geometry in ("collinear", "planar"):
        group = select("design.numerical_search", geometry)
        m[f"design.numerical_search.calls.{geometry}"] = len(group)
        m[f"design.numerical_search.s_per_call.{geometry}"] = per_call(group, 1.0)

    sims = select("simulate.simulate")
    m["simulate.simulate.calls"] = len(sims)
    m["simulate.simulate.self_s"] = sum(map(self_time, sims))
    m["cli.rows"] = rows
    m["cli.self_s"] = sum(map(self_time, select("cli.main")))
    m["trace.spans"] = len(own)
    return m
