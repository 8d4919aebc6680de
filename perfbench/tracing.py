"""Spans around the program's public calls, recorded from the outside.

The traced run wraps calls into each layer of ``repro`` with a
:class:`Recorder` span — name, start, end, parent — kept in memory and
folded into a per-layer table when the run ends.  Nothing under
``src/`` is changed: a wrapper replaces the attribute a caller looks up
(a module global or a class method) and :meth:`Recorder.restore` puts
the original back.

A layer's *self time* is its spans' durations minus the part covered by
their child spans.  The spans of one operation nest strictly (the
program is single-threaded where they are recorded), so the self times
of an operation's span tree add up to its root's duration.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

#: Per-layer metric name -> (unit, better).  Every traced run prints
#: all of them; a layer a workload bypasses reads 0.
LAYER_METRICS = {
    "graph.from_arrays_s": ("s", "lower"),
    "graph.validate_update_s": ("s", "lower"),
    "graph.apply_s": ("s", "lower"),
    "graph.log_append_s": ("s", "lower"),
    "graph.log_bytes": ("bytes", "lower"),
    "graph.checkpoint_s": ("s", "lower"),
    "graph.checkpoints": ("count", "lower"),
    "indexing.attach_s": ("s", "lower"),
    "indexing.maintain_s": ("s", "lower"),
    "indexing.maintain_ops": ("count", "lower"),
    "matching.view_s": ("s", "lower"),
    "matching.sigma_compile_s": ("s", "lower"),
    "matching.sigma_patterns": ("count", "lower"),
    "reasoning.find_violations_s": ("s", "lower"),
    "reasoning.violations": ("count", "lower"),
    "engine.snapshot_s": ("s", "lower"),
    "engine.snapshot_bytes": ("bytes", "lower"),
    "engine.pool_start_s": ("s", "lower"),
    "engine.plan_s": ("s", "lower"),
    "engine.dispatch_s": ("s", "lower"),
    "parallel.self_s": ("s", "lower"),
    "streaming.refresh_s": ("s", "lower"),
    "streaming.delta_s": ("s", "lower"),
    "streaming.ledger_self_s": ("s", "lower"),
    "streaming.touched": ("count", "lower"),
    "streaming.rechecked": ("count", "lower"),
    "streaming.introduced": ("count", "lower"),
    "streaming.retired": ("count", "lower"),
    "streaming.recheck_yield": ("1", "higher"),
    "serve.apply_s": ("s", "lower"),
    "serve.self_s": ("s", "lower"),
    "serve.encode_s": ("s", "lower"),
    "serve.push_frames": ("count", "lower"),
    "serve.push_bytes": ("bytes", "lower"),
    "serve.push_wait_p99_ms": ("ms", "lower"),
    "serve.resyncs": ("count", "lower"),
    "loadgen.ack_p99_ms": ("ms", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "trace.coverage_frac": ("1", "higher"),
    "trace.overhead_frac": ("1", "lower"),
}

#: Span names whose self time is reported under a differently named
#: metric (the rest map ``name`` -> ``name + "_s"``).
_SELF_METRIC = {
    "graph.apply_indexed": "graph.apply_s",
    "parallel.find_violations": "parallel.self_s",
    "streaming.refresh": "streaming.ledger_self_s",
    "indexing.maintain_step": "indexing.maintain_s",
}

#: How far the layer self times of an operation may stray from the
#: untraced wall time of the same operation before the coverage check
#: fails (as a share of the untraced time).
COVERAGE_TOLERANCE = 0.25


class Recorder:
    """In-memory spans plus counters, with attribute wrapping."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.enabled = True

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    def take_counters(self) -> dict[str, float]:
        """The counters recorded so far, resetting them."""
        counters, self.counters = self.counters, {}
        return counters

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a spanned version; ``after(result,
        args)`` runs after the call, inside the span."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            index = recorder._open(name)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                recorder._close(index)

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering the original for :meth:`restore`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- folding -------------------------------------------------------
    def mark(self) -> int:
        """A position to fold from (spans recorded after it)."""
        return len(self.names)

    def self_times(self, since: int = 0, until: int | None = None) -> dict[str, float]:
        """Total self time per span name over spans ``since`` up to
        (not including) ``until``."""
        until = len(self.names) if until is None else until
        covered = [0.0] * len(self.names)
        for index in range(since, until):
            parent = self.parents[index]
            if parent >= since:
                covered[parent] += self.ends[index] - self.starts[index]
        totals: dict[str, float] = {}
        for index in range(since, until):
            own = self.ends[index] - self.starts[index] - covered[index]
            totals[self.names[index]] = totals.get(self.names[index], 0.0) + own
        return totals

    def inclusive(self, name: str, since: int = 0, until: int | None = None) -> float:
        """Total duration of the outermost spans called ``name``."""
        until = len(self.names) if until is None else until
        total = 0.0
        for index in range(since, until):
            if self.names[index] != name:
                continue
            parent = self.parents[index]
            while parent >= since and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < since:
                total += self.ends[index] - self.starts[index]
        return total

    def total_self(self, since: int = 0) -> float:
        """Self time of every span since ``since``: the time the spans
        cover, each instant counted once."""
        return sum(self.self_times(since).values())


def layer_metrics(
    recorder: Recorder, since: int, per: float, until: int | None = None
) -> dict[str, float]:
    """Self times of the spans from ``since`` to ``until``, divided by
    ``per``, under their per-layer metric names."""
    out: dict[str, float] = {}
    for name, seconds in recorder.self_times(since, until).items():
        metric = _SELF_METRIC.get(name, name + "_s")
        if metric in LAYER_METRICS:
            out[metric] = out.get(metric, 0.0) + seconds / per
    refresh = recorder.inclusive("streaming.refresh", since, until)
    if refresh:
        out["streaming.refresh_s"] = refresh / per
    return out


def add_counters(out: dict[str, float], counters: dict[str, float], per: float) -> None:
    for name, value in counters.items():
        out[name] = out.get(name, 0.0) + value / per


def finish_table(out: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric, zero-filled, as the result's ``metrics``."""
    rechecked = out.get("streaming.rechecked", 0.0)
    if rechecked:
        useful = out.get("streaming.retired", 0.0) + out.get("streaming.updated", 0.0)
        out["streaming.recheck_yield"] = useful / rechecked
    return {
        name: {"value": float(out.get(name, 0.0)), "unit": unit}
        for name, (unit, _better) in LAYER_METRICS.items()
    }


def coverage(out: dict[str, float], layer_sum: float, traced: float, untraced: float) -> None:
    """Record the coverage check: the layer self times of one traced
    operation (``layer_sum``) against the untraced wall time of one
    operation, and the tracing overhead (traced over untraced wall)."""
    out["trace.coverage_frac"] = layer_sum / untraced
    out["trace.overhead_frac"] = traced / untraced - 1.0


def coverage_ok(out: dict[str, float]) -> bool:
    return abs(out.get("trace.coverage_frac", 0.0) - 1.0) <= COVERAGE_TOLERANCE


# ----------------------------------------------------------------------
# Wrapper sets, one per group of layers
# ----------------------------------------------------------------------


def wrap_graph_load(rec: Recorder) -> None:
    import repro.graph.io as graph_io

    rec.wrap(graph_io, "graph_from_arrays", "graph.from_arrays")


def wrap_update_path(rec: Recorder) -> None:
    """validate_update, apply_update, IndexMaintenance.apply and the
    index's own mutation methods, ledger refresh and the delta kernel."""
    import repro.indexing.indexed_graph as indexed_graph
    import repro.indexing.maintenance as maintenance
    import repro.reasoning.incremental as incremental
    import repro.streaming.ledger as ledger

    rec.wrap(maintenance, "validate_update", "graph.validate_update")
    rec.wrap(incremental, "apply_update", "graph.apply")

    def maintained(report, _args):
        rec.count("indexing.maintain_ops", report.total_operations())

    rec.wrap(maintenance.IndexMaintenance, "apply", "graph.apply_indexed", maintained)
    for method in (
        "index_node",
        "index_attr_value",
        "unindex_attr_value",
        "remove_attr_posting",
        "unindex_node",
        "refresh_adjacency",
        "index_edge",
    ):
        rec.wrap(indexed_graph.GraphIndexes, method, "indexing.maintain_step")

    def refreshed(delta, _args):
        rec.count("streaming.touched", delta.touched)
        rec.count("streaming.rechecked", delta.rechecked)
        rec.count("streaming.introduced", len(delta.introduced))
        rec.count("streaming.retired", len(delta.retired))
        rec.count("streaming.updated", len(delta.updated))

    rec.wrap(ledger.ViolationLedger, "refresh", "streaming.refresh", refreshed)
    rec.wrap(ledger, "delta_violations", "streaming.delta")


def wrap_validation(rec: Recorder) -> None:
    import repro.reasoning as reasoning

    def found(violations, _args):
        rec.count("reasoning.violations", len(violations))

    import repro.streaming.ledger as ledger

    # The benchmark calls repro.reasoning.find_violations; the ledger's
    # bootstrap calls the name it imported.
    rec.wrap(reasoning, "find_violations", "reasoning.find_violations", found)
    rec.wrap(ledger, "find_violations", "reasoning.find_violations", found)


def wrap_engine(rec: Recorder) -> None:
    import repro.engine.pool as pool
    import repro.parallel as parallel

    rec.wrap(parallel, "parallel_find_violations", "parallel.find_violations")
    rec.wrap(pool, "snapshot_graph", "engine.snapshot")

    def started(_result, args):
        rec.count("engine.snapshot_bytes", args[0].broadcast_bytes)

    rec.wrap(pool.EnginePool, "__init__", "engine.pool_start", started)
    rec.wrap(pool.EnginePool, "plan_validation", "engine.plan")
    rec.wrap(pool.EnginePool, "validate_units", "engine.dispatch")


def wrap_log(rec: Recorder) -> None:
    """UpdateLogWriter.append / .checkpoint with the bytes each wrote."""
    import repro.graph.io as graph_io

    writer = graph_io.UpdateLogWriter
    sizes: dict[int, int] = {}

    def grown(self) -> int:
        size = os.path.getsize(self.path)
        grew = size - sizes.get(id(self), size)
        sizes[id(self)] = size
        return grew

    original_append = writer.append
    original_checkpoint = writer.checkpoint

    def append(self, update, graph=None):
        sizes.setdefault(id(self), os.path.getsize(self.path))
        with rec.span("graph.log_append"):
            seq = original_append(self, update, graph)
        rec.count("graph.log_bytes", grown(self))
        return seq

    def checkpoint(self, graph):
        sizes.setdefault(id(self), os.path.getsize(self.path))
        with rec.span("graph.checkpoint"):
            original_checkpoint(self, graph)
        rec.count("graph.checkpoints")
        grown(self)

    rec.patch(writer, "append", append)
    rec.patch(writer, "checkpoint", checkpoint)
