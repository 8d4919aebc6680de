"""stream-churn: an indexed violation ledger in a closed loop.

The loop sends the next batch as soon as ``ViolationLedger.refresh``
returns, as ``cli stream --index`` does.  The time goes to graph apply,
index maintenance, the view-free delta kernel and ledger bookkeeping;
view and plan compilation are bypassed.
"""

from __future__ import annotations

import gc
import time

from perfbench import gen, tracing
from perfbench.common import (
    Outcome,
    ProgramMemory,
    canonical_bytes,
    in_child,
    keep_inputs_out_of_gc,
    median,
    note,
    throughput,
)
from perfbench.yardstick import Yardstick

STREAM_NODES = 20_000
AVG_DEGREE = 4
BATCH_OPS = 8
DELETE_FRACTION = 0.3
SETUPS = 3
#: Batches generated per second of measuring: more than a refresh at
#: 1 ms per batch can use, and at least 1000 so p99 has ten beyond it.
#: They are made before the memory baseline and never freed, so their
#: number does not move ``peak_rss_mb``.
BATCHES_PER_SECOND = 1000
#: Batches run between two yardstick blocks, in seconds of loop time,
#: and the block's length as a share of the batches' time.
CHUNK_S = 0.25
YARD_SHARE = 0.1


def _inputs(nodes: int, seed: int, count: int) -> tuple[dict, list]:
    """The graph's arrays and ``count`` churn batches (the stream's
    shadow of the graph stays in the child process)."""
    arrays = gen.gnp_arrays(nodes, AVG_DEGREE, seed)
    stream = gen.ChurnStream(arrays, seed, BATCH_OPS, DELETE_FRACTION)
    return arrays, stream.batches(count)


def _setup(arrays, rules, rec=None):
    """Load the graph, attach its index and bootstrap the ledger."""
    import repro.graph.io as graph_io
    from repro.indexing import attach_index
    from repro.streaming import ViolationLedger

    graph = graph_io.graph_from_arrays(arrays)
    if rec is None:
        attach_index(graph)
    else:
        with rec.span("indexing.attach"):
            attach_index(graph)
    ledger = ViolationLedger(graph, rules)
    ledger.bootstrap()
    return ledger


def _loop(ledger, batches, seconds, outcome, rec=None, yard=None):
    """Refresh batches in a closed loop until ``seconds`` have passed.
    With a recorder, every other batch is traced.  With a
    :class:`Yardstick`, a block of it follows every CHUNK_S of batches
    and their times are divided by the host's slowdown around them
    (``Yardstick.after``).  Returns the refresh times of the untraced
    and the traced batches."""
    from repro.errors import ReproError

    walls, traced_walls, chunk = [], [], []
    deadline = time.perf_counter() + seconds
    chunk_end = time.perf_counter() + CHUNK_S

    def close_chunk() -> None:
        slowdown = yard.after(YARD_SHARE * sum(chunk))
        walls.extend(wall / slowdown for wall in chunk)
        chunk.clear()

    for update in batches:
        now = time.perf_counter()
        if yard is not None and now >= chunk_end and chunk:
            close_chunk()
            chunk_end = time.perf_counter() + CHUNK_S
        if now >= deadline:
            break
        traced = rec is not None and len(walls) > len(traced_walls)
        if rec is not None:
            rec.enabled = traced
        outcome.attempted += 1
        started = time.perf_counter()
        try:
            ledger.refresh(update)
        except ReproError:
            outcome.failed += 1
            continue
        wall = time.perf_counter() - started
        (traced_walls if traced else chunk if yard is not None else walls).append(wall)
    if chunk:
        close_chunk()
    return walls, traced_walls


def stream_churn(seed: int, seconds: float, trace: bool, nodes: int = STREAM_NODES):
    import repro.reasoning as reasoning

    started = time.perf_counter()
    count = max(1000, int(seconds * BATCHES_PER_SECOND))
    arrays, batches = in_child(_inputs, nodes, seed, count)
    rules = gen.bounded_rules()
    yard = Yardstick()
    keep_inputs_out_of_gc()
    note(f"inputs: {nodes} nodes, {len(arrays['edge_src'])} edges, {count} batches of "
         f"{BATCH_OPS} ops, generated in {time.perf_counter() - started:.2f}s")
    outcome = Outcome()
    memory = ProgramMemory()
    setups = []
    for _ in range(SETUPS):
        ledger = None
        gc.collect()
        begun = time.perf_counter()
        ledger = _setup(arrays, rules)
        setup = time.perf_counter() - begun
        setups.append(setup / yard.after(YARD_SHARE * setup))
    out = None
    if not trace:
        walls, _ = _loop(ledger, batches, seconds, outcome, yard=yard)
    else:
        rec = tracing.Recorder()
        tracing.wrap_graph_load(rec)
        tracing.wrap_validation(rec)
        try:
            # Setup layers: one traced set-up on its own graph.  The
            # index's mutation methods are wrapped only afterwards, so
            # building the index counts as attach, not as maintenance.
            _setup(arrays, rules, rec)
            setup_layers = tracing.layer_metrics(rec, 0, 1)
            tracing.add_counters(setup_layers, rec.take_counters(), 1)
            tracing.wrap_update_path(rec)
            since = rec.mark()
            walls, traced = _loop(ledger, batches, seconds, outcome, rec)
        finally:
            rec.restore()
        out = tracing.layer_metrics(rec, since, len(traced))
        tracing.add_counters(out, rec.take_counters(), len(traced))
        tracing.coverage(
            out,
            rec.total_self(since) / len(traced),
            sum(traced) / len(traced),
            sum(walls) / len(walls),
        )
        for name, value in setup_layers.items():
            out[name] = out.get(name, 0.0) + value
    memory.sample()
    if outcome.attempted == len(batches):
        note("every generated batch was used before the time ran out")
    graph = ledger.graph
    want = canonical_bytes(rules, reasoning.find_violations(graph, rules))
    if canonical_bytes(rules, ledger.violations()) != want:
        outcome.fail("final ledger differs from a from-scratch validation")
    if not trace:
        outcome.latency(walls, setups, throughput(walls), yard)
        outcome.put("peak_rss_mb", memory.mb(), "MB")
    note(f"{len(walls)} batches, median refresh {median(walls) * 1e3:.3f} ms")
    return outcome, out
