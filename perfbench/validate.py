"""validate-sigma and validate-engine: one-shot batch validation G ⊨ Σ.

Each timed validation starts from the flat arrays (``graph_from_arrays``)
on a fresh graph, so the view, plans and Σ-DAG are cold, and ends with
the canonical violation report.  The inputs and the reference report
are made in a child process (``common.in_child``).
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
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
    private_mb,
    reap_children,
    throughput,
)
from perfbench.yardstick import Yardstick

SIGMA_NODES = 30_000
ENGINE_NODES = 12_000
ENGINE_SETUPS = 5
#: Yardstick time after each validation, as a share of its wall time.
YARD_SHARE = 0.1


def expected_report(arrays: dict, rules: list) -> bytes:
    """An independent oracle: brute-force matching over adjacency sets
    built from the arrays, with literals evaluated here, serialized in
    canonical order (Σ position, then embedding)."""
    from repro.deps.literals import ConstantLiteral, VariableLiteral

    pool = arrays["pool"]
    ids = [pool[slot] for slot in arrays["node_ids"]]
    labels = [pool[slot] for slot in arrays["node_labels"]]
    attrs: list[dict] = [{} for _ in ids]
    for node, name, value in zip(arrays["attr_node"], arrays["attr_name"], arrays["attr_value"]):
        attrs[node][pool[name]] = pool[value]
    out_adj: dict = {}
    in_adj: dict = {}
    for src, label, dst in zip(arrays["edge_src"], arrays["edge_label"], arrays["edge_dst"]):
        out_adj.setdefault((src, pool[label]), set()).add(dst)
        in_adj.setdefault((dst, pool[label]), set()).add(src)
    by_label: dict = {}
    for node, label in enumerate(labels):
        by_label.setdefault(label, []).append(node)

    def matches(pattern):
        order = list(pattern.variables)
        edges = list(pattern.edges)

        def extend(depth, bound):
            if depth == len(order):
                yield dict(bound)
                return
            var = order[depth]
            candidates = None
            for src, label, dst in edges:
                if src == var and dst in bound:
                    pool_ = in_adj.get((bound[dst], label), set())
                elif dst == var and src in bound:
                    pool_ = out_adj.get((bound[src], label), set())
                else:
                    continue
                candidates = set(pool_) if candidates is None else candidates & pool_
            if candidates is None:
                candidates = by_label.get(pattern.label_of(var), ())
            for node in sorted(candidates):
                if labels[node] != pattern.label_of(var):
                    continue
                bound[var] = node
                if all(
                    bound[d] in out_adj.get((bound[s], l), ())
                    for s, l, d in edges
                    if s in bound and d in bound
                ):
                    yield from extend(depth + 1, bound)
                del bound[var]

        yield from extend(0, {})

    def holds(literal, match) -> bool:
        if isinstance(literal, ConstantLiteral):
            values = attrs[match[literal.var]]
            return literal.attr in values and values[literal.attr] == literal.const
        if isinstance(literal, VariableLiteral):
            one, two = attrs[match[literal.var1]], attrs[match[literal.var2]]
            return (
                literal.attr1 in one
                and literal.attr2 in two
                and one[literal.attr1] == two[literal.attr2]
            )
        raise TypeError(f"oracle does not evaluate {literal!r}")

    found: dict = {}
    report = []
    for ged in rules:
        if ged.pattern not in found:
            found[ged.pattern] = list(matches(ged.pattern))
        rows = []
        for match in found[ged.pattern]:
            if not all(holds(l, match) for l in ged.X):
                continue
            failed = sorted(str(l) for l in ged.Y if not holds(l, match))
            if failed:
                embedding = sorted((var, ids[node]) for var, node in match.items())
                rows.append((embedding, failed))
        rows.sort()
        report.extend(
            {"rule": ged.name, "match": [list(pair) for pair in emb], "failed": failed}
            for emb, failed in rows
        )
    return json.dumps(report).encode()


def _sigma_inputs(nodes: int, seed: int) -> tuple[dict, bytes]:
    arrays = gen.overlapping_arrays(nodes, seed)
    return arrays, expected_report(arrays, gen.overlapping_rules())


def _engine_inputs(nodes: int, seed: int) -> tuple[dict, bytes]:
    """The arrays and the serial canonical report of their graph."""
    import repro.graph.io as graph_io
    import repro.reasoning as reasoning

    arrays = gen.overlapping_arrays(nodes, seed)
    rules = gen.overlapping_rules()
    graph = graph_io.graph_from_arrays(arrays)
    return arrays, canonical_bytes(rules, reasoning.find_violations(graph, rules))


def _serial(rules, rec=None):
    import repro.reasoning as reasoning
    from repro.matching.sigma_dag import compile_sigma
    from repro.matching.view import get_view

    def validate(graph):
        if rec is not None and rec.enabled:
            # Staged so each layer's cold cost lands in its own span and
            # find_violations then runs on a warm view and Σ-DAG.
            with rec.span("matching.view"):
                get_view(graph)
            with rec.span("matching.sigma_compile"):
                dag = compile_sigma(graph, [ged.pattern for ged in rules])
            rec.count("matching.sigma_patterns", len(dag.patterns))
        return reasoning.find_violations(graph, rules)

    return validate


def _engine(rules, workers: int, worker_mb: list | None = None):
    """The one-shot engine validation.  With ``worker_mb``, the private
    memory of the pool's workers as the validation returns is appended
    to it (read before the pool is released; about a millisecond of the
    timed call)."""
    import repro.parallel as parallel
    from repro.engine import release_pool

    def validate(graph):
        report = parallel.parallel_find_violations(
            graph, rules, workers=workers, backend="engine"
        )
        if worker_mb is not None:
            worker_mb.append(
                sum(private_mb(child.pid) for child in multiprocessing.active_children())
            )
        release_pool(graph)
        return report.violations

    return validate


def _trials(
    arrays, rules, validate, seconds, expected, outcome, rec=None, after=None, memory=None,
    yard=None,
):
    """Cold validations, timed from the flat arrays to the program's
    violation report, until ``seconds`` have passed.  With a recorder,
    every other validation is traced; with a :class:`ProgramMemory`,
    each validation's peak is sampled before its report is checked;
    with a :class:`Yardstick`, a block of it follows each validation
    and the validation's times are divided by the host's slowdown
    around them (``Yardstick.after``).  Returns the set-up (graph load)
    times and the wall times of the untraced and the traced validations.
    """
    import repro.graph.io as graph_io

    loads, walls, traced_walls = [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or (rec is not None and not traced_walls) or time.perf_counter() < deadline:
        traced = rec is not None and len(walls) > len(traced_walls)
        if rec is not None:
            rec.enabled = traced
        outcome.attempted += 1
        gc.collect()
        if memory is not None:
            memory.reset()
        started = time.perf_counter()
        graph = graph_io.graph_from_arrays(arrays)
        loaded = time.perf_counter()
        violations = validate(graph)
        done = time.perf_counter()
        if memory is not None:
            memory.sample()
        if after is not None:
            after()
        slowdown = 1.0 if yard is None else yard.after(YARD_SHARE * (done - started))
        (traced_walls if traced else walls).append((done - started) / slowdown)
        if not traced:
            loads.append((loaded - started) / slowdown)
        if canonical_bytes(rules, violations) != expected:
            outcome.failed += 1
            outcome.fail("validation report differs from the reference")
        del graph, violations
    return loads, walls, traced_walls


def _traced_table(rec, walls, traced_walls) -> dict:
    out = tracing.layer_metrics(rec, 0, len(traced_walls))
    tracing.add_counters(out, rec.take_counters(), len(traced_walls))
    tracing.coverage(
        out, rec.total_self() / len(traced_walls), median(traced_walls), median(walls)
    )
    return out


def validate_sigma(seed: int, seconds: float, trace: bool, nodes: int = SIGMA_NODES):
    started = time.perf_counter()
    arrays, expected = in_child(_sigma_inputs, nodes, seed)
    rules = gen.overlapping_rules()
    yard = Yardstick()
    keep_inputs_out_of_gc()
    note(f"inputs: {nodes} nodes, {len(arrays['edge_src'])} edges, {len(rules)} rules, "
         f"generated with oracle in {time.perf_counter() - started:.2f}s")
    outcome = Outcome()
    memory = ProgramMemory()
    # Warm-up (first-call code paths), checked but not timed.
    _trials(arrays, rules, _serial(rules), 0, expected, outcome, memory=memory)
    if not trace:
        loads, walls, _ = _trials(
            arrays, rules, _serial(rules), seconds, expected, outcome, memory=memory,
            yard=yard,
        )
        outcome.latency(walls, loads, throughput(walls), yard)
        outcome.put("peak_rss_mb", memory.mb(), "MB")
        return outcome, None
    rec = tracing.Recorder()
    tracing.wrap_graph_load(rec)
    tracing.wrap_validation(rec)
    try:
        _, walls, traced_walls = _trials(
            arrays, rules, _serial(rules, rec), seconds, expected, outcome, rec
        )
    finally:
        rec.restore()
    return outcome, _traced_table(rec, walls, traced_walls)


def validate_engine(seed: int, seconds: float, trace: bool, nodes: int = ENGINE_NODES):
    import repro.graph.io as graph_io
    from repro.engine import get_pool, release_pool

    started = time.perf_counter()
    arrays, expected = in_child(_engine_inputs, nodes, seed)
    rules = gen.overlapping_rules()
    workers = os.cpu_count() or 1
    yard = Yardstick()
    keep_inputs_out_of_gc()
    note(f"inputs: {nodes} nodes, {len(arrays['edge_src'])} edges, {len(rules)} rules, "
         f"{workers} workers, generated with serial reference in "
         f"{time.perf_counter() - started:.2f}s")
    outcome = Outcome()
    memory = ProgramMemory()
    setups = []
    for _ in range(ENGINE_SETUPS):
        gc.collect()
        begun = time.perf_counter()
        graph = graph_io.graph_from_arrays(arrays)
        pool = get_pool(graph, workers, patterns=[ged.pattern for ged in rules])
        pool.run_tasks(os.getpid, [()] * workers)  # ready: the workers answer
        setup = time.perf_counter() - begun
        release_pool(graph)
        reap_children()
        setups.append(setup / yard.after(YARD_SHARE * setup))
    if not trace:
        worker_mb: list[float] = []
        validate = _engine(rules, workers, worker_mb)
        _, walls, _ = _trials(
            arrays, rules, validate, seconds, expected, outcome, after=reap_children,
            memory=memory, yard=yard,
        )
        outcome.latency(walls, setups, throughput(walls), yard)
        # The coordinator's peak plus the workers' private memory.
        outcome.put("peak_rss_mb", memory.mb() + max(worker_mb), "MB")
        return outcome, None
    validate = _engine(rules, workers)
    rec = tracing.Recorder()
    tracing.wrap_graph_load(rec)
    tracing.wrap_engine(rec)
    try:
        _, walls, traced_walls = _trials(
            arrays, rules, validate, seconds, expected, outcome, rec, reap_children
        )
    finally:
        rec.restore()
    return outcome, _traced_table(rec, walls, traced_walls)
