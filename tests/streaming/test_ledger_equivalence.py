"""The ledger-equivalence property (ISSUE 3 acceptance).

After any seeded stream of update batches — including deletions — the
:class:`~repro.streaming.ViolationLedger` state must be byte-identical
(canonically ordered, NDJSON-serialized) to a from-scratch
``find_violations`` report on the final graph: with and without an
index attached, across the serial and engine delta backends.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deps import GED, ConstantLiteral, VariableLiteral
from repro.graph.update import GraphUpdate
from repro.indexing import attach_index, get_index
from repro.patterns import Pattern
from repro.reasoning import find_violations
from repro.streaming import (
    EngineDeltaExecutor,
    ViolationLedger,
    canonical_report,
    violation_to_dict,
)
from repro.workloads import bounded_rule_set, churn_stream, social_churn_stream


def ndjson(violations):
    return "\n".join(json.dumps(violation_to_dict(v), sort_keys=True) for v in violations)


def assert_ledger_equals_full(ledger, graph, sigma):
    maintained = ndjson(ledger.violations())
    recomputed = ndjson(canonical_report(sigma, find_violations(graph, sigma)))
    assert maintained == recomputed


def multi_literal_rules():
    """Rules over the churn workload whose X restrictions take every
    branch of the indexed restriction: two and three constant literals
    on one variable (the intersection), literal sets that differ but
    whose pools coincide (``grade`` mirrors ``score`` on the base graph;
    ``score = 7`` and ``region = 9`` are both empty), a literal that
    differs from a bounded rule's only in its constant, and a rule that
    shares its X with a bounded rule but not its Y."""
    buys = Pattern({"u": "user", "i": "item"}, [("u", "buys", "i")])
    sells = Pattern({"s": "shop", "i": "item"}, [("s", "sells", "i")])
    item = Pattern({"i": "item"})
    same_region = VariableLiteral("u", "region", "i", "region")
    return bounded_rule_set() + [
        GED(
            buys,
            [ConstantLiteral("i", "score", 3), ConstantLiteral("i", "region", 1)],
            [same_region],
            name="two-literals",
        ),
        GED(
            buys,
            [
                ConstantLiteral("i", "score", 2),
                ConstantLiteral("i", "region", 2),
                ConstantLiteral("i", "grade", 2),
                ConstantLiteral("u", "score", 1),
            ],
            [ConstantLiteral("u", "region", 2)],
            name="three-literals-and-a-buyer-literal",
        ),
        GED(buys, [ConstantLiteral("i", "grade", 3)], [same_region], name="grade-mirror"),
        GED(item, [ConstantLiteral("i", "score", 7)], [ConstantLiteral("i", "region", 1)],
            name="empty-score-pool"),
        GED(item, [ConstantLiteral("i", "region", 9)], [ConstantLiteral("i", "region", 1)],
            name="empty-region-pool"),
        GED(item, [ConstantLiteral("i", "score", 2)], [ConstantLiteral("i", "region", 1)],
            name="other-constant"),
        GED(sells, [ConstantLiteral("s", "region", 1)], [ConstantLiteral("i", "region", 2)],
            name="shared-x-other-y"),
    ]


def with_grade_mirror(graph):
    """Copy every node's ``score`` into ``grade`` (the churn stream never
    touches ``grade``, so the two pools start equal and then drift)."""
    for node_id in sorted(graph.node_ids):
        node = graph.node(node_id)
        if node.has_attribute("score"):
            graph.set_attribute(node_id, "grade", node.get("score"))
    return graph


class TestSerialProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000), st.booleans())
    def test_ledger_equals_full_revalidation(self, seed, indexed):
        """The property, over random churn streams (random-graph
        workload) and the index toggle."""
        stream = churn_stream(
            n_nodes=random.Random(seed).randint(20, 60),
            batches=8,
            batch_size=6,
            rng=seed,
        )
        graph = stream.base.copy()
        if indexed:
            attach_index(graph)
        ledger = ViolationLedger(graph, stream.sigma)
        ledger.bootstrap()
        for update in stream.updates:
            ledger.refresh(update)
            if indexed:
                assert get_index(graph) is not None, "index must stay synced"
        assert_ledger_equals_full(ledger, graph, stream.sigma)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000), st.booleans())
    def test_multi_literal_rules_equal_full_revalidation(self, seed, indexed):
        """The property for rules whose indexed restriction intersects
        several posting lists, or whose differing literals select equal
        pools — the cases the literal-keyed stream memo must keep apart
        or share without changing the output."""
        stream = churn_stream(
            n_nodes=random.Random(seed).randint(20, 60),
            batches=8,
            batch_size=6,
            rng=seed,
        )
        sigma = multi_literal_rules()
        graph = with_grade_mirror(stream.base.copy())
        if indexed:
            attach_index(graph)
        ledger = ViolationLedger(graph, sigma)
        ledger.bootstrap()
        for update in stream.updates:
            ledger.refresh(update)
            if indexed:
                assert get_index(graph) is not None, "index must stay synced"
        # Checked against an unindexed copy, so the reference does not
        # share the restriction code under test.
        reference = graph.copy()
        assert get_index(reference) is None
        assert_ledger_equals_full(ledger, reference, sigma)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_social_stream(self, seed):
        stream = social_churn_stream(n_rings=3, batches=6, batch_size=6, rng=seed)
        graph = stream.base.copy()
        attach_index(graph)
        ledger = ViolationLedger(graph, stream.sigma)
        ledger.bootstrap()
        for update in stream.updates:
            ledger.refresh(update)
        assert_ledger_equals_full(ledger, graph, stream.sigma)

    def test_deltas_compose_to_final_state(self):
        """introduced − retired, folded over the stream, reproduces the
        ledger (delta emission is lossless)."""
        stream = churn_stream(n_nodes=50, batches=10, rng=17)
        graph = stream.base.copy()
        ledger = ViolationLedger(graph, stream.sigma)
        state = {
            (v.ged, v.match): v for v in ledger.bootstrap()
        }
        for update in stream.updates:
            delta = ledger.refresh(update)
            for violation in delta.retired:
                del state[(violation.ged, violation.match)]
            for violation in delta.updated:
                assert (violation.ged, violation.match) in state
                state[(violation.ged, violation.match)] = violation
            for violation in delta.introduced:
                key = (violation.ged, violation.match)
                assert key not in state, "introduced key must be new"
                state[key] = violation
        assert set(state.values()) == set(ledger.violations())

    def test_introduced_order_is_canonical_not_pin_order(self):
        """Two violations introduced by one batch whose pin-enumeration
        order differs from canonical (dep, embedding) order: the delta
        must come back canonically sorted (backend-independent)."""
        from repro.deps import GED, ConstantLiteral
        from repro.graph import GraphBuilder
        from repro.patterns import Pattern

        graph = (
            GraphBuilder()
            .node("z", "L")
            .node("a", "L")
            .node("b", "L")
            .node("c", "L")
            .build()
        )
        rule = GED(
            Pattern({"x": "L", "y": "L"}, [("x", "r", "y")]),
            [],
            [ConstantLiteral("y", "ok", 1)],
        )
        ledger = ViolationLedger(graph, [rule])
        ledger.bootstrap()
        delta = ledger.refresh(GraphUpdate(edges=[("z", "r", "a"), ("b", "r", "c")]))
        matches = [v.match for v in delta.introduced]
        # Pin enumeration (sorted touched: a, b, c, z) finds (z, a)
        # before (b, c); canonical embedding order is the reverse.
        assert matches == [
            (("x", "b"), ("y", "c")),
            (("x", "z"), ("y", "a")),
        ]

    def test_empty_batch_is_a_noop_delta(self):
        stream = churn_stream(n_nodes=30, batches=1, rng=1)
        graph = stream.base.copy()
        ledger = ViolationLedger(graph, stream.sigma)
        ledger.bootstrap()
        delta = ledger.refresh(GraphUpdate())
        assert delta.is_empty()
        assert delta.rechecked == 0


class TestEngineBackend:
    """The engine-pooled delta path (process workers: a few fixed seeds
    rather than a hypothesis sweep)."""

    @pytest.mark.parametrize("indexed", [False, True], ids=["plain", "indexed"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_engine_equals_full_revalidation(self, seed, indexed):
        stream = churn_stream(n_nodes=60, batches=8, rng=seed)
        graph = stream.base.copy()
        if indexed:
            attach_index(graph)
        with ViolationLedger(graph, stream.sigma, backend="engine", workers=2) as ledger:
            ledger.bootstrap()
            for update in stream.updates:
                ledger.refresh(update)
            assert_ledger_equals_full(ledger, graph, stream.sigma)

    def test_engine_deltas_match_serial_deltas(self):
        """Batch-by-batch determinism across backends, not just final
        state."""
        stream = churn_stream(n_nodes=60, batches=6, rng=7)
        serial_graph = stream.base.copy()
        engine_graph = stream.base.copy()
        serial = ViolationLedger(serial_graph, stream.sigma)
        serial.bootstrap()
        with ViolationLedger(
            engine_graph, stream.sigma, backend="engine", workers=2
        ) as engine:
            engine.bootstrap()
            for update in stream.updates:
                serial_delta = serial.refresh(update)
                engine_delta = engine.refresh(update)
                assert ndjson(serial_delta.introduced) == ndjson(engine_delta.introduced)
                assert ndjson(serial_delta.retired) == ndjson(engine_delta.retired)
                assert ndjson(serial_delta.updated) == ndjson(engine_delta.updated)

    def test_rebroadcast_checkpoint_path(self):
        """A tiny replication-log bound forces mid-stream re-broadcasts;
        correctness must be unaffected and the executor must record them."""
        stream = churn_stream(n_nodes=50, batches=8, rng=5)
        graph = stream.base.copy()
        ledger = ViolationLedger(graph, stream.sigma, backend="engine", workers=2)
        # Pre-build the executor with a tiny log bound, then stream.
        ledger._executor = EngineDeltaExecutor(
            graph, ledger.sigma, workers=2, max_pending=2
        )
        try:
            ledger.bootstrap()
            for update in stream.updates:
                ledger.refresh(update)
            assert ledger._executor.rebroadcasts >= 2
            assert_ledger_equals_full(ledger, graph, stream.sigma)
        finally:
            ledger.close()
