"""The indexed delta kernel's X-literal restrictions.

With an index attached, :func:`~repro.reasoning.validation.x_literal_restrictions`
hands out the index's own posting sets as read-only live views, and the
kernel's pin-stream memo keys on the contributing literals instead of
the pools' contents.  These tests pin both halves: rules sharing a
pattern and X literals still replay one stream, the ledger still equals
a from-scratch validation, and after a whole stream no consumer has
mutated a posting set the index hands out.
"""

import json

from repro.deps import GED, ConstantLiteral, VariableLiteral
from repro.indexing import attach_index, build_indexes, get_index
from repro.parallel import parallel_find_violations
from repro.patterns import Pattern
from repro.reasoning import find_violations
from repro.streaming import ViolationLedger, canonical_report, violation_to_dict
from repro.telemetry import metrics
from repro.workloads import bounded_rule_set, churn_stream

BUYS = Pattern({"u": "user", "i": "item"}, [("u", "buys", "i")])


def ndjson(violations):
    return "\n".join(json.dumps(violation_to_dict(v), sort_keys=True) for v in violations)


def shared_literal_rules():
    """Two rules over one pattern with the same X: one pin stream each
    batch, replayed for the second rule."""
    return [
        GED(
            BUYS,
            [ConstantLiteral("i", "score", 3)],
            [VariableLiteral("u", "region", "i", "region")],
            name="top-items-same-region",
        ),
        GED(
            BUYS,
            [ConstantLiteral("i", "score", 3)],
            [ConstantLiteral("u", "score", 1)],
            name="top-items-low-score-buyers",
        ),
    ]


class TestIndexedPinStreams:
    def test_shared_literals_replay_one_stream(self):
        sigma = shared_literal_rules()
        stream = churn_stream(n_nodes=60, batches=10, batch_size=6, rng=7)
        graph = stream.base.copy()
        attach_index(graph)
        ledger = ViolationLedger(graph, sigma)
        ledger.bootstrap()
        with metrics.collecting() as registry:
            for update in stream.updates:
                ledger.refresh(update)
            counters = registry.snapshot()["counters"]
        assert get_index(graph) is not None
        assert counters.get("matching.sigma.stream_reuse", 0) > 0
        reference = graph.copy()  # unindexed: no restriction code involved
        assert get_index(reference) is None
        recomputed = canonical_report(sigma, find_violations(reference, sigma))
        assert ndjson(ledger.violations()) == ndjson(recomputed)

    def test_posting_sets_equal_a_rebuild_after_the_stream(self):
        """Every consumer of the live restriction pools — the delta
        kernel, the Σ-DAG scan, the sharded kernel — leaves the index's
        posting sets exactly as maintenance made them."""
        sigma = bounded_rule_set() + shared_literal_rules()
        stream = churn_stream(n_nodes=60, batches=10, batch_size=6, rng=11)
        graph = stream.base.copy()
        attach_index(graph)
        ledger = ViolationLedger(graph, sigma)
        ledger.bootstrap()
        for update in stream.updates:
            ledger.refresh(update)
            find_violations(graph, sigma)
            parallel_find_violations(graph, sigma, workers=2, backend="serial")
        index = get_index(graph)
        assert index is not None
        rebuilt = build_indexes(graph)
        live = {key: pool for key, pool in index.attr_value.items() if pool}
        assert live == {key: pool for key, pool in rebuilt.attr_value.items() if pool}
        assert index.snapshot() == rebuilt.snapshot()
