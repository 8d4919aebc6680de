"""Incremental validation: equivalence with full re-validation."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import paper
from repro.deps import ConstantLiteral, GED, VariableLiteral
from repro.graph import GraphBuilder, random_labeled_graph
from repro.patterns import Pattern
from repro.reasoning import find_violations
from repro.reasoning.incremental import (
    GraphUpdate,
    apply_update,
    incremental_violations,
)


class TestGraphUpdate:
    def test_touched_nodes(self):
        update = GraphUpdate(
            nodes=[("n", "a", {})],
            edges=[("n", "r", "m")],
            attrs=[("k", "A", 1)],
        )
        assert update.touched_nodes() == {"n", "m", "k"}

    def test_apply_update(self):
        g = GraphBuilder().node("m", "a").build()
        apply_update(
            g,
            GraphUpdate(nodes=[("n", "b", {"A": 1})], edges=[("n", "r", "m")],
                        attrs=[("m", "B", 2)]),
        )
        assert g.has_node("n") and g.has_edge("n", "r", "m")
        assert g.node("m").get("B") == 2


class TestIncrementalViolations:
    def capital_rule(self):
        return paper.phi2()

    def test_new_violation_detected(self):
        g = (
            GraphBuilder()
            .node("fin", "country")
            .node("hel", "city", name="Helsinki")
            .edge("fin", "capital", "hel")
            .build()
        )
        assert not find_violations(g, [self.capital_rule()])
        update = GraphUpdate(
            nodes=[("spb", "city", {"name": "Saint Petersburg"})],
            edges=[("fin", "capital", "spb")],
        )
        apply_update(g, update)
        incremental = incremental_violations(g, [self.capital_rule()], update)
        full = find_violations(g, [self.capital_rule()])
        assert {v.match for v in incremental} == {v.match for v in full}

    def test_untouched_matches_skipped(self):
        """An update far from the rule's matches reports nothing."""
        g = (
            GraphBuilder()
            .node("fin", "country")
            .node("hel", "city", name="A")
            .node("spb", "city", name="B")
            .edge("fin", "capital", "hel")
            .edge("fin", "capital", "spb")
            .build()
        )
        update = GraphUpdate(nodes=[("lonely", "island", {})])
        apply_update(g, update)
        assert incremental_violations(g, [self.capital_rule()], update) == []

    def test_attribute_write_can_fix_and_break(self):
        q = Pattern({"x": "item"})
        rule = GED(q, [ConstantLiteral("x", "state", "on")],
                   [ConstantLiteral("x", "power", 1)])
        g = GraphBuilder().node("i", "item", state="off", power=0).build()
        assert not find_violations(g, [rule])
        update = GraphUpdate(attrs=[("i", "state", "on")])
        apply_update(g, update)
        hits = incremental_violations(g, [rule], update)
        assert len(hits) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_incremental_equals_full_on_touched(self, seed):
        """Post-update violations touching the update = incremental
        result; violations avoiding it existed before (completeness of
        the delta argument)."""
        rng = random.Random(seed)
        g = random_labeled_graph(
            rng.randint(2, 5), 0.4, ["a", "b"], ["r"], rng=seed,
            attribute_names=["A"], attribute_values=[1, 2],
        )
        q = Pattern({"x": "a", "y": "b"}, [("x", "r", "y")])
        sigma = [GED(q, [], [VariableLiteral("x", "A", "y", "A")])]
        before = {v.match for v in find_violations(g, sigma)}
        new_id = "fresh"
        target = rng.choice(g.node_ids)
        update = GraphUpdate(
            nodes=[(new_id, rng.choice(["a", "b"]), {"A": rng.choice([1, 2])})],
            edges=[(new_id, "r", target)],
        )
        apply_update(g, update)
        after = {v.match for v in find_violations(g, sigma)}
        touched = update.touched_nodes()
        incremental = {v.match for v in incremental_violations(g, sigma, update)}
        # Completeness: every genuinely new violation is found.
        assert (after - before) <= incremental
        # Soundness: everything reported is a real post-update violation.
        assert incremental <= after
        # Sharpness: reported matches all touch the update.
        for match in incremental:
            assert any(node in touched for _, node in match)

