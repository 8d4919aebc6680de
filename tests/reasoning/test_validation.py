"""Validation tests: Theorem 6 semantics, violation witnesses, bounded case."""

import pytest

from repro import paper
from repro.deps import FALSE, ConstantLiteral, GED, IdLiteral, VariableLiteral
from repro.errors import DependencyError
from repro.graph import GraphBuilder
from repro.patterns import Pattern
from repro.reasoning import (
    find_violations,
    literal_holds,
    satisfies_ged,
    validate_bounded,
    validates,
)


def knowledge_graph():
    """A small KB with the Example 1 inconsistencies planted."""
    return (
        GraphBuilder()
        # Ghetto Blaster credited to a psychologist (violates ϕ1).
        .node("game", "product", type="video game", title="Ghetto Blaster")
        .node("tony", "person", type="psychologist", name="Tony Gibson")
        .edge("tony", "create", "game")
        # Finland with two differently-named capitals (violates ϕ2).
        .node("fin", "country", name="Finland")
        .node("hel", "city", name="Helsinki")
        .node("spb", "city", name="Saint Petersburg")
        .edge("fin", "capital", "hel")
        .edge("fin", "capital", "spb")
        # Birds can fly; moa is a bird but flightless (violates ϕ3).
        .node("bird", "class", can_fly="yes")
        .node("moa", "species", can_fly="no")
        .edge("moa", "is_a", "bird")
        # Philip both child and parent of William (violates ϕ4).
        .node("philip", "person", name="Philip Sclater")
        .node("william", "person", name="William Sclater")
        .edge("philip", "child", "william")
        .edge("philip", "parent", "william")
        .build()
    )


class TestLiteralSemantics:
    def test_constant_literal_requires_existence(self):
        g = GraphBuilder().node("n", "a").build()
        assert not literal_holds(g, ConstantLiteral("x", "A", 1), {"x": "n"})
        g2 = GraphBuilder().node("n", "a", A=1).build()
        assert literal_holds(g2, ConstantLiteral("x", "A", 1), {"x": "n"})
        assert not literal_holds(g2, ConstantLiteral("x", "A", 2), {"x": "n"})

    def test_variable_literal_requires_both(self):
        g = GraphBuilder().node("n", "a", A=1).node("m", "a").build()
        lit = VariableLiteral("x", "A", "y", "A")
        assert not literal_holds(g, lit, {"x": "n", "y": "m"})
        g.set_attribute("m", "A", 1)
        assert literal_holds(g, lit, {"x": "n", "y": "m"})

    def test_id_literal(self):
        g = GraphBuilder().node("n", "a").node("m", "a").build()
        assert literal_holds(g, IdLiteral("x", "y"), {"x": "n", "y": "n"})
        assert not literal_holds(g, IdLiteral("x", "y"), {"x": "n", "y": "m"})

    def test_false_never_holds(self):
        g = GraphBuilder().node("n", "a").build()
        assert not literal_holds(g, FALSE, {})


class TestExample1Violations:
    def test_phi1_catches_ghetto_blaster(self):
        violations = find_violations(knowledge_graph(), [paper.phi1()])
        assert len(violations) == 1
        assert violations[0].assignment["x"] == "game"
        assert "programmer" in str(violations[0])

    def test_phi2_catches_two_capitals(self):
        violations = find_violations(knowledge_graph(), [paper.phi2()])
        # Matches (hel, spb) and (spb, hel) both violate.
        assert {v.assignment["y"] for v in violations} == {"hel", "spb"}

    def test_phi3_catches_moa(self):
        violations = find_violations(knowledge_graph(), [paper.phi3()])
        assert any(v.assignment["y"] == "moa" for v in violations)

    def test_phi4_catches_child_and_parent(self):
        violations = find_violations(knowledge_graph(), [paper.phi4()])
        assert len(violations) == 1
        assert violations[0].failed == (FALSE,)

    def test_clean_graph_validates(self):
        g = (
            GraphBuilder()
            .node("game", "product", type="video game")
            .node("dev", "person", type="programmer")
            .edge("dev", "create", "game")
            .build()
        )
        sigma = [paper.phi1(), paper.phi2(), paper.phi3(), paper.phi4()]
        assert validates(g, sigma)

    def test_unsatisfied_x_is_not_a_violation(self):
        """ϕ2's pattern matches (y=z=hel) but those matches satisfy Y."""
        g = (
            GraphBuilder()
            .node("fin", "country")
            .node("hel", "city", name="Helsinki")
            .edge("fin", "capital", "hel")
            .build()
        )
        assert satisfies_ged(g, paper.phi2())


class TestGKeyValidation:
    def albums(self, same_artist_node: bool):
        b = (
            GraphBuilder()
            .node("a1", "album", title="Bleach", release=1989)
            .node("a2", "album", title="Bleach", release=1989)
        )
        if same_artist_node:
            b.node("art", "artist", name="Nirvana")
            b.edge("a1", "primary_artist", "art").edge("a2", "primary_artist", "art")
        else:
            b.node("art1", "artist", name="Nirvana")
            b.node("art2", "artist", name="Nirvana UK")
            b.edge("a1", "primary_artist", "art1").edge("a2", "primary_artist", "art2")
        return b.build()

    def test_psi1_fires_on_duplicates_with_shared_artist(self):
        g = self.albums(same_artist_node=True)
        violations = find_violations(g, [paper.psi1()])
        assert violations, "two Bleach albums by the same artist node must merge"

    def test_psi1_silent_for_distinct_artists(self):
        g = self.albums(same_artist_node=False)
        assert validates(g, [paper.psi1()])

    def test_psi2_fires_on_same_title_and_release(self):
        g = self.albums(same_artist_node=False)
        assert not validates(g, [paper.psi2()])


class TestViolationAPI:
    def test_limit(self):
        violations = find_violations(knowledge_graph(), [paper.phi2()], limit=1)
        assert len(violations) == 1

    def test_violation_reports_failed_literals(self):
        v = find_violations(knowledge_graph(), [paper.phi1()])[0]
        assert v.failed == (ConstantLiteral("y", "type", "programmer"),)
        assert v.ged.name == "phi1"

    def test_multiple_geds_aggregate(self):
        sigma = [paper.phi1(), paper.phi2(), paper.phi3(), paper.phi4()]
        violations = find_violations(knowledge_graph(), sigma)
        assert {v.ged.name for v in violations} == {"phi1", "phi2", "phi3", "phi4"}


class TestBoundedFacade:
    def test_bounded_accepts_small_patterns(self):
        g = knowledge_graph()
        violations = validate_bounded(g, [paper.phi1()], k=4)
        assert len(violations) == 1

    def test_bounded_rejects_large_patterns(self):
        with pytest.raises(DependencyError):
            validate_bounded(knowledge_graph(), [paper.phi5(k=4)], k=4)

    def test_bounded_satisfiability_and_implication(self):
        from repro.reasoning import implies_bounded, satisfiable_bounded

        q = Pattern({"x": "a"})
        ged = GED(q, [], [ConstantLiteral("x", "A", 1)])
        assert satisfiable_bounded([ged], k=2)
        assert implies_bounded([ged], ged, k=2)


class TestXLiteralRestrictions:
    """The index-backed restriction pools and their literal key."""

    @staticmethod
    def scored_graph():
        builder = GraphBuilder()
        for n, (score, region) in enumerate([(3, 1), (3, 2), (1, 1), (3, 1), (2, 2)]):
            builder.node(f"i{n}", "item", score=score, region=region)
            builder.node(f"u{n}", "user", region=region)
            builder.edge(f"u{n}", "buys", f"i{n}")
        return builder.build()

    @staticmethod
    def buys_rule(*x, name=None):
        return GED(
            Pattern({"u": "user", "i": "item"}, [("u", "buys", "i")]),
            list(x),
            [VariableLiteral("u", "region", "i", "region")],
            name=name,
        )

    def test_no_index_means_no_restriction(self):
        from repro.reasoning.validation import (
            x_literal_restrictions,
            x_literal_restrictions_keyed,
        )

        rule = self.buys_rule(ConstantLiteral("i", "score", 3))
        graph = self.scored_graph()
        assert x_literal_restrictions(graph, rule) is None
        assert x_literal_restrictions_keyed(graph, rule) == (None, None)

    def test_single_literal_pool_is_the_posting_set(self):
        from repro.indexing import attach_index
        from repro.reasoning.validation import x_literal_restrictions

        graph = self.scored_graph()
        index = attach_index(graph)
        restrict = x_literal_restrictions(graph, self.buys_rule(ConstantLiteral("i", "score", 3)))
        assert restrict["i"] is index.nodes_with_attr_value("score", 3)
        assert restrict["i"] == {"i0", "i1", "i3"}

    def test_several_literals_intersect_without_touching_postings(self):
        from repro.indexing import attach_index
        from repro.reasoning.validation import x_literal_restrictions

        graph = self.scored_graph()
        index = attach_index(graph)
        before = index.snapshot()
        rule = self.buys_rule(
            ConstantLiteral("i", "score", 3),
            ConstantLiteral("i", "region", 1),
            ConstantLiteral("u", "region", 1),
        )
        restrict = x_literal_restrictions(graph, rule)
        assert restrict["i"] == {"i0", "i3"}
        assert restrict["i"] is not index.nodes_with_attr_value("score", 3)
        assert restrict["i"] is not index.nodes_with_attr_value("region", 1)
        assert restrict["u"] is index.nodes_with_attr_value("region", 1)
        assert index.snapshot() == before

    def test_key_is_the_contributing_literals(self):
        from repro.indexing import attach_index
        from repro.reasoning.validation import x_literal_restrictions_keyed

        graph = self.scored_graph()
        attach_index(graph)
        score = ConstantLiteral("i", "score", 3)
        region = ConstantLiteral("i", "region", 1)
        restrict, key = x_literal_restrictions_keyed(graph, self.buys_rule(score, region))
        assert key == frozenset({("i", "score", 3), ("i", "region", 1)})
        # Same literals, another rule: the same key (and equal pools).
        other, other_key = x_literal_restrictions_keyed(
            graph, self.buys_rule(region, score, name="copy")
        )
        assert other_key == key and other == restrict
        # Different literals with equal (empty) pools keep distinct keys:
        # that forgoes sharing, never changes output.
        empty_a = x_literal_restrictions_keyed(
            graph, self.buys_rule(ConstantLiteral("i", "score", 9))
        )
        empty_b = x_literal_restrictions_keyed(
            graph, self.buys_rule(ConstantLiteral("i", "region", 9))
        )
        assert empty_a[0] == empty_b[0] == {"i": set()}
        assert empty_a[1] != empty_b[1]
        # Variable literals contribute nothing: no restriction, no key.
        assert x_literal_restrictions_keyed(graph, self.buys_rule()) == (None, None)

    def test_unindexable_literal_contributes_nothing(self):
        from repro.indexing import attach_index
        from repro.reasoning.validation import x_literal_restrictions_keyed

        graph = self.scored_graph()
        graph.set_attribute("i4", "tags", ["a"])  # unhashable: attribute unindexable
        attach_index(graph)
        rule = self.buys_rule(ConstantLiteral("i", "tags", "a"), ConstantLiteral("i", "score", 3))
        restrict, key = x_literal_restrictions_keyed(graph, rule)
        assert key == frozenset({("i", "score", 3)})
        assert restrict == {"i": {"i0", "i1", "i3"}}

    def test_sigma_scan_groups_by_literals_identically_with_and_without_index(self):
        from repro.indexing import attach_index

        score, region = ConstantLiteral("i", "score", 3), ConstantLiteral("i", "region", 1)
        sigma = [
            self.buys_rule(score, name="a"),
            self.buys_rule(score, region, name="b"),
            self.buys_rule(region, score, name="c"),
            self.buys_rule(ConstantLiteral("i", "score", 9), name="d"),
            self.buys_rule(ConstantLiteral("i", "region", 9), name="e"),
        ]
        graph = self.scored_graph()
        graph.set_attribute("u0", "region", 2)
        graph.set_attribute("u3", "region", 5)
        plain = find_violations(graph, sigma)
        attach_index(graph)
        assert find_violations(graph, sigma) == plain
        assert {v.ged.name for v in plain} == {"a", "b", "c"}
