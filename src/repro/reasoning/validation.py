"""The validation problem: does G |= Σ? (Section 5.3).

``G |= Q[x̄](X → Y)`` iff every match h of Q in G with h(x̄) |= X also
satisfies Y.  Literal satisfaction on a data graph follows Section 3:

* ``x.A = c`` — attribute A *exists* at h(x) and equals c;
* ``x.A = y.B`` — both attributes exist and their values agree;
* ``x.id = y.id`` — h(x) and h(y) are the same node;
* ``false`` — never satisfied.

Validation is coNP-complete in general (Theorem 6) because a pattern
can have exponentially many matches; for patterns of bounded size it is
PTIME (Section 5.3, wrapped by :mod:`repro.reasoning.bounded`).  Beyond
the decision problem, :func:`find_violations` returns *witnesses* —
(dependency, match, failed literals) triples — which is what the data
quality applications (Example 1) consume.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

from repro.deps.ged import GED
from repro.deps.literals import (
    FALSE,
    ConstantLiteral,
    IdLiteral,
    Literal,
    VariableLiteral,
)
from repro.graph.graph import Graph
from repro.indexing.registry import get_index
from repro.matching.plan import compile_plan
from repro.matching.sigma_dag import SigmaQuery, compile_sigma
from repro.telemetry.spans import span


def literal_holds(graph: Graph, literal: Literal, match: Mapping[str, str]) -> bool:
    """h(x̄) |= l on a concrete data graph."""
    if isinstance(literal, ConstantLiteral):
        node = graph.node(match[literal.var])
        return node.has_attribute(literal.attr) and node.get(literal.attr) == literal.const
    if isinstance(literal, VariableLiteral):
        node1 = graph.node(match[literal.var1])
        node2 = graph.node(match[literal.var2])
        if not node1.has_attribute(literal.attr1) or not node2.has_attribute(literal.attr2):
            return False
        return node1.get(literal.attr1) == node2.get(literal.attr2)
    if isinstance(literal, IdLiteral):
        return match[literal.var1] == match[literal.var2]
    if literal is FALSE:
        return False
    raise TypeError(f"unknown literal {literal!r}")


def evaluate_match(
    graph: Graph, ged: GED, match: Mapping[str, str]
) -> tuple[Literal, ...] | None:
    """The violation verdict for one match: the (non-empty, sorted-by-
    ``str``) tuple of failed Y literals when h(x̄) |= X and some Y
    literal fails, else ``None``.

    Every violation-producing path — full validation, sharded shards,
    the one-shot incremental scan, the streaming delta kernel and the
    ledger's re-checks — funnels through this single evaluation, so the
    byte-identity guarantees between them (same failed sets, same
    ordering) rest on one definition.
    """
    if ged.X and not all(literal_holds(graph, l, match) for l in ged.X):
        return None
    failed = [l for l in _sorted_y(ged) if not literal_holds(graph, l, match)]
    return tuple(failed) if failed else None


@lru_cache(maxsize=4096)
def _sorted_y(ged: GED) -> tuple[Literal, ...]:
    """Y in report order, computed once per dependency: the sort is
    per-rule-constant, and ``evaluate_match`` runs once per candidate
    match — re-sorting there dominated dense-match validations."""
    return tuple(sorted(ged.Y, key=str))


@dataclass(frozen=True)
class Violation:
    """A witness that G does not satisfy a dependency.

    ``match`` satisfies the dependency's X but fails ``failed`` ⊆ Y.
    """

    ged: GED
    match: tuple[tuple[str, str], ...]
    failed: tuple[Literal, ...]

    @property
    def assignment(self) -> dict[str, str]:
        return dict(self.match)

    def __str__(self) -> str:
        failed = ", ".join(sorted(str(l) for l in self.failed))
        where = ", ".join(f"{v}->{n}" for v, n in self.match)
        return f"violation of {self.ged.name or 'GED'} at [{where}]: fails {failed}"


def x_literal_restrictions(graph: Graph, ged: GED) -> dict[str, set[str]] | None:
    """Candidate pools implied by Σ's precondition, via the index.

    A match is a violation only if every literal of X holds; for a
    constant literal ``x.A = c`` that means h(x) lies in the attribute
    inverted index's posting list for ``(A, c)``.  Restricting the
    search to those pools skips matches where X cannot hold — matches
    the violation scan would discard anyway — so the violation set is
    preserved exactly.  Returns ``None`` when no index is attached or no
    literal is indexable (unhashable-valued attributes report "unknown"
    and impose nothing).

    **The pools are read-only live views.**  A variable with one
    indexable literal gets the index's own posting set, not a copy, so
    the call costs O(|X|) however long the posting lists are; a variable
    with several gets their intersection, smallest set first.  A pool
    is valid until the graph's next mutation (index maintenance edits
    posting sets in place) and must never be mutated by the caller —
    intersect into a new set instead (``pool & other``).
    """
    return x_literal_restrictions_keyed(graph, ged)[0]


def x_literal_restrictions_keyed(
    graph: Graph, ged: GED
) -> "tuple[dict[str, set[str]] | None, frozenset | None]":
    """:func:`x_literal_restrictions` plus a hashable key for the pools.

    The key is the set of contributing ``(var, attr, const)`` literals —
    O(|X|) to build, independent of the posting lists' sizes.  On one
    graph state equal keys imply equal pools (the index answers equal
    literals from the same posting list), so the key can stand in for
    the pools wherever restrictions are grouped or memoized; ``None``
    exactly when the restriction is ``None``.  Different literals whose
    pools happen to coincide get different keys, which only forgoes
    sharing.
    """
    index = get_index(graph)
    if index is None:
        return None, None
    postings: dict[str, list[set[str]]] = {}
    contributing: list[tuple] = []
    for literal in ged.X:
        if not isinstance(literal, ConstantLiteral):
            continue
        pool = index.nodes_with_attr_value(literal.attr, literal.const)
        if pool is None:
            continue
        postings.setdefault(literal.var, []).append(pool)
        contributing.append((literal.var, literal.attr, literal.const))
    if not postings:
        return None, None
    restrict: dict[str, set[str]] = {}
    for var, pools in postings.items():
        if len(pools) == 1:
            restrict[var] = pools[0]
            continue
        pools.sort(key=len)
        current = pools[0] & pools[1]
        for pool in pools[2:]:
            current &= pool
        restrict[var] = current
    return restrict, frozenset(contributing)


def find_violations(
    graph: Graph,
    sigma: Iterable[GED],
    limit: int | None = None,
) -> list[Violation]:
    """All (up to ``limit``) violations of Σ in G.

    Plan-compiled: each dependency's pattern is compiled once per
    (graph version, index attachment) into a
    :class:`~repro.matching.plan.MatchPlan` — shared through the view
    registry with every other consumer of the same pattern, so repeated
    validations of an unmutated graph pay zero recompilation.  The
    X-literal restriction pools of :func:`x_literal_restrictions` enter
    the plan as its attr-filter stage.  Index-aware: with a
    :mod:`repro.indexing` index attached the compiled candidate pools
    are the pruner's and the attr filters actually bite; the returned
    violations are identical either way.

    Multi-rule full scans (``limit is None``, more than one dependency)
    run as **one Σ-DAG pass** (:func:`~repro.matching.sigma_dag.compile_sigma`):
    shared pattern prefixes across Σ are enumerated once and each
    emitted match is evaluated against its own rule's literals.  The
    per-dependency violation lists — and their concatenation order —
    are byte-identical to the per-rule loop.  Limited scans keep the
    per-rule loop: ``validates`` stops at the first violation, and a
    whole-Σ walk would do strictly more work than the solo plan.
    """
    sigma = list(sigma)
    if limit is None and len(sigma) > 1:
        return _sigma_find_violations(graph, sigma)
    violations: list[Violation] = []
    for position, ged in enumerate(sigma):
        with span("validate.dep", dep=ged.name or f"#{position}"):
            restrict = x_literal_restrictions(graph, ged)
            plan = compile_plan(graph, ged.pattern)
            for match in plan.matches(restrict=restrict):
                failed = evaluate_match(graph, ged, match)
                if failed:
                    violations.append(
                        Violation(ged, tuple(sorted(match.items())), failed)
                    )
                    if limit is not None and len(violations) >= limit:
                        return violations
    return violations


def _sigma_find_violations(graph: Graph, sigma: "list[GED]") -> list[Violation]:
    """The Σ-batched full scan: one shared-DAG walk, per-rule buckets.

    Rules are grouped by (pattern, restriction): literal variants over
    one skeleton share a *single* query — the DAG enumerates their
    common stream once and each emitted match is evaluated against
    every rule in the group.  (With no index attached every restriction
    is ``None``, so the query set collapses to the DAG's deduplicated
    pattern tuple and the walk reuses the cached whole-set trie.)
    Matches arrive interleaved across groups, so violations are
    bucketed per rule and concatenated in Σ order — the exact output of
    the per-rule loop, because each rule's match subsequence is its
    solo stream.
    """
    dag = compile_sigma(graph, [ged.pattern for ged in sigma])
    group_index: dict = {}
    queries: list[SigmaQuery] = []
    members: list[list[int]] = []  # query position -> rule positions
    for position, ged in enumerate(sigma):
        restrict, restrict_key = x_literal_restrictions_keyed(graph, ged)
        key = (ged.pattern, restrict_key)
        group = group_index.get(key)
        if group is None:
            group = group_index[key] = len(queries)
            queries.append(SigmaQuery(ged.pattern, restrict=restrict))
            members.append([])
        members[group].append(position)
    buckets: list[list[Violation]] = [[] for _ in sigma]
    with span("validate.sigma", rules=len(sigma)):
        for group, match in dag.iter_matches(queries):
            items = None
            for position in members[group]:
                ged = sigma[position]
                failed = evaluate_match(graph, ged, match)
                if failed:
                    if items is None:
                        items = tuple(sorted(match.items()))
                    buckets[position].append(Violation(ged, items, failed))
    return [violation for bucket in buckets for violation in bucket]


def validates(graph: Graph, sigma: Iterable[GED], **_ignored) -> bool:
    """G |= Σ — the Theorem 6 decision problem."""
    return not find_violations(graph, sigma, limit=1)


def satisfies_ged(graph: Graph, ged: GED) -> bool:
    """G |= φ for a single dependency."""
    return validates(graph, [ged])


def matches_all_patterns(graph: Graph, sigma: Iterable[GED]) -> bool:
    """Whether every pattern of Σ has a match in G — the second half of
    the *model* condition of Section 5.1 (strong satisfiability)."""
    from repro.matching.homomorphism import has_match

    return all(has_match(ged.pattern, graph) for ged in sigma)


def is_model(graph: Graph, sigma: Sequence[GED]) -> bool:
    """Whether G is a model of Σ: G |= Σ and every pattern matches."""
    return matches_all_patterns(graph, sigma) and validates(graph, sigma)
