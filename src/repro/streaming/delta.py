"""The streaming delta kernel: violations introduced by one update batch.

A violation introduced by a batch must have a *touched element* in the
image of its match: additions only create matches through the new
elements, deletions only destroy matches or change literal values at
the deleted element's node.  The kernel therefore pins each pattern
variable to each touched node in turn — but unlike the one-shot
:func:`repro.reasoning.incremental.incremental_violations`, it never
hands the matcher whole-graph candidate pools.  Each pin searches only a
**pattern-radius ball** around the pinned node:

* pattern distances — for variables u, w in the same weakly connected
  component of Q, any match sends their images to nodes within
  undirected graph distance ``dist_Q(u, w)`` of each other (every
  pattern edge maps to a graph edge), so w's pool is the ball of that
  radius around the pinned node, filtered by ``≼`` on labels;
* variables in *other* components of Q are unconstrained by the pin and
  keep their label pools (computed once per dependency, not per pin);
* with a synced :mod:`repro.indexing` index attached, a pin is
  dropped before any search when the node's 1-hop neighborhood
  signature cannot admit the variable's pattern edges
  (:meth:`~repro.indexing.pruning.CandidatePruner.admissible`), and the
  X-literal restriction pools of
  :func:`~repro.reasoning.validation.x_literal_restrictions` shrink the
  search further.  Those pools are the index's posting sets as
  read-only live views (no copy); intersecting one into a ball pool
  walks the smaller operand, normally the ball.

All of these are necessary conditions, so the kernel finds exactly the
violations whose match meets the touched set — work proportional to the
update's neighborhood, not to |G|.  With an index attached the per-batch
cost no longer scales with posting-list size either: a variable with
one constant literal costs O(1) per dependency (no copy, and the memo
key below is built from the literals), and only a variable with
several literals pays an intersection, bounded by its smallest
posting list.

Each pin walks the pattern's one-leaf chain — the same walker every
plan and Σ-DAG runs through — over its ball pools, with adjacency rows
taken from the graph itself
(:func:`~repro.matching.plan.execute_over_pools`): the chain is cached
per ``(pattern, order)`` (the ``_steps_for`` cache, alongside the
memoized :func:`pattern_distances`), so plan compilation is paid once
per dependency, not once per pinned node or per batch — and, crucially,
no O(|G|) graph-view build is paid on a graph that mutates every
batch.

Σ-sharing rides the same observation as :mod:`repro.matching.sigma_dag`:
rule sets are families of literal variants over few distinct skeletons,
so within one batch the *pin streams* — the matches of (pattern,
pinned variable, pinned node) under a given restriction — repeat
across dependencies verbatim.  The kernel memoizes each stream the
first time it is enumerated and replays it for every later dependency
sharing the skeleton, skipping the ball construction and the plan walk
entirely (``matching.sigma.stream_reuse`` counts the replays).  The
restriction enters the memo key as its contributing ``(var, attr,
const)`` literals
(:func:`~repro.reasoning.validation.x_literal_restrictions_keyed`),
not the pools' contents: on one graph state equal literals select
equal pools.  Per-dependency de-duplication applies after replay, so
reported violations are untouched.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.deps.ged import GED
from repro.graph.graph import Graph
from repro.indexing.registry import get_index
from repro.matching.locality import ball_levels, pattern_distances, pattern_radius
from repro.matching.plan import execute_over_pools
from repro.patterns.labels import WILDCARD, matches
from repro.reasoning.validation import (
    Violation,
    evaluate_match,
    x_literal_restrictions_keyed,
)
from repro.telemetry import metrics as _metrics

#: A found violation, tagged with its dependency's position in Σ (the
#: ledger's key space; positions disambiguate equal rules).
TaggedViolation = tuple[int, Violation]


def _label_pool(graph: Graph, label: str) -> set[str]:
    if label == WILDCARD:
        return set(graph.node_ids)
    return graph.nodes_with_label(label)


def delta_violations(
    graph: Graph,
    sigma: Sequence[GED],
    touched: Iterable[str],
) -> list[TaggedViolation]:
    """All violations of Σ (post-update) whose match meets ``touched``.

    ``graph`` must already have the update applied; touched ids that no
    longer exist (deletions) are skipped — they cannot host matches.
    Deterministic: dependencies in Σ order, pinned nodes sorted, the
    matcher's own enumeration order within each pin; duplicates (one
    match meeting several touched nodes) are reported once, and the
    per-dependency de-duplication works across calls only through the
    ledger (each call stands alone).
    """
    live = sorted(node_id for node_id in set(touched) if graph.has_node(node_id))
    if not live:
        return []
    index = get_index(graph)
    pruner = None
    if index is not None:
        from repro.indexing.pruning import CandidatePruner

        pruner = CandidatePruner(graph, index)

    radius = max((pattern_radius(ged.pattern) for ged in sigma), default=0)
    balls: dict[str, list[set[str]]] = {}
    # Pin streams memoized across dependencies: two rules sharing a
    # skeleton (and restriction) enumerate identical matches per pin,
    # so the second one replays the first's stream instead of
    # rebuilding ball pools and re-running the plan.
    streams: dict[tuple, list[tuple[tuple[str, str], ...]]] = {}
    sink = _metrics.sink()
    found: list[TaggedViolation] = []

    for dep_index, ged in enumerate(sigma):
        pattern = ged.pattern
        restrict, restrict_key = x_literal_restrictions_keyed(graph, ged)
        distances = pattern_distances(pattern)
        variable_labels = [(v, pattern.label_of(v)) for v in pattern.variables]
        # Label pools for variables in *other* components, shared by
        # every pin of this dependency.
        free_pools: dict[str, set[str]] = {}
        seen: set[tuple[tuple[str, str], ...]] = set()
        for node_id in live:
            node_label = graph.node(node_id).label
            for variable, variable_label in variable_labels:
                if not matches(variable_label, node_label):
                    continue
                if pruner is not None and not pruner.admissible(pattern, variable, node_id):
                    continue
                stream_key = (pattern, variable, node_id, restrict_key)
                stream = streams.get(stream_key)
                if stream is None:
                    levels = balls.get(node_id)
                    if levels is None:
                        levels = balls[node_id] = ball_levels(graph, node_id, radius)
                    reachable = distances[variable]
                    pools: dict[str, set[str]] = {}
                    for other, label in variable_labels:
                        if other == variable:
                            pools[other] = {node_id}
                            continue
                        distance = reachable.get(other)
                        if distance is None:  # different component: label pool
                            pool = free_pools.get(other)
                            if pool is None:
                                pool = free_pools[other] = _label_pool(graph, label)
                            pools[other] = pool
                        else:
                            ball = levels[min(distance, len(levels) - 1)]
                            pools[other] = {
                                m for m in ball if matches(label, graph.node(m).label)
                            }
                    stream = streams[stream_key] = [
                        tuple(sorted(match.items()))
                        for match in execute_over_pools(
                            pattern, graph, pools, restrict=restrict
                        )
                    ]
                else:
                    sink.incr("matching.sigma.stream_reuse")
                for key in stream:
                    if key in seen:
                        continue
                    seen.add(key)
                    failed = evaluate_match(graph, ged, dict(key))
                    if failed:
                        found.append((dep_index, Violation(ged, key, failed)))
    return found


__all__ = [
    "TaggedViolation",
    "ball_levels",
    "delta_violations",
    "pattern_distances",
    "pattern_radius",
]
