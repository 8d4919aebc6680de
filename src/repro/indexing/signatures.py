"""1-hop neighborhood label signatures.

A node's *out-signature* is the set of ``(edge label, neighbor node
label)`` pairs over its out-edges; the *in-signature* is the analogue
over in-edges.  Signatures compress the 1-hop neighborhood to what the
matcher's label semantics can see: a homomorphism sending pattern
variable ``u`` to node ``v`` maps every pattern edge ``(u, ι, u′)`` to a
graph edge ``(v, ι′, w)`` with ``ι ≼ ι′`` and ``L_Q(u′) ≼ L(w)`` — so
``v`` must carry an out-pair admitting ``(ι, L_Q(u′))``.  That is a
*necessary* condition only (several pattern edges may need distinct
witnesses), which is exactly what candidate pruning is allowed to use.

Under *additive* updates (node labels are immutable, edges and
attributes only added) signatures never shrink, so maintenance is a
pure set-insert patch.  Deletions can shrink them — a pair disappears
only when its last witnessing edge does — so the maintenance layer
recomputes the signatures of deletion-dirtied endpoints from the graph
(:meth:`~repro.indexing.indexed_graph.GraphIndexes.refresh_adjacency`),
still O(degree) work confined to the update's neighborhood.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from functools import lru_cache

from repro.graph.graph import Graph
from repro.patterns.labels import WILDCARD
from repro.patterns.pattern import Pattern

#: One signature entry: ``(edge label, neighbor node label)``.
NeighborPair = tuple[str, str]


def node_out_signature(graph: Graph, node_id: str) -> set[NeighborPair]:
    """The out-signature of ``node_id``, computed from scratch."""
    return {
        (label, graph.node(target).label) for (_, label, target) in graph.out_edges(node_id)
    }


def node_in_signature(graph: Graph, node_id: str) -> set[NeighborPair]:
    """The in-signature of ``node_id``, computed from scratch."""
    return {
        (label, graph.node(source).label) for (source, label, _) in graph.in_edges(node_id)
    }


@lru_cache(maxsize=4096)
def pattern_requirements(
    pattern: Pattern, variable: str
) -> tuple[tuple[NeighborPair, ...], tuple[NeighborPair, ...]]:
    """The (out, in) signature requirements ``variable`` imposes.

    Each requirement is a ``(edge label, neighbor label)`` pair, either
    of which may be :data:`WILDCARD`; a candidate node must carry an
    admitting pair in the corresponding direction for every requirement.
    Memoized per (pattern, variable): patterns are immutable, and the
    streaming delta kernel probes the same pair for every pinned node.
    """
    out_reqs = tuple(
        (edge_label, pattern.label_of(target)) for edge_label, target in pattern.out_edges(variable)
    )
    in_reqs = tuple(
        (edge_label, pattern.label_of(source)) for edge_label, source in pattern.in_edges(variable)
    )
    return out_reqs, in_reqs


def admits(
    pairs: Collection[NeighborPair],
    neighbor_labels: Collection[str],
    edge_labels: Collection[str],
    requirement: NeighborPair,
) -> bool:
    """Whether a signature admits one ``(edge label, neighbor label)``
    requirement under ``≼``.

    ``pairs`` is the full signature; ``neighbor_labels`` / ``edge_labels``
    are its two projections, kept separately so the three wildcard shapes
    resolve with O(1) set probes instead of a scan.
    """
    edge_label, neighbor_label = requirement
    if edge_label == WILDCARD and neighbor_label == WILDCARD:
        return bool(pairs)
    if edge_label == WILDCARD:
        return neighbor_label in neighbor_labels
    if neighbor_label == WILDCARD:
        return edge_label in edge_labels
    return (edge_label, neighbor_label) in pairs


def admits_all(
    pairs: Collection[NeighborPair],
    neighbor_labels: Collection[str],
    edge_labels: Collection[str],
    requirements: Iterable[NeighborPair],
) -> bool:
    """``admits`` over every requirement (empty requirements pass)."""
    return all(admits(pairs, neighbor_labels, edge_labels, req) for req in requirements)


__all__ = [
    "NeighborPair",
    "admits",
    "admits_all",
    "node_in_signature",
    "node_out_signature",
    "pattern_requirements",
]
