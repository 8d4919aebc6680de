"""Incremental validation under graph updates.

Validation is the workhorse of GED-based cleaning, and production
graphs change continuously.  Re-validating from scratch after every
update wastes the coNP-ish match enumeration on the unchanged part of
the graph; but a GED violation introduced by an update must involve a
*changed element* — a new/updated node or an endpoint of a new edge —
in the image of its match (matches that existed before and avoided the
changed elements evaluated exactly the same before the update, and the
update cannot change their literal values).

:func:`apply_update` applies a validated batch of node/edge/attribute
additions and deletions (see :mod:`repro.graph.update` for the batch
semantics); :func:`incremental_violations` then enumerates, per
dependency, only the matches that touch the changed nodes (by pinning
each pattern variable to each changed node in turn), deduplicates, and
evaluates X → Y on those.  The result equals "new violations introduced
by the update" (violations already present before may of course also
touch changed nodes and be re-reported; callers diff against their
ledger).  The delta argument extends to deletions: removing an edge or
node only destroys matches, and removing an attribute only changes
literal values at the touched node — so every *introduced* violation
still has a touched element in its image, and every *retired* one is
found by re-checking exactly the ledger entries whose embedding meets
the touched set.

This one-shot helper keeps the callers-diff contract; the maintained,
delta-emitting service built on the same argument — exact introduced
*and* retired sets per batch — is :class:`repro.streaming.ViolationLedger`.

This realizes the "practical special cases" direction of the paper's
conclusion in the engineering sense: same semantics, work proportional
to the update's neighborhood.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.deps.ged import GED
from repro.graph.graph import Graph
from repro.graph.update import GraphUpdate
from repro.matching.homomorphism import find_homomorphisms
from repro.reasoning.validation import Violation, evaluate_match


def apply_update(graph: Graph, update: GraphUpdate) -> Graph:
    """Apply the update in place (returns the same graph for chaining).

    The whole batch is validated up front (see
    :func:`repro.graph.update.validate_update`): a bad element raises
    :class:`~repro.errors.GraphError` before anything mutates, so the
    graph is never left half-updated.  Index-aware: when a synced
    :mod:`repro.indexing` index is attached to the graph, the batch is
    routed through the index maintenance layer so the index is patched
    in place (dirty-region work proportional to the batch) instead of
    going stale.  Deletions (``del_nodes`` / ``del_edges`` /
    ``del_attrs``) are applied first, additions second — and either way
    the graph's mutation counter advances, retiring any warm
    :mod:`repro.engine` pool whose broadcast snapshot predates the
    batch.
    """
    from repro.indexing.maintenance import apply_update_indexed

    return apply_update_indexed(graph, update)


def incremental_violations(
    graph: Graph,
    sigma: Iterable[GED],
    update: GraphUpdate,
    limit: int | None = None,
) -> list[Violation]:
    """Violations whose match touches the update (post-application).

    ``graph`` must already have the update applied.  Sound and complete
    for *newly introduced* violations: any match that avoids all
    touched nodes existed, with identical literal values, before the
    update.
    """
    from repro.reasoning.validation import x_literal_restrictions

    touched = update.touched_nodes()
    violations: list[Violation] = []
    seen: set[tuple[int, tuple[tuple[str, str], ...]]] = set()
    for index, ged in enumerate(sigma):
        restrict = x_literal_restrictions(graph, ged)
        for variable in ged.pattern.variables:
            for node_id in touched:
                if not graph.has_node(node_id):
                    continue
                for match in find_homomorphisms(
                    ged.pattern, graph, fixed={variable: node_id}, restrict=restrict
                ):
                    key = (index, tuple(sorted(match.items())))
                    if key in seen:
                        continue
                    seen.add(key)
                    failed = evaluate_match(graph, ged, match)
                    if failed:
                        violations.append(
                            Violation(ged, tuple(sorted(match.items())), failed)
                        )
                        if limit is not None and len(violations) >= limit:
                            return violations
    return violations
