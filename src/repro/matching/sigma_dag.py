"""Σ-DAG compilation: compile the dependency *set* once, share pattern
prefixes across every rule.

Dependency sets are not independent rules: real Σ share subpatterns —
the same shape-and-label skeleton with different attribute literals —
yet a per-rule :class:`~repro.matching.plan.MatchPlan` re-enumerates
the shared scan/extend prefix once per rule.  This module merges the
compiled plans of a pattern set into one **shared plan DAG**:

* each pattern's cost-ordered step prefix (scan / extend / edge-check /
  self-loop — attr-filters excluded, they are per-rule) is
  canonicalized and merged into a **trie of shared interior nodes**
  over the interned :class:`~repro.matching.view.GraphView` slots.  Two
  steps merge iff their effective candidate pool (a frozenset of
  slots), their canonicalized edge-check set, and their self-loop set
  are all equal — which, by induction along the trie path, guarantees
  the shared node computes the *identical* candidate list every merged
  rule would have computed on its own;
* per-rule work hangs off the shared spine as **leaves**: a leaf marks
  the depth where its pattern's variables are fully bound, carrying the
  pattern's own binding order and runtime ``limit``.  Attr-filter
  pools (``restrict``) enter through
  :meth:`~repro.matching.plan.MatchPlan.prepare` exactly as they do for
  a solo run, so a restricted rule simply diverges from the shared
  spine at the first depth where its pools differ — sharing happens
  precisely where it is sound, never where it is not;
* the trie runs through the plan walker
  (:func:`~repro.matching.plan._walk`) — the one that runs every solo
  plan as a one-leaf chain — expanding every shared frame once and
  emitting each leaf's match stream **byte-identical** to the leaf's
  standalone ``MatchPlan.matches`` run (the differential suite
  ``tests/matching/test_sigma_dag.py`` asserts this across backends,
  ±index, under ``fixed`` / ``restrict`` / ``limit``).

Compiled DAGs live beside the per-pattern plans in the view's weak
id-keyed registry (:func:`compile_sigma` is cached per (deduped pattern
tuple, index attachment) and invalidated wholesale when the graph
version moves).  Engine workers get the same DAG for free: the
broadcast snapshot already ships every pattern's compiled pools through
the ``install_plan`` channel, and restoring workers re-link them into
the worker-side Σ-DAG without recomputing candidate sets.

When do per-rule plans still win?  When rules share no prefix (every
root is private, the trie is a forest of chains — the DAG degenerates
to the per-rule plans plus bookkeeping) and when a caller wants a
bounded scan of a *single* rule (``validates`` stops at the first
violation; batching other rules' work into that walk would do strictly
more work than the solo plan).  Both paths keep using ``compile_plan``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.errors import PatternError
from repro.graph.graph import Graph
from repro.indexing.registry import get_index
from repro.matching.plan import (
    FrameProgram,
    Match,
    MatchPlan,
    PlanStep,
    _frame,
    _Observer,
    _walk,
    compile_plan,
)
from repro.matching.view import GraphView, get_view
from repro.patterns.pattern import Pattern
from repro.telemetry import metrics as _metrics


@dataclass(frozen=True)
class SigmaQuery:
    """One per-rule request against a compiled :class:`SigmaDag`.

    ``pattern`` must be one of the DAG's compiled patterns; ``fixed`` /
    ``restrict`` / ``limit`` carry the same per-run semantics as
    :meth:`~repro.matching.plan.MatchPlan.matches`.
    """

    pattern: Pattern
    fixed: Mapping[str, str] | None = None
    restrict: Mapping[str, "set[str] | frozenset[str]"] | None = None
    limit: int | None = None


class _Trie(FrameProgram):
    """One built trie: shared steps plus per-leaf spine paths, and the
    pools of every step (by ``idx``) fixed at build time."""

    __slots__ = ("pools_sorted", "pools_set")

    def __init__(self, roots, nodes, leaf_paths, live, width, pools_sorted, pools_set):
        super().__init__(roots, nodes, leaf_paths, live, width)
        self.pools_sorted = pools_sorted
        self.pools_set = pools_set


def _canon(items) -> tuple:
    """Checks or self-loop labels in a canonical order (set semantics:
    the walker intersects all rows, so reordering cannot change the
    stream).  ``repr`` orders ``None`` (the wildcard) and labels alike."""
    return tuple(sorted(items, key=repr))


def _build_trie(prepared: "Sequence[tuple | None]") -> _Trie:
    """Merge prepared per-rule chains into a trie of shared steps.

    ``prepared[i]`` is leaf *i*'s ``MatchPlan.prepare`` result (or
    ``None`` for a statically-empty stream, which is simply left out).
    Two steps merge iff their pool, their canonical checks and their
    canonical self-loops are equal; a merged step keeps the first
    rule's check order.
    """
    roots: list[PlanStep] = []
    root_index: dict = {}
    nodes: list[PlanStep] = []
    child_index: list[dict] = []
    pools_sorted: list = []
    pools_set: list = []
    leaf_paths: list[tuple[int, ...]] = []
    live: list[int] = []
    for leaf_id, prep in enumerate(prepared):
        if prep is None:
            leaf_paths.append(())
            continue
        order, chain, run_sorted, run_set = prep
        level_index, level_list = root_index, roots
        node = None
        path: list[int] = []
        for step in chain.nodes:
            pool = run_set[step.idx]
            key = (pool, _canon(step.checks), _canon(step.self_loops))
            node = level_index.get(key)
            if node is None:
                node = PlanStep(
                    len(nodes), step.depth, step.variable, step.checks, step.self_loops
                )
                nodes.append(node)
                child_index.append({})
                pools_sorted.append(run_sorted[step.idx])
                pools_set.append(pool)
                level_index[key] = node
                level_list.append(node)
            node.leaf_ids.append(leaf_id)
            path.append(node.idx)
            level_index, level_list = child_index[node.idx], node.children
        node.completions.setdefault(order, []).append(leaf_id)
        leaf_paths.append(tuple(path))
        live.append(leaf_id)
    width = max((node.depth for node in nodes), default=-1) + 1
    return _Trie(roots, nodes, leaf_paths, live, width, pools_sorted, pools_set)


class SigmaDag:
    """A pattern set compiled against one graph view as a shared trie.

    Build via :func:`compile_sigma` (cached on the view).  ``patterns``
    is the deduplicated tuple; every walk entry point addresses
    rules by *query* (:class:`SigmaQuery`) or, for the common
    whole-set case, by pattern position.
    """

    __slots__ = (
        "view",
        "indexed",
        "patterns",
        "plans",
        "_pattern_index",
        "_default",
        "observed",
    )

    def __init__(
        self,
        view: GraphView,
        indexed: bool,
        patterns: tuple[Pattern, ...],
        plans: tuple[MatchPlan, ...],
    ):
        self.view = view
        self.indexed = indexed
        self.patterns = patterns
        self.plans = plans
        self._pattern_index = {pattern: i for i, pattern in enumerate(patterns)}
        self._default: _Trie | None = None
        #: Observed execution totals per default-trie node idx —
        #: ``[frames, candidates, probes]`` — accumulated across
        #: telemetry-enabled whole-set runs (``explain(observed=True)``).
        self.observed: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    def _default_trie(self) -> _Trie:
        """The whole-set trie (no fixed/restrict): built once, reused by
        every unparameterized execution and by ``counts``."""
        trie = self._default
        if trie is None:
            trie = self._default = _build_trie(
                [plan.prepare() for plan in self.plans]
            )
        return trie

    def _queries(self, queries) -> list[SigmaQuery]:
        if queries is None:
            return [SigmaQuery(pattern) for pattern in self.patterns]
        out = []
        for query in queries:
            if query.pattern not in self._pattern_index:
                raise PatternError(
                    "query pattern is not compiled into this Σ-DAG"
                )
            out.append(query)
        return out

    # ------------------------------------------------------------------
    def iter_matches(self, queries=None) -> Iterator[tuple[int, Match]]:
        """Enumerate ``(query_index, match)`` pairs down the shared trie.

        Each query's match subsequence is byte-identical to its solo
        ``plan.matches(fixed=..., restrict=..., limit=...)`` stream.
        Emitted dicts may be shared between queries whose binding
        orders coincide — treat them as read-only (every in-repo
        consumer does; they copy into sorted item tuples).
        """
        queries = self._queries(queries)
        default = all(
            q.fixed is None and q.restrict is None for q in queries
        ) and [q.pattern for q in queries] == list(self.patterns)
        if default:
            trie = self._default_trie()
        else:
            trie = _build_trie(
                [
                    self.plans[self._pattern_index[q.pattern]].prepare(
                        q.fixed, q.restrict
                    )
                    for q in queries
                ]
            )
        limits = [q.limit for q in queries]
        sink = _metrics.sink()
        sink.incr("matching.sigma.executions")
        sink.incr("matching.sigma.leaves", len(trie.live))
        sink.incr("matching.sigma.spines", len(trie.roots))
        observer = None
        if sink.enabled:
            target = self.observed if trie is self._default else None
            observer = _Observer(target, sigma=True)
        try:
            yield from _walk(
                trie,
                trie.pools_sorted,
                trie.pools_set,
                self.view.row_set,
                self.view.node_of.__getitem__,
                limits,
                observer,
            )
        finally:
            if observer is not None:
                observer.flush(_metrics.sink())

    def execute(self, queries=None) -> list[list[Match]]:
        """All match streams, one list per query (whole set by default)."""
        queries = self._queries(queries)
        streams: list[list[Match]] = [[] for _ in queries]
        for index, match in self.iter_matches(queries):
            streams[index].append(match)
        return streams

    # ------------------------------------------------------------------
    def counts(self) -> list[int]:
        """Match counts per pattern, one whole-set walk.

        Counting skips match materialization entirely: a trie node with
        no children completes every rule that reaches it, so the walk
        adds ``len(candidates)`` per completing rule instead of
        iterating images — the dominant cost of count-driven consumers
        (discovery support counting) at the deepest shared level.
        """
        trie = self._default_trie()
        result = [0] * len(self.patterns)
        sink = _metrics.sink()
        sink.incr("matching.sigma.executions")
        sink.incr("matching.sigma.leaves", len(trie.live))
        sink.incr("matching.sigma.spines", len(trie.roots))
        observer = _Observer(self.observed, sigma=True) if sink.enabled else None
        pools_sorted, pools_set = trie.pools_sorted, trie.pools_set
        row_set = self.view.row_set
        assign = [0] * trie.width

        def tally(step: PlanStep, count: int) -> None:
            for leaf_ids in step.completions.values():
                for leaf_id in leaf_ids:
                    result[leaf_id] += count

        try:
            for root in trie.roots:
                images = _frame(root, pools_sorted, pools_set, row_set, assign, observer)
                if not images:
                    continue
                if not root.children:
                    tally(root, len(images))
                    continue
                stack = [[root, images, 0, len(root.children)]]
                while stack:
                    frame = stack[-1]
                    step = frame[0]
                    children = step.children
                    child_pos = frame[3]
                    if child_pos < len(children):
                        frame[3] = child_pos + 1
                        child = children[child_pos]
                        below = _frame(
                            child, pools_sorted, pools_set, row_set, assign, observer
                        )
                        if not below:
                            continue
                        if child.children:
                            stack.append([child, below, 0, len(child.children)])
                        else:
                            # Leaf level: every rule reaching this step
                            # completes here — count without iterating.
                            tally(child, len(below))
                        continue
                    if frame[2] >= len(frame[1]):
                        stack.pop()
                        continue
                    assign[step.depth] = frame[1][frame[2]]
                    frame[2] += 1
                    frame[3] = 0
                    if step.completions:
                        tally(step, 1)
        finally:
            if observer is not None:
                observer.flush(_metrics.sink())
        return result

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Static shape of the whole-set trie (tests / explain / CLI)."""
        trie = self._default_trie()
        per_rule_steps = sum(
            len(self.plans[leaf_id].program.nodes) for leaf_id in trie.live
        )
        shared = sum(1 for node in trie.nodes if len(node.leaf_ids) > 1)
        return {
            "patterns": len(self.patterns),
            "nodes": len(trie.nodes),
            "roots": len(trie.roots),
            "leaves": len(trie.live),
            "shared_nodes": shared,
            "per_rule_steps": per_rule_steps,
            "steps_saved": per_rule_steps - len(trie.nodes),
        }

    def explain(self, observed: bool = False) -> str:
        """A stable rendering of the shared spine with per-leaf
        attribution.

        Shared interior nodes print once with their sharing multiplicity
        (``shared by k rule(s)``); each rule's completion point prints a
        leaf line.  With ``observed=True``, nodes additionally show the
        frames/candidates telemetry-enabled whole-set runs accumulated,
        and each leaf shows how many expanded frames on its spine were
        reused from other rules rather than re-expanded.
        """
        trie = self._default_trie()
        shape = self.stats()
        view = self.view
        lines = [
            f"Σ-DAG for {shape['patterns']} pattern(s) — "
            f"view: {view.num_nodes} node(s), {view.num_edges} edge(s), "
            f"{'indexed' if self.indexed else 'unindexed'} pools",
            f"shared spine: {shape['nodes']} node(s) for "
            f"{shape['per_rule_steps']} per-rule step(s) "
            f"({shape['steps_saved']} saved), {shape['roots']} root(s), "
            f"{shape['shared_nodes']} shared node(s)",
        ]

        def render(node: PlanStep, indent: str) -> None:
            head = (
                f"{indent}{node.kind} {node.variable} — pool "
                f"{len(trie.pools_sorted[node.idx])} candidate(s)"
            )
            if node.checks:
                head += f" ∩ {len(node.checks)} row check(s)"
            if node.self_loops:
                head += f"; self-loop check({len(node.self_loops)})"
            if len(node.leaf_ids) > 1:
                head += f"  [shared by {len(node.leaf_ids)} rule(s)]"
            if observed:
                totals = self.observed.get(node.idx)
                if totals is None:
                    head += "  [obs. not executed]"
                else:
                    frames, produced, probes = totals
                    mean = produced / frames if frames else 0.0
                    head += (
                        f"  [obs. {frames} frame(s), ~{mean:.1f}/frame, "
                        f"{probes} row probe(s)]"
                    )
            lines.append(head)
            for order, leaf_ids in node.completions.items():
                for leaf_id in leaf_ids:
                    leaf_line = (
                        f"{indent}  leaf #{leaf_id + 1}: "
                        f"Q[{', '.join(order)}]"
                    )
                    if observed:
                        reused = sum(
                            self.observed.get(idx, (0,))[0]
                            for idx in trie.leaf_paths[leaf_id]
                            if len(trie.nodes[idx].leaf_ids) > 1
                        )
                        leaf_line += f"  [obs. {reused} shared frame(s) on spine]"
                    lines.append(leaf_line)
            for child in node.children:
                render(child, indent + "  ")

        for root in trie.roots:
            render(root, "  ")
        if observed and not self.observed:
            lines.append(
                "  (no observed execution — run with telemetry enabled first)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SigmaDag({len(self.patterns)} pattern(s), indexed={self.indexed})"
        )


# ----------------------------------------------------------------------
# Registry entry points (cached beside compile_plan on the view)
# ----------------------------------------------------------------------


def compile_sigma(graph: Graph, patterns: Iterable[Pattern]) -> SigmaDag:
    """The Σ-DAG for a pattern set — cached on the graph's current view,
    keyed by (deduplicated pattern tuple, index attachment), and
    invalidated wholesale when the graph version moves.

    Per-pattern plans come from :func:`compile_plan`, so the DAG shares
    (and warms) the same plan cache every other consumer uses —
    including engine workers, whose plans arrive pre-compiled through
    the snapshot broadcast.
    """
    view = get_view(graph)
    indexed = get_index(graph) is not None
    deduped = tuple(dict.fromkeys(patterns))
    key = (deduped, indexed)
    dag = view.sigma_dags.get(key)
    if dag is None:
        plans = tuple(compile_plan(graph, pattern) for pattern in deduped)
        dag = SigmaDag(view, indexed, deduped, plans)
        view.sigma_dags[key] = dag
        view.sigma_compiles += 1
        _metrics.sink().incr("matching.sigma.compiles")
    else:
        _metrics.sink().incr("matching.sigma.cache_hits")
    return dag


def count_sigma(graph: Graph, patterns: "Sequence[Pattern]") -> list[int]:
    """Match counts for a pattern sequence as one Σ-DAG pass.

    Returns counts in *input* order (duplicates allowed — they share
    one leaf).  Equal, pattern for pattern, to
    ``[count_matches(p, graph) for p in patterns]``.
    """
    patterns = list(patterns)
    if not patterns:
        return []
    dag = compile_sigma(graph, patterns)
    per_leaf = dag.counts()
    index = dag._pattern_index
    return [per_leaf[index[pattern]] for pattern in patterns]


__all__ = [
    "SigmaDag",
    "SigmaQuery",
    "compile_sigma",
    "count_sigma",
]
