"""Plan-compiled pattern matching: compile once, execute many.

The seed matcher re-derived everything per call: candidate sets from
scratch, ``sorted(candidates[variable])`` inside every backtracking
frame, successor-set copies for every edge check.  This module splits
that work into three reusable layers:

* a **frame program** — per variable-order chain of steps
  (:class:`PlanStep`: scan / extend-forward / extend-backward /
  edge-check / self-loop-check), memoized per ``(pattern, order)``
  since patterns are immutable and shared across dependencies;
* a **:class:`MatchPlan`** — the program bound to one
  :class:`~repro.matching.view.GraphView`: candidate pools materialized
  once as sorted interned slot tuples (plus frozensets for C-speed
  intersection), the default variable order chosen by the cost model,
  and per-step cost estimates for ``explain``;
* the **walker** (:func:`_walk`) — an explicit-stack enumerator over a
  forest of steps whose per-frame candidates (:func:`_frame`) come
  from intersecting the step's pool with the adjacency rows of
  already-bound neighbors (smallest operand first), instead of
  scanning the pool and probing every edge per candidate.  A solo plan
  is a one-leaf chain; :mod:`repro.matching.sigma_dag` runs a whole
  dependency set as one trie through the same walker.

**Byte-identity.**  The walker yields exactly the seed matcher's
stream: canonical interning makes ascending slot order equal ascending
node-id order, the variable order is the same cost ranking the seed
used (candidate cardinality, then pattern degree, then name — see
:func:`repro.matching.candidates.order_for_sizes`), and row-membership
is equivalent to the seed's per-candidate edge checks.  The
differential suite (``tests/matching/test_plan_equivalence.py``)
asserts this byte for byte, with and without an index, under ``fixed``
/ ``restrict`` / ``limit``.

**Cost model.**  Pool cardinalities come from the same index-backed
pruner the seed consulted; extension fan-outs come from
:func:`repro.indexing.stats.matching_cost_profile` (per-label degree
counters when an index is attached, one edge scan otherwise).  Because
the emitted order is part of the public contract, the cost model ranks
variables with the seed's own key; its estimates additionally annotate
every step for ``cli explain`` and order nothing that could change the
stream.

Runtime parameters (``fixed`` / ``restrict``) shrink candidate pools
and therefore the order: :meth:`MatchPlan.matches` re-ranks variables
from the *effective* pool sizes — a cheap O(k²) pass — while reusing
the expensive artifacts (interning, CSR rows, materialized pools).
``restrict`` is the plan vocabulary's **attr-filter** step: the
validation layer derives those pools from X-literals via the attribute
inverted index and the walker intersects them in before the search.

:func:`execute_over_pools` walks the same chain for callers that bring
their own candidate pools over a *mutating* graph (the streaming delta
kernel's pattern-radius balls): only the row provider differs —
adjacency rows come straight from the graph's internal per-label sets,
so no O(|G|) view build is paid per batch.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Mapping
from functools import lru_cache

from repro.errors import PatternError
from repro.graph.graph import Graph
from repro.indexing.registry import get_index
from repro.indexing.stats import MatchCostProfile, matching_cost_profile
from repro.matching.candidates import candidate_sets, order_for_sizes
from repro.matching.view import GraphView, get_view
from repro.patterns.labels import WILDCARD
from repro.patterns.pattern import Pattern
from repro.telemetry import metrics as _metrics

Match = dict[str, str]

_EMPTY: tuple = ()


# ----------------------------------------------------------------------
# Frame programs (graph-independent; a solo chain is memoized per
# (pattern, order))
# ----------------------------------------------------------------------


class PlanStep:
    """One frame of a frame program: bind ``variable`` at ``depth``.

    ``checks`` empty — a **scan** over the step's pool; ``checks``
    non-empty — an **extend** (forward and/or backward): the pool is
    intersected with the adjacency row named by every ``(out_dir,
    label, depth)`` check — the successors (``out_dir``) or predecessors
    of the image bound at ``depth``, ``label=None`` being the wildcard
    row.  ``self_loops`` lists the labels of ``(v, ι, v)`` pattern
    edges, verified per candidate against its own successor row.

    Steps form a forest: ``children`` are expanded under every image
    bound here, ``completions`` maps a binding order to the leaves (match
    streams) complete once this step is bound, and ``leaf_ids`` lists
    every leaf whose path runs through the step.  ``idx`` indexes the
    per-run pools.  A solo plan is a one-leaf chain
    (:func:`_steps_for`); a Σ-DAG is a trie of many
    (:mod:`repro.matching.sigma_dag`).
    """

    __slots__ = (
        "idx",
        "depth",
        "variable",
        "checks",
        "self_loops",
        "children",
        "completions",
        "leaf_ids",
    )

    def __init__(self, idx, depth, variable, checks, self_loops):
        self.idx = idx
        self.depth = depth
        self.variable = variable
        self.checks: tuple[tuple[bool, str | None, int], ...] = checks
        self.self_loops: tuple[str | None, ...] = self_loops
        self.children: list[PlanStep] = []
        self.completions: dict[tuple[str, ...], list[int]] = {}
        self.leaf_ids: list[int] = []

    @property
    def kind(self) -> str:
        return "extend" if self.checks else "scan"


class FrameProgram:
    """What the walker executes: ``roots`` of a step forest, every step
    by ``idx`` in ``nodes``, each leaf's step path in ``leaf_paths``,
    the leaves actually present in ``live``, and ``width`` — the number
    of binding depths."""

    __slots__ = ("roots", "nodes", "leaf_paths", "live", "width")

    def __init__(self, roots, nodes, leaf_paths, live, width):
        self.roots = roots
        self.nodes = nodes
        self.leaf_paths = leaf_paths
        self.live = live
        self.width = width


@lru_cache(maxsize=4096)
def _steps_for(pattern: Pattern, order: tuple[str, ...]) -> FrameProgram:
    """The one-leaf chain for one binding order (cached — this is the
    program cache the streaming delta kernel hits once per dependency,
    not once per pinned node)."""
    depth_of = {variable: depth for depth, variable in enumerate(order)}
    steps: list[PlanStep] = []
    for depth, variable in enumerate(order):
        checks: list[tuple[bool, str | None, int]] = []
        loops: list[str | None] = []
        for label, target in pattern.out_edges(variable):
            wire = None if label == WILDCARD else label
            if target == variable:
                loops.append(wire)
            elif depth_of[target] < depth:
                # Edge v -> t with t bound: candidate ∈ pred(image_t).
                checks.append((False, wire, depth_of[target]))
        for label, source in pattern.in_edges(variable):
            if source == variable:
                continue  # self-loop already covered via out_edges
            if depth_of[source] < depth:
                # Edge s -> v with s bound: candidate ∈ succ(image_s).
                wire = None if label == WILDCARD else label
                checks.append((True, wire, depth_of[source]))
        step = PlanStep(depth, depth, variable, tuple(checks), tuple(loops))
        step.leaf_ids.append(0)
        if steps:
            steps[-1].children.append(step)
        steps.append(step)
    steps[-1].completions[order] = [0]
    return FrameProgram(steps[:1], tuple(steps), (tuple(range(len(steps))),), (0,), len(steps))


# ----------------------------------------------------------------------
# The walker (every match stream: solo plans, pool mode, Σ-DAGs)
# ----------------------------------------------------------------------


class _Observer:
    """Per-run frame accounting, created only when telemetry is on.

    Accumulates locally (plain ints and one local histogram — no sink
    traffic inside the enumeration) and flushes once per run: global
    counters ``plan.frames_expanded`` / ``plan.candidates_produced`` /
    ``plan.intersections`` and the ``plan.frame_candidates`` size
    histogram for every run; the ``matching.sigma.*`` counters for a
    Σ-DAG walk (``sigma=True``); and the per-step ``observed`` totals
    ``explain`` renders into ``target`` — keyed by variable for a plan,
    by trie node for a Σ-DAG.

    ``frames_saved`` counts, for every expanded frame, the leaves that
    did *not* have to expand it themselves: a frame at a step merged
    across *m* rules stands in for *m* per-rule frames but was expanded
    once, saving ``m - 1``.
    """

    __slots__ = ("per_step", "sizes", "target", "sigma", "_counts", "_bounds")

    def __init__(self, target: dict | None = None, sigma: bool = False):
        self.per_step: dict[PlanStep, list[int]] = {}
        self.sizes = _metrics.Histogram(_metrics.DEFAULT_BOUNDS)
        self.target = target
        self.sigma = sigma
        # Hot-path locals: only the bucket increment happens per frame;
        # the histogram's sum/count are derivable from the per-step
        # totals and patched in at flush time.
        self._counts = self.sizes.counts
        self._bounds = self.sizes.bounds

    def frame(self, step: PlanStep, produced: int, probes: int) -> None:
        entry = self.per_step.get(step)
        if entry is None:
            self.per_step[step] = [1, produced, probes]
        else:
            entry[0] += 1
            entry[1] += produced
            entry[2] += probes
        self._counts[bisect_left(self._bounds, produced)] += 1

    def flush(self, sink) -> None:
        per_step = self.per_step
        if not per_step:
            return
        frames = produced = probes = saved = 0
        for step, (expanded, made, probed) in per_step.items():
            frames += expanded
            produced += made
            probes += probed
            saved += expanded * (len(step.leaf_ids) - 1)
        sink.incr("plan.frames_expanded", frames)
        sink.incr("plan.candidates_produced", produced)
        sink.incr("plan.intersections", probes)
        self.sizes.count = frames
        self.sizes.sum = produced
        sink.merge_histogram("plan.frame_candidates", self.sizes)
        if self.sigma:
            sink.incr("matching.sigma.frames_expanded", frames)
            sink.incr("matching.sigma.frames_saved", saved)
            sink.incr("matching.sigma.candidates_produced", produced)
            sink.incr("matching.sigma.intersections", probes)
        target = self.target
        if target is not None:
            for step, entry in per_step.items():
                key = step.idx if self.sigma else step.variable
                totals = target.get(key)
                if totals is None:
                    target[key] = list(entry)
                else:
                    totals[0] += entry[0]
                    totals[1] += entry[1]
                    totals[2] += entry[2]


def _frame(step, pools_sorted, pools_set, row_set, assign, observer):
    """The ascending candidate images of one frame.

    ``pools_sorted[step.idx]`` / ``pools_set[step.idx]`` hold the step's
    candidate pool for this run (ascending sequence + set); ``row_set
    (out_dir, label, image)`` returns an adjacency row as a set; images
    bound above are read from ``assign``.  An extend intersects the
    pool with every check's row, smallest operand first.
    """
    checks = step.checks
    if checks:
        operands = [pools_set[step.idx]]
        for out_dir, label, depth in checks:
            row = row_set(out_dir, label, assign[depth])
            if not row:
                if observer is not None:
                    # len(operands) == adjacency rows probed so far
                    # (the pool slot stands in for the failing row).
                    observer.frame(step, 0, len(operands))
                return _EMPTY
            operands.append(row)
        operands.sort(key=len)
        found = operands[0].intersection(*operands[1:])
        if step.self_loops:
            loops = step.self_loops
            found = [
                image
                for image in found
                if all(image in row_set(True, wire, image) for wire in loops)
            ]
        result = sorted(found)
        if observer is not None:
            observer.frame(step, len(result), len(checks))
        return result
    pool = pools_sorted[step.idx]
    if step.self_loops:
        loops = step.self_loops
        pool = [
            image
            for image in pool
            if all(image in row_set(True, wire, image) for wire in loops)
        ]
    if observer is not None:
        observer.frame(step, len(pool), 0)
    return pool


def _retire(program: FrameProgram, leaf_id: int, active):
    """Drop one finished leaf from the per-step live-leaf counts (built
    on the first call — runs that never finish a leaf early never pay
    for them)."""
    if active is None:
        active = [len(step.leaf_ids) for step in program.nodes]
    for idx in program.leaf_paths[leaf_id]:
        active[idx] -= 1
    return active


def _walk(program, pools_sorted, pools_set, row_set, to_id, limits, observer=None):
    """Enumerate ``(leaf_id, match)`` pairs down a frame program.

    An explicit stack of ``[step, images, image_pos, child_pos]``
    frames: binding an image at a step emits a match for every leaf
    completing there, then expands the step's children in order
    (``child_pos == len(children)`` requests the next image).  Each
    frame is computed once by :func:`_frame`, however many leaves share
    it.  Every leaf's subsequence is the seed matcher's exact stream
    for its binding order: ascending lexicographic order of the images.

    ``limits[leaf_id]`` caps one leaf's stream (``None``: unbounded).
    It is checked after each of the leaf's matches and after each
    fruitless descent into an empty frame on its path — the seed
    recursed into that frame, returned, and *then* checked its limit,
    which matters for a degenerate ``limit <= 0`` (the leaf stops there,
    before any match).  The walk ends when every leaf has finished.
    """
    remaining = len(program.live)
    assign = [0] * program.width
    emitted = [0] * len(limits)
    done = [False] * len(limits)
    active = None  # live leaves per step; built when a leaf finishes early
    for root in program.roots:
        if active is not None and not active[root.idx]:
            continue
        images = _frame(root, pools_sorted, pools_set, row_set, assign, observer)
        if not images:
            # An empty root frame: the seed returned without a limit
            # check, so no leaf finishes here.
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
                if active is not None and not active[child.idx]:
                    continue
                below = _frame(child, pools_sorted, pools_set, row_set, assign, observer)
                if below:
                    stack.append([child, below, 0, len(child.children)])
                    continue
                for leaf_id in child.leaf_ids:
                    limit = limits[leaf_id]
                    if limit is not None and not done[leaf_id] and emitted[leaf_id] >= limit:
                        done[leaf_id] = True
                        remaining -= 1
                        if not remaining:
                            return
                        active = _retire(program, leaf_id, active)
                continue
            images = frame[1]
            position = frame[2]
            if position >= len(images) or (active is not None and not active[step.idx]):
                stack.pop()
                continue
            frame[2] = position + 1
            frame[3] = 0
            assign[step.depth] = images[position]
            for order, leaf_ids in step.completions.items():
                match = None
                for leaf_id in leaf_ids:
                    if done[leaf_id]:
                        continue
                    if match is None:
                        # zip stops at len(order): the depths bound so far.
                        match = dict(zip(order, map(to_id, assign)))
                    emitted[leaf_id] += 1
                    yield leaf_id, match
                    limit = limits[leaf_id]
                    if limit is not None and emitted[leaf_id] >= limit:
                        done[leaf_id] = True
                        remaining -= 1
                        if not remaining:
                            return
                        active = _retire(program, leaf_id, active)


# ----------------------------------------------------------------------
# Compiled plans (pattern program × graph view × materialized pools)
# ----------------------------------------------------------------------


class MatchPlan:
    """A pattern compiled against one graph view.

    Build via :func:`compile_plan` (cached per view) — or, on engine
    workers, via :func:`install_plan` from a broadcast payload.
    """

    __slots__ = (
        "pattern",
        "view",
        "indexed",
        "pools_sorted",
        "pools_set",
        "order",
        "program",
        "profile",
        "observed",
        "_run",
    )

    def __init__(
        self,
        pattern: Pattern,
        view: GraphView,
        indexed: bool,
        pool_slots: Mapping[str, "list[int] | tuple[int, ...]"],
        profile: MatchCostProfile,
    ):
        self.pattern = pattern
        self.view = view
        self.indexed = indexed
        self.pools_sorted: dict[str, tuple[int, ...]] = {}
        self.pools_set: dict[str, frozenset[int]] = {}
        for variable in pattern.variables:
            slots = tuple(pool_slots[variable])
            self.pools_sorted[variable] = slots
            self.pools_set[variable] = frozenset(slots)
        sizes = {v: len(self.pools_sorted[v]) for v in pattern.variables}
        self.order: tuple[str, ...] = tuple(order_for_sizes(pattern, sizes))
        self.program: FrameProgram = _steps_for(pattern, self.order)
        self._run = (
            self.order,
            self.program,
            [self.pools_sorted[v] for v in self.order],
            [self.pools_set[v] for v in self.order],
        )
        self.profile = profile
        #: Observed execution totals per variable — ``[frames,
        #: candidates, probes]`` — accumulated across telemetry-enabled
        #: runs of this plan (``explain(observed=True)`` renders them).
        self.observed: dict[str, list[int]] = {}

    # ------------------------------------------------------------------
    def prepare(
        self,
        fixed: Mapping[str, str] | None = None,
        restrict: Mapping[str, "set[str] | frozenset[str]"] | None = None,
    ) -> "tuple[tuple[str, ...], FrameProgram, list, list] | None":
        """The effective execution state for one run.

        Applies ``fixed`` / ``restrict`` (slot translation, re-ranking
        from effective pool sizes) and returns ``(order, chain,
        pools_sorted, pools_set)`` — the binding order, its one-leaf
        chain, and the pools as lists indexed by step — or ``None`` when
        a pinned image cannot host its variable, i.e. the stream is
        empty.  :meth:`matches` walks the chain; the Σ-DAG merges the
        chains of many runs into its trie.
        """
        pattern = self.pattern
        view = self.view
        fixed_slots: dict[str, int] = {}
        if fixed:
            for variable, node_id in fixed.items():
                if not pattern.has_variable(variable):
                    raise PatternError(f"fixed variable {variable!r} is not in the pattern")
                slot = view.slot_of.get(node_id)
                if slot is None:
                    raise PatternError(f"fixed image {node_id!r} is not a node of the graph")
                fixed_slots[variable] = slot
        if not fixed_slots and not restrict:
            return self._run
        pools_set = dict(self.pools_set)
        if restrict:
            slot_of, node_of = view.slot_of, view.node_of
            for variable, pool in restrict.items():
                if not pattern.has_variable(variable):
                    raise PatternError(
                        f"restricted variable {variable!r} is not in the pattern"
                    )
                base = pools_set[variable]
                if len(pool) < len(base):
                    pools_set[variable] = frozenset(
                        slot
                        for node_id in pool
                        if (slot := slot_of.get(node_id)) is not None and slot in base
                    )
                else:
                    pools_set[variable] = frozenset(
                        slot for slot in base if node_of[slot] in pool
                    )
        for variable, slot in fixed_slots.items():
            if slot not in pools_set[variable]:
                return None  # The pinned node can never host this variable.
            pools_set[variable] = frozenset((slot,))
        sizes = {v: len(pools_set[v]) for v in pattern.variables}
        order = tuple(order_for_sizes(pattern, sizes))
        pools_sorted = [
            self.pools_sorted[v]
            if pools_set[v] is self.pools_set[v]
            else tuple(sorted(pools_set[v]))
            for v in order
        ]
        return order, _steps_for(pattern, order), pools_sorted, [pools_set[v] for v in order]

    def matches(
        self,
        fixed: Mapping[str, str] | None = None,
        restrict: Mapping[str, "set[str] | frozenset[str]"] | None = None,
        limit: int | None = None,
    ) -> Iterator[Match]:
        """Enumerate matches; same contract and stream as the seed
        matcher's ``fixed`` / ``restrict`` / ``limit`` parameters."""
        prepared = self.prepare(fixed, restrict)
        if prepared is None:
            return
        _, chain, pools_sorted, pools_set = prepared
        view = self.view
        observer = _Observer(self.observed) if _metrics.sink().enabled else None
        try:
            for _, match in _walk(
                chain,
                pools_sorted,
                pools_set,
                view.row_set,
                view.node_of.__getitem__,
                [limit],
                observer,
            ):
                yield match
        finally:
            if observer is not None:
                observer.flush(_metrics.sink())

    # ------------------------------------------------------------------
    def step_cost(self, depth: int) -> float:
        """Estimated candidates examined at one step (explain output)."""
        step = self.program.nodes[depth]
        pool = len(self.pools_sorted[step.variable])
        if not step.checks:
            return float(pool)
        fanouts = (self.profile.fanout(label) for _, label, _ in step.checks)
        return min([float(pool)] + [f for f in fanouts if f is not None])

    def explain(self, observed: bool = False) -> str:
        """A stable, human-readable rendering of the compiled plan.

        With ``observed=True``, each step additionally shows the actual
        execution totals telemetry-enabled runs accumulated — frames
        expanded, candidates produced (and the per-frame mean, directly
        comparable to the ``est. ~X/frame`` estimate), and adjacency
        rows probed.  The default rendering is byte-identical to what it
        was before observation existed.
        """
        view = self.view
        lines = [
            f"match plan for Q[{', '.join(self.pattern.variables)}] — "
            f"view: {view.num_nodes} node(s), {view.num_edges} edge(s), "
            f"{'indexed' if self.indexed else 'unindexed'} pools"
        ]
        order = self.order
        for depth, step in enumerate(self.program.nodes):
            pool = len(self.pools_sorted[step.variable])
            label = self.pattern.label_of(step.variable)
            head = (
                f"  step {depth + 1}: {step.kind} {step.variable} "
                f"[label {label}] — pool {pool} candidate(s)"
            )
            if step.checks:
                probes = ", ".join(
                    (
                        f"{order[at]} -[{label or '_'}]-> {step.variable}"
                        if out_dir
                        else f"{step.variable} -[{label or '_'}]-> {order[at]}"
                    )
                    for out_dir, label, at in step.checks
                )
                head += f" ∩ {{{probes}}}"
            if step.self_loops:
                loops = ", ".join(wire or "_" for wire in step.self_loops)
                head += f"; self-loop check({loops})"
            head += f"  [est. ~{self.step_cost(depth):.1f}/frame]"
            if observed:
                totals = self.observed.get(step.variable)
                if totals is None:
                    head += "  [obs. not executed]"
                else:
                    frames, produced, probed = totals
                    mean = produced / frames if frames else 0.0
                    head += (
                        f"  [obs. {frames} frame(s), ~{mean:.1f}/frame, "
                        f"{probed} row probe(s)]"
                    )
            lines.append(head)
        if observed and not self.observed:
            lines.append(
                "  (no observed execution — run with telemetry enabled first)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatchPlan({list(self.pattern.variables)!r}, order={list(self.order)!r}, "
            f"indexed={self.indexed})"
        )


def compile_plan(graph: Graph, pattern: Pattern) -> MatchPlan:
    """The compiled plan for ``(pattern, graph)`` — cached on the
    graph's current view, keyed by index attachment, and invalidated
    wholesale when the graph version moves (the view is replaced)."""
    view = get_view(graph)
    indexed = get_index(graph) is not None
    key = (pattern, indexed)
    plan = view.plans.get(key)
    if plan is None:
        pools = candidate_sets(pattern, graph)
        slot_of = view.slot_of
        pool_slots = {
            variable: sorted(slot_of[node_id] for node_id in pool)
            for variable, pool in pools.items()
        }
        plan = MatchPlan(pattern, view, indexed, pool_slots, _view_profile(view, graph))
        view.plans[key] = plan
        view.plan_compiles += 1
        _metrics.sink().incr("plan.compiles")
    else:
        _metrics.sink().incr("plan.cache_hits")
    return plan


def _view_profile(view: GraphView, graph: Graph) -> MatchCostProfile:
    """The view's cost profile, computed once per (graph, version) —
    not once per pattern (one full node+edge pass either way)."""
    profile = view.cost_profile
    if profile is None:
        profile = view.cost_profile = matching_cost_profile(graph)
    return profile


def install_plan(
    graph: Graph,
    pattern: Pattern,
    pool_slots: Mapping[str, "tuple[int, ...] | list[int]"],
) -> MatchPlan | None:
    """Install a coordinator-compiled plan from its broadcast pools.

    Engine workers call this while restoring a snapshot: the slots are
    valid verbatim because canonical interning assigns identical slots
    to identical node sets.  Returns ``None`` (and compiles lazily on
    first use instead) if the payload does not line up with the
    restored graph.
    """
    view = get_view(graph)
    n = view.num_nodes
    for pool in pool_slots.values():
        if any(slot >= n for slot in pool):
            return None
    indexed = get_index(graph) is not None
    plan = MatchPlan(pattern, view, indexed, pool_slots, _view_profile(view, graph))
    view.plans[(pattern, indexed)] = plan
    view.plan_installs += 1
    _metrics.sink().incr("plan.installs")
    return plan


# ----------------------------------------------------------------------
# Pool mode: caller-supplied candidates over a (possibly mutating) graph
# ----------------------------------------------------------------------


def _identity(value: str) -> str:
    return value


def _adjacency_rows(graph: Graph):
    """A ``row_set`` provider over the graph's own adjacency indexes.

    Labeled rows are the internal per-label sets (no copies); wildcard
    rows are unions built lazily and cached for the duration of one
    walk.
    """
    any_out: dict[str, set[str]] = {}
    any_in: dict[str, set[str]] = {}

    def row_set(out_dir: bool, label: str | None, node_id: str):
        if label is None:
            cache = any_out if out_dir else any_in
            row = cache.get(node_id)
            if row is None:
                row = graph.successors(node_id) if out_dir else graph.predecessors(node_id)
                cache[node_id] = row
            return row
        return graph.out_row(node_id, label) if out_dir else graph.in_row(node_id, label)

    return row_set


def execute_over_pools(
    pattern: Pattern,
    graph: Graph,
    candidates: Mapping[str, "set[str]"],
    fixed: Mapping[str, str] | None = None,
    restrict: Mapping[str, "set[str] | frozenset[str]"] | None = None,
    limit: int | None = None,
) -> Iterator[Match]:
    """Walk a pattern's chain over caller-supplied candidate pools.

    The same walker as :meth:`MatchPlan.matches` with a different row
    provider: no interning, no O(|G|) view build — the chain comes from
    the shared :func:`_steps_for` cache and adjacency rows from the
    graph's own indexes.  The streaming delta kernel uses it with
    pattern-radius ball pools so per-batch work stays proportional to
    the update's neighborhood.
    """
    fixed = dict(fixed) if fixed else {}
    for variable, node_id in fixed.items():
        if not pattern.has_variable(variable):
            raise PatternError(f"fixed variable {variable!r} is not in the pattern")
        if not graph.has_node(node_id):
            raise PatternError(f"fixed image {node_id!r} is not a node of the graph")
    pools: dict[str, set] = {
        variable: set(candidates[variable]) for variable in pattern.variables
    }
    if restrict:
        for variable, pool in restrict.items():
            if not pattern.has_variable(variable):
                raise PatternError(f"restricted variable {variable!r} is not in the pattern")
            pools[variable] = pools[variable] & pool
    for variable, node_id in fixed.items():
        if node_id not in pools[variable]:
            return  # The pinned node can never host this variable.
        pools[variable] = {node_id}
    sizes = {variable: len(pool) for variable, pool in pools.items()}
    order = tuple(order_for_sizes(pattern, sizes))
    pools_set = [pools[variable] for variable in order]
    observer = _Observer() if _metrics.sink().enabled else None
    try:
        for _, match in _walk(
            _steps_for(pattern, order),
            [sorted(pool) for pool in pools_set],
            pools_set,
            _adjacency_rows(graph),
            _identity,
            [limit],
            observer,
        ):
            yield match
    finally:
        if observer is not None:
            observer.flush(_metrics.sink())


def program_cache_info():
    """Hit/miss counters of the pattern-program cache (tests/stats)."""
    return _steps_for.cache_info()


__all__ = [
    "FrameProgram",
    "Match",
    "MatchPlan",
    "PlanStep",
    "compile_plan",
    "execute_over_pools",
    "install_plan",
    "program_cache_info",
]
