"""Frozen, linear-time input generators for the benchmark.

Everything here is seeded from the benchmark's ``--seed`` and depends
only on the standard library's ``random.Random``, so the inputs of a
seed never change when the program's own ``repro.workloads`` module is
edited.  Graphs are emitted directly in the flat-array layout that
``repro.graph.io.graph_from_arrays`` reads (interned ``pool`` plus
integer columns), so building the input costs O(n + m) and loading it
is the program's own work.

* :func:`gnp_arrays` — directed G(n, p) with geometric skips
  (Batagelj & Brandes, "Efficient generation of large random networks",
  Phys. Rev. E 71, 2005): O(n + m) instead of n² coin flips.
* :func:`overlapping_arrays` — a regular user/item/shop graph whose
  three rule skeletons share their enumeration prefix (the Σ-DAG case).
* :class:`ChurnStream` — update batches in O(1) expected time per
  operation, every batch valid against the graph it follows.
"""

from __future__ import annotations

import math
import random
from array import array

NODE_LABELS = ("user", "item", "shop")
EDGE_LABELS = ("buys", "sells", "rates")
ATTR_VALUES = (1, 2, 3)


class _Arrays:
    """Accumulates one graph in the ``graph_to_arrays`` layout."""

    def __init__(self) -> None:
        self.pool: list = []
        self._slot: dict = {}
        self.columns = {
            name: array("I")
            for name in (
                "node_ids",
                "node_labels",
                "attr_node",
                "attr_name",
                "attr_value",
                "edge_src",
                "edge_label",
                "edge_dst",
            )
        }

    def intern(self, value) -> int:
        key = (type(value), value)
        slot = self._slot.get(key)
        if slot is None:
            slot = self._slot[key] = len(self.pool)
            self.pool.append(value)
        return slot

    def node(self, node_id: str, label: str, attrs: dict) -> int:
        position = len(self.columns["node_ids"])
        self.columns["node_ids"].append(self.intern(node_id))
        self.columns["node_labels"].append(self.intern(label))
        for name, value in attrs.items():
            self.columns["attr_node"].append(position)
            self.columns["attr_name"].append(self.intern(name))
            self.columns["attr_value"].append(self.intern(value))
        return position

    def edge(self, src: int, label: str, dst: int) -> None:
        self.columns["edge_src"].append(src)
        self.columns["edge_label"].append(self.intern(label))
        self.columns["edge_dst"].append(dst)

    def result(self) -> dict:
        return {"pool": self.pool, **self.columns}


def _gnp_attrs(rng: random.Random) -> dict:
    attrs = {}
    for name in ("score", "region"):
        if rng.random() < 0.8:
            attrs[name] = rng.choice(ATTR_VALUES)
    return attrs


def gnp_arrays(n: int, avg_degree: float, seed: int) -> dict:
    """Directed G(n, p) over the n(n-1) ordered pairs without loops.

    ``p`` is chosen so the expected total (in + out) degree is
    ``avg_degree``.  Node labels and edge labels are uniform over
    :data:`NODE_LABELS` / :data:`EDGE_LABELS`; each node carries
    ``score`` and ``region`` in {1, 2, 3} with probability 0.8 each.
    """
    rng = random.Random(seed)
    out = _Arrays()
    for i in range(n):
        out.node(f"n{i}", rng.choice(NODE_LABELS), _gnp_attrs(rng))
    pairs = n * (n - 1)
    p = min(1.0, avg_degree / (2 * max(1, n - 1)))
    if p <= 0.0 or pairs == 0:
        return out.result()
    log_q = math.log(1.0 - p) if p < 1.0 else None
    index = -1
    while True:
        if log_q is None:
            index += 1
        else:
            # Geometric skip: the gap to the next present pair.
            index += 1 + int(math.log(1.0 - rng.random()) / log_q)
        if index >= pairs:
            break
        src, offset = divmod(index, n - 1)
        dst = offset if offset < src else offset + 1
        out.edge(src, rng.choice(EDGE_LABELS), dst)
    return out.result()


def overlapping_arrays(n: int, seed: int) -> dict:
    """A regular user/item/shop graph with shared rule skeletons.

    About n/6 users, n/3 items and the rest shops.  Every user buys
    three items and rates one shop; a floor then gives every item a
    buyer and a seller and every shop a sale and a rating, each drawn
    independently so few ``tri`` skeletons close.  ``tier`` is 1 on
    about 90% of nodes, so most matches satisfy their rule.
    """
    rng = random.Random(seed)
    out = _Arrays()
    n_users = max(2, n // 6)
    n_items = max(2, n // 3)
    n_shops = max(2, n - n_users - n_items)

    def attrs() -> dict:
        return {
            "score": rng.randint(1, 3),
            "region": rng.randint(1, 3),
            "tier": 1 if rng.random() < 0.9 else 2,
        }

    users = [out.node(f"u{i}", "user", attrs()) for i in range(n_users)]
    items = [out.node(f"i{i}", "item", attrs()) for i in range(n_items)]
    shops = [out.node(f"s{i}", "shop", attrs()) for i in range(n_shops)]
    seen: set = set()

    def connect(src: int, label: str, dst: int) -> None:
        if (src, label, dst) not in seen:
            seen.add((src, label, dst))
            out.edge(src, label, dst)

    for user in users:
        for item in rng.sample(items, min(3, n_items)):
            connect(user, "buys", item)
        connect(user, "rates", rng.choice(shops))
    for item in items:
        connect(rng.choice(shops), "sells", item)
        connect(rng.choice(users), "buys", item)
    for shop in shops:
        connect(shop, "sells", rng.choice(items))
        connect(rng.choice(users), "rates", shop)
    return out.result()


def overlapping_rules() -> list:
    """Literal variants over three shared skeletons (edge ⊂ path ⊂ tri).

    24 tri rules, 2 path rules and 1 edge rule (27), all with an empty
    X and a ``tier`` literal in Y.
    """
    from repro.deps.ged import GED
    from repro.deps.literals import ConstantLiteral, VariableLiteral
    from repro.patterns.pattern import Pattern

    edge = Pattern({"u": "user", "i": "item"}, [("u", "buys", "i")])
    path = Pattern(
        {"u": "user", "i": "item", "s": "shop"}, [("u", "buys", "i"), ("s", "sells", "i")]
    )
    tri = Pattern(
        {"u": "user", "i": "item", "s": "shop"},
        [("u", "buys", "i"), ("s", "sells", "i"), ("u", "rates", "s")],
    )
    rules = []
    for variant in range(24):
        if variant % 2:
            tri_y = VariableLiteral("i", "tier", "s", "tier")
        else:
            tri_y = ConstantLiteral("i" if variant % 4 else "u", "tier", 1)
        rules.append(GED(tri, [], [tri_y], name=f"tri-tier-{variant}"))
        if variant < 2:
            if variant % 2:
                path_y = VariableLiteral("u", "tier", "s", "tier")
            else:
                path_y = ConstantLiteral("s", "tier", 1)
            rules.append(GED(path, [], [path_y], name=f"path-tier-{variant}"))
        if variant < 1:
            rules.append(
                GED(edge, [], [ConstantLiteral("i", "tier", 1)], name=f"edge-tier-{variant}")
            )
    return rules


def bounded_rules() -> list:
    """Three small rules with three distinct patterns (little sharing)."""
    from repro.deps.ged import GED
    from repro.deps.literals import ConstantLiteral, VariableLiteral
    from repro.patterns.pattern import Pattern

    buys = Pattern({"u": "user", "i": "item"}, [("u", "buys", "i")])
    sells = Pattern({"s": "shop", "i": "item"}, [("s", "sells", "i")])
    item = Pattern({"i": "item"})
    return [
        GED(
            buys,
            [ConstantLiteral("i", "score", 3)],
            [VariableLiteral("u", "region", "i", "region")],
            name="same-region-for-top-items",
        ),
        GED(
            sells,
            [ConstantLiteral("s", "region", 1)],
            [ConstantLiteral("i", "region", 1)],
            name="region-1-shops-sell-region-1-items",
        ),
        GED(
            item,
            [ConstantLiteral("i", "score", 1)],
            [VariableLiteral("i", "region", "i", "region")],
            name="low-score-items-have-region",
        ),
    ]


class _Bag:
    """A set with O(1) add, remove and uniform random choice."""

    def __init__(self, items=()) -> None:
        self.items: list = []
        self.where: dict = {}
        for item in items:
            self.add(item)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item) -> bool:
        return item in self.where

    def add(self, item) -> None:
        if item not in self.where:
            self.where[item] = len(self.items)
            self.items.append(item)

    def remove(self, item) -> None:
        position = self.where.pop(item)
        last = self.items.pop()
        if position < len(self.items):
            self.items[position] = last
            self.where[last] = position

    def choice(self, rng: random.Random):
        return self.items[int(rng.random() * len(self.items))]


class ChurnStream:
    """Update batches over a graph given in flat arrays.

    Each batch has ``batch_size`` operations; each operation is a
    deletion with probability ``delete_fraction`` (edge 50%, attribute
    30%, node 20%) and otherwise an addition (edge 47%, attribute write
    44%, node with one wiring edge 9%).  The mix keeps node and edge
    counts roughly stable at average degree 4.  A shadow of ids, edges
    and attributes with O(1) random choice makes every operation O(1)
    expected time (a node deletion costs its degree), and every batch
    is valid, in order, against the graph the previous batches left.
    The shadow's per-node edge and attribute collections are dicts, not
    sets: a node deletion walks them, and a set of strings would walk in
    an order that changes with the process's hash seed.
    """

    def __init__(self, arrays: dict, seed: int, batch_size: int, delete_fraction: float):
        self.rng = random.Random(seed)
        self.batch_size = batch_size
        self.delete_fraction = delete_fraction
        pool = arrays["pool"]
        ids = [pool[slot] for slot in arrays["node_ids"]]
        self.label = {
            node_id: pool[slot] for node_id, slot in zip(ids, arrays["node_labels"])
        }
        self.nodes = _Bag(ids)
        self.attrs = _Bag(
            (ids[node], pool[name])
            for node, name in zip(arrays["attr_node"], arrays["attr_name"])
        )
        self.attr_names: dict[str, dict] = {}
        for node_id, name in self.attrs.items:
            self.attr_names.setdefault(node_id, {})[name] = None
        self.edges = _Bag()
        self.incident: dict[str, dict] = {}
        for src, label, dst in zip(arrays["edge_src"], arrays["edge_label"], arrays["edge_dst"]):
            self._add_edge((ids[src], pool[label], ids[dst]))
        self.counter = 0

    def _add_edge(self, edge) -> None:
        self.edges.add(edge)
        self.incident.setdefault(edge[0], {})[edge] = None
        self.incident.setdefault(edge[2], {})[edge] = None

    def _drop_edge(self, edge) -> None:
        self.edges.remove(edge)
        for end in (edge[0], edge[2]):
            incident = self.incident.get(end)
            if incident is not None:
                incident.pop(edge, None)

    def _drop_attr(self, node_id: str, name: str) -> None:
        self.attrs.remove((node_id, name))
        self.attr_names[node_id].pop(name, None)

    def batch(self):
        """The next batch as a ``repro.graph.GraphUpdate``."""
        from repro.graph.update import GraphUpdate

        rng = self.rng
        deletions = sum(rng.random() < self.delete_fraction for _ in range(self.batch_size))
        del_edges, del_attrs, del_nodes = [], [], []
        for _ in range(deletions):
            kind = rng.random()
            if kind < 0.5 and len(self.edges):
                edge = self.edges.choice(rng)
                self._drop_edge(edge)
                del_edges.append(edge)
            elif kind < 0.8 and len(self.attrs):
                node_id, name = self.attrs.choice(rng)
                self._drop_attr(node_id, name)
                del_attrs.append((node_id, name))
            elif len(self.nodes) > 2:
                node_id = self.nodes.choice(rng)
                self.nodes.remove(node_id)
                for edge in list(self.incident.pop(node_id, ())):
                    self._drop_edge(edge)
                for name in list(self.attr_names.pop(node_id, ())):
                    self.attrs.remove((node_id, name))
                del_nodes.append(node_id)
        nodes, attrs, edges = [], [], []
        for _ in range(self.batch_size - deletions):
            kind = rng.random()
            if kind < 0.09:
                self.counter += 1
                node_id = f"c{self.counter}"
                label = rng.choice(NODE_LABELS)
                node_attrs = _gnp_attrs(rng)
                other = self.nodes.choice(rng)
                self.nodes.add(node_id)
                self.label[node_id] = label
                for name in node_attrs:
                    self.attrs.add((node_id, name))
                self.attr_names[node_id] = dict.fromkeys(node_attrs)
                nodes.append((node_id, label, node_attrs))
                edge = (node_id, rng.choice(EDGE_LABELS), other)
                if rng.random() < 0.5:
                    edge = (other, edge[1], node_id)
                self._add_edge(edge)
                edges.append(edge)
            elif kind < 0.56:
                src = self.nodes.choice(rng)
                dst = self.nodes.choice(rng)
                edge = (src, rng.choice(EDGE_LABELS), dst)
                if src != dst and edge not in self.edges:
                    self._add_edge(edge)
                    edges.append(edge)
            else:
                node_id = self.nodes.choice(rng)
                name = rng.choice(("score", "region"))
                self.attrs.add((node_id, name))
                self.attr_names.setdefault(node_id, {})[name] = None
                attrs.append((node_id, name, rng.choice(ATTR_VALUES)))
        return GraphUpdate(nodes, edges, attrs, del_nodes, del_edges, del_attrs)

    def batches(self, count: int) -> list:
        return [self.batch() for _ in range(count)]
