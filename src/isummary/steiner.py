"""Desk-scale node-weighted Steiner machinery used to sanity-check summary quality.

Holds the exact reference solver (exhaustive over node subsets, so capped at
16 nodes), the cheapest-insertion approximation that the greedy summarizer
mirrors, and the max-weight-to-min-cost normalization connecting the two
readings of the problem.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

from .rng import XorShift64Star

EXACT_NODE_LIMIT = 16

# Size caps of random_instance, well inside the exact solver's reach.
RANDOM_MAX_NODES = 12
RANDOM_MAX_K = 6


class Infeasible(Exception):
    """No connected subset of the requested size contains all terminals."""


class SizeLimit(Exception):
    """Instance too large for the exhaustive solver."""


class Disconnected(Exception):
    """A target node cannot be reached from the growing tree."""


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with a finite, non-negative preference weight per node."""

    weights: tuple[float, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        n = len(self.weights)
        if not all(0 <= w < math.inf for w in self.weights):
            raise ValueError("node weights must be finite and non-negative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")

    @property
    def node_count(self) -> int:
        return len(self.weights)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for neighbors in adj:
            neighbors.sort()
        return adj


@dataclass(frozen=True)
class SteinerInstance:
    graph: WeightedGraph
    terminals: frozenset[int]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        if not self.terminals:
            raise ValueError("at least one terminal is required")
        if any(not (0 <= t < self.graph.node_count) for t in self.terminals):
            raise ValueError("terminal id out of range")
        if not (len(self.terminals) <= self.k <= self.graph.node_count):
            raise ValueError("need |terminals| <= k <= node count")


@dataclass(frozen=True)
class Tree:
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def normalize_to_min_cost(graph: WeightedGraph, terminals) -> WeightedGraph:
    """Affinely map weights onto [0, 1], flip them into costs, zero the terminals.

    The top-weight node gets cost 0 and the bottom-weight node cost 1 (all
    zeros when the weights are uniform), so maximizing subset weight at a
    fixed size is the same as minimizing subset cost.
    """
    if graph.node_count == 0:
        raise ValueError("graph must have at least one node")
    lo = min(graph.weights)
    hi = max(graph.weights)
    if hi == lo:
        costs = [0.0] * graph.node_count
    else:
        costs = [1.0 - (w - lo) / (hi - lo) for w in graph.weights]
    for t in terminals:
        costs[t] = 0.0
    return WeightedGraph(tuple(costs), graph.edges)


def _spanning_tree(graph: WeightedGraph, subset: tuple[int, ...]) -> Tree | None:
    """Deterministic BFS spanning tree of the induced subgraph, or None."""
    members = set(subset)
    adj = graph.adjacency()
    root = subset[0]
    parent = {root: None}
    order = [root]
    queue = [root]
    while queue:
        node = queue.pop(0)
        for nb in adj[node]:
            if nb in members and nb not in parent:
                parent[nb] = node
                order.append(nb)
                queue.append(nb)
    if len(parent) != len(members):
        return None
    edges = tuple((parent[v], v) for v in order[1:])
    return Tree(tuple(subset), edges)


def exact_solve(instance: SteinerInstance) -> Tree:
    """Reference optimum: best connected k-subset containing the terminals.

    Maximizes total node weight; ties fall to the lexicographically least
    node set (a spanning tree of a fixed k-set always has k-1 edges, so the
    smallest-tree tie level never discriminates here).
    """
    graph = instance.graph
    if graph.node_count > EXACT_NODE_LIMIT:
        raise SizeLimit(f"exhaustive solver is capped at {EXACT_NODE_LIMIT} nodes")
    terminals = tuple(sorted(instance.terminals))
    others = [v for v in range(graph.node_count) if v not in instance.terminals]
    need = instance.k - len(terminals)

    best_subset = None
    best_weight = None
    for combo in itertools.combinations(others, need):
        subset = tuple(sorted(terminals + combo))
        tree = _spanning_tree(graph, subset)
        if tree is None:
            continue
        weight = sum(graph.weights[v] for v in subset)
        if (
            best_weight is None
            or weight > best_weight
            or (weight == best_weight and subset < best_subset)
        ):
            best_subset, best_weight = subset, weight
    if best_subset is None:
        raise Infeasible("no connected subset of size k contains every terminal")
    return _spanning_tree(graph, best_subset)


def _cheapest_paths(graph: WeightedGraph, costs, tree_nodes: set[int]):
    """Node-cost Dijkstra from the tree as a whole; new nodes pay their cost."""
    adj = graph.adjacency()
    dist = {v: 0.0 for v in tree_nodes}
    parent: dict[int, int | None] = {v: None for v in tree_nodes}
    heap = [(0.0, v) for v in sorted(tree_nodes)]
    heapq.heapify(heap)
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for nb in adj[node]:
            step = 0.0 if nb in tree_nodes else costs[nb]
            nd = d + step
            if nb not in dist or nd < dist[nb]:
                dist[nb] = nd
                parent[nb] = node
                heapq.heappush(heap, (nd, nb))
    return dist, parent


def chins(instance: SteinerInstance, costs) -> Tree:
    """Cheapest-insertion approximation under the given node costs.

    Targets are the terminals plus the k-|terminals| cheapest other nodes;
    starting from the first terminal, the nearest not-yet-included target is
    attached through its cheapest path, repeatedly.  Ties break by node id.
    """
    graph = instance.graph
    if len(costs) != graph.node_count:
        raise ValueError("cost vector length mismatch")
    terminals = sorted(instance.terminals)
    extra = sorted(
        (v for v in range(graph.node_count) if v not in instance.terminals),
        key=lambda v: (costs[v], v),
    )[: instance.k - len(terminals)]
    targets = set(terminals) | set(extra)

    tree_nodes = {terminals[0]}
    tree_edges: list[tuple[int, int]] = []
    remaining = targets - tree_nodes
    while remaining:
        dist, parent = _cheapest_paths(graph, costs, tree_nodes)
        reachable = [v for v in sorted(remaining) if v in dist]
        if not reachable:
            raise Disconnected("a target node is unreachable from the tree")
        nearest = min(reachable, key=lambda v: (dist[v], v))
        path = [nearest]
        while path[-1] not in tree_nodes:
            path.append(parent[path[-1]])
        for child, parent_node in zip(path, path[1:]):
            tree_nodes.add(child)
            tree_edges.append((parent_node, child))
        remaining = targets - tree_nodes
    return Tree(tuple(sorted(tree_nodes)), tuple(tree_edges))


def tree_cost(costs, tree: Tree) -> float:
    return sum(costs[v] for v in tree.nodes)


def read_instance(path) -> SteinerInstance:
    """Parse the whitespace-separated fixture format: n m t k, weights, edges,
    terminals.  A malformed file raises ValueError."""
    tokens = Path(path).read_text(encoding="utf-8").split()
    pos = 0

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise ValueError("the file ends early")
        value = tokens[pos]
        pos += 1
        return value

    n, m, t, k = (int(take()) for _ in range(4))
    weights = tuple(float(take()) for _ in range(n))
    edges = tuple((int(take()), int(take())) for _ in range(m))
    terminals = frozenset(int(take()) for _ in range(t))
    if pos != len(tokens):
        raise ValueError("trailing tokens after the terminals")
    return SteinerInstance(WeightedGraph(weights, edges), terminals, k)


def random_instance(rng: XorShift64Star, extra_edge_rate: float = 0.35) -> SteinerInstance:
    """Random connected instance: attachment tree plus extra edges, U[0,1] weights."""
    n = 4 + rng.randrange(RANDOM_MAX_NODES - 3)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_rate:
                edges.add((u, v))
    weights = tuple(rng.random() for _ in range(n))
    lam = 1 + rng.randrange(min(3, RANDOM_MAX_K))
    terminals = frozenset(rng.sample(range(n), lam))
    k_cap = min(RANDOM_MAX_K, n)
    k = lam + rng.randrange(k_cap - lam + 1) if k_cap > lam else lam
    return SteinerInstance(WeightedGraph(weights, tuple(sorted(edges))), terminals, k)
