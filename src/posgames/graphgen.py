"""Small graph and hypergraph generators used by suites and tests."""

from __future__ import annotations

import heapq
import random
from itertools import combinations
from typing import Iterator

from .boards import Hypergraph, SimpleGraph, graph_new, hypergraph_new
from .errors import BoardError


def path_graph(n: int) -> SimpleGraph:
    return graph_new(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise BoardError("cycles need at least 3 vertices")
    return graph_new(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> SimpleGraph:
    return graph_new(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_tree(n: int, rng: random.Random) -> SimpleGraph:
    """Uniform labelled tree by decoding a random Pruefer sequence."""
    if n <= 0:
        raise BoardError("a tree needs at least one vertex")
    if n == 1:
        return graph_new(1, [])
    if n == 2:
        return graph_new(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return graph_new(n, edges)


def all_trees(n: int) -> Iterator[SimpleGraph]:
    """Every tree on n vertices up to isomorphism."""
    import networkx as nx

    if n == 1:
        yield graph_new(1, [])
        return
    if n == 2:
        yield graph_new(2, [(0, 1)])
        return
    for t in nx.nonisomorphic_trees(n):
        yield graph_new(n, list(t.edges()))


def random_graph(n: int, p: float, rng: random.Random) -> SimpleGraph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return graph_new(n, edges)


def random_hypergraph(
    n: int,
    max_edges: int,
    rng: random.Random,
    min_edge_size: int = 1,
    max_edge_size: int = 0,
) -> Hypergraph:
    """Random small board: up to max_edges random subsets as winning sets."""
    top = max_edge_size or n
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        size = rng.randint(min_edge_size, max(min_edge_size, top))
        edges.append(rng.sample(range(n), min(size, n)))
    return hypergraph_new(n, edges)
