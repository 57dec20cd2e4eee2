"""Small graph and hypergraph generators used by suites and tests."""

from __future__ import annotations

import heapq
import random
from itertools import combinations
from typing import Iterator

from .boards import Hypergraph, SimpleGraph, _check_board_size, graph_new, hypergraph_new
from .errors import BoardError


def path_graph(n: int) -> SimpleGraph:
    _check_board_size(n)
    return graph_new(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise BoardError("cycles need at least 3 vertices")
    _check_board_size(n)
    return graph_new(n, [(i, (i + 1) % n) for i in range(n)])


def random_tree(n: int, rng: random.Random) -> SimpleGraph:
    """Uniform labelled tree by decoding a random Pruefer sequence."""
    if n <= 0:
        raise BoardError("a tree needs at least one vertex")
    _check_board_size(n)
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


def _tree_code(adj: list[list[int]]) -> str:
    """The Aho-Hopcroft-Ullman code of the tree rooted at its centre, the
    smaller of the two codes when it has two centres."""
    degree = [len(a) for a in adj]
    layer = [v for v, d in enumerate(degree) if d <= 1]
    left = len(adj)
    while left > 2:  # strip the leaves layer by layer down to the centre
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    return min(code(c, -1) for c in layer)


def all_trees(n: int) -> Iterator[SimpleGraph]:
    """Every tree on n vertices up to isomorphism, one each.

    The trees on k vertices are those on k - 1 vertices with one leaf added
    at each vertex in turn, one kept per code.  Exact: removing a leaf from
    a tree on k >= 2 vertices leaves a tree on k - 1 vertices, isomorphic to
    one kept, and adding the leaf back at the image of its neighbour gives a
    copy of the first tree; so every tree on k vertices is grown.  Two trees
    are isomorphic iff their codes are equal: an isomorphism maps centres to
    centres, the AHU code of a rooted tree determines it up to rooted
    isomorphism, and taking the smaller code over the (at most two) centres
    makes it independent of the labels.
    """
    if n < 1:
        return
    trees: list[list[tuple[int, int]]] = [[]]
    for k in range(2, n + 1):
        kept: dict[str, list[tuple[int, int]]] = {}
        for edges in trees:
            adj: list[list[int]] = [[] for _ in range(k)]
            for u, v in edges:
                adj[u].append(v)
                adj[v].append(u)
            for v in range(k - 1):
                adj[v].append(k - 1)
                adj[k - 1] = [v]
                kept.setdefault(_tree_code(adj), edges + [(v, k - 1)])
                adj[v].pop()
        trees = list(kept.values())
    for edges in trees:
        yield graph_new(n, edges)


def random_graph(n: int, p: float, rng: random.Random) -> SimpleGraph:
    """Each of the n(n-1)/2 pairs is an edge with probability p."""
    if not 0 <= p <= 1:
        raise BoardError(f"edge probability must lie in [0, 1], got {p}")
    _check_board_size(n)
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return graph_new(n, edges)


def random_hypergraph(
    n: int,
    max_edges: int,
    rng: random.Random,
    max_edge_size: int = 0,
) -> Hypergraph:
    """Random small board: up to max_edges random subsets as winning sets."""
    top = max_edge_size or n
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        size = rng.randint(1, max(1, top))
        edges.append(rng.sample(range(n), min(size, n)))
    return hypergraph_new(n, edges)
