"""Graph domination: exact numbers, game reductions, residue, closed forms.

Domination games reduce to claiming/offer games on the hypergraph of
inclusion-minimal dominating sets (a contained dominating set always
contains a minimal one that is no larger, so win, round and size values
survive the reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bitset import iter_bits
from .boards import (
    Hypergraph,
    SimpleGraph,
    _canonical_edges,
    _check_board_size,
    induced_subgraph,
    minimal_transversals,
)
from .engine import Player
from .errors import BoardError, DegenerateTransversalError
from .solver import DEFAULT_MEMO_CAP, SolveResult, game_values, wc_game_values


def is_dominating(g: SimpleGraph, dset: int) -> bool:
    """Does every vertex lie in dset or next to it?"""
    if dset & ~((1 << g.n) - 1):
        raise BoardError("dominating-set candidate uses unknown vertices")
    return all(g.closed_neighborhood(v) & dset for v in range(g.n))


def domination_number(g: SimpleGraph) -> int:
    """Smallest dominating set size: a minimum dominating set is minimal, so
    the first set of `minimal_dominating_sets(g)`, whose canonical order is
    by size first, under its guard."""
    if g.n == 0:
        return 0  # the empty set dominates, and a board needs an element
    return minimal_dominating_sets(g).edges[0].bit_count()


def minimal_dominating_sets(g: SimpleGraph) -> Hypergraph:
    """Hypergraph of the inclusion-minimal dominating sets.

    Computed as the minimal transversals of the closed neighbourhoods.  The
    enumeration keeps no intermediate family, so large boards work as long as
    the output family stays within `boards.DEFAULT_FAMILY_CAP` sets;
    `GuardExceeded` is raised when it would not.  A graph with more vertices
    than a board holds raises `BoardError` before the enumeration starts,
    and the empty graph `DegenerateTransversalError`.
    """
    _check_board_size(g.n)
    if g.n == 0:
        raise DegenerateTransversalError(
            "the empty set dominates the empty graph, and a board edge cannot be empty"
        )
    hoods = [g.closed_neighborhood(v) for v in range(g.n)]
    masks = minimal_transversals(g.n, hoods)
    return Hypergraph(g.n, _canonical_edges(masks))


def dom_game_values(
    g: SimpleGraph,
    m: int,
    b: int,
    first: Player = Player.MAKER,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> SolveResult:
    """Values of the (m:b) claiming domination game; the Dominator claims."""
    return game_values(minimal_dominating_sets(g), m, b, first, memo_cap)


def dom_wc_values(g: SimpleGraph, memo_cap: int = DEFAULT_MEMO_CAP) -> SolveResult:
    """Values of the offer domination game; the Dominator offers."""
    return wc_game_values(minimal_dominating_sets(g), memo_cap)


@dataclass(frozen=True)
class ResidueReport:
    """Result of exhaustively peeling (leaf, degree-2 support) pairs."""

    residue: SimpleGraph
    removed_pairs: tuple[tuple[int, int], ...]
    kept: tuple[int, ...]  # original vertex ids surviving, in index order


def residue(g: SimpleGraph) -> ResidueReport:
    """Peel the lexicographically least qualifying (leaf, support) pair until
    none remains.  The result is independent of the order up to isomorphism;
    the fixed order makes runs reproducible."""
    adj = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    removed: list[tuple[int, int]] = []
    while True:
        pick = None
        for v in sorted(adj):
            if len(adj[v]) != 1:
                continue
            w = next(iter(adj[v]))
            if len(adj[w]) == 2:
                pick = (v, w)
                break
        if pick is None:
            break
        v, w = pick
        for x in (v, w):
            for y in list(adj[x]):
                if y in adj:
                    adj[y].discard(x)
        del adj[v]
        del adj[w]
        removed.append((v, w))
    kept = tuple(sorted(adj))
    return ResidueReport(induced_subgraph(g, kept), tuple(removed), kept)


def is_tree(g: SimpleGraph) -> bool:
    if g.n == 0:
        return False
    if len(g.edges) != g.n - 1:
        return False
    seen = {0}
    stack = [0]
    adj = g.adjacency
    while stack:
        u = stack.pop()
        mask = adj[u]
        while mask:
            bit = mask & -mask
            mask ^= bit
            v = bit.bit_length() - 1
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def has_perfect_matching(tree: SimpleGraph) -> bool:
    """Does the tree have a perfect matching?  Leaves up, an unmatched
    vertex can only be matched to its parent, and the root has none."""
    parent = {0: None}
    order = [0]
    for u in order:
        for bit in iter_bits(tree.adjacency[u]):
            v = bit.bit_length() - 1
            if v not in parent:
                parent[v] = u
                order.append(v)
    matched = set()
    for v in reversed(order):
        if v not in matched:
            if parent[v] is None or parent[v] in matched:
                return False
            matched.update((v, parent[v]))
    return True


def wc_tree_value(t: SimpleGraph) -> Optional[int]:
    """Closed-form offer-domination value on a tree: n/2 with a perfect
    matching, no win otherwise (None)."""
    if not is_tree(t):
        raise BoardError("input graph is not a tree")
    return t.n // 2 if has_perfect_matching(t) else None


def wc_cycle_value(n: int) -> int:
    """Closed-form offer-domination value on a cycle: floor(n/2)."""
    if n < 3:
        raise BoardError("cycles need at least 3 vertices")
    return n // 2
