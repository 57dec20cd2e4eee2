"""Answers known independently of the code under test.

Nothing here imports `posgames`: the checks read only the plain input data
(vertex count and edge pairs) so a defect in the package cannot hide itself
by also corrupting its own reference.
"""

from __future__ import annotations

from typing import Optional, Sequence


def closed_hoods(n: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    """Closed neighbourhood bit masks of a simple graph."""
    hoods = [1 << v for v in range(n)]
    for u, v in edges:
        hoods[u] |= 1 << v
        hoods[v] |= 1 << u
    return hoods


def tree_offer_value(n: int, edges: Sequence[tuple[int, int]]) -> Optional[int]:
    """Closed form of the offer domination game on a tree: n/2 rounds (and
    claimed vertices) when the tree has a perfect matching, otherwise no win.

    A tree has a perfect matching exactly when matching every still-free
    vertex to its still-free parent, leaves first, matches everything.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    order = [0]
    seen = [False] * n
    seen[0] = True
    for u in order:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
    matched = [False] * n
    for v in reversed(order):
        p = parent[v]
        if not matched[v] and p >= 0 and not matched[p]:
            matched[v] = matched[p] = True
    return n // 2 if all(matched) else None


def _bits(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def minimal_dominating_sets(n: int, edges: Sequence[tuple[int, int]]) -> set[int]:
    """Every inclusion-minimal dominating set, by include/exclude search.

    A branch is cut when a vertex can no longer be dominated, or when a chosen
    vertex has lost every private vertex (a vertex of its closed neighbourhood
    dominated by nothing else); further choices only dominate more, so neither
    condition can be undone.  A dominating set in which every chosen vertex
    keeps a private vertex is exactly a minimal one.
    """
    hoods = closed_hoods(n, edges)
    full = (1 << n) - 1
    found: set[int] = set()

    def rec(i: int, chosen: int, once: int, twice: int) -> None:
        for v in _bits(chosen):
            if not hoods[v] & ~twice:
                return
        if i == n:
            if once == full:
                found.add(chosen)
            return
        later = full >> (i + 1) << (i + 1)
        if all(hoods[u] & later for u in _bits(hoods[i] & ~once)):
            rec(i + 1, chosen, once, twice)
        h = hoods[i]
        rec(i + 1, chosen | (1 << i), once | h, twice | (once & h))

    rec(0, 0, 0, 0)
    return found


def is_minimal_dominating(hoods: Sequence[int], dset: int) -> bool:
    """Does dset dominate, and does dropping any one vertex break that?"""
    full = (1 << len(hoods)) - 1

    def dominated(mask: int) -> int:
        acc = 0
        for v in _bits(mask):
            acc |= hoods[v]
        return acc

    if dset & ~full or dominated(dset) != full:
        return False
    return all(dominated(dset & ~(1 << v)) != full for v in _bits(dset))
