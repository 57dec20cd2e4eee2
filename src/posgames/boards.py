"""Board types: hypergraphs, simple graphs, rooted directed multigraphs.

All three types are immutable after construction and serialize to small
explicit-index JSON documents:

    {"type": "hypergraph", "n": int, "edges": [[int, ...], ...], "labels": [...]?}
    {"type": "graph",      "n": int, "edges": [[int, int], ...]}
    {"type": "digraph",    "n": int, "arcs":  [[int, int], ...], "start": int, "end": int?}

A family document, `{"type": "family", "sets": [[int, ...], ...]}`, lists
element sets of a given board (the reduced-menu input of the solver).

Hyperedges are stored as bit masks (see bitset.py), deduplicated and kept in
a canonical order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Optional, Sequence

from .bitset import CAPACITY, indices_of, is_int, is_subset, mask_from_indices
from .errors import BoardError, DegenerateTransversalError, FormatError, GuardExceeded

SUBSET_COUNT_LIMIT = 10**6
DEFAULT_FAMILY_CAP = 200_000


def _check_board_size(n: int, exact: bool = True) -> None:
    """Refuse an element count `n` off [0, CAPACITY].  With `exact` False, n
    is only a lower bound on the board's size, and the message leaves it out."""
    if not is_int(n):
        raise BoardError(f"element count must be an integer, got {n!r}")
    if n < 0:
        raise BoardError(f"negative element count {n}")
    if n > CAPACITY:
        size = f" {n}" if exact else ""
        raise BoardError(f"board size{size} exceeds capacity {CAPACITY}")


@dataclass(frozen=True)
class Hypergraph:
    """A board of n elements with a family of winning sets (bit masks).

    Edges are non-empty subsets of [0, n), deduplicated, sorted by
    (size, mask value) for a canonical representation.
    """

    n: int
    edges: tuple[int, ...]
    labels: Optional[tuple[str, ...]] = None

    def edge_indices(self) -> list[list[int]]:
        return [indices_of(e) for e in self.edges]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph without loops or parallel edges.

    `edges` holds (u, v) pairs with u < v.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Per vertex, the mask of its neighbours; computed once, on first use."""
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    def closed_neighborhood(self, v: int) -> int:
        return self.adjacency[v] | (1 << v)


@dataclass(frozen=True)
class RootedDigraph:
    """Directed multigraph with a distinguished start and optional end vertex.

    As a game board its elements are the vertices followed by the arcs:
    vertex v is element v and arc j, in `arcs` order, is element nv + j.
    The masks and tables below read that layout; each is computed once per
    board, on first use.
    """

    nv: int
    arcs: tuple[tuple[int, int], ...]
    start: int
    end: Optional[int] = None

    @property
    def n_elements(self) -> int:
        """Vertices and arcs together form the playable element universe."""
        return self.nv + len(self.arcs)

    @cached_property
    def vertex_mask(self) -> int:
        """The vertex elements."""
        return (1 << self.nv) - 1

    @cached_property
    def arc_ends(self) -> tuple[tuple[int, int], ...]:
        """(element bit, mask of its two endpoints) of each arc, in arc order."""
        return tuple(
            (1 << (self.nv + j), (1 << u) | (1 << v)) for j, (u, v) in enumerate(self.arcs)
        )

    @cached_property
    def out_arcs(self) -> tuple[int, ...]:
        """Per vertex, the mask of its outgoing arc elements."""
        out = [0] * self.nv
        for (u, _v), (bit, _ends) in zip(self.arcs, self.arc_ends):
            out[u] |= bit
        return tuple(out)

    @cached_property
    def distances(self) -> tuple[tuple[Optional[int], ...], ...]:
        """All-pairs shortest directed path lengths: `distances[u][v]` is the
        fewest arcs on a path from u to v, None when v is unreachable."""
        succ: list[set[int]] = [set() for _ in range(self.nv)]
        for u, v in self.arcs:
            succ[u].add(v)
        dist: list[tuple[Optional[int], ...]] = []
        for s in range(self.nv):
            d: list[Optional[int]] = [None] * self.nv
            d[s] = 0
            frontier = [s]
            step = 0
            while frontier:
                step += 1
                nxt = []
                for u in frontier:
                    for v in succ[u]:
                        if d[v] is None:
                            d[v] = step
                            nxt.append(v)
                frontier = nxt
            dist.append(tuple(d))
        return tuple(dist)


def _canonical_edges(masks: Iterable[int]) -> tuple[int, ...]:
    """The distinct masks in (size, value) order: sorted by value, then by
    size, which keeps the value order among equal sizes (sorts are stable)."""
    out = sorted(set(masks))
    out.sort(key=int.bit_count)
    return tuple(out)


def hypergraph_new(
    n: int,
    edges: Sequence[Sequence[int]],
    labels: Optional[Sequence[str]] = None,
) -> Hypergraph:
    """Construct a canonical hypergraph from index lists.

    Duplicate edges collapse; empty edges and out-of-range indices are errors.
    """
    _check_board_size(n)
    return hypergraph_from_masks(n, [mask_from_indices(edge, n) for edge in edges], labels)


def hypergraph_from_masks(
    n: int, masks: Iterable[int], labels: Optional[Sequence[str]] = None
) -> Hypergraph:
    """Construct from masks: duplicate edges collapse; an empty edge, a bit
    past the board, or labels other than a list of n strings is an error."""
    _check_board_size(n)
    if labels is not None:
        if not isinstance(labels, (list, tuple)) or not all(isinstance(x, str) for x in labels):
            raise BoardError(f"labels must be a list of strings, got {labels!r}")
        if len(labels) != n:
            raise BoardError(f"expected {n} labels, got {len(labels)}")
    edges = _canonical_edges(masks)
    if edges:
        if not edges[0]:  # the empty set is the only mask of size 0
            raise BoardError("empty edge")
        if min(edges) < 0 or max(edges) >> n:
            raise BoardError("edge mask exceeds board size")
    return Hypergraph(n, edges, None if labels is None else tuple(labels))


def inclusion_minimal(masks: Sequence[int]) -> list[int]:
    """The inclusion-minimal members of a family of masks, each once, in the
    canonical (size, value) order of `_canonical_edges`."""
    kept: list[int] = []
    for m in _canonical_edges(masks):
        if not any(is_subset(k, m) for k in kept):
            kept.append(m)
    return kept


def minimalize(h: Hypergraph) -> Hypergraph:
    """Drop every edge that strictly contains another edge."""
    return Hypergraph(h.n, tuple(inclusion_minimal(h.edges)), h.labels)


def disjoint_union(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    """Place h2 after h1 on a fresh index range and merge the edge families."""
    n = h1.n + h2.n
    _check_board_size(n)
    shifted = [e << h1.n for e in h2.edges]
    labels = None
    if h1.labels is not None or h2.labels is not None:
        left = h1.labels or tuple(str(i) for i in range(h1.n))
        right = h2.labels or tuple(str(i) for i in range(h2.n))
        labels = left + right
    return Hypergraph(n, _canonical_edges(list(h1.edges) + shifted), labels)


def _family_full(family_cap: int) -> GuardExceeded:
    return GuardExceeded(f"transversal family exceeded cap {family_cap}")


def minimal_transversals(
    n: int, edge_masks: Sequence[int], family_cap: int = DEFAULT_FAMILY_CAP
) -> list[int]:
    """All inclusion-minimal sets meeting every edge, each listed once.

    Depth-first search with critical edges (the MMCS method of Murakami and
    Uno, "Efficient algorithms for dualizing large-scale hypergraphs",
    Discrete Applied Mathematics 170, 2014).  A node holds a chosen set S,
    the candidate elements that may still join it, and for each chosen
    element its critical edges: the edges that it alone in S hits.  The node
    picks an uncovered edge F with the fewest candidates and branches on each
    candidate v of F in index order, adding v to S.  Adding v takes the edges
    through v out of every other chosen element's critical edges, and a
    branch is cut as soon as some chosen element has none left.  Elements of
    F after v are not candidates inside v's branch; v itself is a candidate
    again in the branches that follow it.  The critical edges are kept as
    one mask of the edges that S hits exactly once, together with the
    element that hits each of them, so adding v re-checks only the elements
    that lose an edge to v.

    The search runs on an explicit stack, so its depth (the size of the
    largest transversal) is bounded by memory, not by Python's recursion
    limit.  A frame is a node whose branches are not all taken: its chosen
    set, candidates, uncovered edges, edges hit once, and the branch
    elements still to try.  A child that covers every edge is a leaf: the
    parent outputs it without pushing a frame.  The tree and the order in
    which it is walked are those of the recursive search, so the output
    list is too.

    Exactness:
    - Every output hits every edge: a set is output only when no edge is
      left uncovered.
    - Every output is minimal: a set that hits every edge is minimal exactly
      when each of its elements hits some edge that no other element hits,
      and the search keeps a critical edge for every chosen element.
    - Every minimal transversal T is output, exactly once.  No subset S of
      T is cut: an edge that an element alone hits in T it also alone hits
      in S.  The root has S empty and every element a candidate.  At a node
      with S a subset of T and T - S among the candidates, T meets F only in
      candidates, because S misses F.  Let v be the last element of T that
      lies in F, in branch order.  The branch on v keeps T - S - {v} among its
      candidates, because the only candidates it drops are the elements of F
      after v, which T misses.  Every other branch at the node adds an
      element outside T or drops v from its candidates, so exactly one path
      leads from the root to T.

    `family_cap` bounds the output: `GuardExceeded` is raised as soon as the
    family would exceed it, so an answer is never truncated.  No edges gives
    `[0]` (the empty set is the only minimal transversal); an empty edge
    gives `[]`.
    """
    edges = _canonical_edges(edge_masks)
    if 0 in edges:
        return []
    if not edges:
        if family_cap < 1:
            raise _family_full(family_cap)
        return [0]
    hits = [0] * n  # per element: bit i set when the element lies in edges[i]
    for i, e in enumerate(edges):
        while e:
            low = e & -e
            e ^= low
            hits[low.bit_length() - 1] |= 1 << i
    # owner[i]: the element that covered edge i.  It is read only while edge i
    # lies in `once`, and then it was last set on the path to the current node.
    owner = [0] * len(edges)
    found: list[int] = []
    # once: the edges that `chosen` hits exactly once, so the critical edges
    # of a chosen element u are once & hits[u].  rest: the branch elements
    # still to try, 0 in a frame whose branch edge is not picked yet (a
    # picked node is pushed back only while some branch is left).
    stack = [(0, (1 << n) - 1, (1 << len(edges)) - 1, 0, 0)]
    while stack:
        chosen, cand, uncovered, once, rest = stack.pop()
        if not rest:
            fewest = n + 1
            left = uncovered
            while left:
                low = left & -left
                left ^= low
                here = edges[low.bit_length() - 1] & cand
                count = here.bit_count()
                if count < fewest:
                    rest, fewest = here, count
                    if count <= 1:
                        break
            cand &= ~rest
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            through = hits[v]
            new = uncovered & through
            after = (once & ~through) | new
            lost = once & through  # critical edges that v takes away
            while lost:
                u = owner[(lost & -lost).bit_length() - 1]
                if not after & hits[u]:
                    break  # u would keep no critical edge: cut the branch
                lost &= ~hits[u]
            if not lost:
                if new == uncovered:
                    if len(found) >= family_cap:
                        raise _family_full(family_cap)
                    found.append(chosen | bit)
                else:
                    left = uncovered ^ new
                    while new:
                        low = new & -new
                        new ^= low
                        owner[low.bit_length() - 1] = v
                    if rest:
                        stack.append((chosen, cand | bit, uncovered, once, rest))
                    stack.append((chosen | bit, cand, left, after, 0))
                    break
            cand |= bit
    return found


def transversal_hypergraph(h: Hypergraph) -> Hypergraph:
    """Hypergraph of the inclusion-minimal transversals of h's edge family,
    under the default family cap."""
    if not h.edges:
        raise DegenerateTransversalError(
            "empty edge family: the empty set is the unique minimal transversal"
        )
    masks = minimal_transversals(h.n, h.edges)
    return Hypergraph(h.n, _canonical_edges(masks), h.labels)


def add_all_k_subsets(h: Hypergraph, k: int) -> Hypergraph:
    """Add every k-subset of the board as an edge (deduplicated)."""
    if not 1 <= k <= h.n:
        raise BoardError(f"subset size {k} outside [1, {h.n}]")
    count = comb(h.n, k)
    if count > SUBSET_COUNT_LIMIT:
        raise GuardExceeded(f"C({h.n},{k}) = {count} exceeds subset cap {SUBSET_COUNT_LIMIT}")
    masks = list(h.edges)
    for combo in combinations(range(h.n), k):
        m = 0
        for i in combo:
            m |= 1 << i
        masks.append(m)
    return Hypergraph(h.n, _canonical_edges(masks), h.labels)


def _endpoints(pair: Sequence[int], what: str) -> tuple[int, int]:
    """The two integer endpoints of an edge or arc; anything else is an error
    (`int()` would silently truncate 1.5 to 1)."""
    if len(pair) != 2:
        raise BoardError(f"{what} must have two endpoints, got {pair!r}")
    u, v = pair
    if not (is_int(u) and is_int(v)):
        raise BoardError(f"{what} endpoints must be integers, got {pair!r}")
    return u, v


def graph_new(n: int, edges: Sequence[Sequence[int]]) -> SimpleGraph:
    """Construct a simple graph, rejecting loops and collapsing parallel edges."""
    _check_board_size(n)
    pairs = set()
    for e in edges:
        u, v = _endpoints(e, "graph edge")
        if u == v:
            raise BoardError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise BoardError(f"edge ({u},{v}) out of range [0, {n})")
        pairs.add((min(u, v), max(u, v)))
    return SimpleGraph(n, tuple(sorted(pairs)))


def induced_subgraph(g: SimpleGraph, keep: Sequence[int]) -> SimpleGraph:
    """Subgraph on `keep` (order preserved), vertices relabelled 0..len(keep)-1."""
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges
        if u in index and v in index
    ]
    return SimpleGraph(len(keep), tuple(sorted((min(a, b), max(a, b)) for a, b in edges)))


def digraph_new(
    nv: int,
    arcs: Sequence[Sequence[int]],
    start: int,
    end: Optional[int] = None,
) -> RootedDigraph:
    """Construct a rooted directed multigraph (parallel arcs allowed)."""
    _check_board_size(nv)
    if nv == 0:
        raise BoardError("digraph needs at least one vertex")
    if nv + len(arcs) > CAPACITY:
        raise BoardError(f"digraph element count {nv + len(arcs)} exceeds capacity {CAPACITY}")
    out = []
    for a in arcs:
        u, v = _endpoints(a, "arc")
        if not (0 <= u < nv and 0 <= v < nv):
            raise BoardError(f"arc ({u},{v}) out of range [0, {nv})")
        out.append((u, v))
    for name, v in (("start", start), ("end", end)):
        if (v is not None or name == "start") and not (is_int(v) and 0 <= v < nv):
            raise BoardError(f"{name} vertex must be an integer in [0, {nv}), got {v!r}")
    return RootedDigraph(nv, tuple(out), start, end)


# ---------------------------------------------------------------------------
# JSON serialization


def to_json(obj) -> dict:
    if isinstance(obj, Hypergraph):
        doc = {"type": "hypergraph", "n": obj.n, "edges": obj.edge_indices()}
        if obj.labels is not None:
            doc["labels"] = list(obj.labels)
        return doc
    if isinstance(obj, SimpleGraph):
        return {"type": "graph", "n": obj.n, "edges": [list(e) for e in obj.edges]}
    if isinstance(obj, RootedDigraph):
        doc = {
            "type": "digraph",
            "n": obj.nv,
            "arcs": [list(a) for a in obj.arcs],
            "start": obj.start,
        }
        if obj.end is not None:
            doc["end"] = obj.end
        return doc
    raise FormatError(f"cannot serialize {type(obj).__name__}")


def from_json(doc: dict):
    if not isinstance(doc, dict) or "type" not in doc:
        raise FormatError("expected an object with a 'type' field")
    kind = doc["type"]
    try:
        if kind == "hypergraph":
            return hypergraph_new(doc["n"], doc["edges"], doc.get("labels"))
        if kind == "graph":
            return graph_new(doc["n"], doc["edges"])
        if kind == "digraph":
            return digraph_new(doc["n"], doc["arcs"], doc["start"], doc.get("end"))
    except KeyError as exc:
        raise FormatError(f"missing field {exc} in {kind} document") from exc
    except (BoardError, TypeError, ValueError) as exc:
        raise FormatError(f"{kind} document: {exc}") from exc
    raise FormatError(f"unknown document type {kind!r}")


def family_from_json(doc, n: int) -> tuple[int, ...]:
    """Element sets of a `{"type": "family", "sets": [[int, ...], ...]}`
    document, with every index checked against a board of n elements."""
    if not isinstance(doc, dict) or doc.get("type") != "family":
        raise FormatError("expected a family document")
    sets = doc.get("sets")
    if not isinstance(sets, list):
        raise FormatError("family field 'sets' must be a list of index lists")
    try:
        return tuple(mask_from_indices(indices, n) for indices in sets)
    except (BoardError, TypeError) as exc:
        raise FormatError(f"family: {exc}") from exc


def dumps(obj) -> str:
    return json.dumps(to_json(obj))


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return from_json(doc)
