"""Generators for the library's board constructions.

The two digraph families are built recursively.  Their `*_indexed` builders
also return the recursion tree (`GtbNode`): the scripted strategies navigate
copies by their element masks, and the tests check structural invariants
against the same masks.  The plain builders keep no tree.
Vertex numbering is deterministic: the global start is vertex 0, the global
end (when present) vertex 1, the hub digraph's hubs vertices 0..b+1, junction
vertices in recursion order afterwards.  As in the game engine, element v < nv
is vertex v and element nv + j is arc j, arcs numbered in recursion order too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil, comb
from typing import Optional

from .bitset import iter_bits
from .boards import (
    Hypergraph,
    RootedDigraph,
    SimpleGraph,
    add_all_k_subsets,
    disjoint_union,
    hypergraph_from_masks,
    hypergraph_new,
)
from .errors import BoardError, GuardExceeded

GTB_ARC_CAP = 100_000
COPY_TREE_ARC_CAP = 4096
GADGET_BOARD_LIMIT = 20
GADGET_VERTEX_CAP = 1_000_000
WINNING_SET_CAP = 10**6


# ---------------------------------------------------------------------------
# Recursively branched digraphs


@dataclass(frozen=True)
class GtbNode:
    """One copy in the recursive digraph, from vertex `start` to its end.

    A depth-1 copy is a single arc: `mid` is None and `arc` is the arc's
    element bit.  A deeper copy is a junction vertex `mid` and b+1 child
    copies (start->mid, then b parallel mid->end children), and `arc` is
    None.  `vertices` masks the copy's inner vertices (its junctions, no
    endpoint) and `elements` those and its arcs, as game elements."""

    start: int
    mid: Optional[int]
    arc: Optional[int]
    children: tuple["GtbNode", ...]
    vertices: int
    elements: int


def _junctions(depth: int, b: int) -> int:
    """Junction vertices in one copy of this depth: none in a single arc,
    else its own junction and those of its b+1 children."""
    return 0 if depth == 1 else 1 + (b + 1) * _junctions(depth - 1, b)


class _DigraphBuilder:
    """Grows `copies` copies of the given depth, numbering junctions from
    `reserved` on and arcs after all `nv` vertices.  With `tree` set, `grow`
    returns each copy as a `GtbNode` whose masks are final when it is built;
    without, it only records the arcs and returns None.  Each mask spans the
    board, so a tree's memory grows with the square of its arc count: it
    stops at COPY_TREE_ARC_CAP arcs, far more than an exhaustive check plays."""

    def __init__(self, reserved: int, copies: int, depth: int, b: int, tree: bool):
        if depth < 1 or b < 1:
            raise BoardError("both parameters must be at least 1")
        arcs = copies * (1 + b) ** (depth - 1)
        cap = COPY_TREE_ARC_CAP if tree else GTB_ARC_CAP
        if arcs > cap:
            raise GuardExceeded(f"arc count {copies}*(1+{b})^{depth - 1} exceeds cap {cap}")
        self.b = b
        self.tree = tree
        self.nv = reserved + copies * _junctions(depth, b)
        self.next_vertex = reserved
        self.arcs: list[tuple[int, int]] = []

    def grow(self, depth: int, start: int, end: int) -> Optional[GtbNode]:
        if depth == 1:
            self.arcs.append((start, end))
            if not self.tree:
                return None
            bit = 1 << (self.nv + len(self.arcs) - 1)
            return GtbNode(start, None, bit, (), 0, bit)
        mid = self.next_vertex
        self.next_vertex += 1
        children = [self.grow(depth - 1, start, mid)]
        children.extend(self.grow(depth - 1, mid, end) for _ in range(self.b))
        if not self.tree:
            return None
        vertices = elements = 1 << mid
        for c in children:
            vertices |= c.vertices
            elements |= c.elements
        return GtbNode(start, mid, None, tuple(children), vertices, elements)


def _gtb(t: int, b: int, tree: bool) -> tuple[RootedDigraph, Optional[GtbNode]]:
    builder = _DigraphBuilder(2, 1, t, b, tree)
    root = builder.grow(t, 0, 1)
    return RootedDigraph(builder.nv, tuple(builder.arcs), start=0, end=1), root


def build_gtb_indexed(t: int, b: int) -> tuple[RootedDigraph, GtbNode]:
    """The branched digraph and its copy tree."""
    return _gtb(t, b, tree=True)


def build_gtb(t: int, b: int) -> RootedDigraph:
    """Branched digraph with start vertex 0 and end vertex 1."""
    return _gtb(t, b, tree=False)[0]


def _htb(t: int, b: int, tree: bool) -> tuple[RootedDigraph, Optional[tuple]]:
    if t < 3:
        raise BoardError("the hub construction needs at least 3 rounds")
    builder = _DigraphBuilder(b + 2, (b + 1) ** 2, t - 2, b, tree)
    groups = tuple(
        tuple(builder.grow(t - 2, 0, i) for _ in range(b + 1)) for i in range(1, b + 2)
    )
    return RootedDigraph(builder.nv, tuple(builder.arcs), start=0), groups if tree else None


def build_htb_indexed(
    t: int, b: int
) -> tuple[RootedDigraph, tuple[tuple[GtbNode, ...], ...]]:
    """The hub digraph and its copies: `groups[i-1]` holds the b+1 copies
    from hub 0 to hub i, and hub i is vertex i."""
    return _htb(t, b, tree=True)


def build_htb(t: int, b: int) -> RootedDigraph:
    """Hub digraph: b+1 sinks, each fed by b+1 disjoint branched copies."""
    return _htb(t, b, tree=False)[0]


# ---------------------------------------------------------------------------
# Uniform hypergraphs with associated vertex sets


@dataclass(frozen=True)
class MbstInfo:
    """How an s-uniform board of `n` elements was built.

    Flat form (s at most 3m, `inner` None): the board mirrors the hub
    digraph `digraph` with copies `groups` (None on a board built without
    its copy tree, as by `build_hmbst`).  Vertex x becomes the m elements of
    `vertex_sets[x]`, which is also the board's associated-set family, and
    arc j becomes the winning set `arc_edges[j]`: its two end vertices' sets
    and s - 2m elements of its own.

    Nested form: `inner` describes the board for (s - m, t - 1).  The
    `shared` mask holds elements 0..m-1, b+1 copies of the inner board follow
    it, `inner.n` elements each, and each of their winning sets is joined
    with `shared`."""

    n: int
    groups: Optional[tuple[tuple[GtbNode, ...], ...]] = None
    digraph: Optional[RootedDigraph] = None
    vertex_sets: Optional[tuple[int, ...]] = None
    arc_edges: Optional[tuple[int, ...]] = None
    shared: int = 0
    inner: Optional["MbstInfo"] = None


def _check_hmbst_params(m: int, b: int, s: int, t: int) -> None:
    if m < 1 or b < 1:
        raise BoardError("biases must be at least 1")
    if s < 2 * m + 1:
        raise BoardError(f"edge size {s} must be at least 2m+1 = {2 * m + 1}")
    if m > b:
        raise BoardError("maker bias must not exceed breaker bias")
    if t < ceil(s / m):
        raise BoardError(f"round count {t} must be at least ceil(s/m) = {ceil(s / m)}")


def _hmbst(
    m: int, b: int, s: int, t: int, tree: bool
) -> tuple[Hypergraph, tuple[int, ...], MbstInfo]:
    _check_hmbst_params(m, b, s, t)
    if s <= 3 * m:
        digraph, groups = _htb(t, b, tree)
        vertex_sets = []
        labels: list[str] = []
        pos = 0
        for x in range(digraph.nv):
            vertex_sets.append(((1 << m) - 1) << pos)
            labels.extend(f"v{x}.{k}" for k in range(m))
            pos += m
        extras = s - 2 * m
        arc_edges = []
        for j, (x, y) in enumerate(digraph.arcs):
            extra_mask = ((1 << extras) - 1) << pos
            labels.extend(f"arc{j}.e{k}" for k in range(extras))
            pos += extras
            arc_edges.append(vertex_sets[x] | vertex_sets[y] | extra_mask)
        h = hypergraph_from_masks(pos, arc_edges, labels)
        family = tuple(vertex_sets)
        info = MbstInfo(
            pos, groups=groups, digraph=digraph,
            vertex_sets=family, arc_edges=tuple(arc_edges),
        )
        return h, family, info

    shared = (1 << m) - 1
    inner_h, inner_family, inner_info = _hmbst(m, b, s - m, t - 1, tree)
    edges = []
    family = [shared]
    labels = [f"shared.{k}" for k in range(m)]
    pos = m
    for i in range(b + 1):
        for em in inner_h.edges:
            edges.append((em << pos) | shared)
        for v in inner_family:
            family.append(v << pos)
        lab = inner_h.labels or tuple(str(j) for j in range(inner_h.n))
        labels.extend(f"c{i}:{name}" for name in lab)
        pos += inner_h.n
    h = hypergraph_from_masks(pos, edges, labels)
    return h, tuple(family), MbstInfo(pos, shared=shared, inner=inner_info)


def build_hmbst_indexed(
    m: int, b: int, s: int, t: int
) -> tuple[Hypergraph, tuple[int, ...], MbstInfo]:
    """The uniform board, its family, and how it was built, copy tree included."""
    return _hmbst(m, b, s, t, tree=True)


def build_hmbst(m: int, b: int, s: int, t: int) -> tuple[Hypergraph, tuple[int, ...]]:
    """The s-uniform board on which the maker needs exactly t rounds, and its
    associated-set family: disjoint size-m vertex sets (masks), each inside
    or outside every edge."""
    h, fam, _ = _hmbst(m, b, s, t, tree=False)
    return h, fam


# ---------------------------------------------------------------------------
# Domination transference gadget


def vertex_covers(h: Hypergraph) -> list[int]:
    """All subsets of the board meeting every edge, ascending as masks."""
    if h.n > GADGET_BOARD_LIMIT:
        raise GuardExceeded(
            f"cover enumeration limited to {GADGET_BOARD_LIMIT} elements, got {h.n}"
        )
    return [a for a in range(1 << h.n) if all(a & e for e in h.edges)]


def build_gadget(h: Hypergraph, a: int) -> SimpleGraph:
    """Graph whose domination game mirrors the claiming game on h.

    The board becomes a clique; each vertex cover A gets a fresh pendant
    class of 4a(n + #covers) vertices joined completely to A.
    """
    if a < 1:
        raise BoardError("gadget bias must be at least 1")
    covers = vertex_covers(h)
    class_size = 4 * a * (h.n + len(covers))
    total = h.n + len(covers) * class_size
    if total > GADGET_VERTEX_CAP:
        raise GuardExceeded(f"gadget would have {total} vertices, cap {GADGET_VERTEX_CAP}")
    edges = [(u, v) for u in range(h.n) for v in range(u + 1, h.n)]
    base = h.n
    for cover in covers:
        for bit in iter_bits(cover):
            u = bit.bit_length() - 1
            edges.extend((u, w) for w in range(base, base + class_size))
        base += class_size
    return SimpleGraph(total, tuple(sorted((min(u, v), max(u, v)) for u, v in edges)))


# ---------------------------------------------------------------------------
# Fair-bias non-monotonicity board


def nonmonotone_blocks(blocked: set[int] | frozenset[int]) -> tuple[Hypergraph, tuple[int, ...]]:
    """Board of element blocks whose one-per-block transversals are the wins.

    Block i (1-based, up to max(blocked)+1) has size min{v in blocked : v >= i-1};
    the fair game at bias v is a win for the claiming player iff v is not in
    `blocked`.
    """
    if not blocked:
        raise BoardError("the blocked-bias set must be non-empty")
    bs = sorted(blocked)
    if bs[0] < 1:
        raise BoardError("blocked biases must be positive")
    top = bs[-1]
    sizes = []
    for i in range(1, top + 2):
        sizes.append(min(v for v in bs if v >= i - 1))
    count = 1
    for size in sizes:
        count *= size
        if count > WINNING_SET_CAP:
            raise GuardExceeded(f"winning-set count exceeds cap {WINNING_SET_CAP}")
    blocks = []
    labels = []
    pos = 0
    for i, size in enumerate(sizes, start=1):
        blocks.append(((1 << size) - 1) << pos)
        labels.extend(f"B{i}.{k}" for k in range(size))
        pos += size
    edges: list[int] = [0]
    for block in blocks:
        edges = [e | bit for e in edges for bit in iter_bits(block)]
    h = hypergraph_from_masks(pos, edges, labels)
    return h, tuple(blocks)


def build_nonmonotone(blocked: set[int] | frozenset[int]) -> Hypergraph:
    return nonmonotone_blocks(blocked)[0]


# ---------------------------------------------------------------------------
# Composite boards


def build_thm12(m: int, b: int, s: int, s2: int, t: int, t2: int) -> Hypergraph:
    """b fast/small components plus one slow/large component: the first-mover
    gets (s, t), the second-mover only (s2, t2)."""
    if s2 < s:
        raise BoardError("the second-player size must be at least the first-player size")
    if t2 < t:
        raise BoardError("the second-player time must be at least the first-player time")
    _check_hmbst_params(m, b, s, t)
    _check_hmbst_params(m, b, s2, t2)
    h = build_hmbst(m, b, s, t)[0]
    out = h
    for _ in range(b - 1):
        out = disjoint_union(out, h)
    return disjoint_union(out, build_hmbst(m, b, s2, t2)[0])


def build_thm14(m: int, b: int, r: int, s: int, s2: int, t: int, t2: int) -> Hypergraph:
    """As build_thm12 plus one isolated winning set of size r, pinning the
    gadget's domination number at r."""
    if r <= m:
        raise BoardError("the isolated edge must be larger than the maker bias")
    if s < r:
        raise BoardError("component edge size must be at least r")
    core = build_thm12(m, b, s, s2, t, t2)
    return disjoint_union(core, hypergraph_new(r, [list(range(r))]))


def build_thm15(m: int, b: int, s: int, t: int) -> Hypergraph:
    """Small wins take ceil(t/m)+1 rounds while every t-subset also wins, so
    the claiming player owns a size-t win before any size-s win."""
    if t <= s:
        raise BoardError("the large size must exceed the small size")
    core = build_hmbst(m, b, s, ceil(t / m) + 1)[0]
    return add_all_k_subsets(core, t)


def build_thm16(m: int, b: int, s: int, s2: int, t: int, t2: int) -> Hypergraph:
    """Two components trading size against speed: fast wins are large, small
    wins are slow."""
    if s2 < s:
        raise BoardError("size parameters out of order")
    if t2 < t:
        raise BoardError("time parameters out of order")
    if t < ceil(s2 / m):
        raise BoardError(f"fast time {t} cannot beat ceil(s2/m) = {ceil(s2 / m)}")
    _check_hmbst_params(m, b, s2, t)
    _check_hmbst_params(m, b, s, t2)
    return disjoint_union(build_hmbst(m, b, s2, t)[0], build_hmbst(m, b, s, t2)[0])


# ---------------------------------------------------------------------------
# Offer-game gap boards


def build_ht_wc_indexed(t: int) -> tuple[Hypergraph, tuple[int, ...]]:
    """Four blocking pairs over a filler pool: the pairing defeats a claiming
    maker while the waiter still wins in exactly t rounds.  Also returns the
    pair masks for the pairing strategy."""
    if t < 3:
        raise BoardError("need at least 3 rounds")
    base = 2 * t - 6
    if 4 * comb(base, t - 3) > WINNING_SET_CAP:
        raise GuardExceeded("edge count exceeds cap")
    labels = [f"m{k}" for k in range(base)]
    pairs = []
    for i in range(4):
        ai = base + 2 * i
        labels.extend([f"a{i + 1}", f"b{i + 1}"])
        pairs.append((1 << ai) | (1 << (ai + 1)))
    edges = []
    for pair in pairs:
        for fill in combinations(range(base), t - 3):
            m = pair
            for k in fill:
                m |= 1 << k
            edges.append(m)
    return hypergraph_from_masks(base + 8, edges, labels), tuple(pairs)


def build_ht_wc(t: int) -> Hypergraph:
    return build_ht_wc_indexed(t)[0]


def build_complete_uniform(n: int, k: int) -> Hypergraph:
    """All k-subsets of an n-element board."""
    return add_all_k_subsets(hypergraph_new(n, []), k)


def build_wc_gap_case1(s: int, t: int) -> Hypergraph:
    """Pairing-protected component next to a complete s-uniform component:
    the claiming game takes s rounds, the offer game t rounds."""
    if s < t:
        raise BoardError("needs s >= t")
    return disjoint_union(build_ht_wc(t), build_complete_uniform(2 * s, s))
