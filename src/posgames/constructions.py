"""Generators for the library's board constructions.

The two digraph families are built recursively, and their `*_indexed`
builders also return the recursion tree (`GtbNode`): the scripted strategies
navigate copies by their element masks, and the tests check structural
invariants against the same masks.  Every game-board builder checks its
board's element count against the capacity, by arithmetic on its
parameters, before it builds the board; the gadget, a graph to test
domination on, has its own vertex cap.
Vertex numbering is deterministic: the global start is vertex 0, the global
end (when present) vertex 1, the hub digraph's hubs vertices 0..b+1, junction
vertices in recursion order afterwards.  Arcs are numbered in recursion order
too, and a digraph's elements are laid out as `boards.RootedDigraph` says.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil, comb
from typing import Optional

from .bitset import CAPACITY, iter_bits
from .boards import (
    Hypergraph,
    RootedDigraph,
    SimpleGraph,
    _check_board_size,
    add_all_k_subsets,
    disjoint_union,
    hypergraph_from_masks,
    hypergraph_new,
)
from .errors import BoardError, GuardExceeded

GADGET_BOARD_LIMIT = 20
GADGET_VERTEX_CAP = 1_000_000
WINNING_SET_CAP = 10**6


# ---------------------------------------------------------------------------
# Recursively branched digraphs


@dataclass(frozen=True, eq=False)
class GtbNode:
    """One copy in the recursive digraph, from its start vertex to its end.

    Every field but `children` is a mask of the board's own elements.  A
    depth-1 copy is a single arc: `mid` is None and `arc` holds the arc's
    elements.  A deeper copy is a junction vertex `mid` and b+1 child copies
    (start->mid, then b parallel mid->end children), and `arc` is None.
    `vertices` masks the copy's inner vertices (its junctions, no endpoint)
    and `elements` those and its arcs.  Equality is identity, which is the
    same on one build: any two distinct copies have disjoint `elements`."""

    start: int
    mid: Optional[int]
    arc: Optional[int]
    children: tuple["GtbNode", ...]
    vertices: int
    elements: int


class _DigraphBuilder:
    """Grows `copies` copies of the given depth into one board, numbering
    junctions from vertex `reserved` on and arcs in the order grown.  Vertex
    v is the `width` elements from width*v on and arc j the `arc_width`
    elements from width*nv + arc_width*j on, so `grow` returns each copy as a
    `GtbNode` of the board's own elements."""

    def __init__(
        self, reserved: int, copies: int, depth: int, b: int, width: int = 1, arc_width: int = 1
    ):
        if depth < 1 or b < 1:
            raise BoardError("both parameters must be at least 1")
        # the board grows with the depth, so the count stops at the first
        # depth whose board passes the capacity
        junctions, arcs, level = 0, copies, 1
        while level < depth and width * (reserved + junctions) + arc_width * arcs <= CAPACITY:
            junctions, arcs, level = copies + (b + 1) * junctions, (b + 1) * arcs, level + 1
        _check_board_size(width * (reserved + junctions) + arc_width * arcs, exact=level == depth)
        self.b, self.width, self.arc_width = b, width, arc_width
        self.nv = reserved + junctions
        self.next_vertex = reserved
        self.arcs: list[tuple[int, int]] = []

    def vertex(self, v: int) -> int:
        """The elements of vertex v."""
        return ((1 << self.width) - 1) << (self.width * v)

    def arc(self, j: int) -> int:
        """The elements of arc j."""
        return ((1 << self.arc_width) - 1) << (self.width * self.nv + self.arc_width * j)

    def grow(self, depth: int, start: int, end: int) -> GtbNode:
        if depth == 1:
            arc = self.arc(len(self.arcs))
            self.arcs.append((start, end))
            return GtbNode(self.vertex(start), None, arc, (), 0, arc)
        mid = self.next_vertex
        self.next_vertex += 1
        children = [self.grow(depth - 1, start, mid)]
        children.extend(self.grow(depth - 1, mid, end) for _ in range(self.b))
        vertices = elements = self.vertex(mid)
        for c in children:
            vertices |= c.vertices
            elements |= c.elements
        return GtbNode(
            self.vertex(start), self.vertex(mid), None, tuple(children), vertices, elements
        )


def build_gtb_indexed(t: int, b: int) -> tuple[RootedDigraph, GtbNode]:
    """The branched digraph and its copy tree."""
    builder = _DigraphBuilder(2, 1, t, b)
    root = builder.grow(t, 0, 1)
    return RootedDigraph(builder.nv, tuple(builder.arcs), start=0, end=1), root


def build_gtb(t: int, b: int) -> RootedDigraph:
    """Branched digraph with start vertex 0 and end vertex 1."""
    return build_gtb_indexed(t, b)[0]


def _hub_copies(
    t: int, b: int, width: int = 1, arc_width: int = 1
) -> tuple[_DigraphBuilder, tuple[tuple[GtbNode, ...], ...]]:
    """The grown hub digraph and its copies, grouped by sink hub."""
    if t < 3:
        raise BoardError("the hub construction needs at least 3 rounds")
    builder = _DigraphBuilder(b + 2, (b + 1) ** 2, t - 2, b, width, arc_width)
    groups = tuple(
        tuple(builder.grow(t - 2, 0, i) for _ in range(b + 1)) for i in range(1, b + 2)
    )
    return builder, groups


def build_htb_indexed(
    t: int, b: int
) -> tuple[RootedDigraph, tuple[tuple[GtbNode, ...], ...]]:
    """The hub digraph and its copies: `groups[i-1]` holds the b+1 copies
    from hub 0 to hub i, and hub i is vertex i."""
    builder, groups = _hub_copies(t, b)
    return RootedDigraph(builder.nv, tuple(builder.arcs), start=0), groups


def build_htb(t: int, b: int) -> RootedDigraph:
    """Hub digraph: b+1 sinks, each fed by b+1 disjoint branched copies."""
    return build_htb_indexed(t, b)[0]


# ---------------------------------------------------------------------------
# Uniform hypergraphs with associated vertex sets


@dataclass(frozen=True)
class MbstInfo:
    """How an s-uniform board of `n` elements was built.

    Flat form (s at most 3m, `inner` None): the board is the hub digraph
    with vertex x turned into the m elements from m*x on, which are also the
    board's associated-set family, and arc j into the winning set of its two
    end vertices' elements and the s - 2m elements of its own after all
    vertices.  `groups` are the digraph's copies and `hubs` the hubs'
    elements, all in the board's own elements.

    Nested form: `inner` describes the board for (s - m, t - 1).  The
    `shared` mask holds elements 0..m-1, b+1 copies of the inner board follow
    it, `inner.n` elements each, and each of their winning sets is joined
    with `shared`."""

    n: int
    groups: Optional[tuple[tuple[GtbNode, ...], ...]] = None
    hubs: tuple[int, ...] = ()
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


def build_hmbst_indexed(
    m: int, b: int, s: int, t: int
) -> tuple[Hypergraph, tuple[int, ...], MbstInfo]:
    """The uniform board, its family, and how it was built.

    The flat board sits at the bottom of ceil(s/m) - 3 nested levels (none
    when s is at most 3m), each of which passes the parameter checks when
    (m, b, s, t) does; the levels are wrapped around it one by one, each
    checked against the capacity before it is built."""
    _check_hmbst_params(m, b, s, t)
    levels = max(-(-s // m) - 3, 0)
    s, t = s - levels * m, t - levels
    builder, groups = _hub_copies(t, b, m, s - 2 * m)
    family = tuple(builder.vertex(x) for x in range(builder.nv))
    edges = [family[x] | family[y] | builder.arc(j) for j, (x, y) in enumerate(builder.arcs)]
    labels = [f"v{x}.{k}" for x in range(builder.nv) for k in range(m)]
    labels += [f"arc{j}.e{k}" for j in range(len(builder.arcs)) for k in range(s - 2 * m)]
    h = hypergraph_from_masks(len(labels), edges, labels)
    info = MbstInfo(h.n, groups=groups, hubs=family[: b + 2])
    shared = (1 << m) - 1
    for _ in range(levels):
        n = m + (b + 1) * h.n
        _check_board_size(n)
        copies = range(m, n, h.n)
        edges = [(e << off) | shared for off in copies for e in h.edges]
        family = (shared,) + tuple(v << off for off in copies for v in family)
        labels = [f"shared.{k}" for k in range(m)]
        labels += [f"c{i}:{name}" for i in range(b + 1) for name in h.labels]
        h = hypergraph_from_masks(n, edges, labels)
        info = MbstInfo(n, shared=shared, inner=info)
    return h, family, info


def build_hmbst(m: int, b: int, s: int, t: int) -> tuple[Hypergraph, tuple[int, ...]]:
    """The s-uniform board on which the maker needs exactly t rounds, and its
    associated-set family: disjoint size-m vertex sets (masks), each inside
    or outside every edge."""
    return build_hmbst_indexed(m, b, s, t)[:2]


# ---------------------------------------------------------------------------
# Domination transference gadget


def vertex_covers(h: Hypergraph) -> list[int]:
    """All subsets of the board meeting every edge, ascending as masks."""
    if h.n > GADGET_BOARD_LIMIT:
        raise GuardExceeded(
            f"cover enumeration limited to {GADGET_BOARD_LIMIT} elements, got {h.n}"
        )
    return [a for a in range(1 << h.n) if all(a & e for e in h.edges)]


def _gadget_layout(h: Hypergraph, a: int) -> tuple[list[int], int, int]:
    """The vertex covers of h, the pendant-class size 4a(n + #covers) and
    the gadget's vertex count."""
    if a < 1:
        raise BoardError("gadget bias must be at least 1")
    covers = vertex_covers(h)
    class_size = 4 * a * (h.n + len(covers))
    return covers, class_size, h.n + len(covers) * class_size


def gadget_size(h: Hypergraph, a: int) -> int:
    """Vertex count of `build_gadget(h, a)`, counted without building it."""
    return _gadget_layout(h, a)[2]


def build_gadget(h: Hypergraph, a: int) -> SimpleGraph:
    """Graph whose domination game mirrors the claiming game on h.

    The board becomes a clique; each vertex cover A gets a fresh pendant
    class of 4a(n + #covers) vertices joined completely to A.  The graph may
    pass the board capacity (`gadget_size` tells beforehand).
    """
    covers, class_size, total = _gadget_layout(h, a)
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
    # block sizes in order: bs[0] + 1 blocks of size bs[0], then v - u
    # blocks of size v for each pair u < v adjacent in bs
    _check_board_size(sum(v * (v - u) for u, v in zip([-1] + bs, bs)))
    sizes = [min(v for v in bs if v >= i - 1) for i in range(1, bs[-1] + 2)]
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
    _check_board_size(base + 8)
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
    _check_board_size(2 * t + 2 + 2 * s)
    return disjoint_union(build_ht_wc(t), build_complete_uniform(2 * s, s))
