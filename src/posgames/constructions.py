"""Generators for the library's board constructions.

The two digraph families are built recursively and keep their recursion tree
(`GtbNode`) around: the scripted strategies navigate copies by their element
masks, and the tests check structural invariants against the same metadata.
Vertex numbering is deterministic: the global start is vertex 0, the global
end (when present) vertex 1, junction vertices in recursion order afterwards.
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
GADGET_BOARD_LIMIT = 20
GADGET_VERTEX_CAP = 1_000_000
WINNING_SET_CAP = 10**6


# ---------------------------------------------------------------------------
# Recursively branched digraphs


@dataclass(frozen=True)
class GtbNode:
    """One copy in the recursive digraph: depth-1 copies are single arcs,
    deeper copies consist of a junction vertex and b+1 child copies
    (start->junction, then b parallel junction->end children)."""

    depth: int
    start: int
    end: int
    mid: Optional[int]
    arc: Optional[int]
    children: tuple["GtbNode", ...]
    inner_vertices: tuple[int, ...]
    arc_indices: tuple[int, ...]

    def element_mask(self, nv: int) -> int:
        """Playable elements strictly inside the copy (no endpoints)."""
        m = 0
        for v in self.inner_vertices:
            m |= 1 << v
        for j in self.arc_indices:
            m |= 1 << (nv + j)
        return m


class _DigraphBuilder:
    def __init__(self, reserved: int):
        self.nv = reserved
        self.arcs: list[tuple[int, int]] = []

    def vertex(self) -> int:
        v = self.nv
        self.nv += 1
        return v

    def arc(self, u: int, v: int) -> int:
        self.arcs.append((u, v))
        return len(self.arcs) - 1


def _grow(builder: _DigraphBuilder, depth: int, b: int, start: int, end: int) -> GtbNode:
    if depth == 1:
        j = builder.arc(start, end)
        return GtbNode(1, start, end, None, j, (), (), (j,))
    mid = builder.vertex()
    children = [_grow(builder, depth - 1, b, start, mid)]
    children.extend(_grow(builder, depth - 1, b, mid, end) for _ in range(b))
    inner = [mid]
    arcs: list[int] = []
    for c in children:
        inner.extend(c.inner_vertices)
        arcs.extend(c.arc_indices)
    return GtbNode(depth, start, end, mid, None, tuple(children), tuple(inner), tuple(arcs))


def _check_gtb_params(t: int, b: int) -> None:
    if t < 1 or b < 1:
        raise BoardError("both parameters must be at least 1")
    if (1 + b) ** (t - 1) > GTB_ARC_CAP:
        raise GuardExceeded(f"arc count (1+{b})^{t - 1} exceeds cap {GTB_ARC_CAP}")


def build_gtb_indexed(t: int, b: int) -> tuple[RootedDigraph, GtbNode]:
    _check_gtb_params(t, b)
    builder = _DigraphBuilder(reserved=2)
    root = _grow(builder, t, b, 0, 1)
    return RootedDigraph(builder.nv, tuple(builder.arcs), start=0, end=1), root


def build_gtb(t: int, b: int) -> RootedDigraph:
    """Branched digraph with start vertex 0 and end vertex 1."""
    return build_gtb_indexed(t, b)[0]


@dataclass(frozen=True)
class HtbInfo:
    t: int
    b: int
    hubs: tuple[int, ...]  # hub 0 is the common start; hubs 1..b+1 the sinks
    groups: tuple[tuple[GtbNode, ...], ...]  # groups[i-1]: copies from hub 0 to hub i


def build_htb_indexed(t: int, b: int) -> tuple[RootedDigraph, HtbInfo]:
    if t < 3:
        raise BoardError("the hub construction needs at least 3 rounds")
    _check_gtb_params(t - 2, b)
    if (b + 1) ** 2 * (1 + b) ** (t - 3) > GTB_ARC_CAP:
        raise GuardExceeded("arc count exceeds cap")
    builder = _DigraphBuilder(reserved=b + 2)
    groups = []
    for i in range(1, b + 2):
        groups.append(tuple(_grow(builder, t - 2, b, 0, i) for _ in range(b + 1)))
    info = HtbInfo(t, b, tuple(range(b + 2)), tuple(groups))
    return RootedDigraph(builder.nv, tuple(builder.arcs), start=0, end=None), info


def build_htb(t: int, b: int) -> RootedDigraph:
    """Hub digraph: b+1 sinks, each fed by b+1 disjoint branched copies."""
    return build_htb_indexed(t, b)[0]


# ---------------------------------------------------------------------------
# Uniform hypergraphs with associated vertex sets


@dataclass(frozen=True)
class MbstInfo:
    m: int
    b: int
    s: int
    t: int
    n: int
    family: tuple[int, ...]
    # flat form (uniformity width at most 3m): hyperedges mirror digraph arcs
    htb: Optional[HtbInfo] = None
    digraph: Optional[RootedDigraph] = None
    vertex_sets: Optional[tuple[int, ...]] = None
    arc_edges: Optional[tuple[int, ...]] = None
    # nested form: a shared set joined onto b+1 recursive copies
    shared: int = 0
    copies: tuple["MbstInfo", ...] = ()
    copy_offsets: tuple[int, ...] = ()


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
    _check_hmbst_params(m, b, s, t)
    if s <= 3 * m:
        digraph, hinfo = build_htb_indexed(t, b)
        nv = digraph.nv
        vertex_sets = []
        labels: list[str] = []
        pos = 0
        for x in range(nv):
            mask = ((1 << m) - 1) << pos
            vertex_sets.append(mask)
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
            m, b, s, t, pos, family,
            htb=hinfo, digraph=digraph,
            vertex_sets=tuple(vertex_sets), arc_edges=tuple(arc_edges),
        )
        return h, family, info

    shared = (1 << m) - 1
    inner_h, _, inner_info = build_hmbst_indexed(m, b, s - m, t - 1)
    copies = []
    offsets = []
    edges = []
    family = [shared]
    labels = [f"shared.{k}" for k in range(m)]
    pos = m
    for i in range(b + 1):
        offsets.append(pos)
        copies.append(inner_info)
        for em in inner_h.edges:
            edges.append((em << pos) | shared)
        for v in inner_info.family:
            family.append(v << pos)
        lab = inner_h.labels or tuple(str(j) for j in range(inner_h.n))
        labels.extend(f"c{i}:{name}" for name in lab)
        pos += inner_h.n
    h = hypergraph_from_masks(pos, edges, labels)
    info = MbstInfo(
        m, b, s, t, pos, tuple(family),
        shared=shared, copies=tuple(copies), copy_offsets=tuple(offsets),
    )
    return h, info.family, info


def build_hmbst(m: int, b: int, s: int, t: int) -> tuple[Hypergraph, tuple[int, ...]]:
    """The s-uniform board on which the maker needs exactly t rounds, and its
    associated-set family: disjoint size-m vertex sets (masks), each inside
    or outside every edge."""
    h, fam, _ = build_hmbst_indexed(m, b, s, t)
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
