import pytest

from posgames.boards import hypergraph_new
from posgames.constructions import (
    build_complete_uniform,
    build_gadget,
    build_gtb,
    build_gtb_indexed,
    build_hmbst,
    build_hmbst_indexed,
    build_htb,
    build_htb_indexed,
    build_ht_wc,
    build_ht_wc_indexed,
    build_nonmonotone,
    build_thm12,
    build_thm14,
    build_thm15,
    build_thm16,
    build_wc_gap_case1,
    nonmonotone_blocks,
    vertex_covers,
)
from posgames.domination import domination_number, is_dominating
from posgames.errors import BoardError, GuardExceeded
from posgames.solver import validate_restriction


def expected_gtb_vertices(t, b):
    v = 2
    for _ in range(t - 1):
        v = v + 1 + b * (v - 2)
    return v


def all_copies(node):
    yield node
    for child in node.children:
        yield from all_copies(child)


def check_copy_masks(d, node):
    """Every copy below `node` is its junction plus the disjoint union of its
    children, down to single arcs, whose bit is the arc from the copy's start."""
    for c in all_copies(node):
        assert c.start.bit_count() == 1
        if c.mid is None:
            assert c.vertices == 0 and c.elements == c.arc
            j = c.arc.bit_length() - 1 - d.nv
            assert c.arc.bit_count() == 1 and 0 <= j < len(d.arcs)
            assert 1 << d.arcs[j][0] == c.start
            continue
        assert c.mid.bit_count() == 1 and c.mid < 1 << d.nv
        assert c.children[0].start == c.start
        assert all(child.start == c.mid for child in c.children[1:])
        vertices = elements = c.mid
        for child in c.children:
            assert not child.elements & elements
            vertices |= child.vertices
            elements |= child.elements
        assert (c.vertices, c.elements) == (vertices, elements)


class TestBranchedDigraph:
    @pytest.mark.parametrize("t,b", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 3)])
    def test_counts(self, t, b):
        d = build_gtb(t, b)
        assert d.nv == expected_gtb_vertices(t, b)
        assert len(d.arcs) == (1 + b) ** (t - 1)

    @pytest.mark.parametrize("t,b", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 1)])
    def test_shortest_path_doubles_per_level(self, t, b):
        d = build_gtb(t, b)
        assert d.distances[d.start][d.end] == 2 ** (t - 1)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_outdegrees(self, t, b):
        d = build_gtb(t, b)
        out = [0] * d.nv
        for u, _v in d.arcs:
            out[u] += 1
        for v in range(d.nv):
            if v == d.end:
                assert out[v] == 0
            elif v == d.start:
                assert out[v] == 1
            else:
                assert out[v] == b

    def test_reachability_is_a_partial_order(self):
        d = build_gtb(3, 2)
        dist = d.distances
        for u in range(d.nv):
            for v in range(d.nv):
                if u != v and dist[u][v] is not None:
                    assert dist[v][u] is None  # antisymmetric: no cycles

    def test_guard(self):
        with pytest.raises(BoardError):
            build_gtb(40, 3)

    def test_capacity_edge(self):
        assert build_gtb(7, 1).n_elements == 129
        with pytest.raises(BoardError, match="board size 257 exceeds capacity 256"):
            build_gtb(8, 1)
        assert build_htb(8, 1).n_elements == 255
        with pytest.raises(BoardError, match="board size 511 exceeds capacity 256"):
            build_htb(9, 1)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_copy_masks(self, t, b):
        d, root = build_gtb_indexed(t, b)
        assert d == build_gtb(t, b)
        ends = (1 << d.start) | (1 << d.end)
        # the root holds every element but the two ends, so the vertex
        # count given to the board is the count of vertices numbered
        assert root.elements == ((1 << d.n_elements) - 1) & ~ends
        assert root.vertices | ends == (1 << d.nv) - 1
        assert root.start == 1 << d.start
        check_copy_masks(d, root)


class TestHubDigraph:
    @pytest.mark.parametrize(
        "t,b,nv,arcs", [(3, 1, 3, 4), (3, 2, 4, 9), (4, 1, 7, 8)]
    )
    def test_counts(self, t, b, nv, arcs):
        d = build_htb(t, b)
        assert (d.nv, len(d.arcs)) == (nv, arcs)
        assert d.start == 0 and d.end is None

    def test_needs_three_rounds(self):
        with pytest.raises(BoardError):
            build_htb(2, 1)

    def test_every_arc_lies_in_one_copy(self):
        d, groups = build_htb_indexed(4, 1)
        arcs = ((1 << len(d.arcs)) - 1) << d.nv
        seen = 0
        for group in groups:
            for copy in group:
                assert not copy.elements & arcs & seen
                seen |= copy.elements & arcs
        assert seen == arcs

    @pytest.mark.parametrize("t,b", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (4, 3)])
    def test_copies_partition_the_non_hub_elements(self, t, b):
        d, groups = build_htb_indexed(t, b)
        assert d == build_htb(t, b)
        hubs = (1 << (b + 2)) - 1
        assert len(groups) == b + 1
        seen = 0
        for sink, group in enumerate(groups, start=1):
            assert len(group) == b + 1
            for copy in group:
                assert copy.start == 1
                assert not copy.elements & (seen | hubs)
                seen |= copy.elements
                check_copy_masks(d, copy)
                # the copy's last arcs end at its sink hub
                last = copy
                while last.mid is not None:
                    last = last.children[-1]
                assert d.arcs[last.arc.bit_length() - 1 - d.nv][1] == sink
        assert seen == ((1 << d.n_elements) - 1) & ~hubs


class TestUniformBoards:
    @pytest.mark.parametrize(
        "m,b,s,t,n,edges", [(1, 1, 3, 3, 7, 4), (1, 2, 3, 3, 13, 9)]
    )
    def test_flat_shapes(self, m, b, s, t, n, edges):
        h, fam = build_hmbst(m, b, s, t)
        assert h.n == n
        assert len(h.edges) == edges

    @pytest.mark.parametrize(
        "m,b,s,t",
        [(1, 1, 3, 3), (1, 2, 3, 3), (1, 1, 4, 4), (1, 1, 5, 5), (2, 2, 5, 3), (1, 2, 4, 4)],
    )
    def test_uniformity_and_family_structure(self, m, b, s, t):
        h, fam = build_hmbst(m, b, s, t)
        assert all(e.bit_count() == s for e in h.edges)
        # the overlap law and the exclusivity of outside elements
        validate_restriction(h, m, b, fam)
        assert all(v.bit_count() == m for v in fam)

    def test_parameter_contract(self):
        with pytest.raises(BoardError):
            build_hmbst(1, 1, 2, 3)  # s below 2m+1
        with pytest.raises(BoardError):
            build_hmbst(2, 1, 5, 3)  # m above b
        with pytest.raises(BoardError):
            build_hmbst(1, 1, 3, 2)  # t below ceil(s/m)

    def test_nested_case_adds_shared_set(self):
        h, fam, info = build_hmbst_indexed(1, 1, 4, 4)
        assert info.shared
        offsets = range(info.shared.bit_length(), h.n, info.inner.n)
        for e in h.edges:
            assert e & info.shared == info.shared or not any(
                (e >> off) & ((1 << info.inner.n) - 1) for off in offsets
            )

    @pytest.mark.parametrize("m,b,s,t", [(1, 1, 3, 3), (1, 1, 4, 4), (2, 2, 5, 3)])
    def test_copy_tree_changes_no_board(self, m, b, s, t):
        h, fam, _info = build_hmbst_indexed(m, b, s, t)
        assert (h, fam) == build_hmbst(m, b, s, t)

    @pytest.mark.parametrize("m,b,s,t", [(1, 1, 3, 3), (1, 2, 3, 3), (2, 2, 5, 3)])
    def test_flat_copies_partition_the_non_hub_elements(self, m, b, s, t):
        h, fam, info = build_hmbst_indexed(m, b, s, t)
        assert info.inner is None and info.hubs == fam[: b + 2]
        hubs = sum(info.hubs)
        seen = 0
        for group in info.groups:
            for copy in group:
                assert copy.start == fam[0]
                assert not copy.elements & (seen | hubs)
                seen |= copy.elements
                for c in all_copies(copy):
                    assert c.start in fam
                    if c.mid is not None:
                        assert c.mid in fam
                    else:  # a winning set: the arc's own elements and two vertices
                        assert c.arc.bit_count() == s - 2 * m
                        edge = next(e for e in h.edges if e & c.arc)
                        assert edge & (c.start | c.arc) == c.start | c.arc
                        assert edge & ~(c.start | c.arc) in fam
        assert seen == h.full_mask & ~hubs


class TestGadget:
    def test_pinned_size(self):
        g = build_gadget(hypergraph_new(2, [[0]]), 1)
        assert g.n == 34  # 2 core + 2 covers x 16

    def test_all_covers_enumerated(self):
        covers = vertex_covers(hypergraph_new(2, [[0]]))
        assert covers == [0b01, 0b11]

    def test_edges_dominate(self):
        h = hypergraph_new(3, [[0, 1], [2]])
        g = build_gadget(h, 1)
        for e in h.edges:
            assert is_dominating(g, e)

    def test_domination_number_is_min_edge(self):
        h = hypergraph_new(3, [[0, 1], [1, 2]])
        g = build_gadget(h, 1)
        assert domination_number(g) == 2

    def test_cover_enumeration_guard(self):
        with pytest.raises(GuardExceeded):
            vertex_covers(hypergraph_new(21, [[0]]))


class TestNonmonotone:
    def test_blocked_two(self):
        h, blocks = nonmonotone_blocks({2})
        assert h.n == 6
        assert len(h.edges) == 8
        assert [blk.bit_count() for blk in blocks] == [2, 2, 2]

    def test_blocked_one(self):
        h = build_nonmonotone({1})
        assert h.n == 2
        assert len(h.edges) == 1

    def test_blocked_mixed(self):
        h, blocks = nonmonotone_blocks({1, 2})
        assert [blk.bit_count() for blk in blocks] == [1, 1, 2]
        assert len(h.edges) == 2

    def test_every_edge_is_a_transversal(self):
        h, blocks = nonmonotone_blocks({1, 3})
        for e in h.edges:
            for blk in blocks:
                assert (e & blk).bit_count() == 1

    def test_capacity_is_checked_before_the_blocks(self):
        with pytest.raises(BoardError, match="board size 10000100000 exceeds"):
            nonmonotone_blocks({10**5})

    def test_needs_positive_biases(self):
        with pytest.raises(BoardError):
            build_nonmonotone({0})
        with pytest.raises(BoardError):
            build_nonmonotone(set())

    @pytest.mark.parametrize(
        "blocked", [{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}]
    )
    def test_solver_confirms_the_flip_set(self, blocked):
        from posgames.engine import Player
        from posgames.solver import decide_mb

        h = build_nonmonotone(blocked)
        assert h.n <= 12
        for bias in range(1, 5):
            assert decide_mb(h, bias, bias, Player.MAKER) == (bias not in blocked)


class TestComposites:
    def test_thm12_shape(self):
        h = build_thm12(1, 1, 3, 3, 3, 3)
        assert h.n == 14
        assert all(e.bit_count() == 3 for e in h.edges)

    def test_thm12_component_count(self):
        h = build_thm12(1, 2, 3, 3, 3, 3)
        # b copies of the 13-element board plus one more
        assert h.n == 3 * 13

    def test_thm14_adds_isolated_edge(self):
        h = build_thm14(1, 2, 2, 3, 3, 3, 3)
        assert min(e.bit_count() for e in h.edges) == 2
        iso = [e for e in h.edges if e.bit_count() == 2]
        assert len(iso) == 1

    def test_thm14_rejects_large_maker_bias(self):
        with pytest.raises(BoardError):
            build_thm14(2, 2, 2, 5, 5, 3, 3)

    def test_thm15_shape(self):
        h = build_thm15(1, 1, 3, 4)
        sizes = {e.bit_count() for e in h.edges}
        assert sizes == {3, 4}
        core, _fam = build_hmbst(1, 1, 3, 5)
        assert h.n == core.n

    def test_thm16_shape(self):
        h = build_thm16(1, 1, 3, 3, 3, 3)
        assert h.n == 14
        with pytest.raises(BoardError):
            build_thm16(1, 1, 3, 4, 3, 3)  # t below ceil(s2/m)


class TestOfferGapBoards:
    def test_pair_board(self):
        h, pairs = build_ht_wc_indexed(3)
        assert h.n == 8
        assert len(h.edges) == 4
        assert len(pairs) == 4
        for e in h.edges:
            assert any(e & p == p for p in pairs)

    def test_filler_pool(self):
        h = build_ht_wc(4)
        assert h.n == 2 * 4 - 6 + 8
        assert all(e.bit_count() == 4 - 1 for e in h.edges)

    def test_capacity_is_checked_before_the_edges(self):
        with pytest.raises(BoardError, match="board size 200002 exceeds"):
            build_ht_wc(10**5)

    def test_complete_uniform(self):
        assert len(build_complete_uniform(6, 3).edges) == 20

    def test_gap_board(self):
        h = build_wc_gap_case1(3, 3)
        assert h.n == 14
        with pytest.raises(BoardError):
            build_wc_gap_case1(2, 3)
