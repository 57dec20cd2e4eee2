import json
import random
import subprocess
import sys
import tracemalloc
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posgames.bitset import indices_of, mask_from_indices
from posgames.boards import (
    Hypergraph,
    add_all_k_subsets,
    digraph_new,
    disjoint_union,
    dumps,
    family_from_json,
    from_json,
    graph_new,
    hypergraph_from_masks,
    hypergraph_new,
    loads,
    minimal_transversals,
    minimalize,
    to_json,
    transversal_hypergraph,
)
from posgames.errors import (
    BoardError,
    DegenerateTransversalError,
    FormatError,
    GuardExceeded,
)
from posgames.graphgen import (
    all_trees,
    cycle_graph,
    path_graph,
    random_graph,
    random_tree,
    star_graph,
)


def edge_sets(h):
    return {tuple(e) for e in h.edge_indices()}


class TestHypergraphNew:
    def test_basic_construction(self):
        h = hypergraph_new(3, [[0, 1], [1, 2]])
        assert h.n == 3
        assert edge_sets(h) == {(0, 1), (1, 2)}

    def test_duplicates_collapse(self):
        h = hypergraph_new(3, [[0, 1], [1, 0]])
        assert edge_sets(h) == {(0, 1)}

    def test_index_out_of_range(self):
        with pytest.raises(BoardError):
            hypergraph_new(2, [[0, 2]])

    def test_empty_edge_rejected(self):
        with pytest.raises(BoardError):
            hypergraph_new(2, [[]])

    def test_label_count_must_match(self):
        with pytest.raises(BoardError):
            hypergraph_new(2, [[0]], labels=["a"])

    def test_label_count_must_match_from_masks(self):
        # one label for two elements would not round-trip through JSON
        with pytest.raises(BoardError, match="expected 2 labels"):
            hypergraph_from_masks(2, [1], ["a"])
        h = hypergraph_from_masks(2, [1], ["a", "b"])
        assert loads(dumps(h)) == h

    @pytest.mark.parametrize("mask, message", [
        (0, "empty edge"),
        (0b1000, "edge mask exceeds board size"),
        (-1, "edge mask exceeds board size"),
    ])
    def test_bad_mask_from_masks(self, mask, message):
        with pytest.raises(BoardError, match=message):
            hypergraph_from_masks(3, [0b001, mask, 0b110])

    def test_masks_come_out_deduplicated_in_size_then_value_order(self, rng):
        masks = [m for m in range(1, 1 << 6) for _ in range(rng.randint(1, 3))]
        rng.shuffle(masks)
        h = hypergraph_from_masks(6, masks)
        assert list(h.edges) == sorted(range(1, 1 << 6), key=lambda m: (m.bit_count(), m))


class TestMinimalize:
    def test_superset_removed(self):
        h = hypergraph_new(2, [[0], [0, 1]])
        assert edge_sets(minimalize(h)) == {(0,)}

    def test_antichain_unchanged(self):
        h = hypergraph_new(3, [[0, 1], [1, 2]])
        assert minimalize(h) == h

    def test_empty_family(self):
        h = hypergraph_new(3, [])
        assert minimalize(h).edges == ()

    def test_idempotent_on_random_boards(self, rng):
        from conftest import random_hypergraph_masks

        for _ in range(100):
            h = random_hypergraph_masks(rng.randint(1, 7), 5, rng)
            once = minimalize(h)
            assert minimalize(once) == once


class TestDisjointUnion:
    def test_index_shift(self):
        u = disjoint_union(hypergraph_new(2, [[0, 1]]), hypergraph_new(1, [[0]]))
        assert u.n == 3
        assert edge_sets(u) == {(0, 1), (2,)}

    def test_identity_with_empty_board(self):
        h = hypergraph_new(2, [[0, 1]])
        assert disjoint_union(h, hypergraph_new(0, [])) == h

    def test_two_copies(self):
        h = hypergraph_new(2, [[0, 1]])
        u = disjoint_union(h, h)
        assert u.n == 4
        assert edge_sets(u) == {(0, 1), (2, 3)}

    def test_counts_add_and_associative(self, rng):
        from conftest import random_hypergraph_masks

        for _ in range(50):
            a = random_hypergraph_masks(rng.randint(1, 4), 3, rng)
            b = random_hypergraph_masks(rng.randint(1, 4), 3, rng)
            c = random_hypergraph_masks(rng.randint(1, 4), 3, rng)
            left = disjoint_union(disjoint_union(a, b), c)
            right = disjoint_union(a, disjoint_union(b, c))
            assert left.n == a.n + b.n + c.n
            assert left.edges == right.edges


def brute_force_transversals(n, edges):
    """Independent oracle: scan all subsets, keep the inclusion-minimal hitters."""
    hitting = [
        mask
        for mask in range(1 << n)
        if all(mask & e for e in edges)
    ]
    minimal = [
        m for m in hitting if not any(h != m and h & ~m == 0 for h in hitting)
    ]
    return set(minimal)


@st.composite
def edge_families(draw):
    """Board size n <= 10 and a non-empty edge list that mixes random edges
    with singletons, duplicates and supersets of earlier edges."""
    n = draw(st.integers(1, 10))
    full = (1 << n) - 1
    edges = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("random", "singleton", "duplicate", "superset")))
        if kind == "singleton":
            edges.append(1 << draw(st.integers(0, n - 1)))
        elif kind == "random" or not edges:
            edges.append(draw(st.integers(1, full)))
        else:
            earlier = draw(st.sampled_from(edges))
            extra = draw(st.integers(0, full)) if kind == "superset" else 0
            edges.append(earlier | extra)
    return n, edges


def recursive_mmcs(n, edges):
    """The same search tree as `minimal_transversals`, written directly: the
    first uncovered edge with at most one candidate, else the first with the
    fewest, is branched on in index order, and a branch is cut when some
    chosen element hits no edge alone.  Its output order is the enumerator's."""
    edges = sorted(set(edges), key=lambda e: (e.bit_count(), e))
    found = []

    def search(chosen, cand):
        uncovered = [e for e in edges if not e & chosen]
        if not uncovered:
            found.append(chosen)
            return
        counts = [(e & cand).bit_count() for e in uncovered]
        pick = next((i for i, c in enumerate(counts) if c <= 1), counts.index(min(counts)))
        branch = uncovered[pick] & cand
        cand &= ~branch
        for v in indices_of(branch):
            s = chosen | 1 << v
            if all(any(e & s == 1 << u for e in edges) for u in indices_of(s)):
                search(s, cand)
            cand |= 1 << v

    search(0, (1 << n) - 1)
    return found


class TestTransversals:
    def test_two_singletons(self):
        t = transversal_hypergraph(hypergraph_new(2, [[0], [1]]))
        assert edge_sets(t) == {(0, 1)}

    def test_path_family(self):
        t = transversal_hypergraph(hypergraph_new(3, [[0, 1], [1, 2]]))
        assert edge_sets(t) == {(1,), (0, 2)}

    def test_empty_family_is_degenerate(self):
        with pytest.raises(DegenerateTransversalError):
            transversal_hypergraph(hypergraph_new(2, []))

    def test_board_size_guard(self):
        # no element limit below the board capacity: the family cap is the
        # guard (test_family_cap_bounds_the_output)
        t = transversal_hypergraph(hypergraph_new(25, [list(range(13)), list(range(12, 25))]))
        assert edge_sets(t) == {(12,)} | {(a, b) for a in range(12) for b in range(13, 25)}

    def test_against_brute_force(self, rng):
        from conftest import random_hypergraph_masks

        for _ in range(150):
            n = rng.randint(1, 8)
            h = random_hypergraph_masks(n, 4, rng)
            got = set(transversal_hypergraph(h).edges)
            assert got == brute_force_transversals(n, h.edges)

    def test_outputs_hit_everything_minimally(self, rng):
        from conftest import random_hypergraph_masks

        for _ in range(100):
            n = rng.randint(2, 10)
            h = random_hypergraph_masks(n, 4, rng)
            for tr in minimal_transversals(n, h.edges):
                assert all(tr & e for e in h.edges)
                for bit in [1 << i for i in indices_of(tr)]:
                    smaller = tr & ~bit
                    assert not all(smaller & e for e in h.edges)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edge_families())
    def test_enumerator_against_brute_force(self, family):
        n, edges = family
        got = minimal_transversals(n, edges)
        assert len(got) == len(set(got))
        assert set(got) == brute_force_transversals(n, edges)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edge_families())
    def test_output_order_is_the_recursive_search_order(self, family):
        n, edges = family
        assert minimal_transversals(n, edges) == recursive_mmcs(n, edges)

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # one 3,000-element transversal: a recursive search would nest 3,000
        # calls deep, past Python's default limit of 1,000
        n = 3000
        singletons = [1 << i for i in range(n)]
        assert minimal_transversals(n, singletons) == [(1 << n) - 1]
        h = Hypergraph(n, tuple(singletons))  # past the board capacity, so built directly
        assert transversal_hypergraph(h).edges == ((1 << n) - 1,)

    def test_edge_cases(self):
        assert minimal_transversals(3, []) == [0]
        assert minimal_transversals(3, [0b011, 0, 0b100]) == []

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_family_cap_bounds_the_output(self, k):
        pairs = [0b11 << (2 * i) for i in range(k)]
        assert len(minimal_transversals(2 * k, pairs, family_cap=2**k)) == 2**k
        with pytest.raises(GuardExceeded):
            minimal_transversals(2 * k, pairs, family_cap=2**k - 1)


class TestAddAllKSubsets:
    def test_counts(self):
        h = add_all_k_subsets(hypergraph_new(3, []), 2)
        assert edge_sets(h) == {(0, 1), (0, 2), (1, 2)}

    def test_absorbs_existing(self):
        h = add_all_k_subsets(hypergraph_new(3, [[0, 1]]), 2)
        assert len(h.edges) == 3

    def test_full_board(self):
        h = add_all_k_subsets(hypergraph_new(4, []), 4)
        assert edge_sets(h) == {(0, 1, 2, 3)}

    def test_rejects_bad_k(self):
        with pytest.raises(BoardError):
            add_all_k_subsets(hypergraph_new(3, []), 0)


class TestGraphsAndDigraphs:
    def test_graph_rejects_loops(self):
        with pytest.raises(BoardError):
            graph_new(2, [(0, 0)])

    def test_graph_adjacency_symmetric(self):
        g = graph_new(3, [(0, 1), (1, 2)])
        for u in range(3):
            for v in range(3):
                assert bool(g.adjacency[u] & (1 << v)) == bool(g.adjacency[v] & (1 << u))
                assert not g.adjacency[u] & (1 << u)

    def test_digraph_validates_endpoints(self):
        with pytest.raises(BoardError):
            digraph_new(2, [(0, 2)], start=0)

    @pytest.mark.parametrize("make,n", [
        (path_graph, 10**5),
        (cycle_graph, 10**5),
        (star_graph, 10**5),
        (lambda n: random_tree(n, random.Random(0)), 10**5),
        (lambda n: random_graph(n, 0.5, random.Random(0)), 1000),
    ], ids=["path", "cycle", "star", "random-tree", "random-graph"])
    def test_generators_check_the_size_first(self, make, n):
        tracemalloc.start()
        try:
            with pytest.raises(BoardError, match="exceeds capacity"):
                make(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_digraph_allows_parallel_arcs(self):
        d = digraph_new(2, [(0, 1), (0, 1)], start=0, end=1)
        assert len(d.arcs) == 2

    def test_digraph_element_layout(self):
        # vertex v is element v, arc j is element nv + j: arcs 0 and 1 are
        # parallel, arc 4 is a loop, and vertex 3 has no arc at all
        d = digraph_new(4, [(0, 1), (0, 1), (1, 2), (2, 0), (1, 1)], start=0)
        assert d.n_elements == 9
        assert d.vertex_mask == 0b1111
        assert d.arc_ends == (
            (1 << 4, 0b0011), (1 << 5, 0b0011), (1 << 6, 0b0110), (1 << 7, 0b0101),
            (1 << 8, 0b0010),
        )
        assert d.out_arcs == ((1 << 4) | (1 << 5), (1 << 6) | (1 << 8), 1 << 7, 0)
        assert d.distances == (
            (0, 1, 2, None),
            (2, 0, 1, None),
            (1, 2, 0, None),
            (None, None, None, 0),
        )


def _is_tree(g) -> bool:
    if len(g.edges) != g.n - 1:
        return False
    seen, frontier = 1, 1
    while frontier:
        reached = 0
        for bit in range(g.n):
            if frontier >> bit & 1:
                reached |= g.adjacency[bit]
        frontier = reached & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def _brute_canonical(g) -> tuple:
    """The smallest relabelled edge list over every vertex permutation."""
    return min(
        tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges))
        for p in permutations(range(g.n))
    )


class TestAllTrees:
    # OEIS A000055: unlabelled trees on n vertices, n = 1..12
    COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)

    def test_counts_and_every_output_is_a_tree(self):
        for n, count in enumerate(self.COUNTS, start=1):
            trees = list(all_trees(n))
            assert len(trees) == count
            assert all(t.n == n and _is_tree(t) for t in trees)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_no_two_outputs_are_isomorphic(self, n):
        codes = [_brute_canonical(t) for t in all_trees(n)]
        assert len(set(codes)) == len(codes)

    def test_needs_no_graph_library(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]);"
            "from posgames.graphgen import all_trees; list(all_trees(8));"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestSerialization:
    def test_hypergraph_round_trip(self):
        h = hypergraph_new(3, [[0, 1], [2]], labels=["a", "b", "c"])
        assert loads(dumps(h)) == h

    def test_graph_round_trip(self):
        g = graph_new(4, [(0, 1), (2, 3)])
        assert loads(dumps(g)) == g

    def test_digraph_round_trip(self):
        d = digraph_new(3, [(0, 1), (1, 2), (0, 1)], start=0, end=2)
        assert loads(dumps(d)) == d

    def test_digraph_without_end(self):
        d = digraph_new(2, [(0, 1)], start=0)
        doc = to_json(d)
        assert "end" not in doc
        assert from_json(doc) == d

    def test_elementset_round_trip(self):
        mask = mask_from_indices([0, 3, 5], 6)
        assert mask_from_indices(indices_of(mask), 6) == mask

    def test_field_names_are_exact(self):
        h = hypergraph_new(2, [[0, 1]])
        assert json.loads(dumps(h)) == {"type": "hypergraph", "n": 2, "edges": [[0, 1]]}
        g = graph_new(2, [(0, 1)])
        assert json.loads(dumps(g)) == {"type": "graph", "n": 2, "edges": [[0, 1]]}

    def test_unknown_type_rejected(self):
        with pytest.raises(FormatError):
            from_json({"type": "widget"})

    @pytest.mark.parametrize("doc, message", [
        ({"type": "hypergraph", "n": True, "edges": [[0]]}, "element count"),
        ({"type": "hypergraph", "n": 2, "edges": [[True]]}, "not an integer"),
        ({"type": "graph", "n": 2, "edges": [[0, True]]}, "integers"),
        ({"type": "digraph", "n": True, "arcs": [], "start": 0}, "element count"),
        ({"type": "digraph", "n": 2, "arcs": [[False, 1]], "start": 0}, "integers"),
        ({"type": "digraph", "n": 2, "arcs": [[0, 1]], "start": True}, "start vertex"),
        ({"type": "digraph", "n": 2, "arcs": [[0, 1]], "start": None}, "start vertex"),
        ({"type": "digraph", "n": 2, "arcs": [[0, 1]], "start": 0, "end": True}, "end vertex"),
        ({"type": "hypergraph", "n": 2, "edges": [[0]], "labels": "ab"}, "labels"),
        ({"type": "hypergraph", "n": 2, "edges": [[0]], "labels": [1, 2]}, "labels"),
    ], ids=["n", "edge-index", "graph-edge", "digraph-n", "arc", "start", "start-null",
            "end", "labels-str", "labels-int"])
    def test_booleans_and_bad_labels_rejected(self, doc, message):
        with pytest.raises(FormatError, match=message):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("text, message", [
        ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[1]", "expected an object with a 'type' field"),
        ('{"type": "graph", "n": 3}', "missing field 'edges' in graph document"),
        ('{"type": "graph", "n": 3, "edges": [[0, 1, 2]]}',
         "graph document: graph edge must have two endpoints, got [0, 1, 2]"),
        ('{"type": "graph", "n": 3, "edges": [[0, 5]]}',
         "graph document: edge (0,5) out of range [0, 3)"),
        ('{"type": "graph", "n": -1, "edges": []}', "graph document: negative element count -1"),
        ('{"type": "digraph", "n": 0, "arcs": [], "start": 0}',
         "digraph document: digraph needs at least one vertex"),
    ], ids=["invalid-json", "non-object", "no-edges", "three-endpoints", "edge-past-graph",
            "negative-n", "empty-digraph"])
    def test_malformed_documents(self, text, message):
        with pytest.raises(FormatError) as exc:
            loads(text)
        assert str(exc.value) == message

    def test_digraph_past_capacity(self):
        with pytest.raises(BoardError) as exc:
            digraph_new(200, [(0, 1)] * 100, 0)
        assert str(exc.value) == "digraph element count 300 exceeds capacity 256"

    def test_unknown_object_not_serialized(self):
        with pytest.raises(FormatError) as exc:
            to_json(object())
        assert str(exc.value) == "cannot serialize object"

    def test_family_rejects_booleans(self):
        for sets in ([[True]], [[0, False]]):
            with pytest.raises(FormatError, match="not an integer"):
                family_from_json({"type": "family", "sets": sets}, 2)

    def test_random_round_trips(self, rng):
        from conftest import random_hypergraph_masks

        for _ in range(50):
            h = random_hypergraph_masks(rng.randint(1, 8), 5, rng)
            assert loads(dumps(h)) == h
