import random
from itertools import combinations

import pytest

from conftest import star_graph
from posgames.boards import graph_new, hypergraph_new
from posgames.constructions import build_gadget
from posgames.domination import (
    dom_game_values,
    domination_number,
    has_perfect_matching,
    is_dominating,
    minimal_dominating_sets,
    residue,
    wc_cycle_value,
    wc_tree_value,
)
from posgames.engine import Player
from posgames.errors import BoardError, DegenerateTransversalError
from posgames.graphgen import (
    all_trees,
    cycle_graph,
    path_graph,
    random_graph,
    random_tree,
)


def edge_sets(h):
    return {tuple(e) for e in h.edge_indices()}


class TestIsDominating:
    def test_star_center(self):
        assert is_dominating(star_graph(3), 0b0001)

    def test_path_interior_misses_far_end(self):
        assert not is_dominating(path_graph(4), 0b0010)

    def test_whole_vertex_set(self):
        g = random_graph(6, 0.3, random.Random(1))
        assert is_dominating(g, (1 << 6) - 1)

    def test_refuses_a_vertex_past_the_graph(self):
        with pytest.raises(BoardError) as exc:
            is_dominating(path_graph(2), 0b100)
        assert str(exc.value) == "dominating-set candidate uses unknown vertices"


class TestDominationNumber:
    def test_cycle_five(self):
        assert domination_number(cycle_graph(5)) == 2

    def test_star(self):
        assert domination_number(star_graph(3)) == 1

    def test_matches_brute_force_on_random_graphs(self, rng):
        for _ in range(40):
            g = random_graph(rng.randint(1, 7), 0.4, rng)
            best = min(
                (
                    k
                    for k in range(0, g.n + 1)
                    for combo in combinations(range(g.n), k)
                    if is_dominating(g, sum(1 << v for v in combo))
                ),
                default=0,
            )
            assert domination_number(g) == best

    def test_cycle_beyond_a_subset_scan(self):
        # 2^30 vertex subsets; the minimal dominating sets give it at once
        assert domination_number(cycle_graph(30)) == 10

    def test_empty_graph(self):
        assert domination_number(graph_new(0, [])) == 0


class TestMinimalDominatingSets:
    def test_single_edge_graph(self):
        assert edge_sets(minimal_dominating_sets(path_graph(2))) == {(0,), (1,)}

    def test_path_three(self):
        assert edge_sets(minimal_dominating_sets(path_graph(3))) == {(1,), (0, 2)}

    def test_cycle_four(self):
        sets = edge_sets(minimal_dominating_sets(cycle_graph(4)))
        assert sets == {(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)}

    def test_members_are_minimal_dominating(self, rng):
        for _ in range(40):
            g = random_graph(rng.randint(1, 8), 0.4, rng)
            for mask in minimal_dominating_sets(g).edges:
                assert is_dominating(g, mask)
                for v in range(g.n):
                    bit = 1 << v
                    if mask & bit:
                        assert not is_dominating(g, mask & ~bit)

    def test_against_subset_scan(self, rng):
        for _ in range(60):
            g = random_graph(rng.randint(1, 10), rng.choice((0.2, 0.4, 0.6)), rng)
            dominating = sorted(
                (mask for mask in range(1 << g.n) if is_dominating(g, mask)),
                key=int.bit_count,
            )
            want = []
            for mask in dominating:
                if not any(d & ~mask == 0 for d in want):
                    want.append(mask)
            assert set(minimal_dominating_sets(g).edges) == set(want)

    @pytest.mark.parametrize("n, count", [(20, 851), (22, 1674), (24, 3281)])
    def test_cycle_family_sizes(self, n, count):
        assert len(minimal_dominating_sets(cycle_graph(n)).edges) == count

    def test_empty_graph_is_degenerate(self):
        # the empty set dominates it, and a board edge cannot be empty
        g = graph_new(0, [])
        with pytest.raises(DegenerateTransversalError, match="empty set dominates"):
            minimal_dominating_sets(g)
        assert domination_number(g) == 0

    def test_graph_beyond_board_capacity_is_rejected_before_enumerating(self):
        # 1,349 vertices: the capacity check refuses the graph before any enumeration
        g = build_gadget(hypergraph_new(5, [[2], [0, 1, 2, 3, 4]]), 1)
        for fn in (minimal_dominating_sets, domination_number):
            with pytest.raises(BoardError, match="exceeds capacity"):
                fn(g)


class TestGameValues:
    def test_star_first_round_win(self):
        values = dom_game_values(star_graph(3), 1, 1, Player.MAKER)
        assert (values.min_rounds, values.min_size) == (1, 1)

    def test_path_four(self):
        values = dom_game_values(path_graph(4), 1, 1, Player.MAKER)
        assert (values.min_rounds, values.min_size) == (2, 2)

    def test_gamma_chain_on_random_graphs(self, rng):
        for _ in range(30):
            g = random_graph(rng.randint(1, 8), 0.5, rng)
            gamma = domination_number(g)
            first = dom_game_values(g, 1, 1, Player.MAKER).min_rounds
            second = dom_game_values(g, 1, 1, Player.BREAKER).min_rounds
            if first is not None:
                assert gamma <= first
            if second is not None:
                assert first is not None and first <= second


class TestResidue:
    def test_path_four(self):
        rep = residue(path_graph(4))
        assert rep.removed_pairs == ((0, 1),)
        assert rep.residue.n == 2 and len(rep.residue.edges) == 1

    def test_single_edge_is_fixed(self):
        rep = residue(path_graph(2))
        assert rep.removed_pairs == ()
        assert rep.residue.n == 2

    def test_path_six(self):
        rep = residue(path_graph(6))
        assert len(rep.removed_pairs) == 2
        assert rep.residue.n == 2

    def test_vertex_count_bookkeeping(self, rng):
        for _ in range(40):
            tree = random_tree(rng.randint(2, 10), rng)
            rep = residue(tree)
            assert rep.residue.n == tree.n - 2 * len(rep.removed_pairs)
            for v, w in rep.removed_pairs:
                assert v not in rep.kept and w not in rep.kept


class TestClosedForms:
    def test_paths(self):
        assert wc_tree_value(path_graph(4)) == 2
        assert wc_tree_value(path_graph(5)) is None

    def test_star_has_no_matching(self):
        assert wc_tree_value(star_graph(3)) is None

    def test_rejects_non_trees(self):
        with pytest.raises(BoardError):
            wc_tree_value(cycle_graph(4))

    def test_cycles(self):
        assert wc_cycle_value(8) == 4
        with pytest.raises(BoardError):
            wc_cycle_value(2)

    def test_matching_detector(self, rng):
        assert has_perfect_matching(path_graph(6))
        assert not has_perfect_matching(star_graph(3))
        trees = [t for n in range(1, 9) for t in all_trees(n)]
        for tree in trees + [random_tree(rng.randint(2, 9), rng) for _ in range(30)]:
            # oracle: some n/2 edges cover every vertex
            ok = tree.n % 2 == 0 and any(
                len({v for edge in pick for v in edge}) == tree.n
                for pick in combinations(tree.edges, tree.n // 2)
            )
            assert has_perfect_matching(tree) == ok
