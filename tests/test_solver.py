import random
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import naive_decide, random_hypergraph_masks
from posgames.boards import digraph_new, graph_new, hypergraph_from_masks, hypergraph_new
from posgames.constructions import (
    build_gadget,
    build_gtb,
    build_hmbst,
    build_ht_wc,
    build_htb,
    build_thm12,
    build_thm16,
)
from posgames.domination import dom_game_values, minimal_dominating_sets
from posgames.engine import GameKind, GameSpec, Player
from posgames.errors import GuardExceeded, PosgamesError, RestrictionError
from posgames.graphgen import cycle_graph, path_graph
from posgames.solver import (
    Objective,
    SolverSettings,
    _Search,
    _WCSearch,
    _undominated,
    decide,
    decide_mb,
    decide_wc,
    game_values,
    solve_aux_game,
    validate_restriction,
    values,
    wc_game_values,
)


class TestDecideMB:
    def test_lone_singleton(self):
        h = hypergraph_new(2, [[0]])
        assert decide_mb(h, 1, 1, Player.MAKER, Objective(1, 1))

    def test_uniform_board_values(self):
        h, _fam = build_hmbst(1, 1, 3, 3)
        assert decide_mb(h, 1, 1, Player.MAKER, Objective(3, 3))
        assert not decide_mb(h, 1, 1, Player.MAKER, Objective(2, 3))
        assert not decide_mb(h, 1, 1, Player.BREAKER, Objective())

    def test_zero_round_budget_is_false(self):
        h = hypergraph_new(2, [[0]])
        assert not decide_mb(h, 1, 1, Player.MAKER, Objective(max_rounds=0))

    def test_empty_family_is_false(self):
        assert not decide_mb(hypergraph_new(3, []), 1, 1)

    @pytest.mark.parametrize("budgets, message", [
        ((-1,), "round budget must be non-negative"),
        ((None, 0), "size budget must be at least 1"),
    ], ids=["negative-rounds", "zero-size"])
    def test_objective_refuses_bad_budgets(self, budgets, message):
        with pytest.raises(PosgamesError) as exc:
            Objective(*budgets)
        assert str(exc.value) == message


class TestDecideWC:
    def test_lone_element_goes_to_client(self):
        assert not decide_wc(hypergraph_new(1, [[0]]))

    def test_single_pair_board(self):
        # the one possible offer hands the waiter only one of the two elements
        assert not decide_wc(hypergraph_new(2, [[0, 1]]))

    def test_paired_board_needs_three_rounds(self):
        h = build_ht_wc(3)
        assert decide_wc(h, Objective(max_rounds=3, max_size=2))
        assert not decide_wc(h, Objective(max_rounds=2, max_size=2))

    def test_offer_potential_of_exactly_one_is_no_certificate(self):
        # two singletons: Phi = 1/2 + 1/2, and one offer of both wins
        assert decide_wc(hypergraph_new(2, [[0], [1]]), Objective(max_rounds=1))

    def test_offer_potential_decides_a_cycle_within_a_tiny_memo(self):
        # of the 44 minimal dominating sets only the eleven of size 4 fit four
        # rounds, so Phi = 11/16 at the root; without the certificate the
        # search needs far more than two memo entries
        h = minimal_dominating_sets(cycle_graph(11))
        tiny = SolverSettings(memo_cap=2)
        assert not decide_wc(h, Objective(max_rounds=4), settings=tiny)


class TestAuxGame:
    def test_base_board(self):
        board = build_gtb(1, 1)
        seeds = (1 << board.start) | (1 << board.end)
        assert solve_aux_game(board, 1, seeds, Objective(max_rounds=1))

    def test_two_level_board(self):
        board = build_gtb(2, 2)
        seeds = (1 << board.start) | (1 << board.end)
        assert solve_aux_game(board, 2, seeds, Objective(max_rounds=2))
        assert not solve_aux_game(board, 2, seeds, Objective(max_rounds=1))

    def test_single_seed_always_loses(self):
        board = build_gtb(2, 2)
        for v in range(board.nv):
            assert not solve_aux_game(board, 2, 1 << v)

    def test_premove_without_an_opening(self):
        # every vertex is the Maker's and there is no arc: the Breaker has
        # nothing to take, and the Maker still has no arc to claim
        board = digraph_new(2, [], start=0)
        spec = GameSpec(
            GameKind.AUX_EDGE, board, preclaimed_maker=0b11, breaker_premove=True
        )
        assert not naive_decide(spec)
        assert not solve_aux_game(board, 1, 0b11, breaker_premove=True)


class TestSpecRoots:
    """`decide` and `values` read the game from the engine's `GameSpec`,
    whose checks are the only ones: the per-game functions build a spec."""

    @pytest.mark.parametrize("call", [
        lambda h, d: decide_mb(h, 0, 1),
        lambda h, d: game_values(h, 1, 0),
        lambda h, d: solve_aux_game(d, 0, 0),
        lambda h, d: solve_aux_game(d, 1, 1 << d.nv),  # the first arc, not a vertex
    ], ids=["maker-bias", "breaker-bias", "aux-bias", "aux-preclaimed-arc"])
    def test_spec_checks_reject_bad_games(self, call):
        with pytest.raises(PosgamesError):
            call(hypergraph_new(2, [[0]]), build_gtb(1, 1))

    def test_restriction_is_for_the_claiming_game(self):
        h, fam = build_hmbst(1, 1, 3, 3)
        with pytest.raises(PosgamesError, match="claiming game only"):
            decide(GameSpec(GameKind.WAITER_CLIENT, h), restriction=fam)

    @pytest.mark.parametrize("t, b", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    def test_directed_edge_rounds_value(self, t, b):
        # Lemma 3.4: with both ends pre-owned, gtb(t, b) is won in exactly t rounds
        board = build_gtb(t, b)
        spec = GameSpec(GameKind.AUX_EDGE, board, breaker_bias=b,
                        preclaimed_maker=(1 << board.start) | (1 << board.end))
        assert values(spec).min_rounds == t


class TestGameValues:
    def test_complete_three_uniform(self):
        h = hypergraph_new(6, [list(c) for c in combinations(range(6), 3)])
        values = game_values(h, 1, 1)
        assert (values.min_rounds, values.min_size) == (3, 3)

    def test_nonmonotone_outcomes(self):
        from posgames.constructions import build_nonmonotone

        h = build_nonmonotone({2})
        assert decide_mb(h, 1, 1, Player.MAKER)
        assert not decide_mb(h, 2, 2, Player.MAKER)
        assert decide_mb(h, 3, 3, Player.MAKER)

    def test_loss_has_null_values(self):
        h = hypergraph_new(2, [[0, 1]])
        values = game_values(h, 1, 1)
        assert values == type(values)(False, None, None, ())

    def test_frontier_trades_rounds_for_size(self):
        # a quick big win and a slow small win on separate components
        from posgames.boards import disjoint_union

        fast = hypergraph_new(2, [[0, 1]])  # size 2, one round at bias 2
        slow = hypergraph_new(1, [[0]])
        h = disjoint_union(fast, slow)
        values = game_values(h, 2, 1)
        assert values.min_rounds == 1
        assert values.min_size == 1
        assert values.frontier == ((1, 1),)

    def test_frontier_is_an_antichain(self, rng):
        for _ in range(50):
            h = random_hypergraph_masks(rng.randint(2, 7), 4, rng)
            values = game_values(h, 1, 1)
            front = values.frontier
            for a, b in combinations(front, 2):
                assert not (a[0] <= b[0] and a[1] <= b[1])
                assert not (b[0] <= a[0] and b[1] <= a[1])
            if values.maker_wins:
                assert front[0][0] == values.min_rounds
                assert front[-1][1] == values.min_size

    def test_wc_values_on_pair_family(self):
        values = wc_game_values(build_ht_wc(3))
        assert values.min_rounds == 3
        assert values.min_size == 2


class TestAgainstNaiveSolver:
    """The pruned searches must agree with plain engine-driven recursion."""

    def test_maker_breaker_bounded_and_unbounded(self, rng):
        for _ in range(120):
            n = rng.randint(1, 5)
            h = random_hypergraph_masks(n, 4, rng)
            m = rng.randint(1, 2)
            b = rng.randint(1, 2)
            first = rng.choice((Player.MAKER, Player.BREAKER))
            t = rng.choice((None, rng.randint(0, 4)))
            s = rng.choice((None, rng.randint(1, n)))
            spec = GameSpec(GameKind.MAKER_BREAKER, h, maker_bias=m, breaker_bias=b, first=first)
            expected = naive_decide(spec, t, s)
            got = decide_mb(h, m, b, first, Objective(t, s))
            assert got == expected, (h.edge_indices(), m, b, first, t, s)

    def test_waiter_client(self, rng):
        for _ in range(80):
            n = rng.randint(1, 5)
            h = random_hypergraph_masks(n, 4, rng)
            t = rng.choice((None, rng.randint(0, 3)))
            s = rng.choice((None, rng.randint(1, n)))
            spec = GameSpec(GameKind.WAITER_CLIENT, h)
            expected = naive_decide(spec, t, s)
            got = decide_wc(h, Objective(t, s))
            assert got == expected, (h.edge_indices(), t, s)

    def test_aux_game(self, rng):
        for _ in range(80):
            nv = rng.randint(2, 4)
            arcs = [
                (rng.randrange(nv), rng.randrange(nv))
                for _ in range(rng.randint(1, 3))
            ]
            arcs = [(u, v) for u, v in arcs if u != v] or [(0, 1)]
            board = digraph_new(nv, arcs, start=0)
            b = rng.randint(1, 2)
            seeds = rng.getrandbits(nv)
            t = rng.choice((None, rng.randint(0, 4)))
            premove = rng.random() < 0.4
            spec = GameSpec(
                GameKind.AUX_EDGE, board, breaker_bias=b,
                preclaimed_maker=seeds, breaker_premove=premove,
            )
            expected = naive_decide(spec, t, None)
            got = solve_aux_game(
                board, b, seeds, Objective(max_rounds=t), breaker_premove=premove
            )
            assert got == expected, (arcs, b, seeds, t, premove)


@st.composite
def hypergraphs(draw, max_core, max_dead=0):
    """Up to four random edges on `core` elements, padded with up to
    `max_dead` isolated elements that no edge contains."""
    core = draw(st.integers(1, max_core))
    edges = draw(st.lists(st.integers(1, (1 << core) - 1), min_size=1, max_size=4))
    return hypergraph_from_masks(core + draw(st.integers(0, max_dead)), edges), core


round_budgets = st.one_of(st.none(), st.integers(0, 4))


@st.composite
def restricted_boards(draw):
    """A board `validate_restriction` accepts, labels shuffled: four or five
    disjoint associated sets of size m <= b, edges that are one or two of them
    plus at most one private element each, and padding elements in no edge.
    Set 0 shares an edge with at least two other sets and at least one edge
    is a single set, so Maker has forks to make and a lure to avoid, and the
    choice among the sets on the menu decides many games.  An associated set
    may lie in no edge."""
    m = draw(st.integers(1, 2))
    b = draw(st.integers(m, 2))
    k = draw(st.integers(4, 5))
    unions = [{0, j} for j in sorted(draw(st.sets(st.integers(1, k - 1), min_size=2)))]
    unions += draw(st.lists(st.sets(st.integers(0, k - 1), min_size=2, max_size=2), max_size=3))
    unions += [{i} for i in draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2))]
    # an edge of one associated set needs a private element to exceed m
    private = [len(u) == 1 or draw(st.integers(0, 4)) == 0 for u in unions]
    n = k * m + sum(private) + draw(st.integers(0, 1))
    label = draw(st.permutations(range(n)))
    family = [sum(1 << label[i * m + j] for j in range(m)) for i in range(k)]
    edges, nxt = [], k * m
    for u, own in zip(unions, private):
        e = sum(family[i] for i in u)
        if own:
            e |= 1 << label[nxt]
            nxt += 1
        edges.append(e)
    return hypergraph_from_masks(n, edges), tuple(family), m, b


class TestHypothesisAgainstNaive:
    """The budget filter, the residual key and the reduced menu, checked
    against plain engine-driven recursion on small boards."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        hypergraphs(5, max_dead=2),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from((Player.MAKER, Player.BREAKER)),
        round_budgets,
        st.data(),
    )
    def test_claiming_game(self, board, m, b, first, t, data):
        # with isolated elements and biases up to 3 the engine's claims
        # take dead elements, or more elements than the search's, which
        # stand for the engine claims that contain them (the Claim size
        # bullet)
        h, core = board
        s = data.draw(st.one_of(st.none(), st.integers(1, core)))
        spec = GameSpec(GameKind.MAKER_BREAKER, h, maker_bias=m, breaker_bias=b, first=first)
        assert decide_mb(h, m, b, first, Objective(t, s)) == naive_decide(spec, t, s)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(hypergraphs(4, max_dead=3), round_budgets, st.data())
    def test_offer_game_with_dead_elements(self, board, t, data):
        # the padding varies the count of free dead elements, which the
        # Waiter never offers and the offer game's key does not hold
        h, core = board
        s = data.draw(st.one_of(st.none(), st.integers(1, core)))
        spec = GameSpec(GameKind.WAITER_CLIENT, h)
        assert decide_wc(h, Objective(t, s)) == naive_decide(spec, t, s)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(hypergraphs(7), round_budgets, st.data())
    def test_offer_game_on_wider_boards(self, board, t, data):
        # up to seven core elements, so the Client's keeps differ in weight
        # and the search tries the heavier one first (the keep order)
        h, core = board
        s = data.draw(st.one_of(st.none(), st.integers(1, core)))
        spec = GameSpec(GameKind.WAITER_CLIENT, h)
        assert decide_wc(h, Objective(t, s)) == naive_decide(spec, t, s)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(hypergraphs(7), st.integers(1, 4))
    def test_offer_potential_below_one_is_a_client_win(self, board, t):
        # the certificate's theorem, checked by the oracle alone: with
        # sum 2^-|e| < 1 over the edges the Waiter can finish in t rounds,
        # the Client wins
        h, _core = board
        phi = sum(1 << (t - e.bit_count()) for e in h.edges if e.bit_count() <= t)
        assume(phi < 1 << t)
        assert not naive_decide(GameSpec(GameKind.WAITER_CLIENT, h), t)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        hypergraphs(7),
        st.integers(1, 2),
        st.sampled_from((Player.MAKER, Player.BREAKER)),
        st.integers(1, 4),
    )
    def test_breaker_potential_is_a_breaker_win(self, board, b, first, t):
        # the Breaker certificate's theorem at m = 1, checked by the oracle
        # alone: with Psi = sum (b+1)^-|e| over the edges the Maker can
        # finish in t rounds, the Breaker wins when Psi < 1 and he moves
        # first, and when Psi < 1/(b+1) and the Maker moves first
        h, _core = board
        q = b + 1
        scale = q if first is Player.MAKER else 1
        psi = sum(q ** (t - e.bit_count()) for e in h.edges if e.bit_count() <= t)
        assume(scale * psi < q ** t)
        spec = GameSpec(GameKind.MAKER_BREAKER, h, maker_bias=1, breaker_bias=b, first=first)
        assert not naive_decide(spec, t)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(2, 4), st.integers(1, 2), round_budgets, st.booleans(), st.data())
    def test_directed_edge_game(self, nv, b, t, premove, data):
        vertex = st.integers(0, nv - 1)
        arc = st.tuples(vertex, vertex).filter(lambda a: a[0] != a[1])
        arcs = data.draw(st.lists(arc, max_size=3))  # arc-less boards included
        seeds = data.draw(st.integers(0, (1 << nv) - 1))
        digraph = digraph_new(nv, arcs, start=0)
        spec = GameSpec(
            GameKind.AUX_EDGE, digraph, breaker_bias=b,
            preclaimed_maker=seeds, breaker_premove=premove,
        )
        got = solve_aux_game(
            digraph, b, seeds, Objective(max_rounds=t), breaker_premove=premove
        )
        assert got == naive_decide(spec, t, None)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(restricted_boards(), st.one_of(st.none(), st.integers(2, 5)), st.data())
    def test_reduced_menu(self, board, t, data):
        h, restriction, m, b = board
        # every edge exceeds m, so a smaller size budget leaves no edge and
        # fewer than two rounds never win
        s = data.draw(st.one_of(st.none(), st.integers(m + 1, h.n)))
        validate_restriction(h, m, b, restriction)
        for first in Player:
            free = decide_mb(h, m, b, first, Objective(t, s))
            assert decide_mb(h, m, b, first, Objective(t, s), restriction) == free
            if h.n <= 7:  # within naive_decide's reach
                spec = GameSpec(
                    GameKind.MAKER_BREAKER, h, maker_bias=m, breaker_bias=b, first=first
                )
                assert free == naive_decide(spec, t, s)


def naive_values(spec: GameSpec, n: int):
    """(win, min rounds, min size, frontier) from the oracle alone: decide
    every (t, s) of the grid 1..n x 1..n and keep the Pareto-minimal winning
    pairs.  With t = s = n nothing binds (a player claims at least one
    element a move)."""
    grid = {
        (t, s) for t in range(1, n + 1) for s in range(1, n + 1) if naive_decide(spec, t, s)
    }
    if (n, n) not in grid:
        return False, None, None, ()
    front = sorted(
        p for p in grid if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in grid)
    )
    min_rounds = min(t for t, s in grid if s == n)
    min_size = min(s for t, s in grid if t == n)
    return True, min_rounds, min_size, tuple(front)


class TestValuesAgainstNaive:
    """`game_values` and `wc_game_values` ask every question of one search
    and share its memo table across round and size budgets; the values must
    match the oracle's grid."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        hypergraphs(6),
        st.integers(1, 2),
        st.integers(1, 2),
        st.sampled_from((Player.MAKER, Player.BREAKER)),
    )
    def test_claiming_game(self, board, m, b, first):
        h, _core = board
        spec = GameSpec(GameKind.MAKER_BREAKER, h, maker_bias=m, breaker_bias=b, first=first)
        got = game_values(h, m, b, first)
        assert (got.maker_wins, got.min_rounds, got.min_size, got.frontier) == naive_values(
            spec, h.n
        )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(hypergraphs(6))
    # a triangle with a pendant pair, and a pair apart: the Waiter needs all
    # three rounds, and at two rounds the root keeps the same live sets, so
    # a memo key without the budget answers 2
    @example(board=(hypergraph_new(6, [[0, 1], [0, 2], [0, 3], [1, 2], [4, 5]]), 6))
    def test_offer_game(self, board):
        h, _core = board
        got = wc_game_values(h)
        assert (got.maker_wins, got.min_rounds, got.min_size, got.frontier) == naive_values(
            GameSpec(GameKind.WAITER_CLIENT, h), h.n
        )


def _relabel(mask: int, label) -> int:
    return sum(1 << label[i] for i in range(len(label)) if mask >> i & 1)


@st.composite
def disjoint_unions(draw, max_n, min_edge=1):
    """Two or three random boards on disjoint elements, labels shuffled so
    the components interleave: each has one to three edges of at least
    `min_edge` elements, on at most max_n // parts elements."""
    parts = draw(st.integers(2, 3))
    edges, n = [], 0
    for _ in range(parts):
        core = draw(st.integers(min_edge, max_n // parts))
        edge = st.integers(1, (1 << core) - 1).filter(lambda e: e.bit_count() >= min_edge)
        edges += [e << n for e in draw(st.lists(edge, min_size=1, max_size=3))]
        n += core
    label = draw(st.permutations(range(n)))
    return hypergraph_from_masks(n, [_relabel(e, label) for e in edges])


class TestComponentSplit:
    """The Maker's split of the live sets into components (m = 1), checked
    against plain engine-driven recursion on disjoint unions."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        disjoint_unions(8, min_edge=2),
        st.integers(1, 3),
        st.sampled_from((Player.MAKER, Player.BREAKER)),
        round_budgets,
        st.data(),
    )
    def test_claiming_game(self, h, b, first, t, data):
        # no singleton edges: the Maker would finish one before any split
        s = data.draw(st.one_of(st.none(), st.integers(1, 3)))
        spec = GameSpec(GameKind.MAKER_BREAKER, h, maker_bias=1, breaker_bias=b, first=first)
        assert decide_mb(h, 1, b, first, Objective(t, s)) == naive_decide(spec, t, s)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(disjoint_unions(7, min_edge=2), st.integers(1, 2), round_budgets, st.data())
    def test_reduced_menu(self, h, b, t, data):
        # at m = 1 the associated sets are single elements; an element in
        # two or more edges must be one, any other may be
        bits = [1 << i for i in range(h.n)]
        shared = [v for v in bits if sum(1 for e in h.edges if e & v) > 1]
        others = [v for v in bits if v not in shared]
        extra = data.draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        restriction = tuple(shared + extra)
        validate_restriction(h, 1, b, restriction)
        for first in Player:
            spec = GameSpec(GameKind.MAKER_BREAKER, h, maker_bias=1, breaker_bias=b, first=first)
            got = decide_mb(h, 1, b, first, Objective(t), restriction)
            assert got == naive_decide(spec, t, None)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(2, 3), min_size=2, max_size=2),
        st.integers(1, 2),
        round_budgets,
        st.booleans(),
        st.data(),
    )
    def test_directed_edge_game(self, sizes, b, t, premove, data):
        arcs, nv = [], 0
        for size in sizes:
            vertex = st.integers(nv, nv + size - 1)
            arc = st.tuples(vertex, vertex).filter(lambda a: a[0] != a[1])
            arcs += data.draw(st.lists(arc, min_size=1, max_size=2))
            nv += size
        label = data.draw(st.permutations(range(nv)))
        digraph = digraph_new(nv, [(label[u], label[v]) for u, v in arcs], start=0)
        seeds = data.draw(st.integers(0, (1 << nv) - 1))
        spec = GameSpec(
            GameKind.AUX_EDGE, digraph, breaker_bias=b,
            preclaimed_maker=seeds, breaker_premove=premove,
        )
        got = solve_aux_game(
            digraph, b, seeds, Objective(max_rounds=t), breaker_premove=premove
        )
        assert got == naive_decide(spec, t, None)

    def test_no_split_at_maker_bias_two(self):
        # at (2:1) the Maker opens in both triples and completes one next
        # round; either triple alone is lost, so a split would answer False
        both = hypergraph_new(6, [[0, 1, 2], [3, 4, 5]])
        for triple in both.edges:
            assert not decide_mb(hypergraph_from_masks(6, [triple]), 2, 1)
        assert decide_mb(both, 2, 1)
        assert naive_decide(GameSpec(GameKind.MAKER_BREAKER, both, maker_bias=2, breaker_bias=1))


@st.composite
def cored_boards(draw, max_n):
    """Up to five sets on at most max_n elements, all but at most one of them
    holding a core of one or two elements.  The core's elements then lie in
    most needs, so they dominate many other elements, and twins are
    common."""
    n = draw(st.integers(2, max_n))
    core = sum(1 << i for i in draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2)))
    extras = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    loose = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=1))
    return hypergraph_from_masks(n, [core | e for e in extras] + loose)


class TestDominatedElements:
    """The Breaker and the one-element Maker skip dominated elements; checked
    against plain engine-driven recursion on boards where most elements are
    dominated."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        cored_boards(7),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from((Player.MAKER, Player.BREAKER)),
        round_budgets,
        st.data(),
    )
    def test_claiming_game(self, h, m, b, first, t, data):
        s = data.draw(st.one_of(st.none(), st.integers(1, h.n)))
        spec = GameSpec(GameKind.MAKER_BREAKER, h, maker_bias=m, breaker_bias=b, first=first)
        assert decide_mb(h, m, b, first, Objective(t, s)) == naive_decide(spec, t, s)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(2, 4), st.integers(1, 2), round_budgets, st.booleans(), st.data())
    def test_directed_edge_game(self, nv, b, t, premove, data):
        # arcs at one hub vertex: each arc's need lies inside its hub's needs
        vertex = st.integers(0, nv - 1)
        spoke = st.tuples(vertex, st.booleans()).filter(lambda a: a[0] != 0)
        spokes = data.draw(st.lists(spoke, min_size=1, max_size=7 - nv, unique=True))
        arcs = [(0, v) if out else (v, 0) for v, out in spokes]
        digraph = digraph_new(nv, arcs, start=0)
        seeds = data.draw(st.integers(0, (1 << nv) - 1))
        spec = GameSpec(
            GameKind.AUX_EDGE, digraph, breaker_bias=b,
            preclaimed_maker=seeds, breaker_premove=premove,
        )
        got = solve_aux_game(digraph, b, seeds, Objective(max_rounds=t), breaker_premove=premove)
        assert got == naive_decide(spec, t, None)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cored_boards(6), st.one_of(st.none(), st.integers(0, 3)), st.data())
    def test_offer_game_lists_no_claims(self, h, t, data):
        # the offer search has its own Waiter node and no Breaker node, so
        # the claim menus (and the rule in them) are never asked for
        s = data.draw(st.one_of(st.none(), st.integers(1, h.n)))

        def refuse(*args):
            raise AssertionError("the offer game listed claims")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Search, "_claims", refuse)
            got = decide_wc(h, Objective(t, s))
        assert got == naive_decide(GameSpec(GameKind.WAITER_CLIENT, h), t, s)

    def test_breaker_claims_every_undominated_element_when_they_fit(self):
        # (3:3), Breaker first: 0, 2 and 3 are twins, 4 dominates 1 and 5, so
        # only 0 and 4 are kept and no claim of three kept elements exists;
        # claiming both hits every set
        h = hypergraph_new(6, [[0, 2, 3], [1, 4, 5], [0, 2, 3, 4], [0, 1, 2, 3, 4]])
        spec = GameSpec(GameKind.MAKER_BREAKER, h, maker_bias=3, breaker_bias=3,
                        first=Player.BREAKER)
        assert not naive_decide(spec)
        assert not decide_mb(h, 3, 3, Player.BREAKER)

    def test_twins_keep_the_first_in_the_order(self):
        # 0 lies in both needs and dominates 1 and 2; 3 and 4 are twins
        assert _undominated([1, 2, 4, 8, 16], [0b00011, 0b00101]) == [1]
        assert _undominated([8, 16], [0b11000]) == [8]
        assert _undominated([16, 8], [0b11000]) == [16]


class TestSolverInvariants:
    def test_memo_key_holds_the_budget(self):
        # every edge fits both budgets, so the second call on the same search
        # object meets the same live family at the root, one round shorter
        h, _fam = build_hmbst(1, 1, 3, 4)
        claiming = _Search(1, 1, SolverSettings())
        assert claiming.run(0, 0, True, 4, h.edges)
        assert not claiming.run(0, 0, True, 3, h.edges)
        h = build_ht_wc(3)
        offer = _WCSearch(SolverSettings())
        assert offer.run(0, 0, True, 3, h.edges)
        assert not offer.run(0, 0, True, 2, h.edges)

    def test_search_work_is_pinned(self, monkeypatch):
        # the `run` calls of one question per menu (free and associated-set
        # claims, the vertex table of the directed-edge game with and without
        # the pre-move, offers): a change in pruning or in a menu's order shows
        # as a change in these counts.  The free claims are also counted on
        # thm12(1,2,3,3,3,4) with the Breaker first and its elements shuffled
        # by random.Random(1); its paper labels take 1,071 calls, so an order
        # that leans on labels shows as a larger count.  The offers are also
        # counted on C10 with its vertices shuffled (perm is
        # random.Random(0).shuffle of range(10)), a board whose labels do not
        # follow its structure.  So is the pre-move on htb(5,1) with its
        # vertices shuffled (hub_perm is random.Random(0).shuffle of
        # range(15)), whose openings follow the claiming menus' order, not the
        # labels.  P11 has no perfect matching, so its offer question is a pure
        # loss proof, where the order of the Client's keeps matters most.  The
        # gadget of {01, 12} with the Breaker first keeps sets of 33 to 160
        # elements live under its 163-round budget; without the Breaker
        # certificate it takes over a minute, with it one call.  htb(5,2) is
        # the directed-edge game at b = 2, where the Breaker's claims are
        # pairs of undominated elements
        calls = [0]
        run = _Search.run

        def counting(self, *args):
            calls[0] += 1
            return run(self, *args)

        monkeypatch.setattr(_Search, "run", counting)

        def work(question):
            calls[0] = 0
            question()
            return calls[0]

        h, fam = build_hmbst(1, 2, 3, 4)
        composite = build_thm16(1, 1, 3, 4, 4, 5)
        hub = build_htb(5, 1)
        hub2 = build_htb(5, 2)
        hub_perm = [1, 10, 9, 5, 11, 2, 3, 7, 8, 4, 0, 14, 12, 6, 13]
        hub_shuffled = digraph_new(
            hub.nv, [(hub_perm[u], hub_perm[v]) for u, v in hub.arcs], start=hub_perm[hub.start]
        )
        c10 = minimal_dominating_sets(cycle_graph(10))
        perm = [7, 8, 1, 5, 3, 4, 2, 0, 9, 6]
        shuffled = minimal_dominating_sets(
            graph_new(10, [(perm[u], perm[v]) for u, v in cycle_graph(10).edges])
        )
        gadget = build_gadget(hypergraph_new(3, [[0, 1], [1, 2]]), 1)
        thm12 = build_thm12(1, 2, 3, 3, 3, 4)
        relabel = list(range(thm12.n))
        random.Random(1).shuffle(relabel)
        thm12_shuffled = hypergraph_new(
            thm12.n, [[relabel[i] for i in range(thm12.n) if e >> i & 1] for e in thm12.edges]
        )
        assert {
            "associated sets": work(lambda: decide_mb(h, 1, 2, Player.MAKER, Objective(4, 3), fam)),
            "free claims": work(lambda: game_values(composite, 1, 1)),
            "free claims, elements shuffled": work(
                lambda: game_values(thm12_shuffled, 1, 2, Player.BREAKER)
            ),
            "vertices": work(lambda: solve_aux_game(hub, 1, 0, Objective(max_rounds=5))),
            "vertices, Breaker bias 2": work(
                lambda: solve_aux_game(hub2, 2, 0, Objective(max_rounds=5))
            ),
            "vertices after a pre-move": work(
                lambda: solve_aux_game(hub, 1, 0, breaker_premove=True)
            ),
            "vertices after a pre-move, vertices shuffled": work(
                lambda: solve_aux_game(hub_shuffled, 1, 0, breaker_premove=True)
            ),
            "offers": work(lambda: wc_game_values(c10)),
            "offers, vertices shuffled": work(lambda: wc_game_values(shuffled)),
            "offers, a path with no perfect matching": work(
                lambda: wc_game_values(minimal_dominating_sets(path_graph(11)))
            ),
            "free claims on a gadget, Breaker first": work(
                lambda: dom_game_values(gadget, 1, 1, Player.BREAKER)
            ),
        } == {
            "associated sets": 281,
            "free claims": 870,
            "free claims, elements shuffled": 2_543,
            "vertices": 396,
            "vertices, Breaker bias 2": 12_169,
            "vertices after a pre-move": 53,
            "vertices after a pre-move, vertices shuffled": 71,
            "offers": 6_689,
            "offers, vertices shuffled": 7_114,
            "offers, a path with no perfect matching": 1_448,
            "free claims on a gadget, Breaker first": 1,
        }

    def test_memo_cap_guard_is_loud(self):
        tiny = SolverSettings(memo_cap=2)
        h, _fam = build_hmbst(1, 1, 3, 3)
        with pytest.raises(GuardExceeded):
            decide_mb(h, 1, 1, settings=tiny)
        with pytest.raises(GuardExceeded):
            decide_wc(build_ht_wc(3), settings=tiny)
        board = build_gtb(2, 2)
        with pytest.raises(GuardExceeded):
            solve_aux_game(board, 2, (1 << board.start) | (1 << board.end), settings=tiny)
        # the cap bounds the one table all of a board's questions share
        with pytest.raises(GuardExceeded):
            game_values(h, 1, 1, settings=tiny)

    def test_negative_setting_cap_is_rejected(self):
        for cap in (0, -3):
            with pytest.raises(PosgamesError, match="must be positive"):
                decide_mb(hypergraph_new(2, [[0]]), 1, 1, settings=SolverSettings(memo_cap=cap))


class TestMoveRestriction:
    def test_restriction_preserves_values(self):
        # both menus key on the residual family, with and without a size
        # budget
        for shape in ((1, 1, 3, 3), (1, 1, 3, 4)):
            h, restriction = build_hmbst(*shape)
            for t in (2, 3, 4):
                for first in (Player.MAKER, Player.BREAKER):
                    for objective in (Objective(t), Objective(t, 3)):
                        free = decide_mb(h, 1, 1, first, objective)
                        reduced = decide_mb(h, 1, 1, first, objective, restriction)
                        assert free == reduced, (shape, objective, first)

    def test_paper_board_within_a_small_memo(self):
        # the reduced menu shares the free search's residual key, so the
        # paper's H(1,2,3,4) board fits 50,000 entries (6,449 are used)
        h, fam = build_hmbst(1, 2, 3, 4)
        small = SolverSettings(memo_cap=50_000)
        assert decide_mb(h, 1, 2, Player.MAKER, Objective(4, 3), fam, settings=small)

    def test_rejects_oversized_sets(self):
        h = hypergraph_new(4, [[0, 1, 2]])
        with pytest.raises(RestrictionError):
            validate_restriction(h, 1, 1, (0b11,))

    def test_rejects_overlapping_sets(self):
        h = hypergraph_new(4, [[0, 1, 2]])
        with pytest.raises(RestrictionError):
            validate_restriction(h, 1, 1, (0b01, 0b01))

    def test_rejects_straddling_edges(self):
        h = hypergraph_new(4, [[1, 2, 3]])
        # {0,1} meets the edge without being contained in it
        with pytest.raises(RestrictionError):
            validate_restriction(h, 2, 2, (0b0011,))

    def test_rejects_maker_bias_above_breaker_bias(self):
        # Maker's free first claim {0, 2} makes two threats and wins within
        # two rounds; claiming whole associated sets only, she would lose
        h = hypergraph_new(8, [[0, 1, 7], [2, 3, 5]])
        spec = GameSpec(GameKind.MAKER_BREAKER, h, maker_bias=2, breaker_bias=1)
        assert decide_mb(h, 2, 1, Player.MAKER, Objective(2))
        assert naive_decide(spec, 2, None)
        restriction = (0b0011, 0b1100)
        with pytest.raises(RestrictionError, match="maker bias"):
            validate_restriction(h, 2, 1, restriction)
        with pytest.raises(RestrictionError, match="maker bias"):
            decide_mb(h, 2, 1, Player.MAKER, Objective(2), restriction)

    def test_rejects_a_set_no_larger_than_the_maker_bias(self):
        h = hypergraph_new(3, [[0], [1, 2]])
        with pytest.raises(RestrictionError) as exc:
            validate_restriction(h, 1, 1, (0b001, 0b010, 0b100))
        assert str(exc.value) == "every winning set must be larger than the maker bias"

    def test_rejects_shared_outside_elements(self):
        h = hypergraph_new(4, [[0, 1], [1, 2]])
        # element 1 is outside the family and lies in two edges
        with pytest.raises(RestrictionError):
            validate_restriction(h, 1, 1, (0b1000,))
