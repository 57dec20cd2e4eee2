import pytest

from posgames.bitset import iter_bits
from posgames.boards import hypergraph_new
from posgames.constructions import build_gtb_indexed, build_ht_wc_indexed
from posgames.domination import minimal_dominating_sets
from posgames.engine import (
    GameKind,
    GameSpec,
    Outcome,
    Player,
    apply_move,
    initial_state,
    legal_moves,
    status,
)
from posgames.errors import PosgamesError
from posgames.graphgen import cycle_graph, path_graph
from posgames.solver import Objective, solve_aux_game
from posgames.strategies import (
    CATALOG,
    get_strategy,
    make_breaker_pairing,
    never_loses,
    opponent_not_within,
    smallest_instance,
    verify_strategy,
    win_within,
)


def aux_spec(board, b, pre=0, premove=False):
    return GameSpec(
        GameKind.AUX_EDGE, board, maker_bias=1, breaker_bias=b,
        preclaimed_maker=pre, breaker_premove=premove,
    )


class TestCatalogBasics:
    def test_unknown_name_rejected(self):
        with pytest.raises(PosgamesError):
            get_strategy("no-such-script")

    def test_wrong_params_rejected(self):
        with pytest.raises(PosgamesError):
            get_strategy("maker-gtb", t=2)


class TestFirstMoves:
    def test_branched_maker_claims_the_junction(self):
        board, root = build_gtb_indexed(2, 2)
        spec = aux_spec(board, 2, (1 << board.start) | (1 << board.end))
        strat = get_strategy("maker-gtb", t=2, b=2)
        move, _mem = strat.next_move(spec, initial_state(spec), strat.initial_memory)
        assert move.elements == 1 << root.mid

    def test_pairing_answers_the_partner(self):
        from posgames.engine import Move, MoveKind

        h, pairs = build_ht_wc_indexed(3)
        spec = GameSpec(GameKind.MAKER_BREAKER, h)
        strat = make_breaker_pairing(pairs)
        state = initial_state(spec)
        a1 = pairs[0] & -pairs[0]
        state = apply_move(spec, state, Move(MoveKind.CLAIM, a1))
        move, _ = strat.next_move(spec, state, strat.initial_memory)
        assert move.elements == pairs[0] & ~a1

    def test_cycle_waiter_opens_next_to_the_seam(self):
        n = 5
        h = minimal_dominating_sets(cycle_graph(n))
        spec = GameSpec(GameKind.WAITER_CLIENT, h)
        strat = get_strategy("waiter-cycle", n=n)
        move, _ = strat.next_move(spec, initial_state(spec), strat.initial_memory)
        assert move.elements == (1 << (n - 2)) | (1 << (n - 1))


class TestVerifierExamples:
    def test_branched_maker_wins_in_two(self):
        board, _ = build_gtb_indexed(2, 2)
        spec = aux_spec(board, 2, (1 << board.start) | (1 << board.end))
        assert verify_strategy(spec, get_strategy("maker-gtb", t=2, b=2), win_within(2)).ok

    def test_blocker_holds_single_seed(self):
        board, _ = build_gtb_indexed(2, 2)
        for v in range(board.nv):
            spec = aux_spec(board, 2, 1 << v)
            res = verify_strategy(spec, get_strategy("breaker-gtb-block", b=2), never_loses())
            assert res.ok, (v, res.counterexample)

    def test_cycle_waiter_meets_the_bound(self):
        for n in range(3, 9):
            h = minimal_dominating_sets(cycle_graph(n))
            spec = GameSpec(GameKind.WAITER_CLIENT, h)
            res = verify_strategy(spec, get_strategy("waiter-cycle", n=n), win_within(n // 2))
            assert res.ok, (n, res.counterexample)

    def test_cycle_client_delays(self):
        for n in range(6, 9):
            h = minimal_dominating_sets(cycle_graph(n))
            spec = GameSpec(GameKind.WAITER_CLIENT, h)
            res = verify_strategy(
                spec, get_strategy("client-cycle", n=n), opponent_not_within(n // 2 - 1)
            )
            assert res.ok, (n, res.counterexample)

    def test_counterexample_surfaces_for_false_guarantees(self):
        board, _ = build_gtb_indexed(2, 1)
        spec = aux_spec(board, 1, (1 << board.start) | (1 << board.end))
        res = verify_strategy(spec, get_strategy("maker-gtb", t=2, b=1), win_within(1))
        assert not res.ok
        assert res.counterexample is not None

    def test_certified_bounds_never_beat_the_solver(self):
        board, _ = build_gtb_indexed(3, 2)
        seeds = (1 << board.start) | (1 << board.end)
        spec = aux_spec(board, 2, seeds)
        assert verify_strategy(spec, get_strategy("maker-gtb", t=3, b=2), win_within(3)).ok
        # the solver needs 3 rounds as well: certifying 3 is optimal
        assert not solve_aux_game(board, 2, seeds, Objective(max_rounds=2))


class TestSlowBlockerInvariants:
    """After each scripted move: at most one opposing vertex keeps free
    outgoing arcs, and close-below pairs are fully blocked."""

    @pytest.mark.parametrize("t,b", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    def test_properties_hold_along_random_plays(self, t, b, rng):
        board, _root = build_gtb_indexed(t, b)
        spec = aux_spec(board, b, (1 << board.start) | (1 << board.end))
        strat = get_strategy("breaker-gtb-slow", t=t, b=b)
        reach = board.reachability()
        dist = board.shortest_path_lengths()
        out_arcs = [0] * board.nv
        for j, (u, _v) in enumerate(board.arcs):
            out_arcs[u] |= 1 << (board.nv + j)
        for _ in range(50):
            state = initial_state(spec)
            mem = strat.initial_memory
            move_no = 0
            while True:
                if status(spec, state).outcome is not Outcome.ONGOING:
                    break
                moves = legal_moves(spec, state)
                if not moves:
                    break
                if state.to_move is Player.BREAKER:
                    mv, mem = strat.next_move(spec, state, mem)
                    state = apply_move(spec, state, mv)
                    move_no += 1
                    free = spec.full_mask & ~(state.maker | state.breaker)
                    live = [
                        v
                        for v in range(board.nv)
                        if state.maker & (1 << v) and out_arcs[v] & free
                    ]
                    assert len(live) <= 1, (t, b, live)
                    for y in range(board.nv):
                        if not state.maker & (1 << y):
                            continue
                        for z in range(board.nv):
                            if z == y or not state.maker & (1 << z):
                                continue
                            d = dist[y][z]
                            if d is not None and d < 2 ** max(t - move_no - 1, 0):
                                assert not out_arcs[y] & free, (t, b, y, z)
                else:
                    state = apply_move(spec, state, rng.choice(moves))

    def test_slow_blockers_defeat_the_clock(self):
        for t, b in [(2, 1), (3, 1), (3, 2)]:
            board, _ = build_gtb_indexed(t, b)
            spec = aux_spec(board, b, (1 << board.start) | (1 << board.end))
            res = verify_strategy(
                spec, get_strategy("breaker-gtb-slow", t=t, b=b),
                opponent_not_within(t - 1), max_nodes=5_000_000,
            )
            assert res.ok, (t, b, res.counterexample)


class TestPairingSoundness:
    def test_never_loses_when_every_edge_contains_a_pair(self, rng):
        for _ in range(40):
            n = rng.randint(4, 10)
            k = rng.randint(1, n // 2)
            elements = list(range(n))
            rng.shuffle(elements)
            pairs = [
                (1 << elements[2 * i]) | (1 << elements[2 * i + 1]) for i in range(k)
            ]
            edges = []
            for _e in range(rng.randint(1, 4)):
                base = rng.choice(pairs)
                extra = 0
                for v in rng.sample(range(n), rng.randint(0, n - 2)):
                    extra |= 1 << v
                edges.append(base | extra)
            h = hypergraph_new(n, [
                [b.bit_length() - 1 for b in iter_bits(e)] for e in edges
            ])
            spec = GameSpec(GameKind.MAKER_BREAKER, h)
            res = verify_strategy(
                spec, make_breaker_pairing(tuple(pairs)), never_loses(),
                max_nodes=3_000_000,
            )
            assert res.ok, (n, [hex(p) for p in pairs], h.edge_indices(),
                            res.counterexample)


class TestLegalityFuzz:
    def test_scripts_always_move_legally(self, rng):
        """Play each strategy against random opposition from its own start."""
        for name in CATALOG:
            spec, strat, _guarantee = smallest_instance(name)
            for _ in range(25):
                state = initial_state(spec)
                mem = strat.initial_memory
                while True:
                    if status(spec, state).outcome is not Outcome.ONGOING:
                        break
                    moves = legal_moves(spec, state)
                    if not moves:
                        break
                    if state.to_move is strat.player:
                        mv, mem = strat.next_move(spec, state, mem)
                        state = apply_move(spec, state, mv)  # raises if illegal
                    else:
                        state = apply_move(spec, state, rng.choice(moves))


class TestTreeOfferScript:
    def test_requires_a_perfect_matching(self):
        with pytest.raises(PosgamesError):
            get_strategy("waiter-tree", tree=path_graph(3))

    def test_longer_paths(self):
        for n in (4, 6, 8):
            tree = path_graph(n)
            h = minimal_dominating_sets(tree)
            spec = GameSpec(GameKind.WAITER_CLIENT, h)
            res = verify_strategy(
                spec, get_strategy("waiter-tree", tree=tree), win_within(n // 2)
            )
            assert res.ok, (n, res.counterexample)
