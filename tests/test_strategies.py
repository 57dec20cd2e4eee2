import tracemalloc

import pytest
from conftest import naive_verify

from posgames import strategies
from posgames.bitset import iter_bits
from posgames.boards import digraph_new, hypergraph_new
from posgames.constructions import build_gtb_indexed, build_ht_wc_indexed, build_htb
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
from posgames.errors import GuardExceeded, PosgamesError
from posgames.graphgen import path_graph
from posgames.solver import Objective, solve_aux_game, values
from posgames.strategies import (
    CATALOG,
    Guarantee,
    GuaranteeKind,
    Strategy,
    VerifyResult,
    instance,
    make_breaker_pairing,
    never_loses,
    opponent_not_within,
    verify_strategy,
    win_within,
)


class TestCatalogBasics:
    def test_unknown_name_rejected(self):
        with pytest.raises(PosgamesError):
            instance("no-such-script")

    def test_wrong_params_rejected(self):
        with pytest.raises(PosgamesError, match="unexpected"):
            instance("maker-gtb", n=2)

    def test_slow_blocker_needs_two_rounds(self):
        # at t = 1 the guarantee would be "no opposing win within 0 rounds"
        with pytest.raises(PosgamesError, match="t >= 2"):
            instance("breaker-gtb-slow", t=1)

    def test_never_is_the_unbounded_opponent_guarantee(self):
        guarantee = never_loses()
        assert guarantee == Guarantee(GuaranteeKind.OPPONENT_NOT_WITHIN, None)
        assert guarantee.describe() == "never lets the claiming player win"


class TestFirstMoves:
    def test_branched_maker_claims_the_junction(self):
        _board, root = build_gtb_indexed(2, 2)
        spec, strat, _ = instance("maker-gtb", t=2, b=2)
        move, _mem = strat.next_move(spec, initial_state(spec), strat.initial_memory)
        assert move == root.mid

    def test_pairing_answers_the_partner(self):
        _h, pairs = build_ht_wc_indexed(3)
        spec, strat, _ = instance("breaker-pairing", t=3)
        state = initial_state(spec)
        a1 = pairs[0] & -pairs[0]
        state = apply_move(spec, state, a1)
        move, _ = strat.next_move(spec, state, strat.initial_memory)
        assert move == pairs[0] & ~a1

    def test_cycle_waiter_opens_next_to_the_seam(self):
        n = 5
        spec, strat, _ = instance("waiter-cycle", n=n)
        move, _ = strat.next_move(spec, initial_state(spec), strat.initial_memory)
        assert move == (1 << (n - 2)) | (1 << (n - 1))


class TestVerifierExamples:
    def test_branched_maker_wins_in_two(self):
        assert verify_strategy(*instance("maker-gtb", t=2, b=2)).ok

    def test_blocker_holds_single_seed(self):
        board, _ = build_gtb_indexed(2, 2)
        for v in range(board.nv):
            res = verify_strategy(*instance("breaker-gtb-block", t=2, b=2, seed_vertex=v))
            assert res.ok, (v, res.counterexample)

    def test_cycle_waiter_meets_the_bound(self):
        for n in range(3, 9):
            spec, strat, guarantee = instance("waiter-cycle", n=n)
            assert guarantee == win_within(n // 2)
            res = verify_strategy(spec, strat, guarantee)
            assert res.ok, (n, res.counterexample)

    def test_cycle_client_delays(self):
        for n in range(6, 9):
            spec, strat, guarantee = instance("client-cycle", n=n)
            assert guarantee == opponent_not_within(n // 2 - 1)
            res = verify_strategy(spec, strat, guarantee)
            assert res.ok, (n, res.counterexample)

    def test_counterexample_surfaces_for_false_guarantees(self):
        spec, strat, _ = instance("maker-gtb", t=2, b=1)
        res = verify_strategy(spec, strat, win_within(1))
        assert not res.ok
        assert res.counterexample is not None

    def test_a_planned_claimed_element_is_the_scripts_illegal_move(self):
        # the Breaker opens on hub 0, the hub script's first planned claim
        spec = GameSpec(
            GameKind.AUX_EDGE, build_htb(3, 1), breaker_bias=1, first=Player.BREAKER
        )
        res = verify_strategy(spec, strategies.make_maker_htb(3, 1), win_within(3))
        assert not res.ok and (res.nodes, res.expanded) == (2, 2)
        assert res.counterexample == (("breaker", [0]), ("illegal:maker", [0]))

    def test_a_stuck_directed_edge_maker_fails_a_win_guarantee(self):
        # the script takes vertex 0, the Breaker vertex 1: the arc's head is
        # gone, no vertex is free, and the Maker has no move left
        board = digraph_new(2, [(0, 1)], start=0)
        spec = GameSpec(GameKind.AUX_EDGE, board, breaker_bias=1)

        def lowest_vertex(spec, state, mem):
            free = board.vertex_mask & ~(state.maker | state.breaker)
            return free & -free, mem

        strat = Strategy("lowest-vertex", Player.MAKER, lowest_vertex)
        res = verify_strategy(spec, strat, win_within(3))
        assert res == VerifyResult(False, (("maker", [0]), ("breaker", [1])), 3, 3)
        assert (res.ok, res.nodes, res.counterexample) == naive_verify(
            spec, strat, win_within(3)
        )

    def test_a_plan_above_the_bias_is_not_trimmed(self):
        # the Maker's first claim touches both pairs, and the pairing names
        # both partners at bias 1
        spec = GameSpec(
            GameKind.MAKER_BREAKER, hypergraph_new(4, [[0, 2], [1, 3]]), maker_bias=2
        )
        res = verify_strategy(spec, make_breaker_pairing((0b101, 0b1010)), never_loses())
        assert not res.ok and res.nodes == 2
        assert res.counterexample == (("maker", [0, 1]), ("illegal:breaker", [2, 3]))

    def test_certified_bounds_never_beat_the_solver(self):
        spec, strat, guarantee = instance("maker-gtb", t=3, b=2)
        assert guarantee == win_within(3)
        assert verify_strategy(spec, strat, guarantee).ok
        # the solver needs 3 rounds as well: certifying 3 is optimal
        assert not solve_aux_game(
            spec.board, 2, spec.preclaimed_maker, Objective(max_rounds=2)
        )


def _tightened(guarantee: Guarantee) -> Guarantee:
    """The same guarantee one round stricter."""
    step = -1 if guarantee.kind is GuaranteeKind.WIN_WITHIN else 1
    return Guarantee(guarantee.kind, guarantee.rounds + step)


def _spoiled(script: Strategy, when, bad_move) -> Strategy:
    """`script`, except that it plays `bad_move(state)` wherever `when(state)`."""

    def next_move(spec, state, mem):
        if when(state):
            return bad_move(state), mem
        return script.next_move(spec, state, mem)

    return Strategy(script.name, script.player, next_move, script.initial_memory)


def _lowest_pairs_waiter() -> Strategy:
    """Offers the two lowest free elements, or the last one."""

    def next_move(spec, state, mem):
        free = spec.full_mask & ~(state.maker | state.breaker)
        low = free & -free
        rest = free & ~low
        return low | (rest & -rest), mem

    return Strategy("lowest-pairs", Player.MAKER, next_move)


def _offer_script_failures():
    """(label, spec, script, guarantee) of offer-game scripts that fail after
    the first round, so their traces run through pending offers: illegal
    keeps and offers, and legal scripts that are too slow or let the Waiter
    in."""
    c9, client, c9_guarantee = instance("client-cycle", n=9)
    c10, waiter, c10_guarantee = instance("waiter-cycle", n=10)
    c7 = instance("waiter-cycle", n=7)[0]
    return [
        # keeps an element it already holds when a round-2 offer holds
        # vertex 8, after passing subtrees have been found in the table
        ("client-illegal-keep", c9, _spoiled(
            client, lambda s: s.maker_moves_used == 1 and s.pending_offer >> 8 & 1,
            lambda s: s.breaker & -s.breaker,
        ), c9_guarantee),
        # offers one of its own elements in round 4 once the Client holds 0
        ("waiter-illegal-offer", c10, _spoiled(
            waiter, lambda s: s.maker_moves_used == 3 and s.breaker & 1,
            lambda s: s.maker & -s.maker,
        ), c10_guarantee),
        # legal, but on C7 it misses the cycle's value of 3 rounds
        ("waiter-lowest-pairs", c7, _lowest_pairs_waiter(), win_within(3)),
        # the catalog script one round short of its bound
        ("client-cycle-C7", *instance("client-cycle", n=7)[:2], opponent_not_within(3)),
    ]


def _differential_cases():
    """(spec, script, guarantee, ok) cases: every smallest instance, those
    with a round count once more one round stricter, seven larger instances,
    among them three blocking scripts at t = 4 whose reply trees have 758 to
    1,401 nodes, and the offer-game failures above."""
    cases = []
    for name in CATALOG:
        spec, strat, guarantee = instance(name)
        cases.append(pytest.param(spec, strat, guarantee, True, id=name))
        if guarantee.rounds is not None:
            cases.append(pytest.param(
                spec, strat, _tightened(guarantee), False, id=f"{name}-tightened"
            ))
    for name, params, ok in [
        ("client-cycle", {"n": 8}, True),
        ("maker-gtb", {"t": 3, "b": 2}, True),
        ("breaker-gtb-slow", {"t": 4, "b": 1}, True),
        ("breaker-htb-premove", {"t": 4, "b": 1}, True),
        ("breaker-htb-slow", {"t": 4, "b": 1}, True),
        ("breaker-htb-slow", {"t": 5, "b": 1}, True),
        ("maker-hmbst", {"m": 1, "b": 1, "s": 4, "t": 4}, True),  # the nested form
    ]:
        label = name + "-" + "-".join(f"{k}{v}" for k, v in params.items())
        cases.append(pytest.param(*instance(name, **params), ok, id=label))
    for label, *case in _offer_script_failures():
        cases.append(pytest.param(*case, False, id=label))
    return cases


class TestVerifierTable:
    @pytest.mark.parametrize("name, used", [
        pytest.param("breaker-pairing", {"successors", "apply_move", "status"}, id="breaker-pairing"),
        pytest.param("client-cycle", {"successors", "apply_move", "status"}, id="client-cycle"),
        # the directed-edge Maker script may be left without a move, which
        # the verifier asks `legal_moves`
        pytest.param("maker-gtb", {"successors", "apply_move", "status", "legal_moves"},
                     id="maker-gtb"),
    ])
    def test_engine_calls_go_through_the_strategies_module(self, monkeypatch, name, used):
        """The verifier looks the engine up under these names in
        `strategies`, so wrapping them there sees every call."""
        calls = dict.fromkeys(("legal_moves", "successors", "apply_move", "status"), 0)
        for attr in calls:
            def counted(*args, _fn=getattr(strategies, attr), _attr=attr):
                calls[_attr] += 1
                return _fn(*args)

            monkeypatch.setattr(strategies, attr, counted)
        assert verify_strategy(*instance(name)).ok
        assert {attr for attr, count in calls.items() if count} == used, calls

    def test_offer_script_failures_come_after_the_first_round(self):
        last = {}
        for label, *case in _offer_script_failures():
            res = verify_strategy(*case)
            assert len(res.counterexample) > 2, label
            last[label] = (res.counterexample[-1][0], res.expanded < res.nodes)
        # the illegal keep is met after hits in the table
        assert last["client-illegal-keep"] == ("illegal:breaker", True)
        assert last["waiter-illegal-offer"][0] == "illegal:maker"

    @pytest.mark.parametrize("bound", [0, -3])
    def test_node_bound_must_be_positive(self, bound):
        with pytest.raises(PosgamesError, match="must be positive") as exc:
            verify_strategy(*instance("maker-gtb"), max_nodes=bound)
        assert not isinstance(exc.value, GuardExceeded)

    @pytest.mark.parametrize("spec, strat, guarantee, ok", _differential_cases())
    def test_matches_the_plain_reply_tree_walk(self, spec, strat, guarantee, ok):
        res = verify_strategy(spec, strat, guarantee, max_nodes=5_000_000)
        assert res.ok is ok
        assert (res.ok, res.nodes, res.counterexample) == naive_verify(spec, strat, guarantee)
        assert res.expanded <= res.nodes

    @pytest.mark.parametrize("name, params, nodes, expanded", [
        ("maker-gtb", {"t": 4, "b": 1}, 3726, 1598),
        ("breaker-gtb-block", {"t": 4, "b": 1}, 219_201, 1280),
        ("breaker-gtb-slow", {"t": 4, "b": 1}, 1401, 687),
        ("maker-htb", {"t": 4, "b": 1}, 3726, 1598),
        ("breaker-htb-premove", {"t": 4, "b": 1}, 1174, 177),
        ("breaker-htb-slow", {"t": 4, "b": 1}, 758, 372),
        ("client-cycle", {"n": 9}, 46_297, 15_373),
        ("waiter-cycle", {"n": 10}, 70, 70),
        ("breaker-pairing", {"t": 5}, 118_153, 3555),
        ("maker-hmbst", {"m": 1, "b": 1, "s": 3, "t": 4}, 3726, 1598),
        ("maker-hmbst", {"m": 1, "b": 2, "s": 3, "t": 3}, 4886, 1880),
        ("maker-nonmonotone", {}, 2, 2),
        ("breaker-nonmonotone", {}, 5, 5),
        ("waiter-tree", {}, 4, 4),
        ("dominator-lift", {}, 2, 2),
    ])
    def test_walk_is_pinned(self, name, params, nodes, expanded):
        """The reply-tree size and the positions expanded on the
        script-verify instances of perfbench."""
        res = verify_strategy(*instance(name, **params), max_nodes=5_000_000)
        assert (res.ok, res.nodes, res.expanded) == (True, nodes, expanded)

    def test_opponent_menu_is_made_lazily(self):
        """Each Breaker turn on this 156-element board has C(155, 4) =
        23,130,030 claims; the guard trips long before a list of them could
        be built."""
        case = instance("maker-hmbst", m=1, b=4, s=3, t=4)
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceeded):
                verify_strategy(*case, max_nodes=1_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    def test_guard_bounds_expanded_positions(self):
        with pytest.raises(GuardExceeded):
            verify_strategy(*instance("maker-gtb", t=3, b=2), max_nodes=10)
        # the reply tree has 219,201 nodes, but far fewer are expanded
        res = verify_strategy(*instance("breaker-gtb-block", t=4, b=1), max_nodes=10_000)
        assert res.ok and res.nodes == 219_201 and res.expanded < 10_000


class TestSlowBlockerInvariants:
    """After each scripted move: at most one opposing vertex keeps free
    outgoing arcs, and close-below pairs are fully blocked."""

    @pytest.mark.parametrize("t,b", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    def test_properties_hold_along_random_plays(self, t, b, rng):
        spec, strat, _ = instance("breaker-gtb-slow", t=t, b=b)
        board = spec.board
        dist = board.distances
        out_arcs = [0] * board.nv
        for j, (u, _v) in enumerate(board.arcs):
            out_arcs[u] |= 1 << (board.nv + j)
        for _ in range(50):
            state = initial_state(spec)
            mem = strat.initial_memory
            move_no = 0
            while True:
                if status(spec, state) is not Outcome.ONGOING:
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
            res = verify_strategy(
                *instance("breaker-gtb-slow", t=t, b=b), max_nodes=5_000_000
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
            spec, strat, _guarantee = instance(name)
            for _ in range(25):
                state = initial_state(spec)
                mem = strat.initial_memory
                while True:
                    if status(spec, state) is not Outcome.ONGOING:
                        break
                    moves = legal_moves(spec, state)
                    if not moves:
                        break
                    if state.to_move is strat.player:
                        mv, mem = strat.next_move(spec, state, mem)
                        hash(mem)  # the verifier's table keys on it
                        state = apply_move(spec, state, mv)  # raises if illegal
                    else:
                        state = apply_move(spec, state, rng.choice(moves))


class TestTreeOfferScript:
    def test_requires_a_perfect_matching(self):
        with pytest.raises(PosgamesError):
            instance("waiter-tree", tree=path_graph(3))

    def test_longer_paths(self):
        for n in (4, 6, 8):
            spec, strat, guarantee = instance("waiter-tree", tree=path_graph(n))
            assert guarantee == win_within(n // 2)
            res = verify_strategy(spec, strat, guarantee)
            assert res.ok, (n, res.counterexample)


class TestFairBiasScripts:
    """The block scripts of Theorem 1.1 at fair biases other than the
    smallest instance's."""

    @pytest.mark.parametrize("blocked, bias, nodes", [
        ({2}, 1, 42), ({3}, 1, 1_608), ({3}, 2, 92), ({2, 4}, 1, 20_906), ({2, 4}, 3, 332),
    ])
    def test_maker_wins_within_the_rounds_of_one_element_per_block(self, blocked, bias, nodes):
        spec, strat, guarantee = instance("maker-nonmonotone", blocked=blocked, bias=bias)
        # max(blocked) + 1 blocks at `bias` elements a round, which the solver
        # confirms is the fastest win
        assert guarantee == win_within(-(-(max(blocked) + 1) // bias))
        assert values(spec).min_rounds == guarantee.rounds
        res = verify_strategy(spec, strat, guarantee)
        assert (res.ok, res.nodes) == (True, nodes)

    @pytest.mark.parametrize("blocked, bias, nodes", [
        ({2}, 2, 31), ({1, 2}, 1, 9), ({1, 2}, 2, 13), ({3}, 3, 441), ({2, 4}, 2, 183),
    ])
    def test_breaker_holds_at_a_blocked_bias(self, blocked, bias, nodes):
        res = verify_strategy(*instance("breaker-nonmonotone", blocked=blocked, bias=bias))
        assert (res.ok, res.nodes) == (True, nodes)

    @pytest.mark.parametrize("name, blocked, bias", [
        ("maker-nonmonotone", {2}, 2),
        ("dominator-lift", {1}, 1),
        ("breaker-nonmonotone", {2}, 1),
        ("breaker-nonmonotone", {1}, 2),
    ])
    def test_builders_reject_the_other_side_of_the_blocked_set(self, name, blocked, bias):
        with pytest.raises(PosgamesError, match="needs a bias"):
            instance(name, blocked=blocked, bias=bias)

    def test_lift_at_bias_four_lists_no_maker_claims(self):
        # the script's own turn needs no move list: at the root of this
        # 242-element board it would hold C(242, 4) claims
        res = verify_strategy(*instance("dominator-lift", bias=4))
        assert (res.ok, res.nodes) == (True, 2)
