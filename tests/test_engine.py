import pytest

from posgames.boards import digraph_new, hypergraph_new
from posgames.constructions import build_gtb
from posgames.engine import (
    GameKind,
    GameSpec,
    GameState,
    Outcome,
    Player,
    apply_move,
    free_mask,
    initial_state,
    legal_moves,
    status,
    successors,
)
from posgames.errors import BoardError, IllegalMove


def mb_spec(h, m=1, b=1, first=Player.MAKER):
    return GameSpec(GameKind.MAKER_BREAKER, h, maker_bias=m, breaker_bias=b, first=first)


class TestLegalMoves:
    def test_singleton_claims(self):
        spec = mb_spec(hypergraph_new(2, [[0], [1]]))
        assert set(legal_moves(spec, initial_state(spec))) == {1, 2}

    def test_claim_all_remaining_when_bias_exceeds_free(self):
        spec = mb_spec(hypergraph_new(2, [[0, 1]]), m=3)
        assert set(legal_moves(spec, initial_state(spec))) == {0b11}

    def test_aux_base_instance_offers_only_the_arc(self):
        board = build_gtb(1, 1)
        spec = GameSpec(
            GameKind.AUX_EDGE, board, breaker_bias=1,
            preclaimed_maker=(1 << board.start) | (1 << board.end),
        )
        # the arc element; no vertex is free
        assert legal_moves(spec, initial_state(spec)) == [1 << 2]

    def test_aux_arc_needs_both_endpoints(self):
        board = digraph_new(3, [(0, 1), (1, 2)], start=0, end=2)
        spec = GameSpec(GameKind.AUX_EDGE, board, preclaimed_maker=0b001)
        # free vertices only, no arc yet
        assert set(legal_moves(spec, initial_state(spec))) == {0b010, 0b100}

    def test_wc_offers_pairs_then_singleton(self):
        spec = GameSpec(GameKind.WAITER_CLIENT, hypergraph_new(3, [[0, 1, 2]]))
        offers = set(legal_moves(spec, initial_state(spec)))
        assert offers == {0b011, 0b101, 0b110}
        one_left = GameState(maker=0b010, breaker=0b100, to_move=Player.MAKER,
                             maker_moves_used=1)
        assert set(legal_moves(spec, one_left)) == {0b001}


def _random_position(rng):
    """A random game of a random kind and a random position in it: disjoint
    claimed sets, any player to move, and in the offer game a pending offer
    of one or two free elements half the time."""
    from conftest import random_hypergraph_masks

    kind = rng.choice(list(GameKind))
    maker = breaker = pending = 0
    if kind is GameKind.AUX_EDGE:
        nv = rng.randint(2, 5)
        arcs = [rng.sample(range(nv), 2) for _ in range(rng.randint(1, 5))]
        spec = GameSpec(kind, digraph_new(nv, arcs, start=0), breaker_bias=rng.randint(1, 3),
                        breaker_premove=rng.random() < 0.3)
    elif kind is GameKind.MAKER_BREAKER:
        spec = mb_spec(random_hypergraph_masks(rng.randint(2, 7), 4, rng),
                       m=rng.randint(1, 3), b=rng.randint(1, 3))
    else:
        spec = GameSpec(kind, random_hypergraph_masks(rng.randint(2, 7), 4, rng))
    for i in range(spec.n_elements):
        pick = rng.random()
        if pick < 0.35:
            maker |= 1 << i
        elif pick < 0.7:
            breaker |= 1 << i
    to_move = rng.choice(list(Player))
    if spec.breaker_premove and rng.random() < 0.5:
        breaker, to_move = 0, Player.BREAKER
    free = spec.full_mask & ~(maker | breaker)
    if kind is GameKind.WAITER_CLIENT:
        to_move = Player.MAKER
        if free and rng.random() < 0.5:
            bits = [1 << i for i in range(spec.n_elements) if free >> i & 1]
            pending = sum(rng.sample(bits, min(len(bits), rng.randint(1, 2))))
            to_move = Player.BREAKER
    return spec, GameState(maker, breaker, to_move, rng.randint(0, 3), pending)


def _situations(spec, state) -> set[str]:
    """The corners of the move rules that `state` exercises."""
    free = free_mask(spec, state)
    seen = set()
    if state.pending_offer:
        seen.add("pending offer" if state.pending_offer.bit_count() == 2 else "lone keep")
    elif spec.kind is GameKind.WAITER_CLIENT and free.bit_count() == 1:
        seen.add("lone offer")
    if spec.breaker_premove and state.breaker == 0 and state.to_move is Player.BREAKER and free:
        seen.add("aux pre-move")
    if spec.kind is GameKind.AUX_EDGE and state.to_move is Player.MAKER:
        nv = spec.board.nv
        if any(free >> (nv + j) & 1 and (state.maker >> u & 1) != (state.maker >> v & 1)
               for j, (u, v) in enumerate(spec.board.arcs)):
            seen.add("arc with one endpoint owned")
    elif spec.kind is not GameKind.WAITER_CLIENT:
        bias = spec.maker_bias if state.to_move is Player.MAKER else spec.breaker_bias
        if 0 < free.bit_count() < bias:
            seen.add("bias over the free elements")
    return seen


class TestSuccessors:
    def test_matches_legal_moves_and_apply_move(self, rng):
        """`successors` yields each mask `legal_moves` lists, in its order,
        with the position `apply_move` makes of it."""
        seen = set()
        for _ in range(600):
            spec, state = _random_position(rng)
            want = [(mv, apply_move(spec, state, mv)) for mv in legal_moves(spec, state)]
            got = list(successors(spec, state))
            assert got == want, (spec, state)
            assert all(type(child) is GameState for _mv, child in got)
            seen |= _situations(spec, state)
        assert seen == {"pending offer", "lone keep", "lone offer", "aux pre-move",
                        "arc with one endpoint owned", "bias over the free elements"}


class TestGameState:
    def test_keyword_construction_and_defaults(self):
        state = GameState(maker=0b01, breaker=0b10, to_move=Player.MAKER)
        assert state == GameState(0b01, 0b10, Player.MAKER, 0, 0)
        assert (state.maker_moves_used, state.pending_offer) == (0, 0)
        with pytest.raises(AttributeError):
            state.maker = 0b11

    def test_equality_and_hashing(self):
        a = GameState(maker=1, breaker=2, to_move=Player.MAKER, maker_moves_used=1)
        b = GameState(maker=1, breaker=2, to_move=Player.MAKER, maker_moves_used=1)
        assert a == b and hash(a) == hash(b)
        others = [
            GameState(maker=1, breaker=2, to_move=Player.BREAKER, maker_moves_used=1),
            GameState(maker=1, breaker=2, to_move=Player.MAKER, maker_moves_used=2),
            GameState(maker=1, breaker=2, to_move=Player.MAKER, maker_moves_used=1,
                      pending_offer=4),
        ]
        assert all(a != other for other in others)
        assert len({a, b, *others}) == 4


class TestApplyMove:
    def test_maker_claim_updates_count(self):
        spec = mb_spec(hypergraph_new(3, [[0, 1]]))
        state = apply_move(spec, initial_state(spec), 0b001)
        assert state.maker == 0b001
        assert state.maker_moves_used == 1
        assert state.to_move is Player.BREAKER

    def test_wc_offer_and_keep(self):
        spec = GameSpec(GameKind.WAITER_CLIENT, hypergraph_new(2, [[0, 1]]))
        mid = apply_move(spec, initial_state(spec), 0b11)
        assert mid.pending_offer == 0b11
        assert mid.to_move is Player.BREAKER
        end = apply_move(spec, mid, 0b10)
        assert end.breaker == 0b10 and end.maker == 0b01
        assert end.maker_moves_used == 1

    def test_wc_lone_element_goes_to_client(self):
        spec = GameSpec(GameKind.WAITER_CLIENT, hypergraph_new(3, [[0, 1, 2]]))
        state = GameState(maker=0b010, breaker=0b100, to_move=Player.MAKER,
                          maker_moves_used=1)
        mid = apply_move(spec, state, 0b001)
        end = apply_move(spec, mid, 0b001)
        assert end.breaker & 0b001
        assert end.maker == 0b010

    def test_claimed_elements_must_be_free(self):
        spec = mb_spec(hypergraph_new(2, [[0]]))
        state = GameState(maker=0b01, breaker=0, to_move=Player.BREAKER)
        with pytest.raises(IllegalMove):
            apply_move(spec, state, 0b01)

    def test_exact_bias_enforced(self):
        spec = mb_spec(hypergraph_new(3, [[0, 1, 2]]), m=2)
        with pytest.raises(IllegalMove):
            apply_move(spec, initial_state(spec), 0b001)

    def test_aux_arc_claim_requires_ownership(self):
        board = digraph_new(2, [(0, 1)], start=0, end=1)
        spec = GameSpec(GameKind.AUX_EDGE, board, preclaimed_maker=0b01)
        with pytest.raises(IllegalMove):
            apply_move(spec, initial_state(spec), 1 << 2)


class TestStatus:
    def test_win_with_witness(self):
        # the Maker's claimed set holds the winning set {0, 1}
        spec = mb_spec(hypergraph_new(2, [[0, 1]]))
        state = GameState(maker=0b11, breaker=0, to_move=Player.BREAKER, maker_moves_used=2)
        assert status(spec, state) is Outcome.MAKER_WIN

    def test_blocked_board_cannot_win(self):
        spec = mb_spec(hypergraph_new(2, [[0, 1]]))
        state = GameState(maker=0, breaker=0b10, to_move=Player.MAKER)
        assert status(spec, state) is Outcome.MAKER_CANNOT_WIN

    def test_empty_family_is_lost(self):
        spec = mb_spec(hypergraph_new(2, []))
        assert status(spec, initial_state(spec)) is Outcome.MAKER_CANNOT_WIN

    def test_witness_minimality_matches_brute_force(self, rng):
        """MAKER_WIN exactly when some winning set, a witness, is fully
        claimed."""
        from conftest import random_hypergraph_masks

        for _ in range(200):
            n = rng.randint(1, 7)
            h = random_hypergraph_masks(n, 5, rng)
            maker = rng.getrandbits(n)
            spec = mb_spec(h)
            state = GameState(maker=maker, breaker=0, to_move=Player.MAKER)
            won = any(e & ~maker == 0 for e in h.edges)
            assert (status(spec, state) is Outcome.MAKER_WIN) == won


class TestPlayInvariants:
    def playout(self, spec, rng):
        state = initial_state(spec)
        n = spec.n_elements
        seen = [state]
        while True:
            moves = legal_moves(spec, state)
            if not moves:
                break
            state = apply_move(spec, state, rng.choice(moves))
            seen.append(state)
        return seen

    def test_conservation_and_monotonicity(self, rng):
        from conftest import random_hypergraph_masks

        for _ in range(60):
            n = rng.randint(2, 7)
            h = random_hypergraph_masks(n, 4, rng)
            kind = rng.choice((GameKind.MAKER_BREAKER, GameKind.WAITER_CLIENT))
            if kind is GameKind.MAKER_BREAKER:
                spec = mb_spec(h, m=rng.randint(1, 2), b=rng.randint(1, 2))
            else:
                spec = GameSpec(GameKind.WAITER_CLIENT, h)
            trace = self.playout(spec, rng)
            prev = trace[0]
            for state in trace[1:]:
                assert state.maker & state.breaker == 0
                assert prev.maker & ~state.maker == 0
                assert prev.breaker & ~state.breaker == 0
                total = (state.maker | state.breaker | free_mask(spec, state)).bit_count()
                assert total == n
                prev = state

    def test_wc_parity_after_full_rounds(self, rng):
        h = hypergraph_new(8, [list(range(8))])
        spec = GameSpec(GameKind.WAITER_CLIENT, h)
        for _ in range(20):
            state = initial_state(spec)
            for _round in range(4):
                offer = rng.choice(legal_moves(spec, state))
                state = apply_move(spec, state, offer)
                keep = rng.choice(legal_moves(spec, state))
                state = apply_move(spec, state, keep)
            assert state.maker.bit_count() == 4
            assert state.breaker.bit_count() == 4
            assert state.maker_moves_used == 4


class TestSpecValidation:
    def test_aux_requires_unit_maker_bias(self):
        board = digraph_new(2, [(0, 1)], start=0)
        with pytest.raises(BoardError):
            GameSpec(GameKind.AUX_EDGE, board, maker_bias=2)

    def test_wc_is_unbiased(self):
        with pytest.raises(BoardError):
            GameSpec(GameKind.WAITER_CLIENT, hypergraph_new(2, [[0]]), breaker_bias=2)

    def test_preclaims_must_be_vertices(self):
        board = digraph_new(2, [(0, 1)], start=0)
        with pytest.raises(BoardError):
            GameSpec(GameKind.AUX_EDGE, board, preclaimed_maker=1 << 2)
