"""Shared test helpers: a pruning-free reference solver, a table-free
strategy checker and random boards."""

from __future__ import annotations

import math
import random

import pytest

from posgames.bitset import iter_bits
from posgames.boards import Hypergraph, hypergraph_from_masks
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
from posgames.errors import IllegalMove
from posgames.strategies import GuaranteeKind


def naive_decide(spec: GameSpec, max_rounds=None, max_size=None) -> bool:
    """Game value by plain recursion over the engine's full move lists.

    Shares nothing with the production solver except the engine, so it
    serves as an independent oracle on tiny boards.
    """
    if max_size is not None and spec.kind is not GameKind.AUX_EDGE:
        board: Hypergraph = spec.board
        edges = [e for e in board.edges if e.bit_count() <= max_size]
        spec = GameSpec(
            spec.kind, hypergraph_from_masks(board.n, edges),
            maker_bias=spec.maker_bias, breaker_bias=spec.breaker_bias,
            first=spec.first,
        ) if edges else None
        if spec is None:
            return False

    def rec(state):
        if status(spec, state) is Outcome.MAKER_WIN:
            return True
        if (
            state.to_move is Player.MAKER
            and not state.pending_offer
            and max_rounds is not None
            and state.maker_moves_used >= max_rounds
        ):
            return False
        moves = legal_moves(spec, state)
        if not moves:
            return False
        children = (rec(apply_move(spec, state, mv)) for mv in moves)
        if state.to_move is Player.MAKER:
            return any(children)
        return all(children)

    return rec(initial_state(spec))


def naive_verify(spec: GameSpec, strategy, guarantee):
    """(ok, nodes, counterexample) of a strategy check by plain recursion
    over the whole reply tree, with no table.

    The reference for `strategies.verify_strategy`: it walks the same tree
    in the same order, counts every node it visits and records the first
    violating trace as (player-name, element-index-list) pairs.
    """
    nodes = 0
    win_within = guarantee.kind is GuaranteeKind.WIN_WITHIN
    rounds_cap = math.inf if guarantee.rounds is None else guarantee.rounds

    def rec(state, mem, trace):
        nonlocal nodes
        nodes += 1
        outcome = status(spec, state)
        won = outcome is Outcome.MAKER_WIN
        rounds = state.maker_moves_used
        if win_within:
            if won:
                return None if rounds <= rounds_cap else trace
            if rounds >= rounds_cap:
                return trace
        else:
            if won:
                return trace if rounds <= rounds_cap else None
            if outcome is Outcome.MAKER_CANNOT_WIN or rounds > rounds_cap:
                return None
        moves = legal_moves(spec, state)
        if not moves:
            return trace if win_within else None
        mover = state.to_move
        if mover is strategy.player:
            mv, mem = strategy.next_move(spec, state, mem)
            step = [b.bit_length() - 1 for b in iter_bits(mv)]
            try:
                nxt = apply_move(spec, state, mv)
            except IllegalMove:
                return trace + ((f"illegal:{mover.value}", step),)
            return rec(nxt, mem, trace + ((mover.value, step),))
        for mv in moves:
            step = [b.bit_length() - 1 for b in iter_bits(mv)]
            bad = rec(apply_move(spec, state, mv), mem, trace + ((mover.value, step),))
            if bad is not None:
                return bad
        return None

    bad = rec(initial_state(spec), strategy.initial_memory, ())
    return bad is None, nodes, bad


def random_hypergraph_masks(n: int, max_edges: int, rng: random.Random) -> Hypergraph:
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        size = rng.randint(1, max(1, n - 1))
        pick = rng.sample(range(n), min(size, n))
        mask = 0
        for i in pick:
            mask |= 1 << i
        edges.append(mask)
    return hypergraph_from_masks(n, edges)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
