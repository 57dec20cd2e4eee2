"""Rules for the three game kinds, as pure functions over immutable state.

Kinds:
  MAKER_BREAKER  biased (m:b) claiming game on a hypergraph.
  WAITER_CLIENT  unbiased offer/keep game on a hypergraph.  The Waiter plays
                 the Maker role (her claimed set is `maker`); a lone final
                 free element always goes to Client.
  AUX_EDGE       (1:b) game on a rooted directed multigraph, whose element
                 layout (vertices, then arcs) `boards.RootedDigraph` gives.
                 The Maker may claim an arc only when she already owns both
                 endpoints, and wins by claiming any arc.

Bias semantics: a move claims exactly min(bias, #free) elements.  Round
counting ("within t rounds") counts completed Maker/Waiter moves, whoever
moved first.

A move is an `int` mask of the elements it takes.  The position says what
kind of move that is: a keep while an offer is pending, else an offer in the
Waiter-Client game, else a claim.  `legal_moves` lists the masks and
`apply_move` checks them element by element.  `successors` yields each mask
`legal_moves` lists, in the same order, paired with the position it leads
to, the one `apply_move` would return; it makes them one at a time, as they
are asked for, and checks none, since it only makes legal moves.  Only
`status` decides the end of play: neither `legal_moves` nor `successors`
looks for a Maker win, so callers read `status` first.

A `GameState` is a named tuple (the two claimed sets, the player to move,
the Maker's moves used and the pending offer), so it is built, compared and
hashed at tuple speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from itertools import combinations, starmap
from operator import or_
from typing import Iterator, NamedTuple, Union

from .bitset import iter_bits
from .boards import Hypergraph, RootedDigraph
from .errors import BoardError, IllegalMove


class GameKind(Enum):
    MAKER_BREAKER = "maker_breaker"
    WAITER_CLIENT = "waiter_client"
    AUX_EDGE = "aux_edge"


class Player(Enum):
    MAKER = "maker"
    BREAKER = "breaker"


class Outcome(Enum):
    ONGOING = "ongoing"
    MAKER_WIN = "maker_win"
    MAKER_CANNOT_WIN = "maker_cannot_win"


@dataclass(frozen=True)
class GameSpec:
    kind: GameKind
    board: Union[Hypergraph, RootedDigraph]
    maker_bias: int = 1
    breaker_bias: int = 1
    first: Player = Player.MAKER
    preclaimed_maker: int = 0
    # Aux games only: the Breaker opens the game by claiming exactly one
    # element before the Maker's first move; afterwards he claims with his
    # full bias.
    breaker_premove: bool = False

    def __post_init__(self):
        if self.maker_bias < 1 or self.breaker_bias < 1:
            raise BoardError("biases must be at least 1")
        if self.kind is GameKind.AUX_EDGE:
            if not isinstance(self.board, RootedDigraph):
                raise BoardError("aux game needs a digraph board")
            if self.maker_bias != 1:
                raise BoardError("aux game fixes the maker bias at 1")
            if self.preclaimed_maker & ~self.board.vertex_mask:
                raise BoardError("preclaimed elements must be vertices of the digraph")
        else:
            if not isinstance(self.board, Hypergraph):
                raise BoardError(f"{self.kind.value} needs a hypergraph board")
            if self.preclaimed_maker:
                raise BoardError("preclaimed sets are only supported in aux games")
            if self.breaker_premove:
                raise BoardError("the one-element pre-move is only supported in aux games")
        if self.kind is GameKind.WAITER_CLIENT:
            if self.maker_bias != 1 or self.breaker_bias != 1:
                raise BoardError("waiter-client games are unbiased")
            if self.first is not Player.MAKER:
                raise BoardError("the waiter always moves first")

    @cached_property
    def n_elements(self) -> int:
        if isinstance(self.board, RootedDigraph):
            return self.board.n_elements
        return self.board.n

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n_elements) - 1


class GameState(NamedTuple):
    maker: int
    breaker: int
    to_move: Player
    maker_moves_used: int = 0
    pending_offer: int = 0  # waiter-client: the offered pair awaiting Client


# Python 3.11 reads an enum member through a descriptor, several times slower
# than a global; the move functions run at every position the verifier
# expands, so they use these aliases.
_WC, _AUX = GameKind.WAITER_CLIENT, GameKind.AUX_EDGE
_MAKER, _BREAKER = Player.MAKER, Player.BREAKER
_ONGOING, _MAKER_WIN = Outcome.ONGOING, Outcome.MAKER_WIN
_MAKER_CANNOT_WIN = Outcome.MAKER_CANNOT_WIN
# `GameState(...)` runs a Python-level `__new__`; `_state` builds the same
# tuple from all five fields in one C call
_state = partial(tuple.__new__, GameState)


def initial_state(spec: GameSpec) -> GameState:
    first = spec.first
    if spec.breaker_premove:
        first = Player.BREAKER
    return GameState(maker=spec.preclaimed_maker, breaker=0, to_move=first)


def free_mask(spec: GameSpec, state: GameState) -> int:
    return spec.full_mask & ~(state.maker | state.breaker)


def mover_bias(spec: GameSpec, state: GameState) -> int:
    """The bias of the player to move: the Maker's, the Breaker's, or 1 for
    the Breaker's one-element pre-move.  A claim takes min(bias, #free)."""
    if state.to_move is _MAKER:
        return spec.maker_bias
    if spec.breaker_premove and state.breaker == 0:
        return 1
    return spec.breaker_bias


def _aux_maker_elements(spec: GameSpec, state: GameState) -> int:
    """Mask of the single elements the aux Maker may claim: free vertices,
    and free arcs whose endpoints she already owns."""
    maker = state.maker
    board: RootedDigraph = spec.board  # type: ignore[assignment]
    free = spec.full_mask & ~(maker | state.breaker)
    elements = free & board.vertex_mask
    for bit, ends in board.arc_ends:
        if free & bit and maker & ends == ends:
            elements |= bit
    return elements


def _claims(free: int, size: int) -> Iterator[int]:
    """Every mask of `size` elements of `free`, in the order of
    `combinations` over its bits."""
    if size == 1:
        return iter_bits(free)
    if size == 0:
        return iter(())
    return map(sum, combinations(iter_bits(free), size))


def _moves(spec: GameSpec, state: GameState) -> Iterator[int]:
    """The masks of `legal_moves`, in its order, made as they are asked for."""
    maker, breaker, to_move, _used, pending = state
    if pending:
        return iter_bits(pending)
    free = spec.full_mask & ~(maker | breaker)
    if spec.kind is _WC:
        if free & (free - 1):
            return starmap(or_, combinations(iter_bits(free), 2))
        return iter_bits(free)  # the lone final element, if any
    if spec.kind is _AUX and to_move is _MAKER:
        return iter_bits(_aux_maker_elements(spec, state))
    return _claims(free, min(mover_bias(spec, state), free.bit_count()))


def legal_moves(spec: GameSpec, state: GameState) -> list[int]:
    """The element masks the player to move may play: the keeps of a pending
    offer, the Waiter's offers, or the claims.

    An empty list means no move is possible.  A won position still has
    moves: `status` decides the end of play, so read it first.
    """
    return list(_moves(spec, state))


def successors(spec: GameSpec, state: GameState) -> Iterator[tuple[int, GameState]]:
    """Yield `(mask, child)` for each mask `legal_moves` lists, in the same
    order, where `child` is the position `apply_move` returns for the mask.

    The pairs are made one at a time, as the caller asks for them, so a
    caller that stops early never builds the rest of the menu.  The masks
    are legal by construction and are not checked again.
    """
    maker, breaker, to_move, used, pending = state
    moves = _moves(spec, state)
    if pending:
        for keep in moves:
            yield keep, _state((maker | (pending ^ keep), breaker | keep, _MAKER, used + 1, 0))
    elif spec.kind is _WC:
        for offer in moves:
            yield offer, _state((maker, breaker, _BREAKER, used, offer))
    elif to_move is _MAKER:
        for claim in moves:
            yield claim, _state((maker | claim, breaker, _BREAKER, used + 1, 0))
    else:
        for claim in moves:
            yield claim, _state((maker, breaker | claim, _MAKER, used, 0))


def apply_move(spec: GameSpec, state: GameState, elements: int) -> GameState:
    """Play the element mask `elements`, validating legality.  It is a keep
    while an offer is pending, else an offer in the Waiter-Client game, else
    a claim."""
    maker, breaker, to_move, used, pending = state
    if spec.kind is _WC:
        if pending:
            if elements.bit_count() != 1 or not elements & pending:
                raise IllegalMove("client must keep exactly one offered element")
            return _state((maker | (pending & ~elements), breaker | elements, _MAKER, used + 1, 0))
        free = spec.full_mask & ~(maker | breaker)
        if elements & ~free:
            raise IllegalMove("offer must use free elements")
        want = 2 if free.bit_count() >= 2 else 1
        if elements.bit_count() != want:
            raise IllegalMove(f"offer must contain exactly {want} element(s)")
        return _state((maker, breaker, _BREAKER, used, elements))

    free = spec.full_mask & ~(maker | breaker)
    if elements & ~free:
        raise IllegalMove("claim must use free elements")
    if spec.kind is _AUX and to_move is _MAKER:
        if elements.bit_count() != 1:
            raise IllegalMove("aux maker claims one element per move")
        if not elements & _aux_maker_elements(spec, state):
            raise IllegalMove("arc may only be claimed once both endpoints are owned")
    elif elements.bit_count() != min(mover_bias(spec, state), free.bit_count()):
        raise IllegalMove("claim must use exactly min(bias, #free) elements")
    if to_move is _MAKER:
        return _state((maker | elements, breaker, _BREAKER, used + 1, 0))
    return _state((maker, breaker | elements, _MAKER, used, 0))


def status(spec: GameSpec, state: GameState) -> Outcome:
    """Whether the Maker owns a winning set, can no longer claim one, or
    play goes on.

    For aux games the "cannot win" answer is conservative: it only fires when
    every arc element itself is Breaker-claimed.  Exact loss detection is the
    solver's job.
    """
    if spec.kind is _AUX:
        arcs = spec.full_mask & ~spec.board.vertex_mask  # type: ignore[union-attr]
        if state.maker & arcs:
            return _MAKER_WIN
        if arcs & ~state.breaker:
            return _ONGOING
        return _MAKER_CANNOT_WIN

    edges = spec.board.edges  # type: ignore[union-attr]
    maker = state.maker
    for e in edges:
        if e & maker == e:
            return _MAKER_WIN
    breaker = state.breaker
    for e in edges:
        if not e & breaker:
            return _ONGOING
    return _MAKER_CANNOT_WIN
