"""Scripted strategies and an exhaustive adversary verifier.

Each catalog strategy is a deterministic (spec, state, memory) -> (mask,
memory') function with a declared guarantee; the mask holds the elements of
the move, whose kind the position gives (see `engine`).  Memory objects are
immutable; the verifier fans out over every opponent reply while keeping the
strategy fixed, so a shared memory value is safe across branches.

A guarantee either promises the Maker's win within t rounds, or forbids it
within t rounds, where "never" is the same promise with no bound on t.

`verify_strategy` walks the reply tree depth first with a transposition
table, and its answers are those of the plain walk:

* Determinism.  The game and the guarantee are fixed for the whole walk, the
  verdict at a node reads only the state, and the script's move is a
  function of (state, memory).  So the subtree below a node, and whether it
  passes, depend on (state, memory) alone.
* One key per position.  A position is stored under the flat tuple (the
  Maker's set, the Breaker's set, whether the Maker is to move, the Maker's
  moves used, the memory): ints, a bool and the memory, all hashed in C.
  The catalog's memories are ints, tuples, copies of a construction (equal
  only to themselves) or named tuples, which compare as plain tuples; each
  script keeps one memory type, so equal keys are equal positions.
  Positions with a pending offer are left out, so the offer is not in the
  key.  When the Client is the script, such a position has one parent: the
  Waiter's position with the same claimed sets, round count and memory,
  since the Waiter's offer leaves the script's memory alone.  That parent is
  stored once it passes, so a second visit ends there, and the offer
  position is expanded at most once.  When the Waiter is the script, an
  offer position is the Client's and its children are stored, so a repeat
  costs one expansion.
* No verdict after an offer.  At a pending-offer position the walk neither
  checks the guarantee nor looks for the end of play; it goes straight to
  the keep.  The offer's parent has the same claimed sets and round count,
  which is all the verdict reads, and the walk went on from it, so the
  verdict there is to go on.  Every guarantee settles a position where the
  Maker has won, so she has won neither at the parent nor at the offer, and
  the offer, one or two free elements, leaves a keep to make.  The position
  still counts as a node.
* Only passing subtrees are stored.  A hit is a pass, which is what walking
  the subtree again would return, so a hit never hides a violation and the
  walk meets the first violation where the plain walk does, with the same
  trace.
* Sizes add up.  One running counter counts nodes: an expanded node adds 1,
  a hit adds the size stored with the entry, which was counted the same way.
  The table is read and written at the parent: before it walks a child, the
  walk looks the child's key up, and a hit adds the stored size without
  making a call; a child that passes is stored when its walk returns.  So
  `nodes` is the reply-tree size the plain walk counts up to its verdict.
  `expanded` counts the positions actually expanded; `max_nodes` bounds it,
  and with it the table, which holds at most one entry per expanded
  position.

`CATALOG` maps each script name to the one function that builds the game it
is verified on, the script and the guarantee.  The builder's keyword defaults
are the script's smallest instance, so `instance` passes on only the
parameters given, and the CLI reads a script's flags from the builder's
signature as it reads a suite's.

Where a script says "claim arbitrary elements" the lowest-index free element
is taken, and every claim is padded to the exact bias so the move is always
engine-legal.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, NamedTuple, Optional

from .bitset import indices_of, low_bits
from .boards import Hypergraph, RootedDigraph, SimpleGraph
from .constructions import (
    GtbNode,
    MbstInfo,
    build_gadget,
    build_gtb,
    build_gtb_indexed,
    build_hmbst,
    build_hmbst_indexed,
    build_htb,
    build_htb_indexed,
    build_ht_wc_indexed,
    nonmonotone_blocks,
)
from .domination import minimal_dominating_sets, residue, wc_tree_value
from .engine import (
    GameKind,
    GameSpec,
    GameState,
    Outcome,
    Player,
    apply_move,
    free_mask,
    initial_state,
    legal_moves,
    mover_bias,
    status,
    successors,
)
from .errors import GuardExceeded, IllegalMove, PosgamesError
from .graphgen import cycle_graph, path_graph


class GuaranteeKind(Enum):
    WIN_WITHIN = "win_within"
    OPPONENT_NOT_WITHIN = "opponent_not_within"


@dataclass(frozen=True)
class Guarantee:
    """`rounds` None bounds nothing: with `OPPONENT_NOT_WITHIN` it says the
    Maker never wins."""

    kind: GuaranteeKind
    rounds: Optional[int] = None

    @property
    def horizon(self) -> int:
        """`rounds`, with no bound read as `sys.maxsize` rounds."""
        return sys.maxsize if self.rounds is None else self.rounds

    def describe(self) -> str:
        if self.kind is GuaranteeKind.WIN_WITHIN:
            return f"wins within {self.rounds} round(s)"
        if self.rounds is None:
            return "never lets the claiming player win"
        return f"no opposing win within {self.rounds} round(s)"


def win_within(t: int) -> Guarantee:
    return Guarantee(GuaranteeKind.WIN_WITHIN, t)


def never_loses() -> Guarantee:
    return Guarantee(GuaranteeKind.OPPONENT_NOT_WITHIN)


def opponent_not_within(t: int) -> Guarantee:
    return Guarantee(GuaranteeKind.OPPONENT_NOT_WITHIN, t)


@dataclass(frozen=True)
class Strategy:
    """A scripted player: `next_move(spec, state, memory)` returns the
    element mask of its move and the memory for the script's next turn.

    `next_move` must be a deterministic function of its arguments, and every
    memory value immutable and hashable: the verifier shares one memory
    across sibling branches and keys its table on it."""

    name: str
    player: Player
    next_move: Callable[[GameSpec, GameState, Any], tuple[int, Any]]
    initial_memory: Any = None


@dataclass(frozen=True)
class VerifyResult:
    """`nodes` is the size of the reply tree walked up to the verdict (all of
    it on a pass); `expanded` counts the positions actually expanded, the
    rest lying in subtrees found in the table."""

    ok: bool
    counterexample: Optional[tuple]
    nodes: int
    expanded: int


def verify_strategy(
    spec: GameSpec,
    strategy: Strategy,
    guarantee: Guarantee,
    max_nodes: int = 2_000_000,
) -> VerifyResult:
    """Check the guarantee against every opponent reply sequence.

    Returns ok=True, or the first violating trace as a tuple of
    (player-name, element-index-list) pairs.  `max_nodes`, at least 1,
    bounds the expanded positions; one more raises `GuardExceeded`.  The
    opponent's replies come from `successors` one at a time, so a huge menu
    is never listed; the script's moves go through `apply_move`, which
    checks them.
    """
    if max_nodes < 1:
        raise PosgamesError(f"the verifier's node bound must be positive, got {max_nodes}")
    nodes = 0
    expanded = 0
    passed: dict[tuple, int] = {}
    probe = passed.get
    win_within = guarantee.kind is GuaranteeKind.WIN_WITHIN
    horizon = guarantee.horizon
    player = strategy.player
    next_move = strategy.next_move
    offer_game = spec.kind is GameKind.WAITER_CLIENT
    # while play goes on, only the directed-edge Maker can be without a move:
    # anywhere else a set still open has a free element, and so a move
    script_may_stick = spec.kind is GameKind.AUX_EDGE and player is Player.MAKER

    def walk(state: GameState, mem) -> Optional[tuple]:
        """The violating trace from `state` on, or None if the subtree
        passes.  The caller probes the table for `state` and stores it."""
        nonlocal nodes, expanded
        nodes += 1
        expanded += 1
        if expanded > max_nodes:
            raise GuardExceeded(
                f"verifier exceeded {max_nodes} expanded positions "
                f"({nodes} reply-tree nodes)"
            )
        _maker, _breaker, mover, rounds, pending = state
        # at a pending offer the verdict is the offer's parent's, and a keep
        # is left: see the module docstring
        if not pending:
            outcome = status(spec, state)
            won = outcome is Outcome.MAKER_WIN
            if win_within:
                if won and rounds <= horizon:
                    return None
                if won or rounds >= horizon:
                    return ()
            else:
                if won:
                    return () if rounds <= horizon else None
                if outcome is Outcome.MAKER_CANNOT_WIN or rounds > horizon:
                    return None
        if mover is player:
            if script_may_stick and not legal_moves(spec, state):
                return () if win_within else None
            mv, mem = next_move(spec, state, mem)
            try:
                children = ((mv, apply_move(spec, state, mv)),)
            except IllegalMove:
                return ((f"illegal:{mover.value}", indices_of(mv)),)
        else:
            children = successors(spec, state)
        # every move hands the turn over, so each child's mover is the other
        # player, and only an offer leads to a position left out of the table
        child_is_maker = mover is Player.BREAKER
        child_pending = offer_game and not pending
        mv = 0  # every move takes an element, so 0 stays only if none is made
        for mv, child in children:
            if child_pending:
                bad = walk(child, mem)
            else:
                key = (child.maker, child.breaker, child_is_maker, child.maker_moves_used, mem)
                size = probe(key)
                if size is not None:
                    nodes += size
                    continue
                start = nodes
                bad = walk(child, mem)
                if bad is None:
                    passed[key] = nodes - start
            if bad is not None:
                return ((mover.value, indices_of(mv)),) + bad
        if not mv:
            return () if win_within else None
        return None

    try:
        bad = walk(initial_state(spec), strategy.initial_memory)
    finally:
        # walk refers to itself, so without this the table would live on
        # until the cycle collector next runs
        passed.clear()
    return VerifyResult(bad is None, bad, nodes, expanded)


# ---------------------------------------------------------------------------
# Shared move plumbing


def _pad(mask: int, size: int, free: int) -> int:
    missing = size - mask.bit_count()
    if missing > 0:
        mask |= low_bits(free & ~mask, missing)
    return mask


def _claim_exact(spec: GameSpec, state: GameState, want: int) -> int:
    """Claim `want` (intersected with free), padded or trimmed to exact bias."""
    free = free_mask(spec, state)
    size = min(mover_bias(spec, state), free.bit_count())
    claim = want & free
    if claim.bit_count() > size:
        claim = low_bits(claim, size)
    return _pad(claim, size, free)


def _fallback(spec: GameSpec, state: GameState) -> int:
    moves = legal_moves(spec, state)
    if not moves:
        raise PosgamesError("no legal move available")
    return moves[0]


def _new_vertex(board: RootedDigraph, new: int) -> Optional[int]:
    """The highest vertex among the newly claimed elements `new`, if any."""
    new &= board.vertex_mask
    return new.bit_length() - 1 if new else None


# ---------------------------------------------------------------------------
# Branched-digraph maker: claim the junction, descend into an untouched copy


def _gtb_step(node: GtbNode, maker: int, breaker: int) -> tuple[int, GtbNode]:
    """The copy's elements to claim next and the copy they lie in: below
    each junction the Maker owns, the first copy the Breaker has not
    touched, down to an unowned junction or a single arc."""
    while node.mid is not None and not node.mid & ~maker:
        untouched = next((c for c in node.children if not c.elements & breaker), None)
        if untouched is None:
            break
        node = untouched
    if node.mid is None:
        return node.arc, node
    return node.mid, node


def make_maker_gtb(t: int, b: int) -> Strategy:
    """Memory: the copy the descent is in."""
    root = build_gtb_indexed(t, b)[1]

    def next_move(spec: GameSpec, state: GameState, node: GtbNode):
        bit, below = _gtb_step(node, state.maker, state.breaker)
        if not bit & free_mask(spec, state):
            return _fallback(spec, state), node
        return bit, below

    return Strategy("maker-gtb", Player.MAKER, next_move, root)


# ---------------------------------------------------------------------------
# Blocking breaker: keep at most one opposing vertex with free outgoing arcs


def _block_arcs(
    board: RootedDigraph, free: int, owned: int, new_v: Optional[int],
    threshold: Optional[int] = None,
) -> int:
    """The free outgoing arcs of one of the vertices among the Maker's
    elements `owned`, or 0.  A vertex is live while it has free outgoing
    arcs.  When the new vertex `new_v` is live, block the lowest other live
    vertex if `new_v` lies below it at distance under `threshold` (None: any
    distance), and `new_v` otherwise; else block the lowest live vertex."""
    out_arcs, dist = board.out_arcs, board.distances
    live = [v for v in indices_of(owned & board.vertex_mask) if out_arcs[v] & free]
    if new_v in live:
        x = next((v for v in live if v != new_v), None)
        if x is None or dist[x][new_v] is None:  # new_v does not lie below x
            return out_arcs[new_v] & free
        if threshold is not None and dist[x][new_v] >= threshold:
            return out_arcs[new_v] & free
        return out_arcs[x] & free
    return out_arcs[live[0]] & free if live else 0


def make_breaker_gtb_block(b: int) -> Strategy:
    """Memory: the Maker's set at the script's previous turn."""

    def next_move(spec: GameSpec, state: GameState, prev_maker: int):
        board: RootedDigraph = spec.board  # type: ignore[assignment]
        new_v = _new_vertex(board, state.maker & ~prev_maker)
        want = _block_arcs(board, free_mask(spec, state), state.maker, new_v)
        return _claim_exact(spec, state, want), state.maker

    return Strategy("breaker-gtb-block", Player.BREAKER, next_move, 0)


def make_breaker_gtb_slow(t: int, b: int) -> Strategy:
    """Memory: (the Maker's set at the script's previous turn, move number)."""

    def next_move(spec: GameSpec, state: GameState, mem: tuple[int, int]):
        board: RootedDigraph = spec.board  # type: ignore[assignment]
        prev_maker, move_no = mem
        new_v = _new_vertex(board, state.maker & ~prev_maker)
        threshold = 2 ** max(t - move_no - 1, 0)
        want = _block_arcs(board, free_mask(spec, state), state.maker, new_v, threshold)
        return _claim_exact(spec, state, want), (state.maker, move_no + 1)

    return Strategy("breaker-gtb-slow", Player.BREAKER, next_move, (0, 1))


# ---------------------------------------------------------------------------
# Hub digraph strategies


class _HtbMakerMem(NamedTuple):
    group: Optional[int]
    node: Optional[GtbNode]


def _hub_step(
    hubs: tuple[int, ...], groups: tuple[tuple[GtbNode, ...], ...],
    maker: int, breaker: int, mem: _HtbMakerMem,
) -> Optional[tuple[int, _HtbMakerMem]]:
    """The hub script's next elements to claim and its memory, or None when
    it has no move: hub 0 first, then the hub of an untouched group (its hub
    neither the Maker's nor touched by the Breaker, no Breaker element in
    its copies), then the branched descent inside the group's first
    untouched copy.  `hubs` and the copies are masks of the board's
    elements, and the Maker owns a vertex once she holds all of it."""
    if hubs[0] & ~maker:
        return hubs[0], mem
    if mem.group is None:
        for i, group in enumerate(groups, start=1):
            if (hubs[i] & ~maker and not hubs[i] & breaker
                    and not any(c.elements & breaker for c in group)):
                return hubs[i], _HtbMakerMem(i, None)
        return None
    node = mem.node
    if node is None:
        node = next((c for c in groups[mem.group - 1] if not c.elements & breaker), None)
        if node is None:
            return None
    bit, node = _gtb_step(node, maker, breaker)
    return bit, _HtbMakerMem(mem.group, node)


def make_maker_htb(t: int, b: int) -> Strategy:
    groups = build_htb_indexed(t, b)[1]
    hubs = tuple(1 << i for i in range(b + 2))

    def next_move(spec: GameSpec, state: GameState, mem: _HtbMakerMem):
        step = _hub_step(hubs, groups, state.maker, state.breaker, mem)
        if step is None or not step[0] & free_mask(spec, state):
            return _fallback(spec, state), mem
        return step

    return Strategy("maker-htb", Player.MAKER, next_move, _HtbMakerMem(None, None))


def _copy_map(
    groups: tuple[tuple[GtbNode, ...], ...]
) -> tuple[dict[int, int], list[tuple[GtbNode, int]]]:
    """vertex -> flat copy id, and (copy, sink hub) per copy id."""
    copies = [(c, sink) for sink, group in enumerate(groups, start=1) for c in group]
    vmap = {v: cid for cid, (c, _sink) in enumerate(copies) for v in indices_of(c.vertices)}
    return vmap, copies


def _block_in_copy(
    board: RootedDigraph, free: int, maker: int, copy: GtbNode, sink: int,
    new_v: int, start_owned: bool, threshold: Optional[int] = None,
) -> int:
    """`_block_arcs` on the copy's free elements, with the Maker's vertices
    inside the copy, its start when `start_owned`, and the sink hub, which
    always counts as hers."""
    owned = copy.vertices & maker | 1 << sink
    if start_owned:
        owned |= copy.start
    return _block_arcs(board, free & copy.elements, owned, new_v, threshold)


def make_breaker_htb_premove(t: int, b: int) -> Strategy:
    """Memory: the Maker's set at the script's previous turn."""
    vmap, copies = _copy_map(build_htb_indexed(t, b)[1])

    def next_move(spec: GameSpec, state: GameState, prev_maker: int):
        free = free_mask(spec, state)
        want = free & 1  # hub 0 as the single opening element
        if state.breaker:
            new_v = _new_vertex(spec.board, state.maker & ~prev_maker)
            want = 0
            if new_v in vmap:
                want = _block_in_copy(
                    spec.board, free, state.maker, *copies[vmap[new_v]], new_v, False
                )
        return _claim_exact(spec, state, want), state.maker

    return Strategy("breaker-htb-premove", Player.BREAKER, next_move, 0)


class _HtbSlowMem(NamedTuple):
    prev_maker: int
    mode: str  # start | blockall | wait2 | mixed
    blocked_copy: int  # the copy blocked in full in mixed mode, -1 for none
    counts: tuple[int, ...]  # distance-gated responses so far, per copy id


def make_breaker_htb_slow(t: int, b: int) -> Strategy:
    vmap, copies = _copy_map(build_htb_indexed(t, b)[1])

    def next_move(spec: GameSpec, state: GameState, mem: _HtbSlowMem):
        board: RootedDigraph = spec.board  # type: ignore[assignment]
        free = free_mask(spec, state)
        new_v = _new_vertex(board, state.maker & ~mem.prev_maker)
        cid = vmap.get(new_v)
        mode, blocked, counts = mem.mode, mem.blocked_copy, mem.counts
        want = 0
        if mode == "start":
            if not state.maker & 1:
                want = 1  # she skipped hub 0: claim it and block her everywhere
                mode = "blockall"
            else:
                mode = "wait2"  # skip: arbitrary claims, pretend nothing happened
        elif cid is not None:
            # a claim inside a copy, whose start is hub 0: hers unless blockall
            if mode == "wait2":
                mode, blocked = "mixed", cid
            threshold = None
            if mode == "mixed" and cid != blocked:
                counts = counts[:cid] + (counts[cid] + 1,) + counts[cid + 1:]
                threshold = 2 ** max(t - 3 - counts[cid], 0)  # horizon t - 2
            want = _block_in_copy(
                board, free, state.maker, *copies[cid], new_v, mode != "blockall", threshold
            )
        elif mode == "wait2" and new_v in range(b + 2):  # a hub
            # second skip, then distance-gated blocking all over (blocked is
            # still -1: no copy is blocked in full)
            mode = "mixed"
        elif mode == "mixed" and new_v in range(b + 2):
            # a later hub: claim the free arcs whose two endpoints she owns
            want = free & sum(
                bit for bit, ends in board.arc_ends if state.maker & ends == ends
            )
        elif mode == "blockall":
            # hub 0 is the breaker's own opening claim here
            want = _block_arcs(board, free, state.maker, new_v)
        return _claim_exact(spec, state, want), _HtbSlowMem(state.maker, mode, blocked, counts)

    return Strategy(
        "breaker-htb-slow",
        Player.BREAKER,
        next_move,
        _HtbSlowMem(0, "start", -1, (0,) * len(copies)),
    )


# ---------------------------------------------------------------------------
# Fair-bias block strategies


def make_maker_nonmonotone(blocked: frozenset[int] | set[int]) -> Strategy:
    _, blocks = nonmonotone_blocks(blocked)

    def next_move(spec: GameSpec, state: GameState, mem):
        free = free_mask(spec, state)
        size = min(spec.maker_bias, free.bit_count())
        claim = 0
        if state.maker == 0:
            for blk in blocks[: spec.maker_bias]:
                pick = blk & free
                if pick:
                    claim |= pick & -pick
        else:
            for blk in blocks:  # answer every newly threatened uncovered block
                if claim.bit_count() >= size:
                    break
                if blk & state.maker or not blk & state.breaker:
                    continue
                pick = blk & free
                if pick:
                    claim |= pick & -pick
            for blk in blocks:  # then make progress on untouched blocks
                if claim.bit_count() >= size:
                    break
                if blk & (state.maker | claim):
                    continue
                pick = blk & free & ~claim
                if pick:
                    claim |= pick & -pick
        return _claim_exact(spec, state, claim), mem

    return Strategy("maker-nonmonotone", Player.MAKER, next_move)


def make_breaker_nonmonotone(blocked: frozenset[int] | set[int]) -> Strategy:
    _, blocks = nonmonotone_blocks(blocked)

    def next_move(spec: GameSpec, state: GameState, mem):
        free = free_mask(spec, state)
        want = 0
        for blk in blocks:
            if (
                blk.bit_count() <= spec.breaker_bias
                and not blk & state.maker
                and blk & free == blk
            ):
                want = blk
                break
        return _claim_exact(spec, state, want), mem

    return Strategy("breaker-nonmonotone", Player.BREAKER, next_move)


def make_breaker_pairing(pairs: tuple[int, ...]) -> Strategy:
    def next_move(spec: GameSpec, state: GameState, mem):
        free = free_mask(spec, state)
        want = 0
        for p in pairs:
            if p & state.maker and not p & state.breaker:
                want |= p & free
        return _claim_exact(spec, state, want), mem

    return Strategy("breaker-pairing", Player.BREAKER, next_move)


# ---------------------------------------------------------------------------
# Cycle and tree offer strategies


class _WaiterCycleMem(NamedTuple):
    perm: Optional[tuple[int, ...]]  # canonical position -> vertex
    next_start: int


def make_waiter_cycle(n: int) -> Strategy:
    if n < 3:
        raise PosgamesError("cycles need at least 3 vertices")

    def next_move(spec: GameSpec, state: GameState, mem: _WaiterCycleMem):
        free = free_mask(spec, state)
        if mem.perm is None:
            if state.maker == 0 and state.breaker == 0:
                return (1 << (n - 2)) | (1 << (n - 1)), mem
            if state.maker & (1 << (n - 2)):
                perm = tuple(range(n))
            else:
                perm = tuple((2 * n - 3 - j) % n for j in range(n))
            mem = _WaiterCycleMem(perm, 0)
        k = n - 2 if (n - 2) % 2 == 0 else n - 3
        if mem.next_start + 1 < k:
            a = mem.perm[mem.next_start]
            c = mem.perm[mem.next_start + 1]
            offer = (1 << a) | (1 << c)
            if offer & free == offer:
                return offer, _WaiterCycleMem(mem.perm, mem.next_start + 2)
        return _fallback(spec, state), mem

    return Strategy("waiter-cycle", Player.MAKER, next_move, _WaiterCycleMem(None, 0))


class _ClientCycleMem(NamedTuple):
    """`origin`: the vertex the script's canonical labels count from."""

    case: Optional[str]
    origin: int


def make_client_cycle(n: int) -> Strategy:
    if n < 6:
        raise PosgamesError("the client script needs at least 6 vertices")
    half = n // 2

    def next_move(spec: GameSpec, state: GameState, mem: _ClientCycleMem):
        offer = state.pending_offer
        low = offer & -offer
        if offer == low:  # the lone final element
            return offer, mem
        a, c = low.bit_length() - 1, offer.bit_length() - 1
        case, origin = mem
        if case is None:
            if (c - a) % n == 1 or (a - c) % n == 1:
                origin = a if (c - a) % n == 1 else c
                # keep the second vertex of the adjacent pair
                return 1 << (origin + 1) % n, _ClientCycleMem("adjacent", origin)
            origin = a if (c - a) % n <= half else c
            return 1 << origin, _ClientCycleMem("nonadjacent", origin)
        c0, c1 = (a - origin) % n, (c - origin) % n
        if c0 > c1:
            c0, c1 = c1, c0
        if case == "adjacent":
            if c1 == c0 + 1 and c0 % 2 == 0 and c1 <= 2 * (half - 1) - 1:
                return 1 << (origin + c1) % n, mem
            return 1 << (origin + c0) % n, mem
        # nonadjacent case: guard the two neighbours 1 and n - 1 of the kept
        # corner (n - 1 when both are offered), then the far endpoint n - 2
        if (c0 == 1 or c1 == 1) and c1 != n - 1:
            return 1 << (origin + 1) % n, mem
        if c1 >= n - 2:
            return 1 << (origin + c1) % n, mem
        return 1 << (origin + c0) % n, mem

    return Strategy("client-cycle", Player.BREAKER, next_move, _ClientCycleMem(None, 0))


def make_waiter_tree(tree) -> Strategy:
    """Memory: the index of the next pair to offer."""
    if wc_tree_value(tree) is None:
        raise PosgamesError("the tree offer script needs a perfect matching")
    rep = residue(tree)
    pairs = [p for p in rep.removed_pairs]
    pairs.append((rep.kept[0], rep.kept[1]))

    def next_move(spec: GameSpec, state: GameState, index: int):
        free = free_mask(spec, state)
        if index < len(pairs):
            v, w = pairs[index]
            offer = (1 << v) | (1 << w)
            if offer & free == offer:
                return offer, index + 1
        return _fallback(spec, state), index

    return Strategy("waiter-tree", Player.MAKER, next_move, 0)


# ---------------------------------------------------------------------------
# Uniform-hypergraph maker: the hub script lifted through associated sets


class _HmbstMem(NamedTuple):
    """`offset`: the first element of the nested copy the script plays in."""

    offset: Optional[int]
    inner: Any


def _hmbst_move(info: MbstInfo, maker: int, breaker: int, mem: _HmbstMem):
    """Claim mask (un-padded) plus memory, recursing through nested levels.
    The flat form is the hub script on the board's own sets: it reaches an
    arc only once both end vertices are the Maker's, so the arc's own
    elements are what is left of its winning set."""
    if info.inner is None:
        hub_mem = mem.inner or _HtbMakerMem(None, None)
        step = _hub_step(info.hubs, info.groups, maker, breaker, hub_mem)
        if step is None:
            return 0, mem
        return step[0], _HmbstMem(None, step[1])

    # nested form
    if info.shared & ~maker:
        return info.shared, mem
    full = (1 << info.inner.n) - 1
    if mem.offset is None:
        offsets = range(info.shared.bit_length(), info.n, info.inner.n)
        chosen = next((off for off in offsets if not breaker >> off & full), None)
        if chosen is None:
            return 0, mem
        mem = _HmbstMem(chosen, _HmbstMem(None, None))
    off = mem.offset
    inner_claim, inner_mem = _hmbst_move(
        info.inner, maker >> off & full, breaker >> off & full, mem.inner
    )
    return inner_claim << off, _HmbstMem(off, inner_mem)


def make_maker_hmbst(m: int, b: int, s: int, t: int) -> Strategy:
    _h, _fam, info = build_hmbst_indexed(m, b, s, t)

    def next_move(spec: GameSpec, state: GameState, mem: _HmbstMem):
        claim, mem2 = _hmbst_move(info, state.maker, state.breaker, mem)
        if claim == 0:
            return _fallback(spec, state), mem
        return _claim_exact(spec, state, claim), mem2

    return Strategy("maker-hmbst", Player.MAKER, next_move, _HmbstMem(None, None))


# ---------------------------------------------------------------------------
# Domination lift: play a hypergraph strategy inside the gadget's core clique


def make_dominator_lift(inner: Strategy, inner_spec: GameSpec) -> Strategy:
    """Memory: the inner script's memory."""
    core: Hypergraph = inner_spec.board  # type: ignore[assignment]
    core_mask = (1 << core.n) - 1

    def next_move(spec: GameSpec, state: GameState, mem):
        inner_state = GameState(
            maker=state.maker & core_mask,
            breaker=state.breaker & core_mask,
            to_move=state.to_move,
            maker_moves_used=state.maker_moves_used,
        )
        free = free_mask(spec, state)
        if free & core_mask:
            want, inner_mem = inner.next_move(inner_spec, inner_state, mem)
            want &= free
        else:
            want, inner_mem = 0, mem
        # pad outside the core first so the inner view stays undisturbed
        size = min(spec.maker_bias, free.bit_count())
        claim = _pad(want, size, free & ~core_mask)
        claim = _pad(claim, size, free)
        return claim, inner_mem

    return Strategy("dominator-lift", Player.MAKER, next_move, inner.initial_memory)


# ---------------------------------------------------------------------------
# Catalog


def _aux_spec(board: RootedDigraph, b: int, preclaimed: int, premove: bool = False) -> GameSpec:
    return GameSpec(
        GameKind.AUX_EDGE,
        board,
        maker_bias=1,
        breaker_bias=b,
        preclaimed_maker=preclaimed,
        breaker_premove=premove,
    )


def _gtb_ends_spec(t: int, b: int) -> GameSpec:
    """gtb(t,b) with both ends pre-owned."""
    board = build_gtb(t, b)
    return _aux_spec(board, b, (1 << board.start) | (1 << board.end))


def _fair_spec(board: Hypergraph, bias: int) -> GameSpec:
    return GameSpec(GameKind.MAKER_BREAKER, board, maker_bias=bias, breaker_bias=bias)


def _offer_spec(graph: SimpleGraph) -> GameSpec:
    """The offer game on the minimal dominating sets of `graph`."""
    return GameSpec(GameKind.WAITER_CLIENT, minimal_dominating_sets(graph))


def _maker_gtb(t=2, b=1):
    return _gtb_ends_spec(t, b), make_maker_gtb(t, b), win_within(t)


def _breaker_gtb_block(t=2, b=1, seed_vertex=None):
    """A single pre-owned vertex, the start unless `seed_vertex` is given."""
    board = build_gtb(t, b)
    seed = board.start if seed_vertex is None else seed_vertex
    if not 0 <= seed < board.nv:
        raise PosgamesError(f"the seed vertex must lie in [0, {board.nv}), got {seed}")
    return _aux_spec(board, b, 1 << seed), make_breaker_gtb_block(b), never_loses()


def _breaker_gtb_slow(t=2, b=1):
    if t < 2:
        # the guarantee would be "no opposing win within 0 rounds", which
        # holds before the first move and so checks nothing
        raise PosgamesError(f"breaker-gtb-slow needs t >= 2, got t = {t}")
    return _gtb_ends_spec(t, b), make_breaker_gtb_slow(t, b), opponent_not_within(t - 1)


def _maker_htb(t=3, b=1):
    board = build_htb(t, b)
    return _aux_spec(board, b, 0), make_maker_htb(t, b), win_within(t)


def _breaker_htb_premove(t=3, b=1):
    board = build_htb(t, b)
    return _aux_spec(board, b, 0, premove=True), make_breaker_htb_premove(t, b), never_loses()


def _breaker_htb_slow(t=3, b=1):
    board = build_htb(t, b)
    return _aux_spec(board, b, 0), make_breaker_htb_slow(t, b), opponent_not_within(t - 1)


def _maker_nonmonotone(blocked=frozenset({1}), bias=2):
    """At a bias outside `blocked` the Maker wins within the rounds it takes
    to claim one element of each of the max(blocked) + 1 blocks, `bias`
    elements a round."""
    if bias in blocked:
        raise PosgamesError(f"the maker script needs a bias outside {sorted(blocked)}, got {bias}")
    spec = _fair_spec(nonmonotone_blocks(blocked)[0], bias)
    return spec, make_maker_nonmonotone(blocked), win_within(-(-(max(blocked) + 1) // bias))


def _breaker_nonmonotone(blocked=frozenset({1}), bias=1):
    if bias not in blocked:
        raise PosgamesError(f"the breaker script needs a bias in {sorted(blocked)}, got {bias}")
    spec = _fair_spec(nonmonotone_blocks(blocked)[0], bias)
    return spec, make_breaker_nonmonotone(blocked), never_loses()


def _breaker_pairing(t=3):
    h, pairs = build_ht_wc_indexed(t)
    return GameSpec(GameKind.MAKER_BREAKER, h), make_breaker_pairing(pairs), never_loses()


def _waiter_cycle(n=3):
    return _offer_spec(cycle_graph(n)), make_waiter_cycle(n), win_within(n // 2)


def _client_cycle(n=6):
    return _offer_spec(cycle_graph(n)), make_client_cycle(n), opponent_not_within(n // 2 - 1)


def _waiter_tree(tree=path_graph(2)):
    return _offer_spec(tree), make_waiter_tree(tree), win_within(tree.n // 2)


def _maker_hmbst(m=1, b=1, s=3, t=3):
    h = build_hmbst(m, b, s, t)[0]
    spec = GameSpec(GameKind.MAKER_BREAKER, h, maker_bias=m, breaker_bias=b)
    return spec, make_maker_hmbst(m, b, s, t), win_within(t)


def _dominator_lift(blocked=frozenset({1}), bias=2):
    """The fair-bias maker script played inside the gadget of its board."""
    inner_spec, inner, guarantee = _maker_nonmonotone(blocked, bias)
    gadget = build_gadget(inner_spec.board, bias)
    spec = _fair_spec(minimal_dominating_sets(gadget), bias)
    return spec, make_dominator_lift(inner, inner_spec), guarantee


# Each script's builder: `build(**params)` gives the (game, script,
# guarantee) to verify, and its keyword defaults are the smallest instance.
CATALOG: dict[str, Callable[..., tuple[GameSpec, Strategy, Guarantee]]] = {
    "maker-gtb": _maker_gtb,
    "breaker-gtb-block": _breaker_gtb_block,
    "breaker-gtb-slow": _breaker_gtb_slow,
    "maker-htb": _maker_htb,
    "breaker-htb-premove": _breaker_htb_premove,
    "breaker-htb-slow": _breaker_htb_slow,
    "maker-nonmonotone": _maker_nonmonotone,
    "breaker-nonmonotone": _breaker_nonmonotone,
    "breaker-pairing": _breaker_pairing,
    "waiter-cycle": _waiter_cycle,
    "client-cycle": _client_cycle,
    "waiter-tree": _waiter_tree,
    "maker-hmbst": _maker_hmbst,
    "dominator-lift": _dominator_lift,
}


def instance(name: str, **params) -> tuple[GameSpec, Strategy, Guarantee]:
    """The (game, script, guarantee) of catalog entry `name`; parameters not
    given keep the builder's defaults, the smallest instance."""
    build = CATALOG.get(name)
    if build is None:
        raise PosgamesError(f"unknown strategy {name!r}")
    names = tuple(inspect.signature(build).parameters)
    extra = sorted(set(params) - set(names))
    if extra:
        raise PosgamesError(f"strategy {name!r} takes parameters {names}, unexpected {extra}")
    return build(**params)


def smallest_instance(name: str) -> tuple[GameSpec, Strategy, Guarantee]:
    """The entry's smallest instance: `instance` with no parameters."""
    return instance(name)
