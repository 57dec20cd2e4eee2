"""Exact game values by memoized AND/OR search.

Two roots read the engine's `GameSpec`, the one description of a game:
`decide(spec, objective)` answers one bounded or unbounded question and
`values(spec)` gives the win flag, the round and size values and the
(rounds, size) frontier.  `decide_mb`, `decide_wc`, `solve_aux_game`,
`game_values` and `wc_game_values` build the spec from their arguments and
call one of them.

One skeleton, `_Search.run`, serves the three games: the (m:b) claiming
game, the unbiased offer game and the (1:b) directed-edge game.  A position
is (Maker's set, Breaker's set, mover, remaining round budget), the budget
counting the Maker's moves still to come.  In the offer game the Waiter
plays Maker's part and the Client Breaker's; a round (offer plus keep) is
one node, so its mover flag is always True.  The directed-edge game is the
claiming game at m = 1 on the arc sets {tail, head, arc} with the Maker's
menu cut to vertices (a led-set menu, below): she may claim an arc only
once she owns both endpoints, and that claim finishes a set.  `run` does
four things in order:

  1. leaf test: scan the winning sets (at a child, the parent's live
     needs) the opponent has not hit.  A completed set is a win.  The
     others that can still be finished within the budget are the live sets,
     their missing elements the live needs, and the union of the needs the
     useful elements.  The budget is then clamped to the rounds that
     matter and the sets filtered again.  The node is lost when no set is
     live;
  2. memo probe on the node's residual key;
  3. expansion (per game): try the mover's options, best first, and stop at
     the first one that decides the node;
  4. guarded store: the value enters the memo table, which holds at most
     `memo_cap` entries.  Reaching the cap raises
     `GuardExceeded`; an answer is never truncated.

Every pruning is a dominance argument, not a heuristic, so values are exact:

  * Budget filter.  Maker gains at most m elements of a set per round (the
    Waiter exactly one; in the directed-edge game Maker claims the missing
    endpoints and then the arc, one element per round), so a set whose
    need exceeds budget * m cannot be completed in time.  The budget only
    falls and a need shrinks by at most m per round, so such a set stays
    hopeless for the rest of play.  Dropping it from the live sets and
    its elements from the useful ones is therefore exact: from then on
    its elements are dead (below) as far as the remaining play goes.  The
    filter's budget, and the memo key's, is the one the next bullet clamps.
  * Rounds that matter (the counting of Hefetz, Krivelevich, Stojaković &
    Szabó, Positional Games, 2014; for the offer game, Bednarska-Bzdęga,
    Hefetz, Krivelevich & Łuczak, "Manipulative waiters with probabilistic
    intuition", CPC 2016).  Let u be the number of useful elements and
    R(u) the number of Maker moves that can still gain one: u // 2 in the
    offer game; in the claiming and directed-edge games
    1 + (u - 1) // (m + b) with the Maker to move and (u - 1 + m) // (m + b)
    with the Breaker to move.  In one form it is
    1 + (u - last - (0 if the Maker moves else b)) // (m + b), where `last`,
    the useful elements the Maker's last gaining move needs, is 2 in the
    offer game and 1 otherwise.  After the filter the budget is clamped to
    R, the needs above the new budget * m are dropped, and the two steps
    repeat until nothing changes.  That is exact:
      - each move uses up useful elements.  Every search move takes useful
        elements only (the Claim size and Offer game bullets, the led-set
        and vertex menus).  A Maker claim that finishes no set takes
        exactly m of them; a Breaker claim takes b, or fewer only when it
        hits every live need; an offer round takes two;
      - the useful set only shrinks, so R falls by at least 1 per Maker
        round while a need loses at most m elements.  A need above R * m
        therefore stays hopeless below the node, and the Child scan bullet
        still holds;
      - so no line of play below the node gains an element in more than R
        of the Maker's moves, and the value at budget B equals the value
        at min(B, R);
      - every live need still fits the clamped budget times m, which the
        certificate's and the offer potential's integer tests and the move
        order's shares need;
      - the component split's child is a real subgame, in which the Breaker
        owns the other components' elements, and it clamps on its own part.
  * Finish now.  A Maker who can complete a live set this move wins.
  * Claim size.  Elements outside every live winning set are dead: they
    can never complete a set.  A claim takes useful elements only, since
    swapping a dead element for a useful one never hurts the claimer (the
    Maker is helped by owning more, the Breaker by denying more: the
    monotonicity of Hefetz, Krivelevich, Stojaković & Szabó, Positional
    Games, 2014).  The engine's claims take min(bias, free) elements; a
    search claim of fewer stands for every legal claim that contains it,
    and takes no dead element to pad itself out.  That is exact:
      - the useful elements lie inside the free ones, so when they
        outnumber the bias, min(bias, free) is the bias, and each claim of
        that many useful elements is a legal one;
      - all of the Maker's useful elements fit in one claim only when
        every live need has at most m elements, and at such a node the
        finish-now test has already returned, so her claims always hold m
        elements;
      - a Breaker claim holds fewer than b elements only when he keeps at
        most b (the Dominated elements bullet), and claiming those hits
        every live need, as does every claim that contains them: the child
        is lost either way;
      - a child scans only its parent's live needs (the Child scan
        bullet), and those hold no dead element, so no child sees which
        dead elements a claim would have taken.
  * Offer game.  The Waiter offers two useful elements, and a node with
    fewer than two left is lost.  Let V be the value when she may offer any
    two free elements and V0 the value with useful pairs only.  V >= V0,
    since V's menu contains V0's.  V <= V0 by induction on the budget:
      - a useful pair that wins in V has children that win in V, so in V0
        by induction, and the pair wins in V0 too;
      - a pass (two dead elements) leaves the live family of the node at
        budget - 1, and V0 is monotone in the budget: a larger budget keeps
        a superset of the live sets, so a winning V0 strategy stays legal
        and still wins;
      - a mixed offer {x, d}, d dead, wins only if the child where the
        Client keeps x wins.  The Waiter can play that child's V0 strategy
        from the node itself: she never offers x, has one more round and
        faces a superset of the live sets.
  * Offer potential (the Waiter-Client analogue of Erdős & Selfridge,
    JCTA 1973).  Let Phi be the sum of 2^-|need| over the live needs, and
    Phi_x, Phi_xy the sums over those that contain x, both x and y.  When
    the Waiter offers {x, y}, keeping x changes Phi by
    (Phi_y - Phi_xy) - Phi_x and keeping y by (Phi_x - Phi_xy) - Phi_y.
    The two changes sum to -2 Phi_xy <= 0, so the Client can always keep
    Phi from rising.  A completed set alone contributes 2^0 = 1, so at a
    node with Phi < 1 the Waiter never completes a live set, and the node
    is lost.  Restricting Phi to the live needs is sound: a set the budget
    filter dropped stays hopeless whatever the Client keeps.  The budget
    filter at m = 1 leaves every need at most the budget, so the test is
    the Breaker certificate's (below) at b = 1 with the Breaker to move,
    exact in integers.
  * Breaker certificate (m = 1; Erdős & Selfridge, JCTA 1973; Beck,
    "Remarks on positional games I", 1982).  Let Psi be the sum of
    (b+1)^-|need| over the live needs and Psi_x the sum over those that
    contain x.  The node is lost when Psi < 1 with the Breaker to move, or
    Psi < 1/(b+1) with the Maker to move.  Pair each Breaker move with the
    Maker move after it.  The Breaker claims his b elements one at a time,
    each the free element of largest Psi_x at that moment.  Let x be the
    element the Maker claims next.  His claims only remove needs, so Psi_x
    never rises during his move, and each of his picks, weighing at least
    x's weight at that moment, removes at least x's final weight Psi_x.
    So his move lowers Psi by at least b Psi_x.  Her claim of x multiplies
    the weight of each need that contains x by b+1, so it raises Psi by
    exactly b Psi_x.  Psi therefore never rises over a pair (if he runs out
    of free elements, she has no move left), so Psi < 1 holds after each of
    her moves.  A completed need alone weighs (b+1)^0 = 1, so she never
    completes a set.  With the Maker to move, her claim raises Psi by b Psi_x <=
    b Psi, so Psi < 1/(b+1) before it gives Psi < 1 after it, with the
    Breaker to move.  The argument bounds every Maker play, so it holds for
    every menu of the claiming search (free, led-set and directed-edge), all
    of which claim one element a move at m = 1.  Restricting Psi to the
    live needs is sound as for the offer potential: a set the budget filter
    dropped stays hopeless whatever is claimed.  Every live need fits the
    budget at m = 1, so the test sum((b+1)^(budget - |need|)) < (b+1)^budget
    is exact in integers, with the left side times b+1 at a Maker node.
  * Move order.  Every menu but the Waiter's tries the elements of larger
    share first: x's share is the sum of (b+1)^(top - |need|) over the live
    needs that contain x, with top = budget * m, which every live need fits.
    At m = 1 it is the certificate's Psi_x scaled by (b+1)^budget, so the
    Breaker first claims the b elements of largest Psi_x; at b = 1 it is the offer
    potential's Phi_x, and the search first tries the child where the Client
    keeps the heavier element (y on a tie), since keeping x rather than y
    lowers Phi by 2(Phi_x - Phi_y) more.  The Waiter offers pairs in index
    order: this order would pair two elements of one small need, of which
    the Client keeps one.  A node's value is the `or` or the `and` of its
    children's, so the order changes the cost of a search, never a value.
    It pays: with index order, relabelled thm16(1,1,3,4,4,5), H(1,2,3,4) and
    htb boards exceed the default memo cap.  With dominated elements cut
    (below) it still does: thm12(1,2,3,3,3,4) with the Breaker first and
    its labels shuffled still exceeds the cap, and shuffled
    thm16(1,1,3,4,4,5) takes 5,520,570 calls where the share order takes 969.
  * Led-set menu.  A search may cut the Maker's claims to the sets of a
    `lead` table, which maps the lowest element of each set to the set.  Her
    menu is then the sets whose lowest element is useful, in the move
    order; a finishing claim (finish now) stays open.  Two tables exist:
      - a validated associated-set family (Lemma 3.9): she claims whole
        associated sets.  `validate_restriction` checks the hypotheses under
        which this loses nothing, m <= b among them.  On a board it accepts
        the restricted Maker owns only whole associated sets (a finishing
        claim ends play), and each set lies inside or outside each winning
        set.  So a set v meets a live need exactly when v is free and v is
        inside that need: the sets that meet a useful element are exactly
        the live associated sets, and the live needs determine them.  Every
        other free set is dead, so claiming it changes no need: it is a
        pass.  While a live set is on the menu a pass is dominated, because
        owning more never hurts Maker.  With no live set left no need can
        shrink again, so the node is lost with or without passes;
      - the singleton vertex table of the directed-edge game, which is that
        game's own rule rather than a dominance result: she claims vertices,
        and an arc only once she owns both endpoints, when its need is the
        arc alone and the finish-now test takes it.
    The needs that meet a live set v are exactly those that contain v, so
    every element of v has the same share, and ordering the lowest elements
    alone gives the order of ordering all useful elements and then keeping
    the lowest ones (`sorted` is stable and the key is the same).
  * Residual key.  Once the filter has run, the rest of play is decided by
    the live needs, the mover and the budget: nothing else of the two
    players' sets can matter, and neither can the number of free dead
    elements: a claim takes useful elements only (the Claim size bullet),
    the Waiter offers useful elements only, and the led-set menu is a
    function of the live needs (above).  So in every search the key is
    the set of live needs (as a sorted tuple of distinct masks, which
    holds it in about a quarter of a frozenset's memory), the mover and
    the budget, clamped to the rounds that matter: budgets of one live
    family that differ only in rounds no line of play can use share one
    entry.  A size cap only removes winning sets, and a set above the cap
    is dead just like one the budget filter drops, so the key does not
    depend on the cap either: `values` asks all its (rounds, size)
    questions about a board of one search, and each question reuses the
    entries of the others.
  * Component split (m = 1; Hefetz, Krivelevich, Stojaković, Szabó,
    Positional Games, 2014).  Join two live needs when they share an
    element.  With Maker to move and two or more connected components, the
    node is a Maker win exactly when one component alone is, with Maker to
    move and the same budget.  The search plays a component by giving the
    Breaker every useful element outside it, so by the residual key the
    child's key is that component's needs alone: each component gets its
    own memo entry, and the Breaker nodes above reuse the entries of the
    components their claims left untouched.  The split holds for every
    menu of the claiming search, which all go through its one Maker node:
      - if she wins a component, she plays only there.  Breaker claims
        outside it are passes there, and a pass never helps the Breaker:
        she answers a Breaker with fewer claims by imagining he made the
        rest (the imaginary-move argument);
      - if she loses every component, the Breaker answers each Maker move
        inside that move's component, with his strategy for that component
        at the same budget.  At m = 1 each move lies in one component or is
        dead, and her moves in one component number at most her moves in
        all, so every component sees a play of its own game and no set is
        completed in time.  Extra or padding claims (his strategy's claims
        outside the component, or his answer to a dead move) never hurt
        him.
    The split is wrong at m >= 2, where one claim can advance two
    components at once: two disjoint triples at (2:1) are a Maker win
    together, and neither triple is one alone.
  * Dominated elements (the Breaker's claims at every bias and the Maker's
    free menu at m = 1; the dominated-cell analysis of Hex solvers:
    Björnsson, Hayward, Johanson & van Rijswijck, "Dead cell analysis in
    Hex and the Shannon game", 2007; Henderson, Arneson & Hayward, "Solving
    8x8 Hex", IJCAI 2009).  Let N(x) be the set of live needs that contain
    x.  If N(x) is inside N(y), y is at least as good as x for either
    player:
      - the Breaker.  His claim changes no need, it removes the needs it
        hits, so by the residual key the child is the live family minus
        those, and fewer live needs never help the Maker.  Swapping x for y
        in a claim (for any other element if y is in it already) hits a
        superset of the needs;
      - the Maker at m = 1.  Let sigma swap x and y.  A live need S becomes
        S - y after she claims y and sigma(S - x) after she claims x.  If S
        holds x it holds y, and the two are equal; if it holds y only,
        sigma(S - x) is S - y plus x; if neither, both are S.  So from the
        position after y she plays the sigma-image of her strategy from the
        position after x: each need that play completes contains a need of
        the position after y;
      - twins (N(x) = N(y)) are the equality case: of each class the search
        keeps the element that comes first in the move order.
    The test needs no pairwise comparison.  Let inter(x) be the AND of the
    live needs that contain x: y is in it exactly when N(x) is inside N(y).
    If N(x) is a proper subset of N(y), y's share is larger, so y comes
    first in the move order.  So x is dominated exactly when inter(x) holds
    an element before it, one pass over the needs decides all, and the top
    element is never dominated.  By induction along the order every dropped
    element is dominated by a kept one, so every live need holds a kept
    element, and the swaps above turn any claim into one of kept elements
    that is at least as good, as long as enough are kept.  When at most the
    Breaker's bias are kept, claiming all of them hits every live need;
    that is his only claim, and its child is lost.  A one-element menu
    tries the top element before the scan, so the scan runs only at a node
    that needs a second child.  A larger claim may hold a twin of the top
    element, so there the scan comes first: H(2,2,5,4) within 4 at (2:2)
    takes 151,820 calls that way and 519,829 with the first claim
    unscanned.
    The led-set menus and the Maker's claims at m >= 2 are not cut, and the
    offer game lists no claims.
  * Child scan.  A child scans its parent's live needs instead of every
    winning set.  A set missing from the parent's list cannot come back:
    the Breaker (the Client) has hit it and keeps it, or the budget filter
    dropped it and it stays hopeless (above), or it was completed and the
    parent returned before expanding.  A need the move did not touch stays
    the same int, so the memo keys keep sharing it.  A root call is passed
    the winning sets it scans, which `values` filters per (rounds, size)
    question.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Optional, Sequence

from .bitset import iter_bits
from .boards import Hypergraph, RootedDigraph
from .engine import GameKind, GameSpec, Player
from .errors import GuardExceeded, PosgamesError, RestrictionError

# A memo entry holds the live needs of its node, so its size grows with the
# number of live sets.  tracemalloc measured 347 B per entry on H(1,1,3,5) at
# (5,3), 414 B on the thm16(1,1,3,4,4,5) board and 559 B on H(1,2,3,4) at t=4,
# so 2^22 entries take about 1.5-2.3 GB: the guard trips before an 8 GB
# machine runs out of memory, with room for boards of twice as many live sets.
DEFAULT_MEMO_CAP = 1 << 22


@dataclass(frozen=True)
class Objective:
    """Round and size budgets; None means unbounded."""

    max_rounds: Optional[int] = None
    max_size: Optional[int] = None

    def __post_init__(self):
        if self.max_rounds is not None and self.max_rounds < 0:
            raise PosgamesError("round budget must be non-negative")
        if self.max_size is not None and self.max_size < 1:
            raise PosgamesError("size budget must be at least 1")


@dataclass(frozen=True)
class SolveResult:
    maker_wins: bool
    min_rounds: Optional[int]
    min_size: Optional[int]
    frontier: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "type": "solve_result",
            "maker_wins": self.maker_wins,
            "min_rounds": self.min_rounds,
            "min_size": self.min_size,
            "frontier": [list(p) for p in self.frontier],
        }


def validate_restriction(h: Hypergraph, m: int, b: int, family: Sequence[int]) -> None:
    """Reject an associated-set family on which the reduced menu could lose
    value (the Led-set menu bullet)."""
    if m > b:
        # Lemma 3.9 plays at m <= b; at m > b one free claim can split two
        # associated sets and make two threats at once
        raise RestrictionError("maker bias must not exceed breaker bias")
    seen = 0
    for v in family:
        if v.bit_count() != m:
            raise RestrictionError(f"associated set {v:#x} does not have size {m}")
        if v & seen:
            raise RestrictionError("associated sets must be pairwise disjoint")
        seen |= v
    for e in h.edges:
        if e.bit_count() <= m:
            raise RestrictionError("every winning set must be larger than the maker bias")
        for v in family:
            inter = v & e
            if inter and inter != v:
                raise RestrictionError(
                    "every associated set must be contained in or disjoint from every edge"
                )
    outside = h.full_mask & ~seen
    for bit in iter_bits(outside):
        if sum(1 for e in h.edges if e & bit) > 1:
            raise RestrictionError(
                "elements outside the family may belong to at most one edge"
            )


class _Search:
    """The claiming search; see the module docstring.

    With a `lead` table the Maker's menu is the led sets (the Led-set
    menu bullet), else every claim `_claims` lists.  `_WCSearch` replaces
    the Maker's node with the Waiter's offers and shares the rest.
    """

    last = 1  # useful elements the Maker's last gaining move needs

    def __init__(
        self, m: int, b: int, memo_cap: int, lead: Optional[dict[int, int]] = None,
    ):
        self.m = m
        self.b = b
        self.lead = lead
        self.leads = sum(lead or ())  # the keys are distinct bits
        self.memo: dict = {}
        self._cap = memo_cap

    def run(
        self, maker: int, breaker: int, maker_to_move: bool, budget: int,
        sets: Sequence[int],
    ) -> bool:
        """Value of the node, which scans `sets`: the winning sets at a root,
        the parent's live needs below it (the Child scan bullet)."""
        reach = budget * self.m
        live = []
        useful = 0
        for e in sets:
            if e & breaker:
                continue
            # an untouched set is its own need: memo keys share the edge's int
            need = e & ~maker if e & maker else e
            if not need:
                return True
            if need.bit_count() <= reach:  # the budget filter
                live.append(need)
                useful |= need
        if not live:
            return False
        # the rounds that matter: clamp the budget, filter again, repeat
        span = self.m + self.b
        slack = self.last if maker_to_move else self.last + self.b
        while (rounds := 1 + (useful.bit_count() - slack) // span) < budget:
            budget = rounds
            reach = budget * self.m
            live = [need for need in live if need.bit_count() <= reach]
            if not live:
                return False
            useful = reduce(or_, live)
        key = tuple(sorted(set(live))), maker_to_move, budget
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if maker_to_move:
            value = self._maker_node(maker, breaker, budget, live, useful)
        else:
            value = self._breaker_node(maker, breaker, budget, live, useful)
        if len(self.memo) >= self._cap:
            raise GuardExceeded(
                f"memo table exceeded {self._cap} entries; raise the cap to continue"
            )
        self.memo[key] = value
        return value

    def _maker_node(self, maker, breaker, budget, live, useful) -> bool:
        if any(need.bit_count() <= self.m for need in live):
            return True  # finish a winning set this move
        if self.m == 1:
            if self._breaker_certified(live, budget, self.b + 1):
                return False
            parts = _components(live)
            if len(parts) > 1:  # the component split
                return any(
                    self.run(maker, breaker | (useful & ~part), True, budget, live)
                    for part in parts
                )
        lead = self.lead
        if lead is None:
            menu = self._claims(self.m, live, useful, budget, self.m == 1)
        else:
            menu = [lead[bit] for bit in self._order(useful & self.leads, live, budget)]
        for mv in menu:
            if self.run(maker | mv, breaker, False, budget - 1, live):
                return True
        return False

    def _breaker_node(self, maker, breaker, budget, live, useful) -> bool:
        if self.m == 1 and self._breaker_certified(live, budget, 1):
            return False
        for mv in self._claims(self.b, live, useful, budget, True):
            if not self.run(maker, breaker | mv, True, budget, live):
                return False
        return True

    def _breaker_certified(self, live, budget, scale) -> bool:
        """The Breaker certificate at m = 1: scale * Psi < 1 in integers,
        exact because every live need fits the budget."""
        q = self.b + 1
        return scale * sum(q ** (budget - need.bit_count()) for need in live) < q ** budget

    def _claims(self, bias, live, useful, budget, prune):
        """The claims of `bias` useful elements worth trying, best first, in
        the search's move order; with `prune`, of undominated elements only
        (the Dominated elements bullet), and their single claim when at most
        `bias` are kept (the Claim size bullet).
        """
        order = self._order(useful, live, budget)
        if prune:
            if bias == 1:
                return _top_then_undominated(order, live)
            order = _undominated(order, live)
            if len(order) <= bias:  # claiming them all hits every live need
                return (sum(order),)
        # the bits are distinct, so a combination's sum is its union
        return map(sum, combinations(order, bias))

    def _order(self, useful, live, budget) -> list[int]:
        """Useful elements, largest share of the potential first (the Move
        order bullet)."""
        shares = _shares(live, self.b + 1, budget * self.m)
        return sorted(iter_bits(useful), key=shares.__getitem__, reverse=True)


def _top_then_undominated(order, live):
    """The one-element claims of the undominated elements, in the order.  The
    top element is never dominated, so it goes first and the scan runs only
    if the search asks for a second claim."""
    yield order[0]
    yield from _undominated(order, live)[1:]


def _undominated(order, live) -> list[int]:
    """The ordered useful elements that no earlier one dominates (the
    Dominated elements bullet): x goes when an element before it lies in
    inter(x), the AND of the live needs that hold x."""
    inter = dict.fromkeys(order, -1)
    for need in live:
        rest = need
        while rest:
            bit = rest & -rest
            inter[bit] &= need
            rest ^= bit
    keep = []
    seen = 0
    for x in order:
        if not inter[x] & seen:
            keep.append(x)
        seen |= x
    return keep


def _shares(live, q: int, top: int) -> dict[int, int]:
    """Each element's share of the potential sum(q^-|need|) over the live
    needs, scaled by q^top: the sum of q^(top - |need|) over the needs that
    contain it.  Every need must have at most `top` elements."""
    shares: dict[int, int] = {}
    for need in live:
        w = q ** (top - need.bit_count())
        for bit in iter_bits(need):
            shares[bit] = shares.get(bit, 0) + w
    return shares


def _components(live) -> list[int]:
    """The element sets of the connected components of the live needs, two
    needs being joined when they share an element."""
    parts: list[int] = []
    for need in live:
        rest = []
        for part in parts:
            if part & need:
                need |= part
            else:
                rest.append(part)
        rest.append(need)
        parts = rest
    return parts


class _WCSearch(_Search):
    """Unbiased offer game; a round is offer + keep, folded into one node."""

    last = 2  # an offer is a pair

    def __init__(self, memo_cap: int):
        super().__init__(1, 1, memo_cap)

    def _maker_node(self, waiter, client, budget, live, useful) -> bool:
        if self._breaker_certified(live, budget, 1):  # the offer potential
            return False
        weight = _shares(live, 2, budget)  # Phi_x (the Move order bullet)
        run = self.run
        for x, y in combinations(iter_bits(useful), 2):
            if weight[x] > weight[y]:
                x, y = y, x  # the Client keeps the heavier element first
            if run(waiter | x, client | y, True, budget - 1, live) and run(
                waiter | y, client | x, True, budget - 1, live
            ):
                return True
        return False


def _budget(spec: GameSpec, objective: Objective) -> int:
    """The objective's rounds, else enough rounds to claim every element:
    a round takes the Maker's bias of them, or two in the offer game."""
    if objective.max_rounds is not None:
        return objective.max_rounds
    per_round = 2 if spec.kind is GameKind.WAITER_CLIENT else spec.maker_bias
    return -(-spec.n_elements // per_round)


def _sized(sets: list[int], max_size: Optional[int]) -> list[int]:
    """The sets a size budget keeps: those of at most `max_size` elements."""
    if max_size is None:
        return sets
    return [e for e in sets if e.bit_count() <= max_size]


def _game(
    spec: GameSpec, restriction: Optional[Sequence[int]], memo_cap: int,
) -> tuple[_Search, list[int]]:
    """The search of the spec's game and the winning sets it scans.  The
    directed-edge game scans the arc sets {tail, head, arc} with the vertex
    led-set table; `restriction` is the associated-set table of the claiming
    game.  Every search starts here, so the memo cap is checked here."""
    if restriction is not None and spec.kind is not GameKind.MAKER_BREAKER:
        raise PosgamesError("an associated-set family restricts the claiming game only")
    if memo_cap < 1:
        raise PosgamesError(f"memo cap must be positive, got {memo_cap}")
    board = spec.board
    if spec.kind is GameKind.WAITER_CLIENT:
        return _WCSearch(memo_cap), list(board.edges)
    if spec.kind is GameKind.AUX_EDGE:
        sets = [bit | ends for bit, ends in board.arc_ends]
        lead = {bit: bit for bit in iter_bits(board.vertex_mask)}
    else:
        sets = list(board.edges)
        lead = None
        if restriction is not None:
            validate_restriction(board, spec.maker_bias, spec.breaker_bias, restriction)
            lead = {v & -v: v for v in restriction}  # each set under its lowest element
    search = _Search(spec.maker_bias, spec.breaker_bias, memo_cap, lead)
    return search, sets


def _wins(search: _Search, spec: GameSpec, budget: int, sets: list[int]) -> bool:
    """Value of the opening position: the Maker owns the preclaimed set, and
    the first mover moves, unless the Breaker opens with his one-element
    pre-move."""
    pre = spec.preclaimed_maker
    if not spec.breaker_premove:
        return search.run(pre, 0, spec.first is Player.MAKER, budget, sets)
    # the pre-move takes a useful element (any other is dead), in the claiming
    # menus' order; with none to take no set is live, and the game is lost
    needs = [need for e in sets if (need := e & ~pre).bit_count() <= budget]
    openings = search._order(reduce(or_, needs, 0), needs, budget)
    return bool(openings) and all(search.run(pre, x, True, budget, sets) for x in openings)


def decide(
    spec: GameSpec,
    objective: Objective = Objective(),
    restriction: Optional[Sequence[int]] = None,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> bool:
    """Can the Maker (the Waiter) claim a winning set within the objective,
    playing perfectly?

    `restriction`, an associated-set family (masks) of the claiming game,
    cuts the Maker's menu to whole sets of it once `validate_restriction`
    accepts it.  A size budget keeps the sets the search scans, in the
    directed-edge game the arc sets {tail, head, arc}.  A round budget of 0
    is allowed and is trivially false.
    """
    search, sets = _game(spec, restriction, memo_cap)
    return _wins(search, spec, _budget(spec, objective), _sized(sets, objective.max_size))


def values(spec: GameSpec, memo_cap: int = DEFAULT_MEMO_CAP) -> SolveResult:
    """Win flag, round value, size value and the (rounds, size) frontier.

    Every (t, s) question is asked of one search, so all share its memo
    table (exact by the residual key)."""
    search, sets = _game(spec, None, memo_cap)
    round_cap = _budget(spec, Objective())
    sizes = sorted({e.bit_count() for e in sets})

    def wins(t, s):
        return _wins(search, spec, t or round_cap, _sized(sets, s))

    # the unbounded question goes first, so a lost board answers in one
    # question; on a won board the round questions would imply its answer
    if not wins(None, None):
        return SolveResult(False, None, None, ())
    min_rounds = next(t for t in range(1, round_cap + 1) if wins(t, None))
    min_size = next(s for s in sizes if wins(None, s))
    frontier: list[tuple[int, int]] = []
    t = min_rounds
    prev = None
    while True:
        s_t = next(s for s in sizes if wins(t, s))
        if prev is None or s_t < prev:
            frontier.append((t, s_t))
            prev = s_t
        if s_t <= min_size or t >= round_cap:
            break
        t += 1
    return SolveResult(True, min_rounds, min_size, tuple(frontier))


def decide_mb(
    h: Hypergraph,
    m: int,
    b: int,
    first: Player = Player.MAKER,
    objective: Objective = Objective(),
    restriction: Optional[Sequence[int]] = None,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> bool:
    """`decide` on the (m:b) claiming game on h."""
    spec = GameSpec(GameKind.MAKER_BREAKER, h, m, b, first)
    return decide(spec, objective, restriction, memo_cap)


def decide_wc(
    h: Hypergraph,
    objective: Objective = Objective(),
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> bool:
    """`decide` on the offer game on h."""
    return decide(GameSpec(GameKind.WAITER_CLIENT, h), objective, memo_cap=memo_cap)


def solve_aux_game(
    board: RootedDigraph,
    b: int,
    preclaimed: int,
    objective: Objective = Objective(),
    breaker_premove: bool = False,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> bool:
    """`decide` on the (1:b) directed-edge game on the board, the Maker
    owning the `preclaimed` vertices; size budgets are ignored."""
    spec = GameSpec(GameKind.AUX_EDGE, board, 1, b, Player.MAKER, preclaimed, breaker_premove)
    return decide(spec, Objective(objective.max_rounds), memo_cap=memo_cap)


def game_values(
    h: Hypergraph,
    m: int,
    b: int,
    first: Player = Player.MAKER,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> SolveResult:
    """`values` of the (m:b) claiming game on h."""
    return values(GameSpec(GameKind.MAKER_BREAKER, h, m, b, first), memo_cap)


def wc_game_values(h: Hypergraph, memo_cap: int = DEFAULT_MEMO_CAP) -> SolveResult:
    """`values` of the offer game on h."""
    return values(GameSpec(GameKind.WAITER_CLIENT, h), memo_cap)
