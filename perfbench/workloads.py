"""The four workloads: inputs built from a seed, the calls into the program,
and the expected answers.

Every call goes through a module attribute (`solver.game_values`, not a
name imported from it) so that the traced run sees the same calls as the
untraced one.  All solves use the default `SolverSettings` (one process,
memo on, default cap).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from posgames import boards, constructions, domination, graphgen, solver, strategies
from posgames.engine import GameKind, GameSpec, Player

import oracles

# dom-boards draws its graphs from this seed and relabels them by the run seed
BASE_SEED = 2024


@dataclass
class Instance:
    """One exact question: `call` asks the program, `check` returns None when
    the answer is right and a short reason when it is not."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def _expect(want) -> Callable[[Any], Optional[str]]:
    return lambda got: None if got == want else f"got {got!r}, expected {want!r}"


def composite_frontier(seed: int) -> list[Instance]:
    """Paper's composite board: size 4 within 4 rounds, size 3 only within 5;
    then the hub digraph game of Lemma 3.6 at t=5.  The inputs are fixed, so
    the seed is not used."""
    board = constructions.build_thm16(1, 1, 3, 4, 4, 5)
    hub, _info = constructions.build_htb_indexed(5, 1)

    def values():
        v = solver.game_values(board, 1, 1, Player.MAKER)
        return (v.maker_wins, v.min_rounds, v.min_size, v.frontier)

    def aux(**kwargs):
        return lambda: solver.solve_aux_game(hub, 1, 0, **kwargs)

    return [
        Instance("thm16(1,1,3,4,4,5) values", values, _expect((True, 4, 3, ((4, 4), (5, 3))))),
        Instance("htb(5,1) win within 5", aux(objective=solver.Objective(max_rounds=5)), _expect(True)),
        Instance("htb(5,1) win within 4", aux(objective=solver.Objective(max_rounds=4)), _expect(False)),
        Instance("htb(5,1) after pre-move", aux(breaker_premove=True), _expect(False)),
    ]


def tree_offer(seed: int) -> list[Instance]:
    """Every tree with n <= 8 and 100 seeded random trees each at n = 9, 10
    (the tree set of the thm1.7 suite), checked against the closed form."""
    rng = random.Random(seed)
    trees = [t for n in range(1, 9) for t in graphgen.all_trees(n)]
    trees += [graphgen.random_tree(n, rng) for n in (9, 10) for _ in range(100)]

    def instance(idx, tree) -> Instance:
        want = oracles.tree_offer_value(tree.n, tree.edges)

        def call():
            v = domination.dom_wc_values(tree)
            return (v.maker_wins, v.min_rounds, v.min_size, domination.wc_tree_value(tree))

        won = want is not None
        return Instance(f"tree{idx} n={tree.n}", call, _expect((won, want, want, want)))

    return [instance(i, t) for i, t in enumerate(trees)]


def _aux_spec(board, b: int, preclaimed: int, premove: bool = False) -> GameSpec:
    return GameSpec(
        GameKind.AUX_EDGE, board, maker_bias=1, breaker_bias=b,
        preclaimed_maker=preclaimed, breaker_premove=premove,
    )


def _script_cases():
    """(label, spec, script, guarantee, node count) for all 14 catalog
    scripts; the node counts are the sizes of the exhaustive reply trees."""
    st = strategies
    gtb, _ = constructions.build_gtb_indexed(4, 1)
    ends = (1 << gtb.start) | (1 << gtb.end)
    htb, _ = constructions.build_htb_indexed(4, 1)
    c9 = domination.minimal_dominating_sets(graphgen.cycle_graph(9))
    c10 = domination.minimal_dominating_sets(graphgen.cycle_graph(10))
    paired, pairs = constructions.build_ht_wc_indexed(5)
    cases = [
        ("maker-gtb gtb(4,1)", _aux_spec(gtb, 1, ends), st.make_maker_gtb(4, 1), st.win_within(4), 3726),
        ("breaker-gtb-block gtb(4,1)", _aux_spec(gtb, 1, 1 << gtb.start),
         st.make_breaker_gtb_block(1), st.never_loses(), 219201),
        ("breaker-gtb-slow gtb(4,1)", _aux_spec(gtb, 1, ends),
         st.make_breaker_gtb_slow(4, 1), st.opponent_not_within(3), 1401),
        ("maker-htb htb(4,1)", _aux_spec(htb, 1, 0), st.make_maker_htb(4, 1), st.win_within(4), 3726),
        ("breaker-htb-premove htb(4,1)", _aux_spec(htb, 1, 0, premove=True),
         st.make_breaker_htb_premove(4, 1), st.never_loses(), 1174),
        ("breaker-htb-slow htb(4,1)", _aux_spec(htb, 1, 0),
         st.make_breaker_htb_slow(4, 1), st.opponent_not_within(3), 758),
        ("client-cycle C9", GameSpec(GameKind.WAITER_CLIENT, c9),
         st.make_client_cycle(9), st.opponent_not_within(3), 46297),
        ("waiter-cycle C10", GameSpec(GameKind.WAITER_CLIENT, c10),
         st.make_waiter_cycle(10), st.win_within(5), 70),
        ("breaker-pairing ht_wc(5)", GameSpec(GameKind.MAKER_BREAKER, paired),
         st.make_breaker_pairing(pairs), st.never_loses(), 118153),
    ]
    for (m, b, s, t), nodes in (((1, 1, 3, 4), 3726), ((1, 2, 3, 3), 4886)):
        h = constructions.build_hmbst_indexed(m, b, s, t)[0]
        spec = GameSpec(GameKind.MAKER_BREAKER, h, maker_bias=m, breaker_bias=b)
        cases.append((f"maker-hmbst ({m},{b},{s},{t})", spec,
                      st.make_maker_hmbst(m, b, s, t), st.win_within(t), nodes))
    for name, nodes in (("maker-nonmonotone", 2), ("breaker-nonmonotone", 5),
                        ("waiter-tree", 4), ("dominator-lift", 2)):
        cases.append((f"{name} smallest", *st.smallest_instance(name), nodes))
    return cases


def script_verify(seed: int) -> list[Instance]:
    """Every catalog script against every opponent reply sequence; ten of the
    fourteen on boards larger than their smallest instance.  The inputs are
    fixed, so the seed is not used."""

    def instance(label, spec, script, guarantee, nodes) -> Instance:
        def call():
            r = strategies.verify_strategy(spec, script, guarantee, max_nodes=5_000_000)
            return (r.ok, r.nodes)

        return Instance(label, call, _expect((True, nodes)))

    return [instance(*case) for case in _script_cases()]


def _relabel(g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return boards.graph_new(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def dom_boards(seed: int) -> list[Instance]:
    """Minimal dominating set families of C20, C22, C24, six G(20, 0.3)
    graphs and four random trees on 22 vertices (12,663 sets in all).

    The random graphs are drawn once from BASE_SEED and the run seed
    permutes every graph's vertex labels.  So each run solves the same
    families up to isomorphism, while label-dependent behaviour (the order in
    which neighbourhoods are folded in) still changes with the seed.  Fresh
    random graphs per seed would not do: one family's cost varies several-fold
    between graphs, which made a pass swing by over 20% from seed to seed."""
    base = random.Random(BASE_SEED)
    graphs = [graphgen.cycle_graph(n) for n in (20, 22, 24)]
    graphs += [graphgen.random_graph(20, 0.3, base) for _ in range(6)]
    graphs += [graphgen.random_tree(22, base) for _ in range(4)]
    rng = random.Random(seed)
    graphs = [_relabel(g, rng) for g in graphs]

    def instance(idx, g) -> Instance:
        def check(h) -> Optional[str]:
            hoods = oracles.closed_hoods(g.n, g.edges)
            family = set(h.edges)
            if h.n != g.n or len(family) != len(h.edges):
                return "wrong board size or repeated sets"
            bad = next((d for d in h.edges if not oracles.is_minimal_dominating(hoods, d)), None)
            if bad is not None:
                return f"set {bad:#x} is not a minimal dominating set"
            want = oracles.minimal_dominating_sets(g.n, g.edges)
            if family != want:
                return f"{len(want - family)} minimal dominating sets missing"
            return None

        return Instance(f"graph{idx} n={g.n} m={len(g.edges)}",
                        lambda: domination.minimal_dominating_sets(g), check)

    return [instance(i, g) for i, g in enumerate(graphs)]


WORKLOADS: dict[str, Callable[[int], list[Instance]]] = {
    "composite-frontier": composite_frontier,
    "tree-offer": tree_offer,
    "script-verify": script_verify,
    "dom-boards": dom_boards,
}
