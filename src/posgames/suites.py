"""Named verification suites: each re-derives one of the library's headline
claims by exhaustive search and reports pass/fail with a counterexample.

Every suite is a pure function of its arguments (and seed, when randomized):
reruns agree.  Reports carry machine-readable rows for CSV output.
"""

from __future__ import annotations

import random
import time
from typing import Optional

from .bitset import CAPACITY
from .boards import Hypergraph, hypergraph_from_masks, induced_subgraph, minimalize
from .constructions import (
    build_gadget,
    build_gtb,
    build_hmbst,
    build_htb,
    build_nonmonotone,
    build_thm12,
    build_thm14,
    build_thm16,
    build_wc_gap_case1,
    gadget_size,
)
from .domination import (
    dom_game_values,
    dom_wc_values,
    is_dominating,
    minimal_dominating_sets,
    residue,
    wc_cycle_value,
    wc_tree_value,
)
from .engine import Player
from .errors import PosgamesError
from .graphgen import all_trees, cycle_graph, random_hypergraph, random_tree
from .solver import (
    DEFAULT_MEMO_CAP,
    Objective,
    decide_mb,
    decide_wc,
    game_values,
    solve_aux_game,
    values,
)
from .strategies import CATALOG, GuaranteeKind, instance, verify_strategy


class _Suite:
    """One suite run: the clock starts at creation, `check` records a check
    (and, when it fails, its detail), and `rows` holds the report's rows."""

    def __init__(self, name: str):
        self.name = name
        self.t0 = time.perf_counter()
        self.checks: list[dict] = []
        self.rows: list[dict] = []
        self.failures: list[dict] = []

    def row(self, **fields) -> dict:
        """Append a row with these fields, in this order, and return it."""
        self.rows.append(fields)
        return fields

    def check(self, label: str, ok: bool, detail=None) -> None:
        self.checks.append({"check": label, "ok": ok})
        if not ok:
            self.failures.append({"check": label, "detail": detail})

    def report(self) -> dict:
        """The fields suite, ok, seconds, checks, rows, failures.  A suite
        that made no check has shown nothing, so that is an error, not a
        pass."""
        if not self.checks:
            raise PosgamesError(f"suite {self.name} made no check with these arguments")
        return {
            "suite": self.name,
            "ok": not self.failures,
            "seconds": round(time.perf_counter() - self.t0, 3),
            "checks": self.checks,
            "rows": self.rows,
            "failures": self.failures,
        }


def suite_lemma34(memo_cap: int = DEFAULT_MEMO_CAP) -> dict:
    """Branched-digraph game values: win in t, not in t-1, single seeds lose."""
    suite = _Suite("lemma3.4")
    for t, b in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]:
        board = build_gtb(t, b)
        seeds = (1 << board.start) | (1 << board.end)
        win = solve_aux_game(board, b, seeds, Objective(max_rounds=t), memo_cap=memo_cap)
        slow = solve_aux_game(board, b, seeds, Objective(max_rounds=t - 1), memo_cap=memo_cap)
        singles = all(
            not solve_aux_game(board, b, 1 << v, memo_cap=memo_cap) for v in range(board.nv)
        )
        suite.row(t=t, b=b, win_at_t=win, win_at_t1=slow, singles_lose=singles)
        suite.check(f"gtb({t},{b}) win within {t}", win)
        suite.check(f"gtb({t},{b}) no win within {t - 1}", not slow)
        suite.check(f"gtb({t},{b}) every single seed loses", singles)
    return suite.report()


def suite_lemma36(memo_cap: int = DEFAULT_MEMO_CAP) -> dict:
    """Hub-digraph game: win in t, not t-1, opening pre-claim flips it."""
    suite = _Suite("lemma3.6")
    for t, b in [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1)]:
        board = build_htb(t, b)
        win = solve_aux_game(board, b, 0, Objective(max_rounds=t), memo_cap=memo_cap)
        slow = solve_aux_game(board, b, 0, Objective(max_rounds=t - 1), memo_cap=memo_cap)
        pre = solve_aux_game(board, b, 0, breaker_premove=True, memo_cap=memo_cap)
        suite.row(t=t, b=b, win_at_t=win, win_at_t1=slow, premove_win=pre)
        suite.check(f"htb({t},{b}) win within {t}", win)
        suite.check(f"htb({t},{b}) no win within {t - 1}", not slow)
        suite.check(f"htb({t},{b}) lost after one-element pre-claim", not pre)
    return suite.report()


def suite_lemma39(memo_cap: int = DEFAULT_MEMO_CAP) -> dict:
    """Uniform-board values, identical with and without the reduced menu."""
    suite = _Suite("lemma3.9")
    for m, b, s, t in [(1, 1, 3, 3), (1, 2, 3, 3), (1, 2, 3, 4), (2, 2, 5, 3)]:
        h, family = build_hmbst(m, b, s, t)
        for restr in (None, family):
            tag = "restricted" if restr else "free"
            win = decide_mb(h, m, b, Player.MAKER, Objective(t, s), restr, memo_cap)
            slow = decide_mb(h, m, b, Player.MAKER, Objective(t - 1, s), restr, memo_cap)
            second = decide_mb(h, m, b, Player.BREAKER, Objective(), restr, memo_cap)
            suite.row(m=m, b=b, s=s, t=t, menu=tag,
                      win_at_t=win, win_at_t1=slow, second_player_win=second)
            suite.check(f"H({m},{b},{s},{t}) {tag} win at t", win)
            suite.check(f"H({m},{b},{s},{t}) {tag} no win at t-1", not slow)
            suite.check(f"H({m},{b},{s},{t}) {tag} second-player loss", not second)
    return suite.report()


def suite_thm11(max_bias: int = 4, memo_cap: int = DEFAULT_MEMO_CAP) -> dict:
    """Fair-bias outcome flips exactly on the blocked set."""
    if max_bias < 1:
        raise PosgamesError(f"thm1.1 needs max_bias >= 1 to check an outcome, got {max_bias}")
    suite = _Suite("thm1.1")
    for blocked in ({1}, {2}, {1, 2}):
        h = build_nonmonotone(blocked)
        suite.check(f"blocked={sorted(blocked)} board has at most 12 elements",
                    h.n <= 12, {"n": h.n})
        for bias in range(1, max_bias + 1):
            won = decide_mb(h, bias, bias, Player.MAKER, memo_cap=memo_cap)
            expected = bias not in blocked
            suite.row(blocked=sorted(blocked), bias=bias, win=won, expected=expected)
            suite.check(f"blocked={sorted(blocked)} bias={bias} outcome",
                        won == expected, {"got": won, "expected": expected})
    return suite.report()


def suite_thm12(memo_cap: int = DEFAULT_MEMO_CAP) -> dict:
    """First-mover flip (Theorems 1.2 and 1.4): on each composite board the
    first player gets exactly (t, s) and the second exactly (t2, s2), as
    (rounds, size) frontiers."""
    suite = _Suite("thm1.2")
    for build, params in [
        (build_thm12, (1, 1, 3, 3, 3, 4)),
        (build_thm12, (1, 1, 3, 4, 3, 5)),
        (build_thm12, (1, 2, 3, 3, 3, 4)),
        (build_thm14, (1, 1, 2, 3, 3, 3, 4)),
    ]:
        m, b, *_r, s, s2, t, t2 = params
        board = f"{build.__name__[len('build_'):]}({','.join(map(str, params))})"
        h = build(*params)
        for first, want in ((Player.MAKER, (t, s)), (Player.BREAKER, (t2, s2))):
            values = game_values(h, m, b, first, memo_cap)
            row = suite.row(board=board, first=first.value,
                            frontier=[list(p) for p in values.frontier])
            suite.check(f"{board} {first.value} first gets exactly {want}",
                        values.frontier == (want,), row)
    return suite.report()


def suite_thm16(memo_cap: int = DEFAULT_MEMO_CAP) -> dict:
    """Composite board H(1,1,4,4) + H(1,1,3,5): the fastest win takes a set
    of size 4 within 4 rounds, a set of size 3 takes 5, so the frontier has
    two points."""
    suite = _Suite("thm1.6")
    values = game_values(build_thm16(1, 1, 3, 4, 4, 5), 1, 1, Player.MAKER, memo_cap)
    row = suite.row(board="thm16(1,1,3,4,4,5)", min_rounds=values.min_rounds,
                    min_size=values.min_size, frontier=[list(p) for p in values.frontier])
    suite.check("thm16(1,1,3,4,4,5) min rounds = 4", values.min_rounds == 4, row)
    suite.check("thm16(1,1,3,4,4,5) min size = 3", values.min_size == 3, row)
    suite.check("thm16(1,1,3,4,4,5) frontier = (4,4), (5,3)",
                values.frontier == ((4, 4), (5, 3)), row)
    return suite.report()


def suite_thm18(max_n: int = 13, memo_cap: int = DEFAULT_MEMO_CAP) -> dict:
    """Cycle offer-domination values equal floor(n/2), rounds and size."""
    suite = _Suite("thm1.8")
    for n in range(3, max_n + 1):
        values = dom_wc_values(cycle_graph(n), memo_cap)
        closed = wc_cycle_value(n)
        ok = values.min_rounds == values.min_size == closed == n // 2
        row = suite.row(n=n, rounds=values.min_rounds, size=values.min_size, closed=closed)
        suite.check(f"C_{n} offer values = {closed}", ok, row)
    return suite.report()


def suite_thm17(max_exhaustive: int = 13, memo_cap: int = DEFAULT_MEMO_CAP) -> dict:
    """Tree offer-domination: n/2 with a perfect matching, no win otherwise.

    Checks every tree on 1 to `max_exhaustive` vertices (2,288 trees at 13).
    """
    suite = _Suite("thm1.7")
    for n in range(1, max_exhaustive + 1):
        for idx, tree in enumerate(all_trees(n)):
            label = f"tree{n}.{idx}"
            closed = wc_tree_value(tree)
            values = dom_wc_values(tree, memo_cap)
            if closed is None:
                ok = not values.maker_wins
            else:
                ok = values.min_rounds == values.min_size == closed == n // 2
            row = suite.row(tree=label, n=n, closed=closed,
                            rounds=values.min_rounds, size=values.min_size)
            suite.check(f"{label} matches closed form", ok, row)
    return suite.report()


def _plus(k: int, v: Optional[int]) -> Optional[int]:
    return None if v is None else k + v


def suite_residue(
    count: int = 50,
    max_n: int = 10,
    seed: int = 0,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> dict:
    """Peeling a (leaf, degree-2 support) pair costs exactly one round and one
    element; the peeled-to-the-end formula agrees with direct solving."""
    if max_n < 4:
        raise PosgamesError(f"residue needs max_n >= 4 to draw peelable trees, got {max_n}")
    suite = _Suite("residue")
    rng = random.Random(seed)
    done = 0
    attempts = 0
    while done < count and attempts < count * 50:
        attempts += 1
        n = rng.randint(4, max_n)
        tree = random_tree(n, rng)
        rep = residue(tree)
        if not rep.removed_pairs:
            continue
        done += 1
        v, w = rep.removed_pairs[0]
        smaller = induced_subgraph(tree, [u for u in range(tree.n) if u not in (v, w)])
        whole = dom_wc_values(tree, memo_cap)
        part = dom_wc_values(smaller, memo_cap)
        step_ok = (whole.min_rounds == _plus(1, part.min_rounds)
                   and whole.min_size == _plus(1, part.min_size))
        res_values = dom_wc_values(rep.residue, memo_cap)
        k = (tree.n - rep.residue.n) // 2
        formula_ok = (whole.min_rounds == _plus(k, res_values.min_rounds)
                      and whole.min_size == _plus(k, res_values.min_size))
        row = suite.row(instance=done, n=n, pair=[v, w], rounds=whole.min_rounds,
                        step_ok=step_ok, formula_ok=formula_ok)
        suite.check(f"tree {done} one-pair step", step_ok, row)
        suite.check(f"tree {done} residue formula", formula_ok, row)
    if done < count:
        suite.check("generated enough qualifying trees", False, {"done": done})
    return suite.report()


def suite_gadget(
    count: int = 20, seed: int = 0, memo_cap: int = DEFAULT_MEMO_CAP
) -> dict:
    """Gadget structure: edges dominate, the domination number equals the
    smallest edge, core dominating sets contain edges, and the game values
    transfer.

    Transfer is checked at (1:1) with either player first, on the pinned
    two-element example and on every Sperner board on 2 to 4 elements that
    uses every element and whose gadget fits the board capacity: 40 of the
    125 such boards (12 of their 27 classes up to relabelling).
    """
    if count < 1:
        raise PosgamesError(f"gadget needs count >= 1 random hypergraphs, got {count}")
    suite = _Suite("gadget")
    rng = random.Random(seed)
    for idx in range(count):
        n = rng.randint(2, 5)
        h = random_hypergraph(n, 4, rng)
        g = build_gadget(h, 1)
        dominates = all(is_dominating(g, e) for e in h.edges)
        kmin = min(e.bit_count() for e in h.edges)
        # A dominating set that misses a pendant class meets that class's
        # cover in the core, and a pendant vertex dominates only itself and
        # core vertices, so a minimum dominating set can be chosen inside the
        # core clique (vertices 0 to h.n - 1): γ is the size of the smallest
        # dominating core subset.
        core = [mask for mask in range(1, 1 << h.n) if is_dominating(g, mask)]
        gamma = min(mask.bit_count() for mask in core)
        core_ok = all(any(e & ~mask == 0 for e in h.edges) for mask in core)
        row = suite.row(instance=idx, n=n, edges=len(h.edges), vertices=g.n,
                        edges_dominate=dominates, gamma=gamma, min_edge=kmin,
                        core_dominators_contain_edges=core_ok)
        suite.check(f"gadget {idx} edges dominate", dominates, row)
        suite.check(f"gadget {idx} gamma equals min edge", gamma == kmin, row)
        suite.check(f"gadget {idx} core dominators contain edges", core_ok, row)

    h2 = Hypergraph(2, (1,))  # two elements, single winning set {0}
    values = dom_game_values(build_gadget(h2, 1), 1, 1, Player.MAKER, memo_cap)
    direct = decide_mb(h2, 1, 1, Player.MAKER, Objective(1, 1), memo_cap=memo_cap)
    ok = values.min_rounds == 1 and values.min_size == 1 and direct
    row = suite.row(instance="pinned", rounds=values.min_rounds, size=values.min_size)
    suite.check("pinned example transfers (1,1)", ok, row)

    boards = [hypergraph_from_masks(n, edges) for n in (2, 3, 4) for edges in _sperner(n)]
    small = [h for h in boards if gadget_size(h, 1) <= CAPACITY]
    suite.check("40 of 125 Sperner boards have a gadget within capacity",
                (len(small), len(boards)) == (40, 125),
                {"within": len(small), "boards": len(boards)})
    for h in small:
        g = build_gadget(h, 1)
        family = minimal_dominating_sets(g)  # built once for both first players
        for first in Player:
            dom, claiming = (
                [v.maker_wins, v.min_rounds, v.min_size]
                for v in (game_values(family, 1, 1, first, memo_cap),
                          game_values(h, 1, 1, first, memo_cap))
            )
            row = suite.row(instance=h.edge_indices(), first=first.value, vertices=g.n,
                            dom=dom, claiming=claiming)
            suite.check(f"{h.edge_indices()} {first.value} first transfers", dom == claiming, row)
    return suite.report()


def _sperner(n: int) -> list[list[int]]:
    """Every Sperner family of non-empty sets (masks) on n elements that
    uses every element."""
    full = (1 << n) - 1
    found = []

    def grow(family, start, union):
        if union == full:
            found.append(family)
        for e in range(start, full + 1):
            if all(e & f not in (e, f) for f in family):  # neither contains the other
                grow(family + [e], e + 1, union | e)

    grow([], 1, 0)
    return found


def suite_thm19c1(memo_cap: int = DEFAULT_MEMO_CAP) -> dict:
    """Mixed boards at (s, t) = (3, 3), (4, 3) and (5, 3): the claiming game
    needs s rounds with either player first and the offer game t rounds, so
    the two lengths differ by s - t; and the pairing script never loses."""
    suite = _Suite("thm1.9c1")
    for s, t in ((3, 3), (4, 3), (5, 3)):
        h = build_wc_gap_case1(s, t)
        board = f"({s},{t})"
        n = 2 * t + 2 + 2 * s
        suite.check(f"{board} mixed board has {n} elements", h.n == n, {"n": h.n})
        for first in Player:
            fewer = decide_mb(h, 1, 1, first, Objective(max_rounds=s - 1), memo_cap=memo_cap)
            within = decide_mb(h, 1, 1, first, Objective(max_rounds=s), memo_cap=memo_cap)
            label = "first" if first is Player.MAKER else "second"
            row = suite.row(board=board, side=f"claiming-{label}", rounds=s,
                            win_in_fewer=fewer, win_within=within)
            suite.check(f"{board} claiming {label}-player rounds = {s}", within and not fewer, row)
        fewer = decide_wc(h, Objective(max_rounds=t - 1), memo_cap)
        within = decide_wc(h, Objective(max_rounds=t), memo_cap)
        row = suite.row(board=board, side="offer", rounds=t, win_in_fewer=fewer, win_within=within)
        suite.check(f"{board} offer rounds = {t}", within and not fewer, row)
    res = verify_strategy(*instance("breaker-pairing", t=3))
    suite.row(side="pairing", ok=res.ok, nodes=res.nodes, expanded=res.expanded)
    suite.check("pairing script never loses on the paired part", res.ok,
                {"counterexample": res.counterexample})
    return suite.report()


# Script instances checked beyond the smallest ones: the reply trees have
# 276,571, 434,521, 1,477,517 and 310,801 nodes, of which the verifier
# expands 53,361, 67,291, 12,605 and 42,733.
_LARGER_SCRIPT_INSTANCES = [
    ("client-cycle", {"n": 10}),
    ("breaker-gtb-slow", {"t": 5, "b": 1}),
    ("breaker-pairing", {"t": 6}),
    ("breaker-htb-slow", {"t": 5, "b": 1}),
]


def suite_strategies(memo_cap: int = DEFAULT_MEMO_CAP) -> dict:
    """Every catalog script passes its guarantee on its smallest instance, and
    four on larger ones, and never certifies a round count the solver
    beats."""
    suite = _Suite("strategies")
    for name, params in [(name, {}) for name in CATALOG] + _LARGER_SCRIPT_INSTANCES:
        spec, strat, guarantee = instance(name, **params)
        res = verify_strategy(spec, strat, guarantee, max_nodes=5_000_000)
        if params:
            name += " " + ",".join(f"{k}={v}" for k, v in params.items())
        suite.check(f"{name} guarantee", res.ok, {"counterexample": res.counterexample})
        optimum = values(spec, memo_cap).min_rounds
        row = suite.row(strategy=name, guarantee=guarantee.describe(), ok=res.ok,
                        nodes=res.nodes, expanded=res.expanded, solver_min_rounds=optimum)
        if guarantee.kind is GuaranteeKind.WIN_WITHIN:
            agree = optimum is not None and optimum <= guarantee.rounds
            suite.check(f"{name} certified bound >= solver optimum", agree, row)
        else:
            agree = optimum is None or optimum > guarantee.horizon
            claim = "no win" if guarantee.rounds is None else "no early win"
            suite.check(f"{name} solver agrees: {claim}", agree, row)
    return suite.report()


def _first_counterexample(seed: int, count: int, max_n: int, max_edges: int, bad_at):
    """The first of `count` random boards on which a property fails, or None.

    Each board has 2 to `max_n` elements and 1 to `max_edges` sets of at most
    max(2, n - 1) elements.  `bad_at(rng, h)` draws the property's own
    parameters from the same generator and returns None when the property
    holds on `h`, else a detail dict; the counterexample is
    {"i": board index, **detail, "h": the board's sets}.
    """
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(2, max_n)
        h = random_hypergraph(n, max_edges, rng, max_edge_size=max(2, n - 1))
        detail = bad_at(rng, h)
        if detail is not None:
            return {"i": i, **detail, "h": h.edge_indices()}
    return None


def suite_properties(
    count: int = 200, seed: int = 0, max_n: int = 8,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> dict:
    """Randomized invariants: bias and objective monotonicity, first-mover
    advantage, minimal-subfamily soundness."""
    if max_n < 2:
        raise PosgamesError(f"properties needs max_n >= 2, got {max_n}")
    if count < 1:
        raise PosgamesError(f"properties needs count >= 1 instances per property, got {count}")
    suite = _Suite("properties")
    sides = (Player.MAKER, Player.BREAKER)

    def bias_monotonicity(rng, h):
        m, b, first = rng.randint(1, 2), rng.randint(1, 2), rng.choice(sides)
        base = decide_mb(h, m, b, first, memo_cap=memo_cap)
        if base and not decide_mb(h, m + 1, b, first, memo_cap=memo_cap):
            return {"case": "maker bias up"}
        if not base and decide_mb(h, m, b + 1, first, memo_cap=memo_cap):
            return {"case": "breaker bias up"}
        return None

    def objective_monotonicity(rng, h):
        t, s, first = rng.randint(1, h.n), rng.randint(1, h.n), rng.choice(sides)
        if decide_mb(h, 1, 1, first, Objective(t, s), memo_cap=memo_cap) and not (
            decide_mb(h, 1, 1, first, Objective(t + 1, s), memo_cap=memo_cap)
            and decide_mb(h, 1, 1, first, Objective(t, s + 1), memo_cap=memo_cap)
        ):
            return {"t": t, "s": s}
        return None

    def first_mover_advantage(rng, h):
        m, b = rng.randint(1, 2), rng.randint(1, 2)
        if decide_mb(h, m, b, Player.BREAKER, memo_cap=memo_cap) and not decide_mb(
            h, m, b, Player.MAKER, memo_cap=memo_cap
        ):
            return {}
        return None

    def minimal_subfamily_soundness(rng, h):
        m, b, first = rng.randint(1, 2), rng.randint(1, 2), rng.choice(sides)
        if game_values(h, m, b, first, memo_cap) != game_values(
            minimalize(h), m, b, first, memo_cap
        ):
            return {}
        return None

    # (label, largest board, most sets, property); property k draws its
    # boards from seed + k
    properties = [
        ("bias monotonicity", max_n, 4, bias_monotonicity),
        ("objective monotonicity", max_n, 4, objective_monotonicity),
        ("first-mover advantage", max_n, 4, first_mover_advantage),
        ("minimal-subfamily soundness", max_n, 4, minimal_subfamily_soundness),
    ]
    for k, (label, top, edges, bad_at) in enumerate(properties):
        bad = _first_counterexample(seed + k, count, top, edges, bad_at)
        suite.check(f"{label} x{count}", bad is None, bad)
    suite.row(instances_per_property=count, max_n=max_n, seed=seed)
    return suite.report()


SUITES = {
    "lemma3.4": suite_lemma34,
    "lemma3.6": suite_lemma36,
    "lemma3.9": suite_lemma39,
    "thm1.1": suite_thm11,
    "thm1.2": suite_thm12,
    "thm1.6": suite_thm16,
    "thm1.7": suite_thm17,
    "thm1.8": suite_thm18,
    "thm1.9c1": suite_thm19c1,
    "residue": suite_residue,
    "gadget": suite_gadget,
    "strategies": suite_strategies,
    "properties": suite_properties,
}
