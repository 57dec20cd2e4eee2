"""Named verification suites: each re-derives one of the library's headline
claims by exhaustive search and reports pass/fail with a counterexample.

Every suite is a pure function of its arguments (and seed, when randomized):
reruns agree.  Reports carry machine-readable rows for CSV output.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from typing import Optional

from .boards import Hypergraph, SimpleGraph, induced_subgraph, minimalize
from .constructions import (
    build_gadget,
    build_gtb_indexed,
    build_hmbst_indexed,
    build_htb_indexed,
    build_nonmonotone,
    build_thm16,
    build_wc_gap_case1,
)
from .domination import (
    dom_game_values,
    dom_wc_values,
    is_dominating,
    residue,
    wc_cycle_value,
    wc_tree_value,
)
from .engine import GameKind, GameSpec, Player
from .errors import PosgamesError
from .graphgen import all_trees, cycle_graph, random_hypergraph, random_tree
from .solver import (
    Objective,
    SolverSettings,
    decide_mb,
    decide_wc,
    game_values,
    solve_aux_game,
    wc_game_values,
)
from .strategies import CATALOG, GuaranteeKind, instance, verify_strategy


class SuiteReport(dict):
    """Plain dict with the fields: suite, ok, seconds, checks, rows, failures."""


def _report(suite: str, t0: float, checks: list, rows: list, failures: list) -> SuiteReport:
    """The suite's report; a suite that made no check has shown nothing, so
    that is an error, not a pass."""
    if not checks:
        raise PosgamesError(f"suite {suite} made no check with these arguments")
    return SuiteReport(
        suite=suite,
        ok=not failures,
        seconds=round(time.perf_counter() - t0, 3),
        checks=checks,
        rows=rows,
        failures=failures,
    )


def _check(checks, failures, label: str, ok: bool, detail=None):
    checks.append({"check": label, "ok": ok})
    if not ok:
        failures.append({"check": label, "detail": detail})


def suite_lemma34(settings: Optional[SolverSettings] = None) -> SuiteReport:
    """Branched-digraph game values: win in t, not in t-1, single seeds lose."""
    t0 = time.perf_counter()
    checks, rows, failures = [], [], []
    for t, b in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]:
        board, _ = build_gtb_indexed(t, b)
        seeds = (1 << board.start) | (1 << board.end)
        win = solve_aux_game(board, b, seeds, Objective(max_rounds=t), settings=settings)
        slow = solve_aux_game(board, b, seeds, Objective(max_rounds=t - 1), settings=settings)
        singles = all(
            not solve_aux_game(board, b, 1 << v, settings=settings)
            for v in range(board.nv)
        )
        rows.append({"t": t, "b": b, "win_at_t": win, "win_at_t1": slow, "singles_lose": singles})
        _check(checks, failures, f"gtb({t},{b}) win within {t}", win)
        _check(checks, failures, f"gtb({t},{b}) no win within {t - 1}", not slow)
        _check(checks, failures, f"gtb({t},{b}) every single seed loses", singles)
    return _report("lemma3.4", t0, checks, rows, failures)


def suite_lemma36(settings: Optional[SolverSettings] = None) -> SuiteReport:
    """Hub-digraph game: win in t, not t-1, opening pre-claim flips it."""
    t0 = time.perf_counter()
    checks, rows, failures = [], [], []
    for t, b in [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (6, 1)]:
        board, _ = build_htb_indexed(t, b)
        win = solve_aux_game(board, b, 0, Objective(max_rounds=t), settings=settings)
        slow = solve_aux_game(board, b, 0, Objective(max_rounds=t - 1), settings=settings)
        pre = solve_aux_game(board, b, 0, breaker_premove=True, settings=settings)
        rows.append({"t": t, "b": b, "win_at_t": win, "win_at_t1": slow, "premove_win": pre})
        _check(checks, failures, f"htb({t},{b}) win within {t}", win)
        _check(checks, failures, f"htb({t},{b}) no win within {t - 1}", not slow)
        _check(checks, failures, f"htb({t},{b}) lost after one-element pre-claim", not pre)
    return _report("lemma3.6", t0, checks, rows, failures)


def suite_lemma39(settings: Optional[SolverSettings] = None) -> SuiteReport:
    """Uniform-board values, identical with and without the reduced menu."""
    t0 = time.perf_counter()
    checks, rows, failures = [], [], []
    for m, b, s, t in [(1, 1, 3, 3), (1, 2, 3, 3), (1, 2, 3, 4), (2, 2, 5, 3)]:
        h, family = build_hmbst_indexed(m, b, s, t)[:2]
        for restr in (None, family):
            tag = "restricted" if restr else "free"
            win = decide_mb(h, m, b, Player.MAKER, Objective(t, s), restr, settings)
            slow = decide_mb(h, m, b, Player.MAKER, Objective(t - 1, s), restr, settings)
            second = decide_mb(h, m, b, Player.BREAKER, Objective(), restr, settings)
            rows.append(
                {"m": m, "b": b, "s": s, "t": t, "menu": tag,
                 "win_at_t": win, "win_at_t1": slow, "second_player_win": second}
            )
            _check(checks, failures, f"H({m},{b},{s},{t}) {tag} win at t", win)
            _check(checks, failures, f"H({m},{b},{s},{t}) {tag} no win at t-1", not slow)
            _check(checks, failures, f"H({m},{b},{s},{t}) {tag} second-player loss", not second)
    return _report("lemma3.9", t0, checks, rows, failures)


def suite_thm11(max_bias: int = 4, settings: Optional[SolverSettings] = None) -> SuiteReport:
    """Fair-bias outcome flips exactly on the blocked set."""
    if max_bias < 1:
        raise PosgamesError(f"thm1.1 needs max_bias >= 1 to check an outcome, got {max_bias}")
    t0 = time.perf_counter()
    checks, rows, failures = [], [], []
    for blocked in ({1}, {2}, {1, 2}):
        h = build_nonmonotone(blocked)
        _check(checks, failures, f"blocked={sorted(blocked)} board has at most 12 elements",
               h.n <= 12, {"n": h.n})
        for bias in range(1, max_bias + 1):
            won = decide_mb(h, bias, bias, Player.MAKER, settings=settings)
            expected = bias not in blocked
            rows.append({"blocked": sorted(blocked), "bias": bias, "win": won, "expected": expected})
            _check(
                checks, failures,
                f"blocked={sorted(blocked)} bias={bias} outcome",
                won == expected, {"got": won, "expected": expected},
            )
    return _report("thm1.1", t0, checks, rows, failures)


def suite_thm16(settings: Optional[SolverSettings] = None) -> SuiteReport:
    """Composite board H(1,1,4,4) + H(1,1,3,5): the fastest win takes a set
    of size 4 within 4 rounds, a set of size 3 takes 5, so the frontier has
    two points."""
    t0 = time.perf_counter()
    checks, rows, failures = [], [], []
    values = game_values(build_thm16(1, 1, 3, 4, 4, 5), 1, 1, Player.MAKER, settings)
    rows.append({"board": "thm16(1,1,3,4,4,5)", "min_rounds": values.min_rounds,
                 "min_size": values.min_size, "frontier": [list(p) for p in values.frontier]})
    _check(checks, failures, "thm16(1,1,3,4,4,5) min rounds = 4", values.min_rounds == 4, rows[-1])
    _check(checks, failures, "thm16(1,1,3,4,4,5) min size = 3", values.min_size == 3, rows[-1])
    _check(checks, failures, "thm16(1,1,3,4,4,5) frontier = (4,4), (5,3)",
           values.frontier == ((4, 4), (5, 3)), rows[-1])
    return _report("thm1.6", t0, checks, rows, failures)


def suite_thm18(max_n: int = 12, settings: Optional[SolverSettings] = None) -> SuiteReport:
    """Cycle offer-domination values equal floor(n/2), rounds and size."""
    t0 = time.perf_counter()
    checks, rows, failures = [], [], []
    for n in range(3, max_n + 1):
        values = dom_wc_values(cycle_graph(n), settings)
        closed = wc_cycle_value(n)
        ok = values.min_rounds == values.min_size == closed == n // 2
        rows.append({"n": n, "rounds": values.min_rounds, "size": values.min_size, "closed": closed})
        _check(checks, failures, f"C_{n} offer values = {closed}", ok, rows[-1])
    return _report("thm1.8", t0, checks, rows, failures)


def suite_thm17(
    max_exhaustive: int = 12, settings: Optional[SolverSettings] = None
) -> SuiteReport:
    """Tree offer-domination: n/2 with a perfect matching, no win otherwise.

    Checks every tree on 1 to `max_exhaustive` vertices (987 trees at 12).
    """
    t0 = time.perf_counter()
    checks, rows, failures = [], [], []
    for n in range(1, max_exhaustive + 1):
        for idx, tree in enumerate(all_trees(n)):
            label = f"tree{n}.{idx}"
            closed = wc_tree_value(tree)
            values = dom_wc_values(tree, settings)
            if closed is None:
                ok = not values.maker_wins
            else:
                ok = values.min_rounds == values.min_size == closed == n // 2
            rows.append(
                {"tree": label, "n": n, "closed": closed,
                 "rounds": values.min_rounds, "size": values.min_size}
            )
            _check(checks, failures, f"{label} matches closed form", ok, rows[-1])
    return _report("thm1.7", t0, checks, rows, failures)


def _plus(k: int, v: Optional[int]) -> Optional[int]:
    return None if v is None else k + v


def suite_residue(
    count: int = 50,
    max_n: int = 10,
    seed: int = 0,
    settings: Optional[SolverSettings] = None,
) -> SuiteReport:
    """Peeling a (leaf, degree-2 support) pair costs exactly one round and one
    element; the peeled-to-the-end formula agrees with direct solving."""
    if max_n < 4:
        raise PosgamesError(f"residue needs max_n >= 4 to draw peelable trees, got {max_n}")
    t0 = time.perf_counter()
    checks, rows, failures = [], [], []
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
        rest = [u for u in range(tree.n) if u not in (v, w)]
        smaller = induced_subgraph(tree, rest)
        whole = dom_wc_values(tree, settings)
        part = dom_wc_values(smaller, settings)
        step_ok = whole.min_rounds == _plus(1, part.min_rounds) and whole.min_size == _plus(
            1, part.min_size
        )
        res_values = dom_wc_values(rep.residue, settings)
        k = (tree.n - rep.residue.n) // 2
        formula_ok = whole.min_rounds == _plus(k, res_values.min_rounds) and whole.min_size == _plus(
            k, res_values.min_size
        )
        rows.append(
            {"instance": done, "n": n, "pair": [v, w],
             "rounds": whole.min_rounds, "step_ok": step_ok, "formula_ok": formula_ok}
        )
        _check(checks, failures, f"tree {done} one-pair step", step_ok, rows[-1])
        _check(checks, failures, f"tree {done} residue formula", formula_ok, rows[-1])
    if done < count:
        _check(checks, failures, "generated enough qualifying trees", False, {"done": done})
    return _report("residue", t0, checks, rows, failures)


def _gamma_via_core(g: SimpleGraph, core_n: int) -> int:
    """Exact domination number of a gadget graph.

    Any dominating set that leaves some pendant class untouched must meet that
    class's cover inside the core, and pendant vertices only dominate
    themselves plus core vertices, so a minimum dominating set can always be
    chosen inside the core clique.  The core is small: enumerate it.
    """
    best = None
    for k in range(1, core_n + 1):
        for combo in combinations(range(core_n), k):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if is_dominating(g, mask):
                return k
    raise AssertionError("the full core dominates every gadget")


def suite_gadget(
    count: int = 20, seed: int = 0, settings: Optional[SolverSettings] = None
) -> SuiteReport:
    """Gadget structure: edges dominate, the domination number equals the
    smallest edge, core dominating sets contain edges, and the game values
    transfer on the two-element example."""
    if count < 1:
        raise PosgamesError(f"gadget needs count >= 1 random hypergraphs, got {count}")
    t0 = time.perf_counter()
    checks, rows, failures = [], [], []
    rng = random.Random(seed)
    for idx in range(count):
        n = rng.randint(2, 5)
        h = random_hypergraph(n, 4, rng)
        g = build_gadget(h, 1)
        dominates = all(is_dominating(g, e) for e in h.edges)
        kmin = min(e.bit_count() for e in h.edges)
        gamma = _gamma_via_core(g, h.n)
        core_ok = True
        for mask in range(1, 1 << h.n):
            if is_dominating(g, mask) and not any(e & ~mask == 0 for e in h.edges):
                core_ok = False
                break
        rows.append(
            {"instance": idx, "n": n, "edges": len(h.edges), "vertices": g.n,
             "edges_dominate": dominates, "gamma": gamma, "min_edge": kmin,
             "core_dominators_contain_edges": core_ok}
        )
        _check(checks, failures, f"gadget {idx} edges dominate", dominates, rows[-1])
        _check(checks, failures, f"gadget {idx} gamma equals min edge", gamma == kmin, rows[-1])
        _check(checks, failures, f"gadget {idx} core dominators contain edges", core_ok, rows[-1])

    h2 = Hypergraph(2, (1,))  # two elements, single winning set {0}
    g2 = build_gadget(h2, 1)
    values = dom_game_values(g2, 1, 1, Player.MAKER, settings)
    direct = decide_mb(h2, 1, 1, Player.MAKER, Objective(1, 1), settings=settings)
    ok = values.min_rounds == 1 and values.min_size == 1 and direct
    rows.append({"instance": "pinned", "rounds": values.min_rounds, "size": values.min_size})
    _check(checks, failures, "pinned example transfers (1,1)", ok, rows[-1])
    return _report("gadget", t0, checks, rows, failures)


def suite_thm19c1(settings: Optional[SolverSettings] = None) -> SuiteReport:
    """Mixed board at (3,3): claiming game needs 3 rounds either way, the
    offer game needs 3 rounds, and the pairing script never loses."""
    t0 = time.perf_counter()
    checks, rows, failures = [], [], []
    h = build_wc_gap_case1(3, 3)
    _check(checks, failures, "mixed board has 14 elements", h.n == 14, {"n": h.n})
    for first in (Player.MAKER, Player.BREAKER):
        r2 = decide_mb(h, 1, 1, first, Objective(max_rounds=2), settings=settings)
        r3 = decide_mb(h, 1, 1, first, Objective(max_rounds=3), settings=settings)
        label = "first" if first is Player.MAKER else "second"
        rows.append({"side": f"claiming-{label}", "win2": r2, "win3": r3})
        _check(checks, failures, f"claiming {label}-player rounds = 3", r3 and not r2, rows[-1])
    w2 = decide_wc(h, Objective(max_rounds=2), settings)
    w3 = decide_wc(h, Objective(max_rounds=3), settings)
    rows.append({"side": "offer", "win2": w2, "win3": w3})
    _check(checks, failures, "offer rounds = 3", w3 and not w2, rows[-1])
    res = verify_strategy(*instance("breaker-pairing", t=3))
    rows.append({"side": "pairing", "ok": res.ok, "nodes": res.nodes,
                 "expanded": res.expanded})
    _check(checks, failures, "pairing script never loses on the paired part", res.ok,
           {"counterexample": res.counterexample})
    return _report("thm1.9c1", t0, checks, rows, failures)


def _solver_min_rounds(spec: GameSpec, settings) -> Optional[int]:
    board = spec.board
    if spec.kind is GameKind.AUX_EDGE:
        if not solve_aux_game(
            board, spec.breaker_bias, spec.preclaimed_maker,
            breaker_premove=spec.breaker_premove, settings=settings,
        ):
            return None
        for t in range(1, board.n_elements + 1):
            if solve_aux_game(
                board, spec.breaker_bias, spec.preclaimed_maker,
                Objective(max_rounds=t), breaker_premove=spec.breaker_premove,
                settings=settings,
            ):
                return t
        return None
    if spec.kind is GameKind.WAITER_CLIENT:
        return wc_game_values(board, settings).min_rounds
    return game_values(board, spec.maker_bias, spec.breaker_bias, spec.first, settings).min_rounds


# Script instances checked beyond the smallest ones: the reply trees have
# 276,571, 434,521 and 1,477,517 nodes.
_LARGER_SCRIPT_INSTANCES = [
    ("client-cycle", {"n": 10}),
    ("breaker-gtb-slow", {"t": 5, "b": 1}),
    ("breaker-pairing", {"t": 6}),
]


def suite_strategies(settings: Optional[SolverSettings] = None) -> SuiteReport:
    """Every catalog script passes its guarantee on its smallest instance, and
    three on larger ones, and never certifies a round count the solver
    beats."""
    t0 = time.perf_counter()
    checks, rows, failures = [], [], []
    for name, params in [(name, {}) for name in CATALOG] + _LARGER_SCRIPT_INSTANCES:
        spec, strat, guarantee = instance(name, **params)
        res = verify_strategy(spec, strat, guarantee, max_nodes=5_000_000)
        if params:
            name += " " + ",".join(f"{k}={v}" for k, v in params.items())
        row = {"strategy": name, "guarantee": guarantee.describe(), "ok": res.ok,
               "nodes": res.nodes, "expanded": res.expanded}
        _check(checks, failures, f"{name} guarantee", res.ok,
               {"counterexample": res.counterexample})
        optimum = _solver_min_rounds(spec, settings)
        row["solver_min_rounds"] = optimum
        if guarantee.kind is GuaranteeKind.WIN_WITHIN:
            agree = optimum is not None and optimum <= guarantee.rounds
            _check(checks, failures, f"{name} certified bound >= solver optimum", agree, row)
        else:
            agree = optimum is None or optimum > guarantee.horizon
            claim = "no win" if guarantee.rounds is None else "no early win"
            _check(checks, failures, f"{name} solver agrees: {claim}", agree, row)
        rows.append(row)
    return _report("strategies", t0, checks, rows, failures)


def suite_properties(
    count: int = 200, seed: int = 0, max_n: int = 8,
    settings: Optional[SolverSettings] = None,
) -> SuiteReport:
    """Randomized invariants: bias and objective monotonicity, first-mover
    advantage, minimal-subfamily soundness, memo transparency."""
    if max_n < 2:
        raise PosgamesError(f"properties needs max_n >= 2, got {max_n}")
    if count < 1:
        raise PosgamesError(f"properties needs count >= 1 instances per property, got {count}")
    t0 = time.perf_counter()
    checks, rows, failures = [], [], []
    settings = settings or SolverSettings()

    rng = random.Random(seed)
    bad = None
    for i in range(count):
        n = rng.randint(2, max_n)
        h = random_hypergraph(n, 4, rng, max_edge_size=max(2, n - 1))
        m = rng.randint(1, 2)
        b = rng.randint(1, 2)
        first = rng.choice((Player.MAKER, Player.BREAKER))
        base = decide_mb(h, m, b, first, settings=settings)
        if base and not decide_mb(h, m + 1, b, first, settings=settings):
            bad = {"i": i, "case": "maker bias up", "h": h.edge_indices()}
            break
        if not base and decide_mb(h, m, b + 1, first, settings=settings):
            bad = {"i": i, "case": "breaker bias up", "h": h.edge_indices()}
            break
    _check(checks, failures, f"bias monotonicity x{count}", bad is None, bad)

    rng = random.Random(seed + 1)
    bad = None
    for i in range(count):
        n = rng.randint(2, max_n)
        h = random_hypergraph(n, 4, rng, max_edge_size=max(2, n - 1))
        t = rng.randint(1, n)
        s = rng.randint(1, n)
        first = rng.choice((Player.MAKER, Player.BREAKER))
        if decide_mb(h, 1, 1, first, Objective(t, s), settings=settings):
            up_t = decide_mb(h, 1, 1, first, Objective(t + 1, s), settings=settings)
            up_s = decide_mb(h, 1, 1, first, Objective(t, s + 1), settings=settings)
            if not (up_t and up_s):
                bad = {"i": i, "t": t, "s": s, "h": h.edge_indices()}
                break
    _check(checks, failures, f"objective monotonicity x{count}", bad is None, bad)

    rng = random.Random(seed + 2)
    bad = None
    for i in range(count):
        n = rng.randint(2, max_n)
        h = random_hypergraph(n, 4, rng, max_edge_size=max(2, n - 1))
        m = rng.randint(1, 2)
        b = rng.randint(1, 2)
        if decide_mb(h, m, b, Player.BREAKER, settings=settings) and not decide_mb(
            h, m, b, Player.MAKER, settings=settings
        ):
            bad = {"i": i, "h": h.edge_indices()}
            break
    _check(checks, failures, f"first-mover advantage x{count}", bad is None, bad)

    rng = random.Random(seed + 3)
    bad = None
    for i in range(count):
        n = rng.randint(2, max_n)
        h = random_hypergraph(n, 4, rng, max_edge_size=max(2, n - 1))
        m = rng.randint(1, 2)
        b = rng.randint(1, 2)
        first = rng.choice((Player.MAKER, Player.BREAKER))
        if game_values(h, m, b, first, settings) != game_values(
            minimalize(h), m, b, first, settings
        ):
            bad = {"i": i, "h": h.edge_indices()}
            break
    _check(checks, failures, f"minimal-subfamily soundness x{count}", bad is None, bad)

    rng = random.Random(seed + 4)
    bad = None
    plain = SolverSettings(use_memo=False)
    for i in range(count):
        n = rng.randint(2, 6)
        h = random_hypergraph(n, 3, rng, max_edge_size=max(2, n - 1))
        t = rng.randint(1, n)
        first = rng.choice((Player.MAKER, Player.BREAKER))
        with_memo = decide_mb(h, 1, 1, first, Objective(max_rounds=t), settings=settings)
        without = decide_mb(h, 1, 1, first, Objective(max_rounds=t), settings=plain)
        if with_memo != without:
            bad = {"i": i, "t": t, "h": h.edge_indices()}
            break
    _check(checks, failures, f"memo transparency x{count}", bad is None, bad)

    rows.append({"instances_per_property": count, "max_n": max_n, "seed": seed})
    return _report("properties", t0, checks, rows, failures)


SUITES = {
    "lemma3.4": suite_lemma34,
    "lemma3.6": suite_lemma36,
    "lemma3.9": suite_lemma39,
    "thm1.1": suite_thm11,
    "thm1.6": suite_thm16,
    "thm1.7": suite_thm17,
    "thm1.8": suite_thm18,
    "thm1.9c1": suite_thm19c1,
    "residue": suite_residue,
    "gadget": suite_gadget,
    "strategies": suite_strategies,
    "properties": suite_properties,
}
