"""Spans around the program's public functions, for the traced run.

The tracer replaces module attributes with timing wrappers for the length of
a `with tracer.patched():` block and restores them afterwards; nothing under
`src/` changes.  Each span records its name, start, end, parent span and the
workload instance it served.  Engine calls are too many to keep one span
each: they are counted and timed in place, and their time is charged to the
open span so self times stay right.
"""

from __future__ import annotations

import functools
import inspect
import statistics
from contextlib import contextmanager
from time import perf_counter

from posgames import boards, constructions, domination, graphgen, solver, strategies


def _elements(board) -> int:
    board = board[0] if isinstance(board, tuple) else board
    return getattr(board, "n_elements", None) or board.n


def _graphs(result) -> int:
    return len(result) if isinstance(result, list) else 1


# (module, attribute, span name, size of the result).  A function is wrapped
# at every name its callers look it up under: `dom_wc_values` finds
# `wc_game_values` in `domination`, `game_values` finds `decide_mb` in
# `solver`, and the verifier finds the engine in `strategies`.
SPANS = [
    (solver, "decide_mb", "solver.decide_mb", None),
    (solver, "decide_wc", "solver.decide_wc", None),
    (solver, "solve_aux_game", "solver.aux", None),
    (solver, "game_values", "solver.values", None),
    (solver, "wc_game_values", "solver.values", None),
    (domination, "wc_game_values", "solver.values", None),
    (domination, "minimal_dominating_sets", "domination.mds", lambda h: len(h.edges)),
    (strategies, "minimal_dominating_sets", "domination.mds", lambda h: len(h.edges)),
    (boards, "minimal_transversals", "boards.transversal", len),
    (domination, "minimal_transversals", "boards.transversal", len),
    (strategies, "verify_strategy", "strategies.verify", lambda r: r.nodes),
    (graphgen, "all_trees", "graphgen.gen", _graphs),
    (graphgen, "random_tree", "graphgen.gen", _graphs),
    (graphgen, "random_graph", "graphgen.gen", _graphs),
    (graphgen, "cycle_graph", "graphgen.gen", _graphs),
] + [
    (constructions, name, "constructions.build", _elements)
    for name in ("build_thm16", "build_htb_indexed", "build_gtb_indexed",
                 "build_hmbst_indexed", "build_ht_wc_indexed")
]
LEAVES = [(strategies, name, f"engine.{name}") for name in ("legal_moves", "apply_move", "status")]

# span record fields
NAME, START, END, PARENT, INSTANCE, INNER, SIZE = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.instance = None
        self.leaves = {name: [0, 0.0] for _mod, _attr, name in LEAVES}

    def _span(self, fn, name, size):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.open[-1] if self.open else None
            rec = [name, perf_counter(), 0.0, parent, self.instance, 0.0, 0]
            self.open.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if inspect.isgenerator(result):
                    result = list(result)
            finally:
                rec[END] = perf_counter()
                self.open.pop()
                if parent is not None:
                    self.spans[parent][INNER] += rec[END] - rec[START]
            if size is not None:
                rec[SIZE] = size(result)
            return result

        return wrapper

    def _leaf(self, fn, name):
        stat = self.leaves[name]
        spans, open_ = self.spans, self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt
                if open_:
                    spans[open_[-1]][INNER] += dt

        return wrapper

    @contextmanager
    def patched(self):
        saved = []
        try:
            for mod, attr, name, size in SPANS:
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._span(fn, name, size))
            for mod, attr, name in LEAVES:
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._leaf(fn, name))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "instance", "inner_s", "size")
        return [dict(zip(keys, rec)) for rec in self.spans]


def _p95(values: list[float]) -> float:
    if len(values) < 2:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=100, method="inclusive")[94]


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of everything the tracer recorded.  A layer's time
    counts only its outermost spans, so nested calls are not counted twice."""
    spans = tracer.spans

    def of(name):
        return [r for r in spans if r[NAME] == name]

    def dur(r):
        return r[END] - r[START]

    def outer_s(name):
        return sum(dur(r) for r in of(name)
                   if r[PARENT] is None or spans[r[PARENT]][NAME] != name)

    def outer_size(name):
        return sum(r[SIZE] for r in of(name)
                   if r[PARENT] is None or spans[r[PARENT]][NAME] != name)

    def ratio(a, b):
        return a / b if b else 0.0

    mb, wc, values = of("solver.decide_mb"), of("solver.decide_wc"), of("solver.values")
    value_ids = {i for i, r in enumerate(spans) if r[NAME] == "solver.values"}
    decisions = sum(1 for r in mb + wc if r[PARENT] in value_ids)
    mds, verify = of("domination.mds"), of("strategies.verify")
    transversal_s = outer_s("boards.transversal")
    verify_s = outer_s("strategies.verify")
    leaves = tracer.leaves
    engine_s = sum(s for _calls, s in leaves.values())
    return {
        "solver.decide_mb_calls": (len(mb), "count"),
        "solver.decide_mb_s": (sum(map(dur, mb)), "s"),
        "solver.decide_mb_max_ms": (1e3 * max(map(dur, mb), default=0.0), "ms"),
        "solver.aux_calls": (len(of("solver.aux")), "count"),
        "solver.aux_s": (sum(map(dur, of("solver.aux"))), "s"),
        "solver.values_s": (outer_s("solver.values"), "s"),
        "solver.decisions_per_value": (ratio(decisions, len(values)), "ratio"),
        "solver.decide_wc_calls": (len(wc), "count"),
        "solver.decide_wc_s": (sum(map(dur, wc)), "s"),
        "solver.decide_wc_p95_ms": (1e3 * _p95([dur(r) for r in wc]), "ms"),
        "domination.mds_calls": (len(mds), "count"),
        "domination.mds_s": (sum(map(dur, mds)), "s"),
        "domination.mds_self_s": (sum(dur(r) - r[INNER] for r in mds), "s"),
        "domination.family_edges": (sum(r[SIZE] for r in mds), "count"),
        "boards.transversal_calls": (len(of("boards.transversal")), "count"),
        "boards.transversal_s": (transversal_s, "s"),
        "boards.family_edges_per_s": (ratio(outer_size("boards.transversal"), transversal_s), "1/s"),
        "strategies.verify_calls": (len(verify), "count"),
        "strategies.verify_s": (verify_s, "s"),
        "strategies.verify_nodes": (sum(r[SIZE] for r in verify), "count"),
        "strategies.nodes_per_s": (ratio(sum(r[SIZE] for r in verify), verify_s), "1/s"),
        "strategies.self_s": (sum(dur(r) - r[INNER] for r in verify), "s"),
        "engine.legal_moves_calls": (leaves["engine.legal_moves"][0], "count"),
        "engine.apply_move_calls": (leaves["engine.apply_move"][0], "count"),
        "engine.status_calls": (leaves["engine.status"][0], "count"),
        "engine.s": (engine_s, "s"),
        "constructions.build_s": (outer_s("constructions.build"), "s"),
        "constructions.elements": (outer_size("constructions.build"), "count"),
        "graphgen.gen_s": (outer_s("graphgen.gen"), "s"),
        "graphgen.graphs": (outer_size("graphgen.gen"), "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
