"""Command-line front end.

Exit codes: 0 success / claim holds; 1 claim violated (counterexample JSON on
stdout); 2 usage error; 3 resource-guard abort.  Results are JSON on stdout,
or in the file given with -o (CSV for tabular output with --format csv).  A
run manifest (command line, input digests, version, seed, wall time, result)
can be written with --manifest; identical inputs reproduce identical result
payloads.

The parser is the one place that says which flags a command reads.  Every
leaf command has its own subparser, and `set_defaults(handler=...)` on it or
on its group names the function that runs it.  Each verify target (a suite,
`all` or a catalog script) is a subparser made from the signature of the
suite or of the script's builder through `_VERIFY_FLAGS`; each closed-form
shape is one too, as is each game of `frontier` and `dom solve`, which
`_add_value_games` builds for both.  So a flag the command does not read is an
argparse usage error (exit 2) before anything runs, and so is a flag
abbreviated to a prefix (every parser is a `_Parser`).  --memo-cap is offered
where a search runs (solve, frontier, dom solve, verify of a suite or `all`)
and --format where the result has rows (frontier, dom solve, verify of one
suite).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import io
import json
import random
import sys
import time
from typing import Optional

from . import __version__
from .bitset import indices_of, mask_from_indices
from .boards import _check_board_size, family_from_json, from_json, to_json
from .constructions import (
    build_complete_uniform,
    build_gadget,
    build_gtb,
    build_hmbst,
    build_htb,
    build_ht_wc,
    build_nonmonotone,
    build_thm12,
    build_thm14,
    build_thm15,
    build_thm16,
    build_wc_gap_case1,
    gadget_size,
)
from .domination import (
    domination_number,
    minimal_dominating_sets,
    residue,
    wc_cycle_value,
    wc_tree_value,
)
from .engine import GameKind, GameSpec, Player
from .errors import BoardError, FormatError, GuardExceeded, PosgamesError
from .graphgen import cycle_graph, path_graph, random_graph, random_tree
from .solver import DEFAULT_MEMO_CAP, Objective, decide, values
from .strategies import CATALOG, instance, verify_strategy
from . import suites as suites_mod

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


class _Run:
    """Collects inputs and the result payload for the manifest."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.inputs: dict[str, str] = {}
        self.seed: Optional[int] = None
        self.t0 = time.perf_counter()

    def read_json(self, path: str):
        with open(path, "rb") as fh:
            raw = fh.read()
        self.inputs[path] = hashlib.sha256(raw).hexdigest()
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc

    def read_board(self, path: str, kind: str):
        """The board at `path`, which must be a `kind` ("hypergraph", "graph"
        or "digraph") document."""
        doc = self.read_json(path)
        if not isinstance(doc, dict) or doc.get("type") != kind:
            raise FormatError(f"{path}: expected a {kind} document")
        return from_json(doc)

    def read_family(self, path: str, n: int) -> tuple[int, ...]:
        return family_from_json(self.read_json(path), n)

    def manifest(self, result) -> dict:
        return {
            "type": "run_manifest",
            "command": self.argv,
            "inputs": self.inputs,
            "version": __version__,
            "seed": self.seed,
            "wall_time_s": round(time.perf_counter() - self.t0, 4),
            "result": result,
        }


def _emit(args, run: _Run, payload, rows=None, columns=None) -> None:
    """Write the rows as CSV with --format csv, else the payload as JSON, to
    the -o path or stdout.  The CSV columns are `columns`, else every row
    key in first-seen order; the header is written even with no row."""
    if getattr(args, "format", "json") == "csv":
        if columns is None:
            columns = list(dict.fromkeys(key for row in rows for key in row))
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(row.get(k)) for k in columns})
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.manifest:
        with open(args.manifest, "w") as fh:
            json.dump(run.manifest(payload), fh, indent=2)
            fh.write("\n")


def _csv_cell(value):
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return value


def _player(name: str) -> Player:
    return Player.MAKER if name == "maker" else Player.BREAKER


def _objective(args) -> Objective:
    return Objective(getattr(args, "max_rounds", None), getattr(args, "max_size", None))


# ---------------------------------------------------------------------------
# gen


# generator name -> (builder, its integer parameters in call order)
_INT_GENERATORS = {
    "gtb": (build_gtb, ("t", "b")),
    "htb": (build_htb, ("t", "b")),
    "ht-wc": (build_ht_wc, ("t",)),
    "thm12": (build_thm12, ("m", "b", "s", "s2", "t", "t2")),
    "thm14": (build_thm14, ("m", "b", "r", "s", "s2", "t", "t2")),
    "thm15": (build_thm15, ("m", "b", "s", "t")),
    "thm16": (build_thm16, ("m", "b", "s", "s2", "t", "t2")),
    "complete-uniform": (build_complete_uniform, ("n", "k")),
    "wc-gap-case1": (build_wc_gap_case1, ("s", "t")),
    "cycle": (cycle_graph, ("n",)),
    "path": (path_graph, ("n",)),
}


def _cmd_gen(args, run: _Run) -> int:
    name = args.generator
    if name in _INT_GENERATORS:
        build, params = _INT_GENERATORS[name]
        board = build(*(getattr(args, par) for par in params))
    elif name == "hmbst":
        h, family = build_hmbst(args.m, args.b, args.s, args.t)
        if args.emit_family:
            doc = {
                "type": "family",
                "sets": [indices_of(m) for m in family],
            }
            with open(args.emit_family, "w") as fh:
                json.dump(doc, fh)
                fh.write("\n")
        board = h
    elif name == "gadget":
        inner = run.read_board(args.input, "hypergraph")
        # the dom commands read the graph back, so it must fit the capacity
        _check_board_size(gadget_size(inner, args.a))
        board = build_gadget(inner, args.a)
    elif name == "nonmonotone":
        try:
            blocked = {int(x) for x in args.blocked.split(",")}
        except ValueError as exc:
            raise FormatError(f"--blocked: {exc}") from exc
        board = build_nonmonotone(blocked)
    elif name == "random-graph":
        board = random_graph(args.n, args.p, random.Random(args.seed))
    else:  # random-tree
        board = random_tree(args.n, random.Random(args.seed))
    _emit(args, run, to_json(board))
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve / frontier / dom


def _spec(args, board) -> GameSpec:
    """The game of a `solve`, `frontier` or `dom solve` subcommand on `board`,
    from the subcommand's flags."""
    if args.game == "wc":
        return GameSpec(GameKind.WAITER_CLIENT, board)
    if args.game == "mb":
        return GameSpec(GameKind.MAKER_BREAKER, board, args.m, args.b, _player(args.first))
    indices = args.seeds.split(",") if args.seeds else []
    try:
        seeds = mask_from_indices([int(i) for i in indices], board.nv)
    except (ValueError, BoardError) as exc:
        raise FormatError(f"--seeds: {exc}") from exc
    return GameSpec(GameKind.AUX_EDGE, board, breaker_bias=args.b, preclaimed_maker=seeds,
                    breaker_premove=args.breaker_premove)


def _cmd_solve(args, run: _Run) -> int:
    board = run.read_board(args.board, "digraph" if args.game == "aux" else "hypergraph")
    family = getattr(args, "family", None)
    restriction = run.read_family(family, board.n) if family else None
    value = decide(_spec(args, board), _objective(args), restriction,
                   **_given(args, ("memo_cap",)))
    _emit(args, run, {"type": "decision", "maker_wins": value})
    return EXIT_OK


def _cmd_values(args, run: _Run) -> int:
    """`frontier` on the --board hypergraph, or `dom solve` on the minimal
    dominating sets of the --graph graph: the game's values and frontier."""
    if "board" in args:
        board = run.read_board(args.board, "hypergraph")
    else:
        board = minimal_dominating_sets(run.read_board(args.graph, "graph"))
    result = values(_spec(args, board), **_given(args, ("memo_cap",)))
    _emit(args, run, result.to_json(), [{"t": t, "s": s} for t, s in result.frontier], ("t", "s"))
    return EXIT_OK


def _cmd_gamma(args, run: _Run) -> int:
    graph = run.read_board(args.graph, "graph")
    _emit(args, run, {"type": "gamma", "gamma": domination_number(graph)})
    return EXIT_OK


def _cmd_residue(args, run: _Run) -> int:
    rep = residue(run.read_board(args.graph, "graph"))
    payload = {
        "type": "residue_report",
        "residue": to_json(rep.residue),
        "removed_pairs": [list(p) for p in rep.removed_pairs],
        "kept": list(rep.kept),
    }
    _emit(args, run, payload)
    return EXIT_OK


def _cmd_closed_form(args, run: _Run) -> int:
    if args.shape == "tree":
        value = wc_tree_value(run.read_board(args.graph, "graph"))
    else:
        value = wc_cycle_value(args.n)
    _emit(args, run, {"type": "closed_form", "value": value})
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _given(args, params) -> dict:
    """The flag values named in `params`; a flag left unset is omitted, so
    the callee's own default applies."""
    return {k: v for k, v in vars(args).items() if k in params and v is not None}


def _run_suite(name: str, args):
    fn = suites_mod.SUITES[name]
    return fn(**_given(args, inspect.signature(fn).parameters))


def _cmd_verify_suite(args, run: _Run) -> int:
    rep = _run_suite(args.target, args)
    _emit(args, run, rep, rep["rows"])
    return EXIT_OK if rep["ok"] else EXIT_VIOLATED


def _cmd_verify_all(args, run: _Run) -> int:
    reports = [_run_suite(name, args) for name in suites_mod.SUITES]
    ok = all(rep["ok"] for rep in reports)
    _emit(args, run, {"type": "verify_report", "ok": ok, "suites": reports})
    return EXIT_OK if ok else EXIT_VIOLATED


def _cmd_verify_script(args, run: _Run) -> int:
    # flags not given take the builder's defaults, the smallest instance
    given = _given(args, inspect.signature(CATALOG[args.target]).parameters)
    if "tree" in given:
        given["tree"] = run.read_board(given["tree"], "graph")
    spec, strat, guarantee = instance(args.target, **given)
    result = verify_strategy(spec, strat, guarantee, **_given(args, ("max_nodes",)))
    payload = {
        "type": "strategy_verification",
        "strategy": strat.name,
        "guarantee": guarantee.describe(),
        "ok": result.ok,
        "nodes": result.nodes,
        "expanded": result.expanded,
        "counterexample": (
            [list(step) for step in result.counterexample] if result.counterexample else None
        ),
    }
    _emit(args, run, payload)
    return EXIT_OK if result.ok else EXIT_VIOLATED


# ---------------------------------------------------------------------------
# parser


# verify: the flag of each suite or script parameter; a parameter not named
# here gets no flag from this table: the scripts' `blocked` and `bias` have
# none, and the suites' `memo_cap` has --memo-cap, which `_add_common` adds
_VERIFY_FLAGS = {
    "seed": "--seed", "count": "--count", "max_exhaustive": "--max-exhaustive",
    "max_n": "--max-n", "max_bias": "--max-bias", "t": "--t", "b": "--b", "n": "--n",
    "m": "--m", "s": "--s", "seed_vertex": "--seed-vertex", "tree": "--graph",
}


class _Parser(argparse.ArgumentParser):
    """Every parser of the CLI: argparse makes each subparser of its parent's
    class.  A flag must be spelled in full, so that no prefix of one flag
    (`--max-n` of `--max-nodes`) stands for it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def _add_common(p: argparse.ArgumentParser, search: bool = False, rows: bool = False) -> None:
    """The output flags, plus --memo-cap where a search runs and --format
    where the result has rows."""
    if search:
        p.add_argument("--memo-cap", type=int,
                       help=f"memo entry cap (default: {DEFAULT_MEMO_CAP})")
    p.add_argument("--manifest", help="write a run manifest JSON to this path")
    p.add_argument("-o", "--output", help="write the result to this path, not stdout")
    if rows:
        p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_target(vsub, target: str, params, handler, kind: str) -> argparse.ArgumentParser:
    """The verify subparser of `target`, with the flag of each parameter."""
    p = vsub.add_parser(target, help=kind)
    for name in params:
        if name in _VERIFY_FLAGS:  # every parameter but `tree` (a graph file) is an int
            p.add_argument(_VERIFY_FLAGS[name], dest=name, type=str if name == "tree" else int)
    p.set_defaults(handler=handler)
    return p


def _add_value_games(p: argparse.ArgumentParser, source: str) -> None:
    """The `mb` and `wc` subparsers of `frontier` or `dom solve`, which read
    their input from the `source` flag (`--board` or `--graph`); only `mb`
    takes the biases and the first player."""
    p.set_defaults(handler=_cmd_values)
    games = p.add_subparsers(dest="game", required=True)
    for game in ("mb", "wc"):
        g = games.add_parser(game)
        g.add_argument(source, required=True)
        if game == "mb":
            g.add_argument("-m", type=int, default=1)
            g.add_argument("-b", type=int, default=1)
            g.add_argument("--first", choices=("maker", "breaker"), default="maker")
        _add_common(g, search=True, rows=True)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="posgames",
        description="exact positional-game solving, constructions and verification",
    )
    top.add_argument("--version", action="version", version=f"posgames {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a constructed board as JSON")
    gen.set_defaults(handler=_cmd_gen)
    gsub = gen.add_subparsers(dest="generator", required=True)
    for name, (_build, params) in _INT_GENERATORS.items():
        p = gsub.add_parser(name)
        for par in params:
            p.add_argument(f"--{par}", type=int, required=True)
        _add_common(p)
    p = gsub.add_parser("hmbst")
    for par in ("m", "b", "s", "t"):
        p.add_argument(f"--{par}", type=int, required=True)
    p.add_argument("--emit-family", help="also write the associated-set family JSON")
    _add_common(p)
    p = gsub.add_parser("gadget")
    p.add_argument("-i", "--input", required=True, help="hypergraph JSON file")
    p.add_argument("--a", type=int, required=True)
    _add_common(p)
    p = gsub.add_parser("nonmonotone")
    p.add_argument("--blocked", required=True, help="comma-separated blocked biases")
    _add_common(p)
    p = gsub.add_parser("random-graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p = gsub.add_parser("random-tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    solve = sub.add_parser("solve", help="decide a bounded or unbounded objective")
    solve.set_defaults(handler=_cmd_solve)
    ssub = solve.add_subparsers(dest="game", required=True)
    p = ssub.add_parser("mb")
    p.add_argument("--board", required=True)
    p.add_argument("-m", type=int, default=1)
    p.add_argument("-b", type=int, default=1)
    p.add_argument("--first", choices=("maker", "breaker"), default="maker")
    p.add_argument("--max-rounds", type=int)
    p.add_argument("--max-size", type=int)
    p.add_argument("--family", help="associated-set family JSON enabling the reduced menu")
    _add_common(p, search=True)
    p = ssub.add_parser("wc")
    p.add_argument("--board", required=True)
    p.add_argument("--max-rounds", type=int)
    p.add_argument("--max-size", type=int)
    _add_common(p, search=True)
    p = ssub.add_parser("aux")
    p.add_argument("--board", required=True)
    p.add_argument("-b", type=int, default=1)
    p.add_argument("--seeds", default="", help="comma-separated pre-owned vertices")
    p.add_argument("--max-rounds", type=int)
    p.add_argument("--breaker-premove", action="store_true")
    _add_common(p, search=True)

    frontier = sub.add_parser("frontier", help="full values incl. the rounds/size frontier")
    _add_value_games(frontier, "--board")

    dom = sub.add_parser("dom", help="domination-game commands")
    dsub = dom.add_subparsers(dest="dom_command", required=True)
    _add_value_games(dsub.add_parser("solve"), "--graph")
    for name, handler in (("gamma", _cmd_gamma), ("residue", _cmd_residue)):
        p = dsub.add_parser(name)
        p.add_argument("--graph", required=True)
        _add_common(p)
        p.set_defaults(handler=handler)
    closed = dsub.add_parser("closedform")
    closed.set_defaults(handler=_cmd_closed_form)
    csub = closed.add_subparsers(dest="shape", required=True)
    p = csub.add_parser("tree")
    p.add_argument("--graph", required=True, help="tree JSON")
    _add_common(p)
    p = csub.add_parser("cycle")
    p.add_argument("--n", type=int, required=True, help="cycle length")
    _add_common(p)

    verify = sub.add_parser("verify", help="run a claim suite or verify a catalog strategy")
    vsub = verify.add_subparsers(dest="target", required=True, metavar="target")
    suite_params = {
        name: inspect.signature(fn).parameters for name, fn in suites_mod.SUITES.items()
    }
    for name, params in suite_params.items():
        p = _add_target(vsub, name, params, _cmd_verify_suite, "claim suite")
        _add_common(p, search=True, rows=True)
    union = dict.fromkeys(par for params in suite_params.values() for par in params)
    p = _add_target(vsub, "all", union, _cmd_verify_all, "every claim suite")
    _add_common(p, search=True)
    for name, build in CATALOG.items():
        params = inspect.signature(build).parameters
        p = _add_target(vsub, name, params, _cmd_verify_script, "strategy script")
        p.add_argument("--max-nodes", type=int,
                       help="most positions the verifier may expand (default: its own "
                            "bound); subtrees it finds in its table do not count")
        _add_common(p)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    run = _Run(["posgames"] + argv)
    run.seed = getattr(args, "seed", None)
    try:
        return args.handler(args, run)
    except GuardExceeded as exc:
        print(json.dumps({"type": "error", "kind": "guard", "message": str(exc)}))
        return EXIT_GUARD
    except (PosgamesError, OSError) as exc:
        print(json.dumps({"type": "error", "kind": "usage", "message": str(exc)}))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
