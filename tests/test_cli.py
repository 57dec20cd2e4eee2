import argparse
import inspect
import json
import shlex
from pathlib import Path

import pytest

from posgames import cli
from posgames.cli import build_parser, main
from posgames.strategies import CATALOG
from posgames.suites import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def usage_error(capsys, *argv):
    """The last stderr line of a command argparse rejects (exit 2, no stdout)."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    return captured.err.splitlines()[-1]


def subcommands(parser):
    """The subparsers of `parser`, by name."""
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestGen:
    def test_gtb_shape(self, capsys):
        code, doc = run_json(capsys, "gen", "gtb", "--t", "3", "--b", "2")
        assert code == 0
        assert doc["type"] == "digraph"
        assert doc["n"] == 6
        assert len(doc["arcs"]) == 9

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "board.json"
        code, _ = run_cli(capsys, "gen", "ht-wc", "--t", "3", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 8

    def test_guard_exit_code(self, capsys):
        code, doc = run_json(capsys, "gen", "ht-wc", "--t", "20")
        assert code == 3
        assert doc["kind"] == "guard"

    def test_bad_params_exit_code(self, capsys):
        code, doc = run_json(capsys, "gen", "hmbst", "--m", "1", "--b", "1",
                             "--s", "2", "--t", "3")
        assert code == 2
        assert doc["kind"] == "usage"

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "gtb", "--t", "3"])  # missing --b
        assert exc.value.code == 2

    # each generator's smallest board over the capacity; its last flag is
    # the one that grows the board.  The gadget reads its board from a file
    # and has its own test below.
    OVER_CAPACITY = {
        "gtb": "--b 1 --t 8",
        "htb": "--b 1 --t 9",
        "ht-wc": "--t 128",
        "hmbst": "--m 1 --b 1 --s 3 --t 9",
        "thm12": "--m 1 --b 1 --s 3 --s2 3 --t 3 --t2 8",
        "thm14": "--m 1 --b 1 --r 2 --s 3 --s2 3 --t 3 --t2 8",
        "thm15": "--m 1 --b 1 --s 3 --t 8",
        "thm16": "--m 1 --b 1 --s 3 --s2 3 --t 3 --t2 8",
        "complete-uniform": "--k 1 --n 257",
        "wc-gap-case1": "--t 3 --s 125",
        "cycle": "--n 257",
        "path": "--n 257",
        "nonmonotone": "--blocked 16",
        "random-graph": "--n 257",
        "random-tree": "--n 257",
    }

    def test_every_board_generator_has_an_over_capacity_case(self):
        generators = subcommands(subcommands(build_parser())["gen"])
        assert set(self.OVER_CAPACITY) | {"gadget"} == set(generators)

    @pytest.mark.parametrize("generator", sorted(OVER_CAPACITY))
    def test_over_capacity_board_is_a_usage_error(self, capsys, tmp_path, generator):
        argv = ["gen", generator, *self.OVER_CAPACITY[generator].split()]
        code, doc = run_json(capsys, *argv)
        assert code == 2 and doc["kind"] == "usage"
        assert "exceeds capacity 256" in doc["message"]
        # one less in the growing flag is no capacity refusal
        argv[-1] = str(int(argv[-1]) - 1)
        code, out = run_cli(capsys, *argv, "-o", str(tmp_path / "out.json"))
        assert code in (0, 3), out

    def test_over_capacity_gadget_is_a_usage_error(self, capsys, tmp_path):
        # a one-element board has one vertex cover, so its gadget has 1 + 8a
        # vertices; the dom commands could not read back one over 256
        board = tmp_path / "one.json"
        board.write_text(json.dumps({"type": "hypergraph", "n": 1, "edges": [[0]]}))
        out = tmp_path / "gadget.json"
        code, _ = run_cli(capsys, "gen", "gadget", "-i", str(board), "--a", "31", "-o", str(out))
        assert code == 0 and json.loads(out.read_text())["n"] == 249
        code, doc = run_json(capsys, "gen", "gadget", "-i", str(board), "--a", "32")
        assert code == 2 and doc["kind"] == "usage"
        assert "board size 257 exceeds capacity 256" in doc["message"]

    @pytest.mark.parametrize("argv", [
        "gen cycle --n 5 --memo-cap 7",  # no search runs
        "dom closedform cycle --n 8 --format csv",  # the result has no rows
    ])
    def test_option_without_effect_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2


class TestSolveAndFrontier:
    def test_solve_round_trip(self, capsys, tmp_path):
        board = tmp_path / "h.json"
        run_cli(capsys, "gen", "wc-gap-case1", "--s", "3", "--t", "3", "-o", str(board))
        code, doc = run_json(capsys, "solve", "mb", "--board", str(board),
                             "--max-rounds", "3")
        assert code == 0 and doc["maker_wins"] is True
        code, doc = run_json(capsys, "solve", "mb", "--board", str(board),
                             "--max-rounds", "2")
        assert code == 0 and doc["maker_wins"] is False

    def test_solve_wc(self, capsys, tmp_path):
        board = tmp_path / "h.json"
        run_cli(capsys, "gen", "ht-wc", "--t", "3", "-o", str(board))
        for rounds, won in (("3", True), ("2", False)):
            code, doc = run_json(capsys, "solve", "wc", "--board", str(board),
                                 "--max-rounds", rounds, "--max-size", "2")
            assert code == 0 and doc["maker_wins"] is won

    @pytest.mark.parametrize("game, generator", [
        ("mb -m 0", "complete-uniform --n 4 --k 2"),
        ("aux -b 0", "gtb --t 2 --b 1"),
    ], ids=["mb", "aux"])
    def test_solve_rejects_a_zero_bias(self, capsys, tmp_path, game, generator):
        board = tmp_path / "b.json"
        run_cli(capsys, "gen", *generator.split(), "-o", str(board))
        game, *flags = game.split()
        code, doc = run_json(capsys, "solve", game, "--board", str(board), *flags)
        assert code == 2 and doc["message"] == "biases must be at least 1"

    def test_solve_aux(self, capsys, tmp_path):
        board = tmp_path / "d.json"
        run_cli(capsys, "gen", "gtb", "--t", "2", "--b", "2", "-o", str(board))
        code, doc = run_json(capsys, "solve", "aux", "--board", str(board),
                             "-b", "2", "--seeds", "0,1", "--max-rounds", "2")
        assert code == 0 and doc["maker_wins"] is True

    def test_solve_aux_premove_without_an_opening(self, capsys, tmp_path):
        board = tmp_path / "d.json"
        board.write_text(json.dumps({"type": "digraph", "n": 2, "arcs": [], "start": 0}))
        code, doc = run_json(capsys, "solve", "aux", "--board", str(board),
                             "-b", "1", "--seeds", "0,1", "--breaker-premove")
        assert code == 0 and doc["maker_wins"] is False

    def test_frontier_json_schema(self, capsys, tmp_path):
        board = tmp_path / "h.json"
        run_cli(capsys, "gen", "complete-uniform", "--n", "6", "--k", "3",
                "-o", str(board))
        code, doc = run_json(capsys, "frontier", "mb", "--board", str(board))
        assert code == 0
        assert doc == {
            "type": "solve_result",
            "maker_wins": True,
            "min_rounds": 3,
            "min_size": 3,
            "frontier": [[3, 3]],
        }

    def test_frontier_csv(self, capsys, tmp_path):
        board = tmp_path / "h.json"
        run_cli(capsys, "gen", "complete-uniform", "--n", "4", "--k", "2",
                "-o", str(board))
        code, out = run_cli(capsys, "frontier", "mb", "--board", str(board),
                            "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "t,s"

    @pytest.mark.parametrize("command, generator", [
        ("frontier mb --board", "complete-uniform --n 3 --k 3"),
        ("dom solve wc --graph", "path --n 3"),
    ], ids=["frontier", "dom-solve"])
    def test_empty_frontier_csv_is_the_header(self, capsys, tmp_path, command, generator):
        # the Maker loses K_3^(3), and the Dominator the offer game on the 3-path
        board = tmp_path / "b.json"
        run_cli(capsys, "gen", *generator.split(), "-o", str(board))
        code, out = run_cli(capsys, *command.split(), str(board), "--format", "csv")
        assert code == 0 and out.splitlines() == ["t,s"]

    def test_frontier_csv_to_output_file(self, capsys, tmp_path):
        board, table = tmp_path / "h.json", tmp_path / "out.csv"
        run_cli(capsys, "gen", "complete-uniform", "--n", "4", "--k", "2",
                "-o", str(board))
        code, out = run_cli(capsys, "frontier", "mb", "--board", str(board),
                            "--format", "csv", "-o", str(table))
        assert code == 0 and out == ""
        assert table.read_text().splitlines()[0] == "t,s"

    def test_family_restriction_flag(self, capsys, tmp_path):
        board = tmp_path / "h.json"
        fam = tmp_path / "fam.json"
        run_cli(capsys, "gen", "hmbst", "--m", "1", "--b", "1", "--s", "3",
                "--t", "3", "-o", str(board), "--emit-family", str(fam))
        code, doc = run_json(capsys, "solve", "mb", "--board", str(board),
                             "--max-rounds", "3", "--family", str(fam))
        assert code == 0 and doc["maker_wins"] is True


class TestMalformedInput:
    """Bad input ends in a usage error (exit 2): a JSON message on stdout for
    a bad value, argparse's message on stderr for a missing flag."""

    @pytest.fixture
    def hmbst_board(self, capsys, tmp_path):
        board = tmp_path / "h.json"
        run_cli(capsys, "gen", "hmbst", "--m", "1", "--b", "1", "--s", "3",
                "--t", "3", "-o", str(board))
        return board

    @pytest.mark.parametrize("text, message", [
        ('{"type": "family", "sets": [[-1]]}', "out of range"),
        ('{"type": "family", "sets": [[999]]}', "out of range"),
        ('{"type": "family"}', "'sets'"),
        ('[[0, 1, 2]]', "expected a family document"),
        ('{"type": "family", "sets": ', "invalid JSON"),
    ], ids=["negative-index", "index-past-board", "no-sets", "json-list", "not-json"])
    def test_bad_family(self, capsys, tmp_path, hmbst_board, text, message):
        fam = tmp_path / "fam.json"
        fam.write_text(text)
        code, doc = run_json(capsys, "solve", "mb", "--board", str(hmbst_board),
                             "--family", str(fam))
        assert code == 2 and doc["kind"] == "usage"
        assert message in doc["message"]

    def test_family_with_maker_bias_above_breaker_bias(self, capsys, tmp_path):
        board = tmp_path / "h.json"
        board.write_text(json.dumps(
            {"type": "hypergraph", "n": 8, "edges": [[0, 1, 7], [2, 3, 5]]}))
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"type": "family", "sets": [[0, 1], [2, 3]]}))
        code, doc = run_json(capsys, "solve", "mb", "--board", str(board), "-m", "2",
                             "-b", "1", "--max-rounds", "2", "--family", str(fam))
        assert code == 2 and doc["kind"] == "usage"
        assert "maker bias" in doc["message"]

    @pytest.mark.parametrize("seeds", ["-1", "x"])
    def test_bad_seeds(self, capsys, tmp_path, seeds):
        board = tmp_path / "d.json"
        run_cli(capsys, "gen", "gtb", "--t", "2", "--b", "2", "-o", str(board))
        code, doc = run_json(capsys, "solve", "aux", "--board", str(board),
                             "--seeds", seeds)
        assert code == 2 and doc["kind"] == "usage"
        assert doc["message"].startswith("--seeds")

    def test_negative_memo_cap(self, capsys, hmbst_board):
        for cap in ("0", "-3"):
            code, doc = run_json(capsys, "solve", "mb", "--board", str(hmbst_board),
                                 "--memo-cap", cap)
            assert code == 2 and "must be positive" in doc["message"]

    @pytest.mark.parametrize("command, doc, message", [
        ("solve mb --board", {"type": "hypergraph", "n": 3, "edges": [["a"]]}, "not an integer"),
        ("solve mb --board", {"type": "hypergraph", "n": 3, "edges": [[1.5]]}, "not an integer"),
        ("solve mb --board", {"type": "hypergraph", "n": "3", "edges": [[0]]}, "integer"),
        ("solve mb --board", {"type": "hypergraph", "n": 3, "edges": 5}, "hypergraph document"),
        ("solve aux --board", {"type": "digraph", "n": 2, "arcs": [[0, "x"]], "start": 0},
         "integers"),
        ("solve aux --board", {"type": "digraph", "n": 2, "arcs": [[0, 1.5]], "start": 0},
         "integers"),
        ("solve aux --board", {"type": "digraph", "n": 2, "arcs": [], "start": 0.5},
         "start vertex"),
        ("dom gamma --graph", {"type": "graph", "n": 3, "edges": [[0, 1.5]]}, "integers"),
        ("dom gamma --graph", {"type": "graph", "n": "3", "edges": []}, "integer"),
        ("solve mb --board", {"type": "hypergraph", "n": True, "edges": [[0]]}, "integer"),
        ("dom gamma --graph", {"type": "graph", "n": 3, "edges": [[0, 1, 2]]},
         "graph edge must have two endpoints"),
        ("solve aux --board", {"type": "digraph", "n": 0, "arcs": [], "start": 0},
         "digraph needs at least one vertex"),
    ], ids=["edge-index-str", "edge-index-float", "n-str", "edges-int", "arc-str",
            "arc-float", "start-float", "graph-edge-float", "graph-n-str", "n-bool",
            "graph-edge-three-endpoints", "digraph-no-vertices"])
    def test_bad_board(self, capsys, tmp_path, command, doc, message):
        board = tmp_path / "board.json"
        board.write_text(json.dumps(doc))
        code, out = run_json(capsys, *command.split(), str(board))
        assert code == 2 and out["kind"] == "usage"
        assert message in out["message"]

    @pytest.mark.parametrize("command, kind", [
        ("solve aux --board {hypergraph}", "digraph"),
        ("solve mb --board {graph}", "hypergraph"),
        ("frontier wc --board {graph}", "hypergraph"),
        ("dom solve wc --graph {hypergraph}", "graph"),
        ("dom gamma --graph {hypergraph}", "graph"),
        ("dom residue --graph {hypergraph}", "graph"),
        ("dom closedform tree --graph {hypergraph}", "graph"),
        ("gen gadget --a 1 -i {graph}", "hypergraph"),
        ("verify waiter-tree --graph {hypergraph}", "graph"),
    ], ids=["solve-aux", "solve-mb", "frontier-wc", "dom-solve", "dom-gamma",
            "dom-residue", "dom-closedform", "gen-gadget", "verify-waiter-tree"])
    def test_wrong_board_kind(self, capsys, tmp_path, command, kind):
        paths = {"hypergraph": tmp_path / "h.json", "graph": tmp_path / "g.json"}
        paths["hypergraph"].write_text('{"type": "hypergraph", "n": 2, "edges": [[0, 1]]}')
        paths["graph"].write_text('{"type": "graph", "n": 2, "edges": [[0, 1]]}')
        argv = command.format(**{k: str(p) for k, p in paths.items()}).split()
        code, doc = run_json(capsys, *argv)
        assert code == 2 and doc["kind"] == "usage"
        assert f"expected a {kind} document" in doc["message"]

    @pytest.mark.parametrize("command, message", [
        ("gen nonmonotone --blocked x", "--blocked"),
        ("gen random-tree --n 0", "at least one vertex"),
        ("gen cycle --n 2", "at least 3 vertices"),
        ("gen random-graph --n 4 --p 3", "[0, 1]"),
        ("gen random-graph --n 4 --p -1", "[0, 1]"),
    ], ids=["blocked-not-int", "empty-tree", "two-cycle", "edge-probability-above-1",
            "edge-probability-below-0"])
    def test_bad_generator_params(self, capsys, command, message):
        code, doc = run_json(capsys, *command.split())
        assert code == 2 and doc["kind"] == "usage"
        assert message in doc["message"]

    @pytest.mark.parametrize("command, message", [
        ("verify thm1.8 --max-n 2", "made no check"),
        ("verify residue --max-n 3", "max_n >= 4"),
        ("verify properties --max-n 1", "max_n >= 2"),
        ("verify properties --count 0", "count >= 1"),
        ("verify gadget --count 0", "count >= 1"),
        ("verify thm1.1 --max-bias 0", "max_bias >= 1"),
    ], ids=["thm1.8-no-cycle", "residue-no-peelable-tree", "properties-one-element",
            "properties-no-instance", "gadget-no-instance", "thm1.1-no-bias"])
    def test_suite_without_checks(self, capsys, command, message):
        code, doc = run_json(capsys, *command.split())
        assert code == 2 and doc["kind"] == "usage"
        assert message in doc["message"]

    @pytest.mark.parametrize("shape, flag", [("tree", "--graph"), ("cycle", "--n")],
                             ids=["tree", "cycle"])
    def test_closed_form_without_its_input(self, capsys, shape, flag):
        message = usage_error(capsys, "dom", "closedform", shape)
        assert message.endswith(f"required: {flag}")

    @pytest.mark.parametrize("argv, flag", [
        ("dom closedform cycle --n 8 --graph {}", "--graph"),
        ("dom closedform tree --graph {} --n 8", "--n"),
    ], ids=["cycle-with-graph", "tree-with-n"])
    def test_closed_form_rejects_the_other_shapes_input(
        self, capsys, monkeypatch, tmp_path, argv, flag
    ):
        monkeypatch.setattr(cli._Run, "read_json", None)  # no file may be read
        message = usage_error(capsys, *argv.format(tmp_path / "x.json").split())
        assert f"unrecognized arguments: {flag}" in message

    def test_offer_game_takes_no_bias_or_first_player(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli._Run, "read_json", None)  # no file may be read
        message = usage_error(capsys, "dom", "solve", "wc", "--graph", str(tmp_path / "c7.json"),
                              "-m", "5", "-b", "3", "--first", "breaker")
        assert message.endswith("unrecognized arguments: -m 5 -b 3 --first breaker")

    def test_value_commands_offer_the_same_flags(self):
        def flags(parser):
            return {s for a in parser._actions for s in a.option_strings}

        top = subcommands(build_parser())
        frontier = subcommands(top["frontier"])
        dom_solve = subcommands(subcommands(top["dom"])["solve"])
        assert set(frontier) == set(dom_solve) == {"mb", "wc"}
        for game in ("mb", "wc"):
            assert flags(frontier[game]) - {"--board"} == flags(dom_solve[game]) - {"--graph"}
        common = {"-h", "--help", "--memo-cap", "--manifest", "-o", "--output", "--format"}
        assert flags(dom_solve["wc"]) == common | {"--graph"}
        assert flags(dom_solve["mb"]) == common | {"--graph", "-m", "-b", "--first"}

    @pytest.mark.parametrize("command, unread", [
        ("verify maker-gtb --max-n 4", "--max-n 4"),
        ("verify maker-gtb --max-e 4", "--max-e 4"),
        ("verify thm1.8 --max 4", "--max 4"),
        ("frontier mb --board b.json --fir maker", "--fir maker"),
        ("gen gtb --t 2 --b 1 --out g.json", "--out g.json"),
    ], ids=["script-node-bound", "script", "suite", "frontier", "gen"])
    def test_flag_prefix_is_a_usage_error(self, capsys, monkeypatch, command, unread):
        monkeypatch.setattr(cli, "verify_strategy", None)  # nothing may run
        monkeypatch.setattr(cli, "_run_suite", None)
        monkeypatch.setattr(cli._Run, "read_json", None)
        message = usage_error(capsys, *command.split())
        assert message.endswith(f"unrecognized arguments: {unread}")

    def test_every_parser_takes_full_flags_only(self):
        def parsers(parser):
            yield parser
            for child in subcommands(parser).values() if parser._subparsers else ():
                yield from parsers(child)

        found = list(parsers(build_parser()))
        assert len(found) > 40 and not any(p.allow_abbrev for p in found)

    @pytest.mark.parametrize("command", [
        "dom solve mb --graph", "dom solve wc --graph", "verify waiter-tree --graph",
    ], ids=["dom-solve-mb", "dom-solve-wc", "verify-waiter-tree"])
    def test_empty_graph_has_no_domination_board(self, capsys, tmp_path, command):
        board = tmp_path / "g.json"
        board.write_text('{"type": "graph", "n": 0, "edges": []}')
        code, doc = run_json(capsys, *command.split(), str(board))
        assert code == 2 and doc["kind"] == "usage"
        assert "empty set dominates the empty graph" in doc["message"]


class TestDom:
    def test_closed_form_cycle(self, capsys):
        code, doc = run_json(capsys, "dom", "closedform", "cycle", "--n", "8")
        assert code == 0 and doc["value"] == 4

    def test_closed_form_tree(self, capsys, tmp_path):
        board = tmp_path / "p5.json"
        run_cli(capsys, "gen", "path", "--n", "5", "-o", str(board))
        code, doc = run_json(capsys, "dom", "closedform", "tree",
                             "--graph", str(board))
        assert code == 0 and doc["value"] is None

    def test_gamma_and_solve(self, capsys, tmp_path):
        board = tmp_path / "c7.json"
        run_cli(capsys, "gen", "cycle", "--n", "7", "-o", str(board))
        code, doc = run_json(capsys, "dom", "gamma", "--graph", str(board))
        assert code == 0 and doc["gamma"] == 3
        code, doc = run_json(capsys, "dom", "solve", "wc", "--graph", str(board))
        assert code == 0 and doc["min_rounds"] == 3

    def test_residue_report(self, capsys, tmp_path):
        board = tmp_path / "p4.json"
        run_cli(capsys, "gen", "path", "--n", "4", "-o", str(board))
        code, doc = run_json(capsys, "dom", "residue", "--graph", str(board))
        assert code == 0
        assert doc["removed_pairs"] == [[0, 1]]
        assert doc["residue"]["n"] == 2


class TestVerify:
    def test_suite_passes(self, capsys):
        code, _ = run_cli(capsys, "verify", "thm1.8", "--max-n", "7")
        assert code == 0

    def test_tree_suite_checks_every_tree(self, capsys):
        # 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47 trees on 1 to 9 vertices
        code, doc = run_json(capsys, "verify", "thm1.7", "--max-exhaustive", "9")
        assert code == 0 and len(doc["checks"]) == 95

    def test_strategy_by_name(self, capsys):
        code, doc = run_json(capsys, "verify", "maker-gtb", "--t", "2", "--b", "2")
        assert code == 0 and doc["ok"] is True

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_every_script_without_flags(self, capsys, name):
        code, doc = run_json(capsys, "verify", name)
        assert code == 0 and doc["ok"] is True and doc["strategy"] == name

    def test_strategy_guard_exit_code(self, capsys):
        code, doc = run_json(capsys, "verify", "maker-gtb", "--t", "3", "--b", "2",
                             "--max-nodes", "10")
        assert code == 3 and doc["kind"] == "guard"

    def test_strategy_guard_on_a_huge_opponent_menu(self, capsys):
        # each Breaker turn has C(155, 4) = 23,130,030 claims, made one by
        # one as the walk asks for them
        code, doc = run_json(capsys, "verify", "maker-hmbst", "--m", "1", "--b", "4",
                             "--s", "3", "--t", "4", "--max-nodes", "1000")
        assert code == cli.EXIT_GUARD and doc["kind"] == "guard"

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_nonpositive_node_bound_is_a_usage_error(self, capsys, bound):
        code, doc = run_json(capsys, "verify", "maker-gtb", "--max-nodes", bound)
        assert code == 2 and doc["kind"] == "usage"
        assert "must be positive" in doc["message"]

    @pytest.mark.parametrize("target", ["thm1.8", "all"])
    def test_node_bound_with_a_suite_is_a_usage_error(self, capsys, monkeypatch, target):
        monkeypatch.setattr(cli, "_run_suite", None)  # nothing may run
        message = usage_error(capsys, "verify", target, "--max-n", "4", "--max-nodes", "0")
        assert message.endswith("unrecognized arguments: --max-nodes 0")

    def test_unset_node_bound_leaves_the_verifier_default(self, capsys, monkeypatch):
        seen, real = [], cli.verify_strategy

        def recording_verify(*args, **kwargs):
            seen.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "verify_strategy", recording_verify)
        code, doc = run_json(capsys, "verify", "maker-gtb")
        assert code == 0 and doc["ok"] is True
        code, _ = run_json(capsys, "verify", "maker-gtb", "--max-nodes", "50")
        assert code == 0
        assert seen == [{}, {"max_nodes": 50}]

    @pytest.mark.parametrize("vertex", ["-1", "3"])
    def test_seed_vertex_off_the_board_is_a_usage_error(self, capsys, vertex):
        # gtb(2, 1) has vertices 0 to 2
        code, doc = run_json(capsys, "verify", "breaker-gtb-block", "--seed-vertex", vertex)
        assert code == 2 and doc["kind"] == "usage"
        assert "seed vertex" in doc["message"]

    def test_slow_blocker_needs_two_rounds(self, capsys):
        # at t = 1 the guarantee would be "no opposing win within 0 rounds"
        code, doc = run_json(capsys, "verify", "breaker-gtb-slow", "--t", "1")
        assert code == 2 and doc["kind"] == "usage"
        assert "t >= 2" in doc["message"]

    def test_strategy_reports_expanded_positions(self, capsys):
        code, doc = run_json(capsys, "verify", "breaker-gtb-block", "--t", "4", "--b", "1")
        assert code == 0 and doc["nodes"] == 219_201 and doc["expanded"] < doc["nodes"]

    def test_unset_flags_take_catalog_values(self, capsys):
        # t takes its smallest value 2 while the given b=2 is kept
        code, doc = run_json(capsys, "verify", "maker-gtb", "--b", "2")
        assert code == 0
        assert doc["guarantee"] == "wins within 2 round(s)" and doc["nodes"] == 8

    @pytest.mark.parametrize("command, unread", [
        ("verify maker-gtb --n 5 --count 3", "--n 5 --count 3"),
        ("verify thm1.1 --t 9 --max-bias 1", "--t 9"),
        ("verify all --t 3", "--t 3"),
        ("verify maker-gtb --memo-cap 7", "--memo-cap 7"),
        ("verify waiter-tree --seed 1", "--seed 1"),
    ], ids=["script", "suite", "all", "script-memo-cap", "script-seed"])
    def test_flag_the_target_does_not_take_is_a_usage_error(
        self, capsys, monkeypatch, command, unread
    ):
        monkeypatch.setattr(cli, "verify_strategy", None)  # nothing may run
        monkeypatch.setattr(cli, "_run_suite", None)
        message = usage_error(capsys, *command.split())
        assert message.endswith(f"unrecognized arguments: {unread}")

    def test_all_takes_a_flag_that_some_suite_takes(self, capsys, monkeypatch):
        # --max-n is a parameter of thm1.8, residue and properties only
        seen = []

        def passing_suite(name, args, settings):
            seen.append(name)
            return {"suite": name, "ok": True}

        monkeypatch.setattr(cli, "_run_suite", passing_suite)
        code, doc = run_json(capsys, "verify", "all", "--max-n", "4")
        assert code == 0 and doc["ok"] is True and seen == list(SUITES)

    @pytest.mark.parametrize("target", ["maker-gtb", "all"])
    def test_csv_without_rows_is_a_usage_error(self, capsys, monkeypatch, target):
        monkeypatch.setattr(cli, "verify_strategy", None)  # nothing may run
        monkeypatch.setattr(cli, "_run_suite", None)
        message = usage_error(capsys, "verify", target, "--format", "csv")
        assert message.endswith("unrecognized arguments: --format csv")

    def test_suite_writes_its_rows_as_csv(self, capsys):
        code, out = run_cli(capsys, "verify", "thm1.8", "--max-n", "4", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["n,rounds,size,closed", "3,1,1,1", "4,2,2,2"]

    def test_list_cells_are_space_joined_in_csv(self, capsys):
        code, out = run_cli(capsys, "verify", "thm1.1", "--max-bias", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "blocked,bias,win,expected", "1,1,False,False", "2,1,True,True", "1 2,1,False,False",
        ]

    def test_unset_seed_is_recorded_as_null(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        run_cli(capsys, "verify", "thm1.8", "--max-n", "3", "--manifest", str(manifest))
        assert json.loads(manifest.read_text())["seed"] is None

    def test_every_suite_parameter_has_a_flag(self):
        args = vars(build_parser().parse_args(["verify", "all"]))
        for name, fn in SUITES.items():
            for param in inspect.signature(fn).parameters:
                if param != "settings":
                    assert param in args, (name, param)

    def test_each_target_offers_exactly_its_flags(self):
        # a suite: its parameters, --memo-cap and --format; all: every suite
        # parameter and --memo-cap; a script: its parameters but blocked and
        # bias, and --max-nodes; every target: --manifest and -o
        def flags(params):
            return {"--graph" if p == "tree" else "--" + p.replace("_", "-")
                    for p in params if p not in ("settings", "blocked", "bias")}

        suites = {name: flags(inspect.signature(fn).parameters) for name, fn in SUITES.items()}
        want = {name: own | {"--memo-cap", "--format"} for name, own in suites.items()}
        want["all"] = set().union(*suites.values()) | {"--memo-cap"}
        want.update({name: flags(inspect.signature(build).parameters) | {"--max-nodes"}
                     for name, build in CATALOG.items()})
        targets = subcommands(subcommands(build_parser())["verify"])
        assert len(targets) == 28 and set(targets) == set(want)
        for name, parser in targets.items():
            got = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
            assert got == want[name] | {"--manifest", "-o", "--output"}, name

    def test_unknown_target_is_a_usage_error(self, capsys):
        assert "invalid choice: 'thm9'" in usage_error(capsys, "verify", "thm9")

    def test_cycle_scripts_on_four_cycle(self, capsys):
        code, doc = run_json(capsys, "verify", "waiter-cycle", "--n", "4")
        assert code == 0
        code, doc = run_json(capsys, "verify", "client-cycle", "--n", "4")
        assert code == 2  # the script refuses tiny cycles: usage error

    def test_violated_claim_exits_one(self, capsys, monkeypatch):
        failure = {"check": "C_3 offer values = 1", "detail": {"rounds": 2}}

        def failing_suite(**kwargs):
            return dict(suite="thm1.8", ok=False, seconds=0.0,
                        checks=[{"check": failure["check"], "ok": False}],
                        rows=[], failures=[failure])

        monkeypatch.setitem(SUITES, "thm1.8", failing_suite)
        code, doc = run_json(capsys, "verify", "thm1.8")
        assert code == 1
        assert doc["ok"] is False and doc["failures"] == [failure]

    def test_suites_are_reproducible(self, capsys, tmp_path):
        m1, m2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "verify", "residue", "--count", "3", "--seed", "7",
                "--manifest", str(m1))
        run_cli(capsys, "verify", "residue", "--count", "3", "--seed", "7",
                "--manifest", str(m2))
        a = json.loads(m1.read_text())
        b = json.loads(m2.read_text())
        assert a["result"]["checks"] == b["result"]["checks"]
        assert a["seed"] == b["seed"] == 7
        ra = {k: v for k, v in a["result"].items() if k != "seconds"}
        rb = {k: v for k, v in b["result"].items() if k != "seconds"}
        assert ra == rb

    def test_manifest_records_inputs(self, capsys, tmp_path):
        board = tmp_path / "c5.json"
        manifest = tmp_path / "m.json"
        run_cli(capsys, "gen", "cycle", "--n", "5", "-o", str(board))
        run_cli(capsys, "dom", "gamma", "--graph", str(board),
                "--manifest", str(manifest))
        doc = json.loads(manifest.read_text())
        assert str(board) in doc["inputs"]
        assert doc["result"]["gamma"] == 2


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("posgames ") and "..." not in ln]
    assert len(lines) >= 15
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
