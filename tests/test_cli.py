"""Command-line front end: flags, exit codes, outputs, and oracles."""

import argparse
import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from linemeet import __version__, cli
from linemeet.cli import EXIT_BROKEN_PIPE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _output(capsys, path, *argv):
    """Runs `linemeet ARGV --out PATH` and returns what it printed."""
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    return out


def _edit_runspec(path, **changes):
    """Sets keys of the runspec on the first line of a CSV or JSONL."""
    first, rest = path.read_text().split("\n", 1)
    prefix = "# runspec=" if first.startswith("#") else ""
    line = json.loads(first.removeprefix(prefix))
    (line if prefix else line["runspec"]).update(changes)
    path.write_text(prefix + json.dumps(line) + "\n" + rest)


class TestRunCommand:
    def test_summary_line_and_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--topology", "infinite",
                               "--d", "5", "--tau", "0",
                               "--scheme", "sequential")
        assert code == 0
        assert re.search(r"T_rdv=\d+ D=5 tau=0 lmin=\d+ ratio=[\d.]+ "
                         r"case=[\w-]+", out)

    def test_invalid_scheme_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "run", "--scheme", "nonsense")
        assert code == 2
        assert json.loads(err)["error"] == "config"

    def test_explicit_scheme_takes_json(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--d", "1", "--scheme",
                               'explicit:{"0":5,"1":3,"-1":7,"2":9}')
        assert code == 0
        assert "T_rdv=" in out

    def test_invalid_topology_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--topology", "donut"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("flag", ["--care", "--no-care",
                                      "--allow-mispairing"])
    def test_program_flags_are_usage_errors(self, capsys, command, flag):
        # the detection mode alone chooses the program
        with pytest.raises(SystemExit) as exc:
            main([command, "--detection", "node-only", flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["run", "--ta", "0"],
                                      ["sweep", "--ta", "0"],
                                      ["verify", "locality", "--univ", "9"]])
    def test_abbreviated_flags_are_usage_errors(self, capsys, argv):
        # an abbreviation keeps its meaning only until a flag sharing its
        # prefix is added, so none is taken
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_an_explicit_flag_beats_the_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.jsonl"
        _output(capsys, cfg, "run", "--d", "5", "--tau", "3")
        for argv in (["--config", str(cfg), "--tau", "0"],
                     ["--tau", "0", "--config", str(cfg)],
                     ["--tau=0", "--config", str(cfg)]):
            code, out, _ = run_cli(capsys, "run", *argv)
            assert code == 0 and "D=5 tau=0 " in out
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0 and "D=5 tau=3 " in out
        with pytest.raises(SystemExit) as exc:
            main(["run", "--d", "5", "--config", str(cfg), "--ta", "0"])
        assert exc.value.code == 2

    def test_care_config_key_exits_two(self, capsys, tmp_path):
        # care follows the file's own detection mode and is never applied
        cfg = tmp_path / "run.jsonl"
        for detection, care in (("node-or-crossing", True),
                                ("node-only", False)):
            _output(capsys, cfg, "run", "--d", "3", "--detection", detection)
            _edit_runspec(cfg, care=care)
            for flags in ([], ["--detection", detection]):
                code, out, err = run_cli(capsys, "run", "--config", str(cfg),
                                         *flags)
                assert code == 2 and out == ""
                assert "runspec care" in json.loads(err)["detail"]

    def test_node_only_defaults_to_care(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, out, err = run_cli(capsys, "run", "--detection", "node-only",
                                 "--d", "3", "--out", str(path))
        assert code == 0 and err == ""
        assert "T_rdv=" in out
        runspec = json.loads(path.read_text().splitlines()[0])["runspec"]
        assert runspec["detection"] == "node-only" and runspec["care"]

    def test_trace_output(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(capsys, "run", "--d", "3", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])["runspec"]
        assert header["command"] == "run" and header["d"] == 3
        t = int(re.search(r"T_rdv=(\d+)", out).group(1))
        assert len(lines) == t + 2
        last = json.loads(lines[-1])
        assert last["round"] == t
        assert last["event"] in ("node", "crossing")

    def test_bound_violation_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "run", "--d", "3",
                                 "--round-cap", "10")
        assert code == 1
        assert "T_rdv=NONE" in out
        assert json.loads(err)["error"] == "bound-violation"

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_negative_round_cap_exits_two(self, capsys, engine):
        code, out, err = run_cli(capsys, "run", "--d", "3", "--round-cap",
                                 "-5", "--engine", engine)
        assert code == 2 and out == ""
        assert "round cap" in json.loads(err)["detail"]

    # README's run examples and their care, path and cycle-settle variants
    @pytest.mark.parametrize("flags", [
        "--d 5 --tau 3",
        "--d 5 --tau 3 --detection node-only",
        "--topology path --n 12 --d 4",
        "--topology cycle --n 12 --d 4 --scheme random-injective:7:1000000",
        "--topology cycle --n 12 --d 3 --scheme random-injective:7:1000000",
        "--topology cycle --n 12 --d 3 --scheme random-injective:7:1000000 "
        "--detection node-only",
    ])
    def test_fast_and_reference_traces_match(self, capsys, tmp_path, flags):
        traces = []
        for engine in ("fast", "reference"):
            path = tmp_path / f"{engine}.jsonl"
            code, _, _ = run_cli(capsys, "run", *flags.split(), "--engine",
                                 engine, "--out", str(path))
            assert code == 0
            traces.append(path.read_text().splitlines()[1:])
        assert traces[0] == traces[1]
        assert json.loads(traces[0][-1])["event"] is not None

    def test_config_file_fills_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.jsonl"
        flags = ["--topology", "path", "--n", "30", "--d", "4", "--tau", "2",
                 "--scheme", "random-injective:7:1000", "--seed", "3",
                 "--round-cap", "5000", "--engine", "reference"]
        _output(capsys, cfg, "run", *flags)
        written = json.loads(cfg.read_text().splitlines()[0])["runspec"]
        again = tmp_path / "again.jsonl"
        _output(capsys, again, "run", "--config", str(cfg))
        assert json.loads(again.read_text().splitlines()[0]) == \
            {"runspec": written}
        assert written["engine"] == "reference" and written["n"] == 30

    def test_explicit_flag_beats_config_file(self, capsys, tmp_path):
        # a CSV's runspec yields to a sweep's own flags in the same way
        cfg, again = tmp_path / "sweep.csv", tmp_path / "again.csv"
        _output(capsys, cfg, "sweep", "--d", "1..3", "--tau", "0,D")
        out = _output(capsys, again, "sweep", "--d", "2", "--config",
                      str(cfg))
        assert "cells=2" in out
        assert json.loads(again.read_text().splitlines()[0].removeprefix(
            "# runspec="))["d"] == "2"

    def test_unknown_config_key_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "run.jsonl"
        _output(capsys, cfg, "run", "--d", "3")
        _edit_runspec(cfg, flux=9)
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "unknown runspec key 'flux'" in json.loads(err)["detail"]

    @pytest.mark.parametrize("distance", ["-3", "0"])
    def test_distance_below_one_exits_two(self, capsys, tmp_path, distance):
        # a negative distance would swap the agents' starts
        code, out, err = run_cli(capsys, "run", "--d", distance)
        assert code == 2 and out == ""
        assert "below 1" in json.loads(err)["detail"]


class TestSweepCommand:
    ARGS = ("sweep", "--d", "1..4", "--tau", "0,1,D",
            "--scheme", "sequential")

    def test_summary_and_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        # d=1 deduplicates the delays 1 and D
        assert "cells=11" in out
        assert re.search(r"max ratio=[\d.]+ at D=\d+ tau=\d+ scheme=", out)
        assert re.search(r"cases: (\S+=\d+ ?)+", out)
        assert "violations=0" in out

    def test_csv_reruns_byte_identical(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *self.ARGS, "--out", str(p1))[0] == 0
        assert run_cli(capsys, *self.ARGS, "--out", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        spec = json.loads(lines[0].removeprefix("# runspec="))
        assert spec["command"] == "sweep" and spec["d"] == "1..4"
        assert len(lines) == 2 + 11

    def test_a_cell_reads_as_in_run(self, capsys, tmp_path):
        # run's summary and a one-cell sweep's row of a searching cell give
        # one ratio and one case tag
        cell = ("--d", "6", "--tau", "0", "--scheme", "uniform-logstar-class:4")
        code, out, _ = run_cli(capsys, "run", *cell)
        assert code == 0
        path = tmp_path / "cell.csv"
        assert run_cli(capsys, "sweep", *cell, "--out", str(path))[0] == 0
        (row,) = csv.DictReader(path.read_text().splitlines()[1:])
        assert row["case_tag"] == "distinct-nodes-colored"
        assert f" ratio={row['ratio']} case={row['case_tag']} " in out

    def test_jobs_flag_is_a_usage_error(self, capsys):
        # sweeps run in one process; an old --jobs invocation fails loudly
        with pytest.raises(SystemExit) as exc:
            main([*self.ARGS, "--jobs", "2"])
        assert exc.value.code == 2

    def test_jobs_config_key_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.csv"
        _output(capsys, cfg, *self.ARGS)
        _edit_runspec(cfg, jobs=2)
        code, _, err = run_cli(capsys, *self.ARGS, "--config", str(cfg))
        assert code == 2
        report = json.loads(err)
        assert report["error"] == "config"
        assert "unknown runspec key 'jobs'" in report["detail"]

    @pytest.mark.parametrize("distances", ["-4..-1", "0..3", "2,-1"])
    def test_distance_below_one_exits_two(self, capsys, tmp_path, distances):
        path = tmp_path / "grid.csv"
        code, out, err = run_cli(capsys, "sweep", f"--d={distances}",
                                 "--out", str(path))
        assert code == 2 and out == "" and not path.exists()
        assert "below 1" in json.loads(err)["detail"]

    def test_large_delay_band_is_all_out_of_sync(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--d", "2,4",
                               "--tau", "10D,10D+7,12D",
                               "--scheme", "sequential")
        assert code == 0
        counts = dict(pair.split("=") for pair in
                      re.search(r"cases: (.*)", out).group(1).split())
        assert int(counts["out-of-sync"]) > 0

    def test_empty_grid_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--d", "", "--tau", "0",
                               "--scheme", "sequential")
        assert code == 2
        assert "empty" in json.loads(err)["detail"]

    def test_bad_delay_token(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--d", "1",
                               "--tau", "5X", "--scheme", "sequential")
        assert code == 2
        assert "delay token" in json.loads(err)["detail"]

    def test_explicit_scheme_keeps_its_commas(self, capsys, tmp_path):
        # commas inside the JSON map do not split the scheme list
        scheme = 'explicit:{"0":5,"1":3,"-1":7,"2":9}'
        path = tmp_path / "explicit.csv"
        code, out, _ = run_cli(capsys, "sweep", "--d", "1", "--tau", "0",
                               "--scheme", f"sequential,{scheme}",
                               "--out", str(path))
        assert code == 0
        assert "cells=2" in out
        header, *rows = csv.reader(path.read_text().splitlines()[1:])
        assert all(len(row) == len(header) == 11 for row in rows)
        assert [row[header.index("scheme")] for row in rows] == \
            ["sequential", scheme]

    def test_cap_violations_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--d", "3", "--tau", "0",
                               "--scheme", "sequential",
                               "--round-cap", "10")
        assert code == 1
        assert "violations=1" in out


@pytest.mark.parametrize("argv", [
    ("sweep", "--d", "1..x"),
    ("run", "--scheme", "random-injective:abc"),
    ("run", "--scheme", "uniform-logstar-class:x"),
    ("run", "--scheme", 'explicit:{"a": 1}'),
    ("run", "--scheme", "explicit:[1]"),
    # labelled wherever the run reads, so only the label's type is wrong
    ("run", "--d", "1", "--scheme", 'explicit:{"0":5,"1":1.9,"-1":7,"2":9}'),
    ("run", "--d", "1", "--scheme", 'explicit:{"0":5,"1":true,"-1":7,"2":9}'),
    ("run", "--config", "CONFIG"),
], ids=["d-range", "random-seed", "class-index", "explicit-key",
        "explicit-list", "explicit-float", "explicit-bool", "config-value"])
def test_malformed_number_is_a_config_error(capsys, tmp_path, argv):
    cfg = tmp_path / "run.jsonl"
    cfg.write_text(json.dumps({"runspec": {
        "version": __version__, "command": "run", "care": False,
        "d": "abc"}}) + "\n")
    argv = [str(cfg) if a == "CONFIG" else a for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(err)["error"] == "config"


class TestReplay:
    """`--config FILE` replays the runspec atop an output linemeet wrote."""

    @pytest.mark.parametrize("flags", [
        "--d 1..6 --tau 0,1,3,D,3D,10D,10D+7",
        "--topology path --n 24 --d 1..5 --tau 0,D,24 "
        "--scheme random-injective:5:100000 --seed 2",
        "--topology cycle --n 16 --d 1..6 --tau 0,3 --detection node-only "
        "--scheme sequential,uniform-logstar-class:3 --round-cap 90000",
    ], ids=["infinite", "path", "cycle"])
    def test_sweep_replays_byte_identical(self, capsys, tmp_path, flags):
        grid, again = tmp_path / "grid.csv", tmp_path / "again.csv"
        out = _output(capsys, grid, "sweep", *shlex.split(flags))
        assert _output(capsys, again, "sweep", "--config", str(grid)) == out
        assert again.read_bytes() == grid.read_bytes()

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("detection", ["node-or-crossing", "node-only"])
    def test_run_replays_its_line(self, capsys, tmp_path, detection, engine):
        trace = tmp_path / "trace.jsonl"
        out = _output(capsys, trace, "run", "--d", "5", "--tau", "3",
                      "--detection", detection, "--engine", engine)
        code, again, err = run_cli(capsys, "run", "--config", str(trace))
        assert (code, again, err) == (0, out, "")

    def test_run_given_a_sweep_csv_exits_two(self, capsys, tmp_path):
        grid = tmp_path / "grid.csv"
        _output(capsys, grid, "sweep", "--d", "2", "--tau", "0")
        code, out, err = run_cli(capsys, "run", "--config", str(grid))
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "config",
            "detail": "runspec command 'sweep' does not match 'run'"}

    def test_wrong_version_exits_two(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _output(capsys, trace, "run", "--d", "2")
        _edit_runspec(trace, version="0.0.0")
        code, _, err = run_cli(capsys, "run", "--config", str(trace))
        assert code == 2
        assert "runspec version '0.0.0'" in json.loads(err)["detail"]

    @pytest.mark.parametrize("text", ["", "d = 5\n", "[1, 2]\n",
                                      '{"round": 0}\n', '{"runspec": 5}\n',
                                      "# runspec=null\n"])
    def test_file_without_runspec_exits_two(self, capsys, tmp_path, text):
        cfg = tmp_path / "plain.txt"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2 and out == ""
        report = json.loads(err)
        assert report["error"] == "config"
        assert "no runspec" in report["detail"]

    def test_csv_rows_without_header_exit_two(self, capsys, tmp_path):
        grid = tmp_path / "grid.csv"
        _output(capsys, grid, "sweep", "--d", "2", "--tau", "0")
        grid.write_text(grid.read_text().split("\n", 1)[1])
        code, _, err = run_cli(capsys, "sweep", "--config", str(grid))
        assert code == 2 and "no runspec" in json.loads(err)["detail"]

    # each value must be what its flag's own parse would hold
    @pytest.mark.parametrize("key,value", [
        ("d", "5"), ("d", 5.0), ("tau", True), ("seed", None),
        ("scheme", 7), ("detection", "both"), ("engine", "slow"),
        ("topology", None)])
    def test_bad_value_exits_two(self, capsys, tmp_path, key, value):
        trace = tmp_path / "trace.jsonl"
        _output(capsys, trace, "run", "--d", "2")
        _edit_runspec(trace, **{key: value})
        code, out, err = run_cli(capsys, "run", "--config", str(trace))
        assert code == 2 and out == ""
        assert json.loads(err)["detail"] == \
            f"bad runspec value {value!r} for {key}"

    @pytest.mark.parametrize("key", ["out", "config", "func", "help"])
    def test_plumbing_keys_are_unknown(self, capsys, tmp_path, key):
        trace = tmp_path / "trace.jsonl"
        _output(capsys, trace, "run", "--d", "2")
        _edit_runspec(trace, **{key: str(tmp_path / "elsewhere")})
        code, _, err = run_cli(capsys, "run", "--config", str(trace))
        assert code == 2
        assert f"unknown runspec key {key!r}" in json.loads(err)["detail"]
        assert not (tmp_path / "elsewhere").exists()


class TestVerifyCommand:
    def test_carefulwalk(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "carefulwalk")
        assert code == 0
        assert "14 cases, all meet" in out

    def test_rulingset(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "rulingset",
                               "--trials", "25")
        assert code == 0
        assert "0 failures" in out

    def test_escolruling(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "escolruling",
                               "--trials", "10")
        assert code == 0
        assert "0 failures" in out

    @pytest.mark.parametrize("target", ["rulingset", "escolruling"])
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_checking_nothing_exit_two(self, capsys, target, trials):
        code, out, err = run_cli(capsys, "verify", target, "--trials", trials)
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "config",
            "detail": f"--trials {trials} checks nothing; use 1 or more"}

    def test_locality_negative_universe_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "locality",
                                 "--universe", "-5")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "config",
                                   "detail": "--universe -5 is below 0"}

    def test_locality_smoke_window(self, capsys):
        # the defaults are the CI strength, --r 1 --universe 1200
        code, out, _ = run_cli(capsys, "verify", "locality")
        assert code == 0
        assert "65 certified nodes" in out
        assert "all within 424*R*logstar" in out

    def test_locality_radius_beyond_bound_exits_one(self, capsys, monkeypatch):
        # the summary's bound is checked per certified node, not just printed
        monkeypatch.setattr(cli, "RADIUS_FACTOR", 1)
        code, out, err = run_cli(capsys, "verify", "locality",
                                 "--r", "1", "--universe", "200")
        assert code == 1 and out == ""
        report = json.loads(err)
        assert report["error"] == "oracle-failure"
        assert "termination radius" in report["detail"]

    def test_locality_certifies_nodes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "locality",
                               "--r", "1", "--universe", "200")
        assert code == 0
        certified = int(re.search(r"locality: (\d+) certified", out).group(1))
        assert certified > 0

    @pytest.mark.parametrize("broken", ["leaky_records",
                                        "peeking_construction"])
    def test_locality_failure_exits_one(self, capsys, request, broken):
        request.getfixturevalue(broken)
        code, _, err = run_cli(capsys, "verify", "locality",
                               "--r", "1", "--universe", "200")
        assert code == 1
        assert json.loads(err)["error"] == "oracle-failure"

    @pytest.mark.parametrize("flags", [["--r", "0"], ["--scheme", "nonsense"]])
    def test_locality_bad_config_exits_two(self, capsys, flags):
        code, _, err = run_cli(capsys, "verify", "locality", *flags)
        assert code == 2
        assert json.loads(err)["error"] == "config"

    @pytest.mark.parametrize("r,universe", [("1", "10"), ("16", "300")])
    def test_locality_certifying_no_node_exits_two(self, capsys, r, universe):
        # no termination-radius ball fits, so the run would prove nothing
        code, out, err = run_cli(capsys, "verify", "locality",
                                 "--r", r, "--universe", universe)
        assert code == 2 and out == ""
        report = json.loads(err)
        assert report["error"] == "config"
        assert f"[-{universe}, {universe}]" in report["detail"]


def _readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, printed lines) of each `$ linemeet run|sweep` README example."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples, current = [], None
    for line in readme.read_text().splitlines():
        if line.startswith("$ linemeet "):
            current = (shlex.split(line)[2:], [])
            examples.append(current)
        elif current is not None and line and not line.startswith("```"):
            current[1].append(line)
        else:
            current = None
    return [ex for ex in examples if ex[0][0] in ("run", "sweep")]


def test_readme_examples_print_what_readme_shows(capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)  # the sweep example writes grid.csv
    examples = _readme_examples()
    assert [argv[0] for argv, _ in examples] == ["run", "run", "sweep"]
    for argv, want in examples:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert out.splitlines() == want, argv


def _readme_flags() -> list[tuple[str | None, str]]:
    """(subcommand, flag) of each `--flag` README gives: with its
    subcommand in a `linemeet` command, with None in a code span of its
    own."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = (re.findall(r"^\$ (linemeet .*)$", text, re.M)
                + re.findall(r"`(linemeet [^`]*)`", text))
    found = []
    for command in commands:
        argv = shlex.split(command, comments=True)
        found += [(argv[1], tok.split("=")[0]) for tok in argv[2:]
                  if tok.startswith("--")]
    return found + [(None, flag)
                    for flag in re.findall(r"`(--[\w-]+)[^`]*`", text)]


def test_readme_flags_are_accepted():
    # docs that name a deleted or misspelt flag fail here
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    accepted = {name: set(sub._option_string_actions)
                for name, sub in subparsers.choices.items()}
    flags = _readme_flags()
    assert {sub for sub, _ in flags} >= {"run", "sweep", "verify", None}
    unknown = [(sub, flag) for sub, flag in flags
               if flag not in (accepted[sub] if sub
                               else set().union(*accepted.values()))]
    assert unknown == []


class TestConstantsCommand:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "constants")
        assert code == 0
        assert "kappa = 424" in out
        assert "L=256: start=7140" in out
        assert "R=4: class ends 112 224 371 868 5320 9807" in out
        assert "R=64: class ends 2032 4064 6671 15028 88360 162267" in out
        assert "consistent" in out and "INCONSISTENT" not in out

    def test_closed_pipe_exits_quietly(self):
        # the reader is gone before the first write, like `| head` finishing
        # early; the command must not report it as a configuration error
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "linemeet.cli", "constants"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_BROKEN_PIPE
        assert proc.stderr == b""
