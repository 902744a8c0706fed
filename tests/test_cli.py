"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    @pytest.mark.parametrize(
        "argv",
        [["rates"], ["figure3a"], ["figure4"], ["monitor"]],
    )
    def test_known_subcommands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)


class TestExecution:
    def test_rates_output(self, capsys):
        code = main(["rates", "--n", "200", "--runs", "2", "--cycles", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pm" in out
        assert "seq" in out
        assert "0.25" in out  # the theory column

    def test_figure3a_output(self, capsys):
        code = main(["figure3a", "--runs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 3(a)" in out
        assert "316" in out

    def test_figure3a_sparse_overlay(self, capsys):
        code = main([
            "figure3a", "--runs", "2", "--n", "500",
            "--topology", "regular20", "--backend", "vectorized",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rand/regular20" in out
        assert "seq/regular20" in out

    def test_figure3a_regular20_needs_enough_nodes(self):
        with pytest.raises(SystemExit):
            main(["figure3a", "--n", "10", "--topology", "regular20"])

    def test_figure4_output(self, capsys):
        code = main(["figure4", "--n", "300", "--cycles", "60", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "estimate" in out

    def test_monitor_output(self, capsys):
        code = main(["monitor", "--n", "300", "--cycles", "20", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "network size" in out
        assert "total" in out


class TestLibraryErrors:
    def test_library_error_prints_one_line(self, capsys):
        code = main(["figure3a", "--n", "-5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: topology needs at least one node, got n=-5\n"
        )
        assert captured.out == ""

    def test_module_exits_2_without_traceback(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "figure3a", "--n", "-5"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines() == [
            "error: topology needs at least one node, got n=-5"
        ]
