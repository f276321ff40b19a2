"""Unit tests for the repro-clite command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_lc_argument_parsing(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--lc", "memcached:0.5", "--lc", "img-dnn:0.3"]
        )
        assert args.lc == [("memcached", 0.5), ("img-dnn", 0.3)]

    def test_bad_lc_format(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--lc", "memcached"])
        assert "NAME:LOAD" in capsys.readouterr().err

    def test_unknown_lc_workload(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--lc", "redis:0.5"])
        assert "unknown LC workload" in capsys.readouterr().err

    def test_out_of_range_load(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--lc", "memcached:1.5"])
        assert "load must be" in capsys.readouterr().err

    def test_unknown_bg_workload(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--bg", "x264"])
        assert "unknown BG workload" in capsys.readouterr().err

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "memcached" in out
        assert "streamcluster" in out
        assert "QoS target" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--workload", "memcached", "--stride", "15"]) == 0
        out = capsys.readouterr().out
        assert "knee:" in out
        assert "p95 (ms)" in out

    def test_region(self, capsys):
        assert main(["region", "--workload", "img-dnn", "--load", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "min llc_ways" in out

    def test_run_feasible_mix(self, capsys):
        code = main(
            [
                "run",
                "--lc",
                "memcached:0.2",
                "--bg",
                "swaptions",
                "--policy",
                "PARTIES",
                "--budget",
                "30",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "QoS met: True" in out
        assert "partition" in out

    def test_run_obstore_replays_and_closes(self, tmp_path, capsys):
        """A second identical run replays every truth from the store, and
        each run closes it (a leaked append handle fails the suite as a
        ResourceWarning)."""
        argv = [
            "run", "--lc", "memcached:0.2", "--bg", "swaptions",
            "--policy", "PARTIES", "--budget", "30",
            "--obstore", str(tmp_path / "obs.jsonl"),
        ]
        assert main(argv) == 0
        assert " 0 hits, " in capsys.readouterr().out
        assert main(argv) == 0
        assert " 0 misses, " in capsys.readouterr().out

    def test_run_requires_jobs(self):
        with pytest.raises(SystemExit, match="at least one"):
            main(["run"])

    def test_run_unknown_policy(self):
        with pytest.raises(SystemExit, match="unknown policy"):
            main(["run", "--lc", "memcached:0.2", "--policy", "SPARTA"])

    def test_run_infeasible_exit_code(self, capsys):
        code = main(
            [
                "run",
                "--lc",
                "img-dnn:1.0",
                "--lc",
                "masstree:1.0",
                "--lc",
                "memcached:1.0",
                "--policy",
                "PARTIES",
                "--budget",
                "25",
            ]
        )
        assert code == 1
        del capsys

    def test_compare_small_mix(self, capsys):
        code = main(
            [
                "compare",
                "--lc",
                "memcached:0.3",
                "--bg",
                "swaptions",
                "--budget",
                "40",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        for policy in ("CLITE", "PARTIES", "Heracles", "RAND+", "GENETIC", "ORACLE"):
            assert policy in out
