"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


class TestCLI:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output and "E9" in output

    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        output = capsys.readouterr().out
        assert "dense-random-lists" in output

    def test_color_congested_clique(self, capsys):
        assert main(["color", "--workload", "dense-random-lists", "--nodes", "120"]) == 0
        output = capsys.readouterr().out
        assert "ColorReduce" in output
        assert "rounds=" in output

    def test_color_low_space(self, capsys):
        assert (
            main(
                [
                    "color",
                    "--workload",
                    "social-power-law",
                    "--nodes",
                    "150",
                    "--algorithm",
                    "low-space",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "LowSpaceColorReduce" in output

    def test_experiment_runner(self, capsys):
        assert main(["experiment", "e9", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "Lemma" in output

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_negative_parallel_workers_is_a_one_line_error(self, capsys):
        code = main(
            ["color", "--nodes", "60", "--parallel-workers", "-3"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "--parallel-workers must be at least 1" in captured.err
        assert "Traceback" not in captured.err

    def test_zero_parallel_workers_is_a_one_line_error(self, capsys):
        assert main(["color", "--nodes", "60", "--parallel-workers", "0"]) == 2
        assert "--parallel-workers must be at least 1" in capsys.readouterr().err

    def test_oversubscribed_workers_warn_but_run(self, capsys, monkeypatch):
        import repro.cli as cli_module

        # The warning keys off the affinity-aware count the CLI imported,
        # not os.cpu_count (which over-reports inside cgroup-pinned
        # containers).
        monkeypatch.setattr(cli_module, "effective_cpu_count", lambda: 2)
        monkeypatch.setenv("REPRO_PARALLEL_MIN_PAIRS", "2")
        from repro.parallel import shutdown_executors

        try:
            code = main(["color", "--nodes", "100", "--parallel-workers", "3"])
        finally:
            shutdown_executors()
        captured = capsys.readouterr()
        assert code == 0
        assert "warning:" in captured.err and "exceeds" in captured.err
        assert "pool health:" in captured.out

    def test_parallel_run_prints_pool_health(self, capsys, monkeypatch):
        import repro.cli as cli_module

        monkeypatch.setattr(cli_module, "effective_cpu_count", lambda: 8)  # no warning
        monkeypatch.setenv("REPRO_PARALLEL_MIN_PAIRS", "2")
        from repro.parallel import shutdown_executors

        try:
            code = main(["color", "--nodes", "100", "--parallel-workers", "2"])
        finally:
            shutdown_executors()
        captured = capsys.readouterr()
        assert code == 0
        assert "pool health: healthy" in captured.out
        assert "warning:" not in captured.err

    def test_invalid_recovery_knob_is_a_one_line_error(self, capsys):
        # The pool's recovery knobs are no longer flags: argparse rejects
        # them with its usual one-line usage error.
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["color", "--nodes", "100", "--parallel-workers", "2",
                 "--parallel-breaker-threshold", "0"]
            )
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert "error: unrecognized arguments" in captured.err
        assert "--parallel-breaker-threshold" in captured.err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--parallel-max-retries", "2"),
            ("--parallel-shard-timeout", "30"),
            ("--parallel-breaker-threshold", "3"),
            ("--parallel-breaker-cooldown", "8"),
            ("--parallel-transport", "shm"),
            ("--parallel-min-slab-pairs", "0"),
        ],
    )
    def test_retired_pool_flags_are_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["color", "--nodes", "60", flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_retired_transport_flag_exits_two_from_the_shell(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "color", "--parallel-transport", "shm"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 2
        assert "--parallel-transport" in result.stderr


class TestCLIInputHardening:
    def test_non_positive_nodes_is_a_one_line_error(self, capsys):
        assert main(["color", "--nodes", "0"]) == 2
        err = capsys.readouterr().err
        assert "--nodes must be positive" in err and "Traceback" not in err

    def test_missing_edge_list_file_is_a_one_line_error(self, capsys, tmp_path):
        assert main(["color", "--edge-list", str(tmp_path / "none.edges")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_edge_list_line_names_path_and_lineno(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n1 2\nthree tokens here\n")
        assert main(["color", "--edge-list", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:3" in err and "Traceback" not in err

    def test_non_integer_endpoint_rejected(self, capsys, tmp_path):
        path = tmp_path / "nan.edges"
        path.write_text("0 one\n")
        assert main(["color", "--edge-list", str(path)]) == 2
        assert "must be integers" in capsys.readouterr().err

    def test_negative_endpoint_rejected(self, capsys, tmp_path):
        path = tmp_path / "neg.edges"
        path.write_text("0 -4\n")
        assert main(["color", "--edge-list", str(path)]) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_self_loop_rejected(self, capsys, tmp_path):
        path = tmp_path / "loop.edges"
        path.write_text("0 1\n2 2\n")
        assert main(["color", "--edge-list", str(path)]) == 2
        assert "self-loop" in capsys.readouterr().err

    def test_empty_edge_list_rejected(self, capsys, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("# only comments\n\n")
        assert main(["color", "--edge-list", str(path)]) == 2
        assert "no edges" in capsys.readouterr().err

    def test_edge_list_conflicts_with_workload(self, capsys, tmp_path):
        path = tmp_path / "ok.edges"
        path.write_text("0 1\n")
        code = main(
            ["color", "--edge-list", str(path), "--workload", "dense-random-lists"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_edge_list_conflicts_with_nodes(self, capsys, tmp_path):
        path = tmp_path / "ok.edges"
        path.write_text("0 1\n")
        assert main(["color", "--edge-list", str(path), "--nodes", "10"]) == 2
        assert "conflicts with --edge-list" in capsys.readouterr().err

    def test_missing_resume_file_is_a_one_line_error(self, capsys):
        assert main(["color", "--resume", "/definitely/not/there.ckpt"]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err and "Traceback" not in err

    def test_checkpoint_cadence_without_checkpoint_rejected(self, capsys):
        assert main(["color", "--checkpoint-every-levels", "3"]) == 2
        assert "requires --checkpoint" in capsys.readouterr().err

    def test_comments_and_blank_lines_ignored(self, capsys, tmp_path):
        path = tmp_path / "commented.edges"
        path.write_text(
            "# a demo graph\n\n0 1  # an inline comment\n1 2\n2 3\n3 0\n0 2\n1 3\n"
        )
        code = main(
            ["color", "--edge-list", str(path), "--algorithm", "low-space"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "edge-list" in out and "n=4" in out

    def test_durability_summary_printed_when_knobs_set(self, capsys, tmp_path):
        ck = str(tmp_path / "sum.ckpt")
        assert main(["color", "--nodes", "120", "--checkpoint", ck]) == 0
        out = capsys.readouterr().out
        assert "durability:" in out and "checkpoints_written=" in out

    def test_no_durability_summary_without_knobs(self, capsys):
        assert main(["color", "--nodes", "120"]) == 0
        assert "durability:" not in capsys.readouterr().out
