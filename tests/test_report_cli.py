"""Markdown reports and the command-line interface."""

import pytest

from repro.analysis.report import (
    comparison_summary,
    restart_report_table,
    run_result_table,
)
from repro.cli import build_parser, main
from repro.recovery.restart import RestartReport
from repro.sim.runner import RunResult


def result(name: str, tpmc: float) -> RunResult:
    return RunResult(
        name=name,
        transactions=100,
        wall_seconds=10.0,
        tpmc=tpmc,
        dram_hit_rate=0.5,
        flash_hit_rate=0.7,
        write_reduction=0.6,
        utilization={"cpu": 0.1, "disk": 1.0, "flash": 0.3, "log": 0.0},
    )


class TestReports:
    def test_run_result_table_is_markdown(self):
        text = run_result_table([result("FaCE+GSC", 4000)], title="T")
        assert text.startswith("### T")
        assert "| FaCE+GSC | 4,000 |" in text
        assert "| disk |" in text  # bottleneck column

    def test_restart_report_table(self):
        report = RestartReport(
            total_time=1.5, metadata_restore_time=0.01, log_records_scanned=1000,
            fpw_installed=50, redo_applied=200, pages_from_flash=90,
            pages_from_disk=10, losers=1,
        )
        text = restart_report_table([("FaCE", report)])
        assert "| FaCE | 1.500 |" in text
        assert "90.0%" in text

    def test_comparison_summary(self):
        text = comparison_summary(result("HDD-only", 1000), result("FaCE", 3000))
        assert "3.00x" in text


class TestCli:
    def test_parser_covers_all_commands(self):
        parser = build_parser()
        for argv in (
            ["run", "policy=face"],
            ["stats", "policy=face"],
            ["devices"],
            ["crash", "--policy", "face+gsc"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_unknown_policy_rejected(self, capsys):
        assert main(["--scale", "tiny", "run", "policy=no-such-policy"]) == 2
        assert "unknown flash-cache policy 'no-such-policy'" in capsys.readouterr().err

    def test_devices_command_runs(self, capsys):
        assert main(["devices", "--ops", "200"]) == 0
        out = capsys.readouterr().out
        assert "mlc_samsung_470" in out
        assert "raid0_8_disks" in out

    def test_run_command_tiny(self, capsys):
        code = main(
            ["--scale", "tiny", "--cache-fraction", "0.3",
             "run", "policy=face", "measure_transactions=150"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "| FaCE |" in out

    def test_recover_command_tiny(self, capsys):
        code = main(
            ["--scale", "tiny", "--cache-fraction", "0.3",
             "run", "scenario=crash", "checkpoint_interval=0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "| restart (s) |" in out and "| FaCE+GSC |" in out

    def test_sweep_command_tiny(self, capsys):
        code = main(
            ["--scale", "tiny", "run", "policy=face",
             "cache_fraction=0.2,0.4", "measure_transactions=100"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "| cache_fraction=0.2 |" in out and "| cache_fraction=0.4 |" in out

    def test_bad_scale_exits(self, capsys):
        assert main(["--scale", "galactic", "run", "policy=face"]) == 2
        assert "repro: error: unknown scale 'galactic'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["run", "scan_dpeth"], "unknown experiment field 'scan_dpeth'"),
        (["--cache-fraction", "1.5", "run", "policy=face"], "cache_fraction must be within"),
        (["run", "scenario=service", "n_clients=0"], "n_clients must be >= 1"),
        (["run", "scenario=crash", "checkpoint_interval=-1"],
         "checkpoint_interval must be positive"),
        (["--workload-knob", "zipf_s=bogus", "run", "policy=face"],
         "does not accept knob(s) zipf_s"),
        (["--workload-knob", "zipf_s", "run", "policy=face"], "--workload-knob needs NAME=VALUE"),
        (["run", "scan_depth=8,16", "--check-parity", "1"], "it needs --fast"),
        (["run", "face_cache_clean=no"], "'face_cache_clean' takes bool, got 'no'"),
        (["run", "measure_transactions=1e2"], "'measure_transactions' takes int, got '1e2'"),
        (["run", "scenario=service", "n_clients=2.5"], "'n_clients' takes int, got '2.5'"),
        (["run", "scan_depth=0"], "scan_depth must be >= 1"),
        (["run", "cache_fraction=none"], "'cache_fraction' takes float, got 'none'"),
        (["stats", "policy=face,lc"], "stats measures one cell; give policy one value"),
        (["crash"], "crash needs a persistent --page-store"),
        (["run", "scan_depth=200"], "too small for scan_depth 200"),
        (["run", "buffer_fraction=0"], "buffer_fraction must be within (0, 1]"),
        (["run", "buffer_fraction=-1"], "buffer_fraction must be within (0, 1]"),
        (["run", "lc_dirty_threshold=2"], "unknown experiment field 'lc_dirty_threshold'"),
        (["run", "policy=lc", "scan_depth=8,16", "face_write_through=false,true"],
         "scan_depth=8 is not read by policy 'lc'"),
        (["run", "policy=face", "face_write_through=true", "scan_depth=8"],
         "scan_depth=8 is not read by policy 'face'"),
        (["run", "n_clients=1,8"], "n_clients=1 is not read by scenario 'steady'"),
        (["run", "n_clients=0"], "n_clients must be >= 1"),  # a bad value first
        (["run", "crash_point=0.3"], "crash_point=0.3 is not read by scenario 'steady'"),
        (["run", "policy=hdd-only", "cache_fraction=0.2"],
         "cache_fraction=0.2 is not read by policy 'hdd-only'"),
        (["--cache-fraction", "0.2", "run", "policy=ssd-only"],
         "cache_fraction=0.2 is not read by policy 'ssd-only'"),
        (["run", "ssd_only=true"], "unknown experiment field 'ssd_only'"),
    ])
    def test_config_errors_exit_2_on_one_stderr_line(self, argv, message, capsys):
        assert main(["--scale", "tiny", *argv]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert captured.out == ""
        assert line.startswith("repro: error: ") and message in line
