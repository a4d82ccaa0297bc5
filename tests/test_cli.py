"""Tests for repro.cli."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.data import generate_periodic
from repro.streaming import write_symbol_file


@pytest.fixture
def series_file(tmp_path, rng):
    series = generate_periodic(600, 12, 5, rng=rng)
    return write_symbol_file(series, tmp_path / "series.txt")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mine_requires_psi(self, series_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", str(series_file)])

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig9"])


class TestMine:
    def test_prints_patterns(self, series_file, capsys):
        code = main(
            ["mine", str(series_file), "--psi", "0.8", "--periods", "12",
             "--max-arity", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "n=600" in out
        assert "p=12" in out

    def test_explicit_alphabet(self, series_file, capsys):
        code = main(
            ["mine", str(series_file), "--psi", "0.8",
             "--alphabet", "abcdefghij", "--periods", "12", "--max-arity", "1"]
        )
        assert code == 0
        assert "sigma=10" in capsys.readouterr().out

    def test_symbol_outside_alphabet_fails(self, series_file):
        with pytest.raises(SystemExit):
            main(["mine", str(series_file), "--psi", "0.5", "--alphabet", "ab"])

    def test_empty_file_fails(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["mine", str(empty), "--psi", "0.5"])

    def test_convolution_algorithm(self, series_file, capsys):
        code = main(
            ["mine", str(series_file), "--psi", "0.9",
             "--algorithm", "convolution", "--max-period", "15",
             "--periods", "12", "--max-arity", "1"]
        )
        assert code == 0
        assert "p=12" in capsys.readouterr().out

    def test_engine_and_fault_flags_are_gone(self, series_file):
        """Tables come from one counting kernel: nothing to select."""
        for flag, value in (
            ("--engine", "bitand"),
            ("--workers", "2"),
            ("--shard-timeout", "1"),
            ("--max-retries", "1"),
            ("--on-fault", "raise"),
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["mine", str(series_file), "--psi", "0.5", flag, value]
                )

    def test_rejects_unknown_engine(self, series_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mine", str(series_file), "--psi", "0.5",
                 "--engine", "quantum"]
            )

    def test_engine_alias_exported(self):
        import repro
        from repro.core.convolution_miner import Engine

        assert repro.Engine is Engine
        assert repro.ENGINES == ("bitand", "kronecker")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--psi", "2"],
            ["--psi", "0"],
            ["--psi", "x"],
            ["--psi", "0.5", "--max-period", "0"],
            ["--psi", "0.5", "--max-arity", "0"],
            ["--psi", "0.5", "--periods", "12,0"],
            ["--psi", "0.5", "--periods", "twelve"],
            ["--psi", "0.5", "--top", "-2"],
        ],
        ids=["psi-above-1", "psi-zero", "psi-nan", "max-period-0",
             "max-arity-0", "period-0", "period-text", "top-negative"],
    )
    def test_bad_flag_values_exit_2_with_error(self, series_file, capsys, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(series_file), *flags])
        assert excinfo.value.code == 2
        assert "error: " in capsys.readouterr().err

    def test_bad_input_files_exit_2_with_error(self, series_file, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        for argv in (
            ["mine", str(empty), "--psi", "0.5"],
            ["mine", str(series_file), "--psi", "0.5", "--alphabet", "ab"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert capsys.readouterr().err.startswith("error: ")


class TestPeriods:
    def test_lists_candidates(self, series_file, capsys):
        code = main(["periods", str(series_file), "--psi", "0.8",
                     "--max-period", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "12" in out and "candidate periods" in out

    def test_significant_filter_shrinks_list(self, series_file, capsys):
        main(["periods", str(series_file), "--psi", "0.6", "--max-period", "60"])
        raw = capsys.readouterr().out
        main(["periods", str(series_file), "--psi", "0.6", "--max-period", "60",
              "--significant"])
        filtered = capsys.readouterr().out
        raw_count = int(raw.split(":")[1].split()[0])
        filtered_count = int(filtered.split(":")[1].split()[0])
        assert filtered_count <= raw_count


class TestStream:
    def test_online_mining(self, series_file, capsys):
        code = main(["stream", str(series_file), "--psi", "0.8",
                     "--max-period", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "streamed 600 symbols" in out
        assert "whole stream" in out
        assert "period    12" in out

    def test_sliding_window(self, series_file, capsys):
        code = main(["stream", str(series_file), "--psi", "0.8",
                     "--max-period", "20", "--window", "120"])
        out = capsys.readouterr().out
        assert code == 0
        assert "window of last 120" in out

    def test_streaming_with_explicit_alphabet(self, series_file, capsys):
        code = main(["stream", str(series_file), "--psi", "0.8",
                     "--alphabet", "abcde", "--max-period", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sigma=5" in out

    def test_symbol_outside_alphabet_fails(self, series_file):
        with pytest.raises(SystemExit):
            main(["stream", str(series_file), "--psi", "0.5",
                  "--alphabet", "ab"])


class TestGenerate:
    @pytest.mark.parametrize(
        "workload,extra",
        [
            ("synthetic", ["--length", "500", "--period", "7", "--noise", "0.1"]),
            ("power", ["--days", "70"]),
            ("retail", ["--days", "10", "--dst"]),
            ("eventlog", ["--length", "400"]),
        ],
    )
    def test_workloads_round_trip(self, tmp_path, capsys, workload, extra):
        out_file = tmp_path / f"{workload}.txt"
        code = main(["generate", workload, "--out", str(out_file)] + extra)
        assert code == 0
        assert out_file.exists()
        assert "wrote" in capsys.readouterr().out
        assert len(out_file.read_text().strip()) > 0

    def test_deterministic_by_seed(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "synthetic", "--out", str(a), "--seed", "7",
              "--length", "300"])
        main(["generate", "synthetic", "--out", str(b), "--seed", "7",
              "--length", "300"])
        assert a.read_text() == b.read_text()


class TestForecast:
    def test_forecast_prints_prediction(self, series_file, capsys):
        code = main(["forecast", str(series_file), "--horizon", "12",
                     "--period", "12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "period: 12" in out
        assert "forecast: " in out

    def test_forecast_evaluation(self, series_file, capsys):
        code = main(["forecast", str(series_file), "--horizon", "60",
                     "--period", "12", "--evaluate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hold-out accuracy" in out and "lift" in out

    def test_discovers_period(self, series_file, capsys):
        code = main(["forecast", str(series_file), "--horizon", "5",
                     "--max-period", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "period: 12" in out


class TestPeriodsBases:
    def test_bases_collapse_harmonics(self, series_file, capsys):
        code = main(["periods", str(series_file), "--psi", "0.9",
                     "--max-period", "60", "--bases"])
        out = capsys.readouterr().out
        assert code == 0
        assert "base" in out and "harmonics:" in out


@pytest.mark.slow
class TestExperiment:
    @pytest.mark.parametrize("name", ["table2", "table3"])
    def test_quick_experiments_render(self, capsys, name):
        code = main(["experiment", name, "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["stream", "--psi", "0.5", "--window", "5"],
        ["stream", "--psi", "0.5", "--max-period", "0"],
        ["stream", "--psi", "0.5", "--top", "-2"],
        ["periods", "--psi", "0.5", "--max-period", "0"],
        ["periods", "--psi", "0.5", "--min-pairs", "0"],
        ["forecast", "--horizon", "0"],
        ["forecast", "--horizon", "3", "--max-period", "0"],
        ["forecast", "--horizon", "3", "--period", "0"],
    ],
    ids=["stream-window-under-cap", "stream-max-period-0", "stream-top-negative",
         "periods-max-period-0", "periods-min-pairs-0", "forecast-horizon-0",
         "forecast-max-period-0", "forecast-period-0"],
)
def test_bad_values_exit_2_with_error(tmp_path, capsys, argv):
    series = tmp_path / "series.txt"
    series.write_text("abc" * 10)
    command, *flags = argv
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(series), *flags])
    assert excinfo.value.code == 2
    assert "error: " in capsys.readouterr().err


def test_cli_import_pulls_in_no_process_pool():
    """Starting the CLI must not load multiprocessing or concurrent.futures."""
    probe = (
        "import sys, repro.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('multiprocessing', 'concurrent.futures'))))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert result.stdout.strip() == "[]"
