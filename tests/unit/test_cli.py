"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.algorithm == "dynamic"
        assert args.robots == 4

    def test_run_options(self):
        args = build_parser().parse_args(
            [
                "run",
                "--algorithm",
                "fixed",
                "--robots",
                "9",
                "--seed",
                "3",
                "--loss",
                "0.1",
                "--capacity",
                "5",
            ]
        )
        assert args.algorithm == "fixed"
        assert args.robots == 9
        assert args.loss == 0.1
        assert args.capacity == 5

    def test_figure_requires_valid_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "7"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "psychic"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


#: ``repro bench``'s entries: one per live fast path it guards.
KEPT_MICROBENCHMARKS = {
    "kernel_call_in",
    "spatial_within_cold",
    "channel_fanout_4robots",
    "channel_fanout_9robots",
    "channel_fanout_16robots",
    "channel_fanout_16robots_lossy",
    "distance_filter_scalar",
    "distance_filter_kernel",
}


class TestCommands:
    def test_bench_merges_into_existing_results(self, capsys, tmp_path):
        output = tmp_path / "BENCH_results.json"
        # The figure-bench conftest's section must survive the merge.
        foreign = {"fig2": {"wall_time_s": 1.5}}
        output.write_text(json.dumps({"benches": foreign}))
        assert main(["bench", "--quick", "--output", str(output)]) == 0
        results = json.loads(output.read_text())
        assert results["benches"] == foreign
        assert set(results["microbenchmarks"]) == KEPT_MICROBENCHMARKS
        assert "speedup" in results["microbenchmarks"]["distance_filter_kernel"]
        assert "geometry_kernels" not in results
        assert "sweep_throughput" not in results
        assert "distance_filter_kernel" in capsys.readouterr().out

    def test_bench_rewrites_unparseable_results(self, capsys, tmp_path):
        from repro.perf import merge_bench_results

        output = tmp_path / "BENCH_results.json"
        output.write_text("{not json")
        merge_bench_results(str(output), {"benches": {}})
        assert json.loads(output.read_text()) == {"benches": {}}
        assert "could not parse" in capsys.readouterr().err

    def test_params_prints_paper_table(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "Exp(16000 s)" in out
        assert "63 m @ 11 Mbps" in out
        assert "3 missed beacons" in out

    def test_run_small_scenario(self, capsys):
        exit_code = main(
            [
                "run",
                "--robots",
                "4",
                "--sim-time",
                "1500",
                "--seed",
                "5",
                "--algorithm",
                "centralized",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "motion overhead" in out
        assert "report delivery ratio" in out

    def test_run_with_energy_and_coverage(self, capsys):
        exit_code = main(
            [
                "run",
                "--robots",
                "4",
                "--sim-time",
                "1500",
                "--seed",
                "5",
                "--energy",
                "--coverage",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "motion energy" in out
        assert "coverage: mean" in out

    def test_run_writes_svg(self, capsys, tmp_path):
        svg_path = tmp_path / "field.svg"
        exit_code = main(
            [
                "run",
                "--robots",
                "4",
                "--sim-time",
                "1000",
                "--svg",
                str(svg_path),
            ]
        )
        assert exit_code == 0
        content = svg_path.read_text(encoding="utf-8")
        assert content.startswith("<svg")
        capsys.readouterr()

    def test_compare_prints_all_algorithms(self, capsys):
        exit_code = main(
            ["compare", "--robots", "4", "--sim-time", "1200", "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        for algorithm in ("centralized", "fixed", "dynamic"):
            assert algorithm in out
