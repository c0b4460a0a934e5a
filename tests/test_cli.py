"""Tests for the command-line interface."""

import contextlib
import io
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(["run", "bfs", "kron", "--gpu", "GTX980"])
        args2 = build_parser().parse_args(["run", "sssp", "ca", "--source", "3"])
        assert args.algorithm == "bfs" and args.gpu == "GTX980"
        assert args2.source == 3

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "dfs", "kron"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bfs", "twitter"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig12", "--quick"])
        assert args.id == "fig12" and args.quick


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("ca", "cond", "delaunay", "human", "kron", "msdoor"):
            assert name in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "GTX980" in out and "TX1" in out
        assert "13.27 mm2" in out and "3.65 mm2" in out

    def test_run(self, capsys):
        assert main(["run", "bfs", "human"]) == 0
        out = capsys.readouterr().out
        assert "scu-enhanced" in out and "mJ" in out

    def test_run_pagerank_ignores_source(self, capsys):
        assert main(["run", "pagerank", "human", "--source", "5"]) == 0

    def test_experiment_table(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Vector Buffering" in out

    def test_experiment_figure_quick(self, capsys):
        assert main(["experiment", "fig12", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "AVG" in out


class TestBenchCommand:
    """`repro bench` on a minimal grid (one dataset, one GPU).

    Simulation runs are memoized process-wide, so the first test pays
    the sweep and the rest mostly re-time the wall-clock reps.
    """

    BASE = ["bench", "--datasets", "delaunay", "--gpu", "TX1",
            "--reps", "1", "--no-progress"]

    @pytest.fixture(scope="class")
    def quick_run(self, tmp_path_factory):
        """One quick sweep with its scoreboard: the smoke test's artifact,
        and the baseline both compare tests read."""
        out_path = tmp_path_factory.mktemp("bench") / "BENCH_quick.json"
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(self.BASE + ["--quick", "--tag", "t", "--out", str(out_path)]) == 0
        return out_path, printed.getvalue()

    def test_quick_smoke_writes_valid_artifact(self, quick_run):
        out_path, out = quick_run
        doc = json.loads(out_path.read_text())
        assert doc["schema_version"] == 1
        assert doc["tag"] == "t"
        # --datasets overrides --quick's subset; 3 algorithms x the full
        # registered mode list (repro.backends.available_modes)
        assert doc["grid"]["datasets"] == ["delaunay"]
        assert len(doc["records"]) == 12
        record = doc["records"][0]
        assert record["wall"]["reps"] == 1
        assert record["sim"]["sim_time_s"] > 0
        assert record["sim"]["total_energy_j"] > 0
        assert doc["provenance"]["python"]
        assert doc["metrics"], "metrics snapshot must be embedded"
        assert doc["scoreboard"]["passed"] > 0
        assert "fidelity" in out and "artifact written" in out

    def test_compare_identical_baseline_passes(self, capsys, tmp_path, quick_run):
        baseline, _ = quick_run
        code = main(
            self.BASE
            + ["--out", str(tmp_path / "current.json"), "--no-scoreboard",
               "--compare", str(baseline), "--wall-tolerance", "0"]
        )
        assert code == 0
        assert "no regression" in capsys.readouterr().out

    def test_compare_detects_doctored_regression(self, capsys, tmp_path, quick_run):
        doc = json.loads(quick_run[0].read_text())
        doc["records"][0]["sim"]["total_energy_j"] *= 1.5
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(
            self.BASE
            + ["--out", str(tmp_path / "current.json"), "--no-scoreboard",
               "--compare", str(doctored), "--wall-tolerance", "0"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "SIM-DRIFT" in captured.out
        assert "total_energy_j" in captured.out
        assert "REGRESSION" in captured.err

    def test_compare_missing_baseline_errors(self, capsys, tmp_path):
        out = tmp_path / "c.json"
        code = main(
            self.BASE
            + ["--out", str(out), "--no-scoreboard",
               "--compare", str(tmp_path / "absent.json")]
        )
        assert code == 1
        assert "no such artifact" in capsys.readouterr().err
        # The baseline is loaded before the sweep: nothing ran.
        assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["bench", "--micro", "--quick", "--reps", "1", "--no-progress"],
        ["loadtest", "--requests", "4", "--no-progress"],
    ],
    ids=["micro", "loadtest"],
)
def test_missing_compare_baseline_fails_before_running(capsys, tmp_path, command):
    out = tmp_path / "out.json"
    code = main(command + ["--out", str(out), "--compare", str(tmp_path / "absent.json")])
    assert code == 1
    assert "no such artifact" in capsys.readouterr().err
    assert not out.exists()


class TestObservabilityCommands:
    def test_trace_writes_chrome_file(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "bfs", "human", "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        events = doc["traceEvents"]
        # complete span events, with the frontier counter on their track
        assert events and {"X", "C"} <= {e["ph"] for e in events}
        assert any(e["name"] == "frontier.size" for e in events if e["ph"] == "C")
        assert "perfetto" in capsys.readouterr().out

    def test_trace_jsonl_sidecar(self, tmp_path):
        out_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "bfs", "human", "--mode", "gpu",
             "--out", str(out_path), "--jsonl", str(jsonl_path)]
        ) == 0
        lines = jsonl_path.read_text().splitlines()
        assert lines and all(json.loads(line)["name"] for line in lines)

    def test_profile_prints_tables(self, capsys):
        assert main(["profile", "bfs", "human"]) == 0
        out = capsys.readouterr().out
        assert "wall-clock profile" in out
        assert "simulated-time attribution" in out
        assert "bfs.iteration" in out
        assert "frontier.size" in out

    def test_run_with_trace_flag(self, capsys, tmp_path):
        out_path = tmp_path / "run-trace.json"
        assert main(["run", "bfs", "human", "--trace", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        # one top-level span per system mode, all in the same trace
        assert {"run.gpu", "run.scu-basic", "run.scu-enhanced"} <= names
