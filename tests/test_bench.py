"""Tests for the benchmark regression harness (repro.bench)."""

import json
import subprocess
from pathlib import Path

import pytest

from repro.bench import record as bench_record
from repro.bench import (
    SCHEMA_VERSION,
    BenchArtifact,
    BenchRecord,
    SimMetrics,
    WallStats,
    collect_provenance,
    compare_artifacts,
    evaluate_expectations,
)
from repro.bench.scoreboard import STATUS_FAIL, STATUS_PASS, STATUS_SKIP
from repro.errors import BenchError
from repro.harness import ExperimentResult
from repro.mem.hierarchy import MemoryStats
from repro.phases import Engine, PhaseKind, PhaseReport, RunReport


def make_report() -> RunReport:
    report = RunReport(algorithm="bfs", system="scu-enhanced", dataset="kron")
    report.add(
        PhaseReport(
            name="contract",
            engine=Engine.GPU,
            kind=PhaseKind.PROCESSING,
            elements=100,
            instructions=1000,
            time_s=0.002,
            dynamic_energy_j=0.01,
            memory=MemoryStats(
                accesses=400, transactions=100, dram_accesses=50, dram_bytes=1600
            ),
        )
    )
    report.add(
        PhaseReport(
            name="filter",
            engine=Engine.SCU,
            kind=PhaseKind.COMPACTION,
            elements=100,
            instructions=200,
            time_s=0.001,
            dynamic_energy_j=0.002,
            memory=MemoryStats(
                accesses=100, transactions=25, dram_accesses=10, dram_bytes=320
            ),
        )
    )
    report.static_energy_j = 0.005
    return report


def make_record(**overrides) -> BenchRecord:
    sim = SimMetrics.from_report(make_report(), gpu_clock_hz=1e9)
    if "sim" in overrides:
        sim_fields = sim.as_dict()
        sim_fields.update(overrides.pop("sim"))
        sim = SimMetrics(**sim_fields)
    fields = dict(
        algorithm="bfs",
        dataset="kron",
        gpu="TX1",
        mode="scu-enhanced",
        effective_mode="scu-enhanced",
        wall=WallStats.from_samples([0.10, 0.12, 0.11]),
        sim=sim,
    )
    fields.update(overrides)
    return BenchRecord(**fields)


def make_artifact(records, tag="test") -> BenchArtifact:
    return BenchArtifact(
        tag=tag,
        grid={"quick": True},
        provenance=collect_provenance(),
        records=list(records),
    )


class TestProvenance:
    def test_git_sha_names_the_package_checkout_once(self, tmp_path, monkeypatch):
        package_dir = Path(bench_record.__file__).resolve().parent
        try:
            head = subprocess.run(
                ["git", "-C", str(package_dir), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                check=False,
            )
        except OSError:
            pytest.skip("git is not installed")
        if head.returncode != 0:
            pytest.skip("the package is not in a git checkout")
        bench_record._git_sha.cache_clear()
        spawned = []
        run = subprocess.run

        def counting_run(command, *args, **kwargs):
            if command[0] == "git":
                spawned.append(command)
            return run(command, *args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        monkeypatch.chdir(tmp_path)  # outside any checkout
        first = collect_provenance()["git_sha"]
        second = collect_provenance()["git_sha"]
        assert first == second == head.stdout.strip()
        assert len(spawned) <= 1


class TestWallStats:
    def test_statistics(self):
        stats = WallStats.from_samples([0.4, 0.1, 0.3, 0.2])
        assert stats.reps == 4
        assert stats.min_s == 0.1
        assert stats.median_s == pytest.approx(0.25)
        assert stats.mean_s == pytest.approx(0.25)
        assert stats.iqr_s > 0.0

    def test_single_sample_degenerates(self):
        stats = WallStats.from_samples([0.5])
        assert stats.reps == 1
        assert stats.min_s == stats.median_s == stats.mean_s == 0.5
        assert stats.iqr_s == 0.0

    def test_empty_rejected(self):
        with pytest.raises(BenchError, match="at least one sample"):
            WallStats.from_samples([])

    def test_warmup_recorded_but_excluded_from_stats(self):
        stats = WallStats.from_samples([0.1, 0.1], warmup_s=5.0)
        assert stats.warmup_s == 5.0
        assert stats.reps == 2
        assert stats.min_s == stats.mean_s == 0.1  # warmup not pooled

    def test_warmup_defaults_to_none(self):
        assert WallStats.from_samples([0.1]).warmup_s is None


class TestSimMetrics:
    def test_from_report(self):
        sim = SimMetrics.from_report(make_report(), gpu_clock_hz=1e9)
        assert sim.sim_time_s == pytest.approx(0.003)
        assert sim.gpu_time_s == pytest.approx(0.002)
        assert sim.scu_time_s == pytest.approx(0.001)
        assert sim.gpu_cycles == pytest.approx(2e6)
        assert sim.total_energy_j == pytest.approx(0.017)
        assert sim.static_energy_j == pytest.approx(0.005)
        assert sim.instructions == 1200
        assert sim.gpu_instructions == 1000
        assert sim.dram_bytes == 1920
        assert sim.dram_transactions == 60
        assert sim.mem_transactions == 125
        assert sim.compaction_fraction == pytest.approx(1 / 3)

    def test_empty_report_has_null_fraction(self):
        sim = SimMetrics.from_report(
            RunReport(algorithm="bfs", system="gpu", dataset="kron"),
            gpu_clock_hz=1e9,
        )
        assert sim.compaction_fraction is None


class TestArtifactRoundTrip:
    def test_save_load(self, tmp_path):
        artifact = make_artifact([make_record()])
        artifact.metrics = [
            {"metric": "m", "kind": "counter", "labels": "", "value": 1.0}
        ]
        artifact.scoreboard = {
            "columns": ["expectation"], "rows": [["x"]],
            "passed": 1, "failed": 0, "skipped": 0,
        }
        path = artifact.save(tmp_path / "BENCH_test.json")
        loaded = BenchArtifact.load(path)
        assert loaded.schema_version == SCHEMA_VERSION
        assert loaded.tag == "test"
        assert loaded.records == artifact.records
        assert loaded.metrics == artifact.metrics
        assert loaded.scoreboard == artifact.scoreboard
        assert loaded.provenance["git_sha"] == artifact.provenance["git_sha"]

    def test_null_compaction_fraction_round_trips(self, tmp_path):
        record = make_record(sim={"compaction_fraction": None})
        path = make_artifact([record]).save(tmp_path / "a.json")
        assert "NaN" not in path.read_text()
        loaded = BenchArtifact.load(path)
        assert loaded.records[0].sim.compaction_fraction is None

    def test_warmup_round_trips(self, tmp_path):
        record = make_record(
            wall=WallStats.from_samples([0.1, 0.1], warmup_s=0.7)
        )
        path = make_artifact([record]).save(tmp_path / "w.json")
        loaded = BenchArtifact.load(path)
        assert loaded.records[0].wall.warmup_s == 0.7

    def test_pre_warmup_artifact_loads_with_none(self, tmp_path):
        # Artifacts written before the warmup_s field existed have no
        # such key; they must keep loading (same schema version).
        payload = make_artifact([make_record()]).to_dict()
        del payload["records"][0]["wall"]["warmup_s"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        loaded = BenchArtifact.load(path)
        assert loaded.records[0].wall.warmup_s is None

    def test_wrong_schema_version_rejected(self, tmp_path):
        payload = make_artifact([make_record()]).to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(BenchError, match="schema version"):
            BenchArtifact.load(path)

    def test_malformed_record_rejected(self, tmp_path):
        payload = make_artifact([make_record()]).to_dict()
        del payload["records"][0]["sim"]["total_energy_j"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(BenchError, match="record 0"):
            BenchArtifact.load(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(BenchError, match="no such artifact"):
            BenchArtifact.load(tmp_path / "absent.json")

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        with pytest.raises(BenchError, match="not a valid artifact"):
            BenchArtifact.load(path)


class TestCompare:
    def test_identical_artifacts_pass(self):
        base = make_artifact([make_record()])
        report = compare_artifacts(base, make_artifact([make_record()]))
        assert report.ok
        assert report.cells_compared == 1
        assert "verdict: OK" in "\n".join(report.table().notes)

    def test_sim_drift_is_a_regression_in_both_directions(self):
        base = make_artifact([make_record()])
        for factor in (0.5, 1.5):
            current = make_artifact(
                [make_record(sim={"total_energy_j": 0.017 * factor})]
            )
            report = compare_artifacts(base, current)
            assert not report.ok
            (finding,) = report.regressions
            assert finding.verdict == "SIM-DRIFT"
            assert finding.metric == "total_energy_j"

    def test_sim_tolerance_absorbs_tiny_drift(self):
        base = make_artifact([make_record()])
        current = make_artifact(
            [make_record(sim={"total_energy_j": 0.017 * (1 + 1e-9)})]
        )
        assert not compare_artifacts(base, current).ok
        assert compare_artifacts(base, current, sim_rtol=1e-6).ok

    def test_wall_regression_beyond_threshold(self):
        base = make_artifact([make_record()])
        slow = make_record(wall=WallStats.from_samples([0.30, 0.33, 0.31]))
        report = compare_artifacts(
            base, make_artifact([slow]), wall_tolerance_pct=50.0
        )
        assert not report.ok
        (finding,) = report.regressions
        assert finding.verdict == "WALL-REGRESSION"
        assert finding.metric == "wall.median_s"

    def test_wall_speedup_is_an_improvement_not_a_regression(self):
        base = make_artifact([make_record()])
        fast = make_record(wall=WallStats.from_samples([0.01, 0.012, 0.011]))
        report = compare_artifacts(base, make_artifact([fast]))
        assert report.ok
        assert len(report.improvements) == 1

    def test_nonpositive_tolerance_disables_wall_gating(self):
        base = make_artifact([make_record()])
        slow = make_record(wall=WallStats.from_samples([9.0]))
        report = compare_artifacts(
            base, make_artifact([slow]), wall_tolerance_pct=0.0
        )
        assert report.ok

    def test_missing_cell_is_a_regression(self):
        base = make_artifact([make_record(), make_record(dataset="human")])
        report = compare_artifacts(base, make_artifact([make_record()]))
        assert not report.ok
        (finding,) = report.regressions
        assert finding.verdict == "MISSING"
        assert "human" in finding.cell

    def test_new_cells_are_informational(self):
        base = make_artifact([make_record()])
        current = make_artifact([make_record(), make_record(dataset="human")])
        report = compare_artifacts(base, current)
        assert report.ok
        assert report.cells_added == 1


class TestScoreboardEvaluation:
    """evaluate_expectations is pure — test it on synthetic results."""

    @staticmethod
    def fig12(avg: float, per_dataset: float = 20.0) -> ExperimentResult:
        result = ExperimentResult(
            "fig12", "grouping", ("dataset", "improvement_pct")
        )
        result.add_row("delaunay", per_dataset)
        result.add_row("AVG", avg)
        return result

    def status_of(self, table: ExperimentResult, expectation_id: str) -> str:
        for row in table.rows:
            if row[0] == expectation_id:
                return row[-1]
        raise AssertionError(f"{expectation_id} not in scoreboard")

    def test_pass_and_skip(self):
        table = evaluate_expectations({"fig12": self.fig12(avg=20.0)})
        assert self.status_of(table, "fig12.coalescing_improvement.avg") == STATUS_PASS
        assert self.status_of(table, "fig12.coalescing_improvement.min") == STATUS_PASS
        # experiments that were not run are skipped, not failed
        assert self.status_of(table, "headline.speedup.TX1") == STATUS_SKIP

    def test_out_of_band_value_fails(self):
        table = evaluate_expectations({"fig12": self.fig12(avg=5.0)})
        assert self.status_of(table, "fig12.coalescing_improvement.avg") == STATUS_FAIL

    def test_summary_note_counts(self):
        table = evaluate_expectations({"fig12": self.fig12(avg=20.0)})
        assert any("2 pass" in note for note in table.notes)
