"""Tests for the parallel sweep engine (repro.harness.parallel).

Covers the generic scheduler (ordering, retry after worker crash,
per-cell timeout, in-process fallback) with cheap synthetic workers,
and the simulation-cell layer's determinism contract: ``--jobs N``
produces byte-identical simulated metrics for every N.
"""

import os
import time

import pytest

from repro.algorithms.common import SystemMode
from repro.bench import run_bench
from repro.bench.runner import BenchGrid
from repro.errors import ExperimentError
from repro.harness import (
    EXPERIMENT_CACHE_SIZE,
    clear_experiment_cache,
    experiment_cache_len,
    prime_experiment_cache,
)
from repro.harness.parallel import (
    SweepCell,
    SweepFailure,
    run_sweep,
    simulate_cell,
    sweep_cells,
)

# ---------------------------------------------------------------------------
# Module-level workers (must be picklable by reference for fork dispatch)
# ---------------------------------------------------------------------------


def square(task):
    return task * task


def flaky_once(task):
    """Crash hard on the first attempt, succeed on the retry.

    ``task`` is ``(marker_path, value)``: the marker file records that a
    first attempt happened.  ``os._exit`` dies without sending a result,
    which is exactly what an OOM kill looks like to the scheduler.
    """
    marker, value = task
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted")
        os._exit(1)
    return value


def dies_in_workers(task):
    """Succeed only in the parent process — every worker attempt crashes."""
    parent_pid, value = task
    if os.getpid() != parent_pid:
        os._exit(1)
    return value


def hangs_in_workers(task):
    """Sleep past any deadline in workers, return instantly in the parent."""
    parent_pid, value = task
    if os.getpid() != parent_pid:
        time.sleep(60.0)
    return value


def always_raises(task):
    raise ValueError(f"bad task {task!r}")


class TestRunSweep:
    def test_serial_runs_in_process(self):
        outcomes = run_sweep([1, 2, 3], square, jobs=1)
        assert [o.value for o in outcomes] == [1, 4, 9]
        assert all(o.worker_pid == os.getpid() for o in outcomes)
        assert all(o.attempts == 1 and not o.fell_back for o in outcomes)

    def test_parallel_results_in_task_order(self):
        tasks = list(range(7))
        outcomes = run_sweep(tasks, square, jobs=3)
        assert [o.index for o in outcomes] == tasks
        assert [o.value for o in outcomes] == [t * t for t in tasks]

    def test_parallel_matches_serial(self):
        tasks = [3, 1, 4, 1, 5, 9]
        serial = [o.value for o in run_sweep(tasks, square, jobs=1)]
        parallel = [o.value for o in run_sweep(tasks, square, jobs=4)]
        assert serial == parallel

    def test_worker_crash_is_retried(self, tmp_path):
        marker = str(tmp_path / "first-attempt")
        (outcome,) = run_sweep(
            [(marker, 42)], flaky_once, jobs=2, retries=1
        )
        assert outcome.value == 42
        assert outcome.attempts == 2
        assert not outcome.fell_back

    def test_exhausted_retries_fall_back_in_process(self):
        task = (os.getpid(), 7)
        (outcome,) = run_sweep([task], dies_in_workers, jobs=2, retries=1)
        assert outcome.value == 7
        assert outcome.fell_back
        assert outcome.worker_pid == os.getpid()
        assert outcome.attempts == 3  # two worker crashes + the fallback

    def test_timeout_kills_worker_and_falls_back(self):
        task = (os.getpid(), 11)
        started = time.perf_counter()
        (outcome,) = run_sweep(
            [task], hangs_in_workers, jobs=2, timeout_s=0.5, retries=0
        )
        elapsed = time.perf_counter() - started
        assert outcome.value == 11
        assert outcome.fell_back
        assert elapsed < 30.0  # the 60 s worker sleep was cut short

    def test_worker_exception_propagates_via_fallback(self):
        # Retries exhaust, then the in-process fallback raises for real.
        with pytest.raises(ValueError, match="bad task"):
            run_sweep([1], always_raises, jobs=2, retries=0)

    def test_empty_task_list(self):
        assert run_sweep([], square, jobs=4) == []

    def test_no_fallback_timeout_raises_sweep_failure(self):
        task = (os.getpid(), 11)
        started = time.perf_counter()
        with pytest.raises(SweepFailure) as excinfo:
            run_sweep(
                [task], hangs_in_workers, jobs=2,
                timeout_s=0.5, retries=0, fallback=False,
            )
        elapsed = time.perf_counter() - started
        assert excinfo.value.reason == "timeout"
        assert excinfo.value.attempts == 1
        assert elapsed < 30.0  # hung worker was killed, never re-run inline

    def test_no_fallback_error_raises_sweep_failure_with_detail(self):
        with pytest.raises(SweepFailure) as excinfo:
            run_sweep([1], always_raises, jobs=2, retries=0, fallback=False)
        assert excinfo.value.reason == "error"
        assert "bad task" in str(excinfo.value)

    def test_no_fallback_crash_raises_sweep_failure(self):
        task = (os.getpid(), 7)
        with pytest.raises(SweepFailure) as excinfo:
            run_sweep([task], dies_in_workers, jobs=2, retries=1, fallback=False)
        assert excinfo.value.reason == "crashed"
        assert excinfo.value.attempts == 2  # initial attempt + one retry


# The smallest real simulation cell: BFS on the smallest dataset.
CELL = SweepCell(algorithm="bfs", dataset="human", gpu="TX1", mode=SystemMode.GPU)


def _sim_fingerprint(report):
    return (
        report.time_s(),
        report.total_energy_j(),
        report.dram_bytes(),
        report.instructions(),
        len(report.phases),
    )


class TestSweepCells:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ExperimentError, match="jobs"):
            sweep_cells([CELL], jobs=0)

    def test_serial_and_parallel_reports_identical(self):
        cells = [
            SweepCell(algorithm="bfs", dataset="human", gpu="TX1", mode=mode)
            for mode in SystemMode
        ]
        serial = sweep_cells(cells, jobs=1, prime_cache=False)
        parallel = sweep_cells(cells, jobs=2, prime_cache=False)
        assert [o.cell for o in serial] == cells
        assert [o.cell for o in parallel] == cells
        for a, b in zip(serial, parallel):
            assert _sim_fingerprint(a.payload.report) == _sim_fingerprint(
                b.payload.report
            )

    def test_reps_record_warmup_and_samples(self):
        cell = SweepCell(
            algorithm="bfs",
            dataset="human",
            gpu="TX1",
            mode=SystemMode.GPU,
            reps=2,
        )
        payload = simulate_cell(cell)
        assert len(payload.wall_samples) == 2
        assert payload.warmup_s is not None and payload.warmup_s > 0.0

    def test_no_reps_skips_wall_measurement(self):
        payload = simulate_cell(CELL)
        assert payload.wall_samples == ()
        assert payload.warmup_s is None

    def test_worker_metrics_come_back_with_the_payload(self):
        payload = simulate_cell(CELL)
        names = {entry["metric"] for entry in payload.metrics}
        assert any(name.startswith("mem.") for name in names)

    def test_sweep_primes_the_experiment_cache(self):
        clear_experiment_cache()
        sweep_cells([CELL], jobs=1)
        assert experiment_cache_len() == 1
        from repro.harness.experiments import _MEMO

        assert CELL.key in _MEMO

    def test_each_dataset_is_loaded_once_before_the_fork(self, monkeypatch):
        from repro.harness import parallel

        loads, loaded_at_fork = [], []
        # Forked workers inherit the stand-in too; their calls are not
        # seen here, and execute_request loads through its own binding.
        monkeypatch.setattr(
            parallel, "load_dataset", lambda name, seed: loads.append((name, seed))
        )
        run_sweep = parallel.run_sweep

        def spy(tasks, worker, **kwargs):
            loaded_at_fork.append(list(loads))
            return run_sweep(tasks, worker, **kwargs)

        monkeypatch.setattr(parallel, "run_sweep", spy)
        cells = [
            SweepCell(algorithm=algorithm, dataset=dataset, gpu="TX1", mode=SystemMode.GPU)
            for algorithm in ("bfs", "pagerank")
            for dataset in ("human", "delaunay")
        ]
        outcomes = sweep_cells(cells, jobs=2, prime_cache=False)
        assert [outcome.cell for outcome in outcomes] == cells
        assert loaded_at_fork == [[("delaunay", 42), ("human", 42)]]
        assert loads == [("delaunay", 42), ("human", 42)]


class TestExperimentCacheBound:
    def test_repeated_priming_stays_bounded(self):
        clear_experiment_cache()
        for sweep in range(3):
            for i in range(EXPERIMENT_CACHE_SIZE):
                prime_experiment_cache(f"fake-{sweep}-{i}", object())
            assert experiment_cache_len() <= EXPERIMENT_CACHE_SIZE
        clear_experiment_cache()

    def test_repeated_sweeps_do_not_grow_the_cache(self):
        clear_experiment_cache()
        sweep_cells([CELL], jobs=1)
        first = experiment_cache_len()
        sweep_cells([CELL], jobs=1)
        assert experiment_cache_len() == first
        clear_experiment_cache()


class TestRunBenchDeterminism:
    """The acceptance contract: --jobs N never changes simulated output."""

    @staticmethod
    def tiny_grid() -> BenchGrid:
        return BenchGrid(
            algorithms=("bfs",),
            datasets=("human",),
            gpus=("TX1",),
            modes=tuple(SystemMode),
            reps=1,
            quick=True,
        )

    def test_records_identical_across_jobs(self):
        clear_experiment_cache()
        serial = run_bench(self.tiny_grid(), tag="j1", with_scoreboard=False)
        clear_experiment_cache()
        parallel = run_bench(
            self.tiny_grid(), tag="j2", with_scoreboard=False, jobs=2
        )
        assert len(serial.records) == len(parallel.records) == len(SystemMode)
        for a, b in zip(serial.records, parallel.records):
            assert (a.algorithm, a.dataset, a.gpu, a.mode) == (
                b.algorithm,
                b.dataset,
                b.gpu,
                b.mode,
            )
            assert a.effective_mode == b.effective_mode
            assert a.sim.as_dict() == b.sim.as_dict()
            assert a.wall.warmup_s is not None

    def test_worker_sim_metrics_land_in_the_artifact(self):
        clear_experiment_cache()
        artifact = run_bench(
            self.tiny_grid(), tag="jm", with_scoreboard=False, jobs=2
        )
        names = {entry["metric"] for entry in artifact.metrics}
        assert any(name.startswith("mem.") for name in names)


# ---------------------------------------------------------------------------
# Span collection across forked workers (distributed tracing)
# ---------------------------------------------------------------------------

from repro.harness.parallel import stitch_cell_spans  # noqa: E402
from repro.obs.spans import (  # noqa: E402
    SpanRecord,
    count_sim_phase_spans,
    reparent_spans,
)

STITCH_TRACE = "9" * 32
STITCH_PARENT = "a" * 16


def flaky_spans(task):
    """Crash hard on the first attempt; ship a span batch on the retry.

    Models a traced worker that gets OOM-killed mid-cell: the scheduler
    must end up with only the *successful* attempt's spans (the crashed
    attempt never sent any), and those must still re-parent cleanly.
    """
    marker, label = task
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted")
        os._exit(1)
    root = SpanRecord(
        trace_id="",
        span_id="1" * 16,
        name=f"{label}.root",
        category="sim",
        process=f"worker-{os.getpid()}",
        start_us=1_000.0,
        duration_us=500.0,
    )
    child = SpanRecord(
        trace_id="",
        span_id="2" * 16,
        parent_id=root.span_id,
        name=f"{label}.child",
        category="gpu-kernel",
        process=root.process,
        start_us=1_100.0,
        duration_us=200.0,
    )
    return [root.to_dict(), child.to_dict()]


class TestSweepTracing:
    def test_spans_survive_worker_crash_and_reparent(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        (outcome,) = run_sweep(
            [(marker, "bfs")], flaky_spans, jobs=2, retries=1
        )
        assert outcome.attempts == 2  # crash, then the attempt that shipped
        assert not outcome.fell_back
        adopted = reparent_spans(
            outcome.value, trace_id=STITCH_TRACE, parent_id=STITCH_PARENT
        )
        by_name = {span.name: span for span in adopted}
        # The worker's root was adopted under the new parent; the edge
        # *inside* the batch survived the crash/retry round trip.
        assert by_name["bfs.root"].parent_id == STITCH_PARENT
        assert by_name["bfs.child"].parent_id == by_name["bfs.root"].span_id
        assert all(span.trace_id == STITCH_TRACE for span in adopted)

    def test_collect_spans_ships_trace_less_worker_spans(self):
        cell = SweepCell(
            algorithm="bfs",
            dataset="human",
            gpu="TX1",
            mode=SystemMode.GPU,
            collect_spans=True,
        )
        (outcome,) = sweep_cells([cell], jobs=2, prime_cache=False)
        spans = outcome.payload.spans
        assert spans  # per-phase spans came over the result pipe
        assert all(span["trace_id"] == "" for span in spans)
        assert all(span["process"].startswith("worker-") for span in spans)
        assert any(span["parent_id"] is None for span in spans)  # local roots

    def test_collect_spans_does_not_change_the_report(self):
        traced_cell = SweepCell(
            algorithm="bfs",
            dataset="human",
            gpu="TX1",
            mode=SystemMode.GPU,
            collect_spans=True,
        )
        (plain,) = sweep_cells([CELL], jobs=1, prime_cache=False)
        (traced,) = sweep_cells([traced_cell], jobs=1, prime_cache=False)
        assert plain.payload.spans == ()  # off by default: no pipe cost
        assert _sim_fingerprint(plain.payload.report) == _sim_fingerprint(
            traced.payload.report
        )

    def test_stitch_cell_spans_builds_one_trace(self):
        modes = list(SystemMode)[:2]
        cells = [
            SweepCell(
                algorithm="bfs",
                dataset="human",
                gpu="TX1",
                mode=mode,
                collect_spans=True,
            )
            for mode in modes
        ]
        outcomes = sweep_cells(cells, jobs=2, prime_cache=False)
        stitched = stitch_cell_spans(
            outcomes, trace_id=STITCH_TRACE, parent_id=STITCH_PARENT
        )
        cell_spans = [s for s in stitched if s.name == "sweep.cell"]
        assert len(cell_spans) == len(modes)
        assert [s.attributes["label"] for s in cell_spans] == [
            cell.label() for cell in cells
        ]
        assert all(s.parent_id == STITCH_PARENT for s in cell_spans)
        assert all(s.trace_id == STITCH_TRACE for s in stitched)
        # Every non-cell span chains back into the stitched tree ...
        span_ids = {s.span_id for s in stitched}
        assert all(
            s.parent_id in span_ids for s in stitched if s.name != "sweep.cell"
        )
        # ... and each cell span brackets its own children in time.
        by_id = {s.span_id: s for s in stitched}
        for span in stitched:
            if span.name == "sweep.cell":
                continue
            top = span
            while top.parent_id in by_id:
                top = by_id[top.parent_id]
            assert top.start_us <= span.start_us
            assert span.end_us <= top.end_us + 1.0  # float slack
        assert count_sim_phase_spans(stitched) >= len(modes)

    def test_stitch_without_spans_synthesizes_the_cell_bracket(self):
        (outcome,) = sweep_cells([CELL], jobs=1, prime_cache=False)
        (only,) = stitch_cell_spans([outcome], trace_id=STITCH_TRACE)
        assert only.name == "sweep.cell"
        assert only.parent_id is None
        assert only.duration_us >= 0.0
        assert only.attributes["label"] == CELL.label()
        assert only.attributes["attempts"] == outcome.attempts
