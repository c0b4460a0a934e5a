"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``datasets``                      — list the Table 5 dataset analogs with stats;
* ``run ALG DATASET``               — run one primitive on one dataset and
  print the per-system comparison (``--gpu``, ``--source``, ``--trace``);
* ``trace ALG DATASET``             — run once under the tracer and write a
  Chrome ``trace_event`` file for Perfetto (``--out``, ``--jsonl``,
  ``--mode``, ``--gpu``);
* ``profile ALG DATASET``           — run once and print wall-clock
  self-time, simulated-time attribution, and the metrics registry;
* ``experiment ID``                 — reproduce one paper artifact (``fig9`` ...);
* ``reproduce``                     — reproduce everything (``--quick`` subset);
* ``bench``                        — run the benchmark grid, write a
  schema-versioned ``BENCH_<tag>.json`` artifact with wall-clock stats,
  simulated metrics, a metrics snapshot and the paper-fidelity
  scoreboard; ``--compare BASELINE.json`` gates on regressions;
  ``--micro`` swaps the grid for the kernel-level microbenchmark
  suite (``BENCH_micro_<tag>.json``, same compare gating);
* ``serve``                         — long-lived HTTP simulation service
  (``POST /run``, ``GET /healthz``, ``GET /metrics``,
  ``GET /debug/requests``) with bounded admission, single-flight
  coalescing, run-cache reuse and per-request telemetry (``--port``,
  ``--workers``, ``--queue-depth``, ``--request-timeout``, ``--isolate``,
  ``--access-log``, ``--no-telemetry``); ``--store-dir`` adds the
  persistent L2 result store under the in-memory run cache;
* ``cluster``                       — N serve workers behind a
  consistent-hash front router: one simulation per unique request
  cluster-wide, a shared ``--store-dir`` L2 tier, health-checked
  workers and deterministic 503+retry on worker loss;
* ``loadtest``                      — reproducible closed/open-loop load
  generator against ``repro serve`` (in-process by default, ``--url``
  for a live one); writes ``BENCH_serve_<tag>.json`` with latency
  percentiles, throughput and coalesce/cache ratios; ``--compare``
  gates regressions (exit 2) and ``--slo`` gates absolute objectives
  (exit 3);
* ``synthesis``                     — per-component SCU area/power report;
* ``export DIR``                    — reproduce everything and write JSON+CSV;
* ``info``                          — show the simulated hardware configurations.
"""

from __future__ import annotations

import argparse
import sys
import time

from .algorithms import ALGORITHMS, SystemMode, run_algorithm
from .backends import IRU_CONFIGS, all_backends, available_modes
from .core.config import SCU_CONFIGS
from .errors import ReproError
from .gpu.config import GPU_SYSTEMS
from .graph.analysis import graph_stats
from .graph.datasets import DATASET_NAMES, DATASETS, load_dataset
from .core.area import render_synthesis_report
from .harness import (
    EXPERIMENTS,
    export_all,
    render_key_value,
    render_table,
    run_experiment,
)
from .obs import (
    NULL_METRICS,
    Observability,
    Tracer,
    make_observability,
    render_sim_profile,
    render_wall_profile,
    sim_profile,
    wall_profile,
)

QUICK_DATASETS = ("delaunay", "human", "kron")


def _cmd_datasets(_args) -> int:
    print(f"{'name':10s} {'description':34s} {'nodes':>8s} {'edges':>9s} {'avg deg':>8s}")
    for name in DATASET_NAMES:
        stats = graph_stats(load_dataset(name))
        print(
            f"{name:10s} {DATASETS[name].description:34s} "
            f"{stats.num_nodes:8d} {stats.num_edges:9d} {stats.average_degree:8.1f}"
        )
    return 0


def _selected_modes(args) -> list:
    """The system modes one ``repro run`` invocation simulates.

    The default sweeps every registered backend (in registry order);
    ``--mode NAME`` restricts the run to one of them.
    """
    if getattr(args, "mode", "all") == "all":
        return [SystemMode(name) for name in available_modes()]
    return [SystemMode(args.mode)]


def _run_modes_parallel(args, kwargs) -> list:
    """Shard the selected system modes across workers; reports in mode order."""
    from .harness.parallel import SweepCell, sweep_cells

    cells = [
        SweepCell(
            algorithm=args.algorithm,
            dataset=args.dataset,
            gpu=args.gpu,
            mode=mode,
            kwargs=tuple(sorted(kwargs.items())),
        )
        for mode in _selected_modes(args)
    ]
    outcomes = sweep_cells(cells, jobs=args.jobs)
    return [
        (outcome.cell.mode, outcome.payload.report, outcome.duration_s)
        for outcome in outcomes
    ]


def _cmd_run(args) -> int:
    graph = load_dataset(args.dataset)
    print(f"{args.algorithm} on {graph} ({args.gpu})")
    kwargs = {}
    if args.source is not None and args.algorithm != "pagerank":
        kwargs["source"] = args.source
    # --trace writes only spans, so the run records no metrics.
    obs = Observability(tracer=Tracer(), metrics=NULL_METRICS) if args.trace else None
    if obs is None and args.jobs > 1:
        # Tracing needs one registry across all runs, so --trace
        # stays serial; otherwise the modes are independent simulations.
        runs = _run_modes_parallel(args, kwargs)
    else:
        runs = []
        for mode in _selected_modes(args):
            started = time.time()
            if obs is not None:
                with obs.tracer.span(f"run.{mode.value}", "cli", system=mode.value):
                    outcome = run_algorithm(
                        args.algorithm, graph, args.gpu, mode, obs=obs, **kwargs
                    )
            else:
                outcome = run_algorithm(
                    args.algorithm, graph, args.gpu, mode, **kwargs
                )
            runs.append((mode, outcome.report, time.time() - started))
    baseline = None
    for mode, report, elapsed in runs:
        if baseline is None:
            baseline = (report.time_s(), report.total_energy_j())
        print(
            f"  {mode.value:13s}: {report.time_s() * 1e3:9.3f} ms "
            f"({baseline[0] / report.time_s():5.2f}x)  "
            f"{report.total_energy_j() * 1e3:9.3f} mJ "
            f"({baseline[1] / report.total_energy_j():5.2f}x)  "
            f"[simulated in {elapsed:.1f}s]"
        )
    if obs is not None:
        obs.tracer.write_chrome(args.trace)
        print(f"trace written to {args.trace} (open in ui.perfetto.dev)")
    return 0


def _traced_single_run(args):
    """Shared by ``trace``/``profile``: one observed run, returns (obs, report)."""
    graph = load_dataset(args.dataset)
    mode = SystemMode(args.mode)
    obs = make_observability()
    with obs.tracer.span(
        args.algorithm, "cli",
        dataset=args.dataset, gpu=args.gpu, system=mode.value,
    ):
        outcome = run_algorithm(
            args.algorithm, graph, args.gpu, mode, obs=obs
        )
    return obs, outcome.report


def _cmd_trace_request(args) -> int:
    """One distributed, stitched trace of a simulated request.

    Mirrors what ``repro serve`` records per request, without a server:
    a client root span over ``sweep.cell`` spans (one per system mode),
    each bracketing the per-phase simulation spans its worker recorded.
    With ``--jobs`` the cells fork, so the stitched trace demonstrates
    the cross-process protocol: worker spans come back trace-less over
    the result pipe and are adopted under the originating cell span.
    """
    import json as json_mod

    from .harness.parallel import SweepCell, stitch_cell_spans, sweep_cells
    from .obs import (
        SpanRecord,
        count_sim_phase_spans,
        make_context,
        perf_to_epoch_us,
        spans_to_chrome,
    )

    context = make_context()
    started = time.perf_counter()
    cells = [
        SweepCell(
            algorithm=args.algorithm,
            dataset=args.dataset,
            gpu=args.gpu,
            mode=mode,
            collect_spans=True,
        )
        for mode in SystemMode
    ]
    outcomes = sweep_cells(cells, jobs=args.jobs)
    spans = stitch_cell_spans(
        outcomes, trace_id=context.trace_id, parent_id=context.span_id
    )
    client_span = SpanRecord(
        trace_id=context.trace_id,
        span_id=context.span_id,
        parent_id=None,
        name="client.request",
        category="client",
        process="client",
        start_us=perf_to_epoch_us(started),
        duration_us=(time.perf_counter() - started) * 1e6,
        attributes={
            "algorithm": args.algorithm,
            "dataset": args.dataset,
            "gpu": args.gpu,
            "jobs": args.jobs,
        },
    )
    stitched = [client_span] + spans
    with open(args.out, "w") as handle:
        json_mod.dump(spans_to_chrome(stitched), handle, indent=1)
    processes = sorted({span.process for span in stitched})
    print(
        f"trace {context.trace_id}: {len(stitched)} spans "
        f"({count_sim_phase_spans(stitched)} simulation phases) "
        f"across {len(processes)} processes: {', '.join(processes)}"
    )
    print(f"stitched trace written to {args.out} (open in ui.perfetto.dev)")
    return 0


def _cmd_trace(args) -> int:
    if args.request:
        return _cmd_trace_request(args)
    obs, report = _traced_single_run(args)
    obs.tracer.write_chrome(args.out)
    print(
        f"{args.algorithm}/{args.dataset} ({args.mode}, {args.gpu}): "
        f"simulated {report.time_s() * 1e3:.3f} ms across {len(report.phases)} phases"
    )
    print(f"trace written to {args.out} (open in ui.perfetto.dev)")
    if args.jsonl:
        obs.tracer.write_jsonl(args.jsonl)
        print(f"span records written to {args.jsonl}")
    return 0


def _cmd_profile(args) -> int:
    obs, report = _traced_single_run(args)
    print(f"wall-clock profile — {args.algorithm}/{args.dataset} ({args.mode}):")
    print(render_wall_profile(wall_profile(obs.tracer.spans)))
    print()
    print("simulated-time attribution:")
    print(render_sim_profile(sim_profile(report)))
    print()
    print("metrics:")
    print(obs.metrics.render())
    return 0


def _cmd_experiment(args) -> int:
    kwargs = {}
    if args.quick and args.id in (
        "fig1", "fig9", "fig10", "fig11", "fig12", "fig13", "headline", "iru"
    ):
        kwargs["datasets"] = QUICK_DATASETS
    print(render_table(run_experiment(args.id, **kwargs)))
    return 0


def _cmd_reproduce(args) -> int:
    for experiment_id in EXPERIMENTS:
        namespace = argparse.Namespace(id=experiment_id, quick=args.quick)
        _cmd_experiment(namespace)
        print()
    return 0


#: Exit code of ``bench --compare`` when a regression is detected.
EXIT_REGRESSION = 2


def _gate(report, baseline_path: str) -> int:
    """Print a ``--compare`` report; :data:`EXIT_REGRESSION` if it found any.

    Every command loads its ``--compare`` baseline before it runs, so a
    missing or corrupt baseline fails at once, with no artifact written.
    """
    print()
    print(render_table(report.table()))
    if not report.ok:
        print(
            f"REGRESSION against {baseline_path}: "
            f"{len(report.regressions)} finding(s)",
            file=sys.stderr,
        )
        return EXIT_REGRESSION
    print(f"no regression against {baseline_path}")
    return 0


def _cmd_bench_micro(args) -> int:
    from .bench import (
        MicroArtifact,
        compare_micro_artifacts,
        run_micro,
        short_git_sha,
    )

    baseline = None if args.compare is None else MicroArtifact.load(args.compare)
    tag = args.tag or short_git_sha()
    progress = None if args.no_progress else (lambda line: print(line))
    print(f"micro kernels ({'quick' if args.quick else 'full'}, reps={args.reps}):")
    artifact = run_micro(
        quick=args.quick, reps=args.reps, tag=tag, progress=progress
    )
    out_path = args.out or f"BENCH_micro_{tag}.json"
    artifact.save(out_path)
    print(f"artifact written to {out_path} ({len(artifact.records)} kernels)")
    if baseline is None:
        return 0
    report = compare_micro_artifacts(
        baseline,
        artifact,
        sim_rtol=args.sim_tolerance,
        wall_tolerance_pct=args.wall_tolerance,
    )
    return _gate(report, args.compare)


def _cmd_bench(args) -> int:
    from .bench import (
        BenchArtifact,
        compare_artifacts,
        default_grid,
        run_bench,
        scoreboard_table,
        short_git_sha,
    )
    from .harness import clear_experiment_cache

    if args.micro:
        return _cmd_bench_micro(args)
    baseline = None if args.compare is None else BenchArtifact.load(args.compare)
    # Each bench run measures from a cold experiment cache so repeated
    # in-process invocations (--compare loops, tests) stay comparable.
    clear_experiment_cache()
    grid = default_grid(
        quick=args.quick,
        algorithms=args.algorithms,
        datasets=args.datasets,
        gpus=None if args.gpu == "both" else (args.gpu,),
        reps=args.reps,
    )
    tag = args.tag or short_git_sha()
    progress = None if args.no_progress else (lambda line: print(line))
    artifact = run_bench(
        grid,
        tag=tag,
        with_scoreboard=not args.no_scoreboard,
        progress=progress,
        jobs=args.jobs,
        cell_timeout_s=args.cell_timeout,
        retries=args.retries,
    )
    if artifact.scoreboard is not None:
        print()
        print(render_table(scoreboard_table(artifact.scoreboard)))
        print()
    out_path = args.out or f"BENCH_{tag}.json"
    artifact.save(out_path)
    print(f"artifact written to {out_path} ({len(artifact.records)} records)")
    if baseline is None:
        return 0
    report = compare_artifacts(
        baseline,
        artifact,
        sim_rtol=args.sim_tolerance,
        wall_tolerance_pct=args.wall_tolerance,
    )
    return _gate(report, args.compare)


def _cmd_serve(args) -> int:
    from .serve import ServiceConfig, run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        request_timeout_s=args.request_timeout,
        retry_after_s=args.retry_after,
        run_isolated=args.isolate,
        telemetry=not args.no_telemetry,
        access_log=args.access_log,
        journal_size=args.journal_size,
        tracing=not args.no_tracing,
        trace_capacity=args.trace_capacity,
        store_dir=args.store_dir,
        store_max_bytes=args.store_max_mb * 1024 * 1024,
    )
    return run_service(config)


def _cmd_cluster(args) -> int:
    from .serve import ClusterConfig, run_cluster

    config = ClusterConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        worker_threads=args.worker_threads,
        queue_depth=args.queue_depth,
        request_timeout_s=args.request_timeout,
        store_dir=args.store_dir,
        store_max_bytes=args.store_max_mb * 1024 * 1024,
        retry_after_s=args.retry_after,
        health_interval_s=args.health_interval,
    )
    return run_cluster(config)


#: Exit code of ``loadtest --slo`` when an objective is violated.
EXIT_SLO = 3


def _cmd_loadtest(args) -> int:
    from .bench import (
        LoadtestConfig,
        ServeArtifact,
        compare_serve_artifacts,
        evaluate_slo,
        parse_slo,
        run_loadtest,
        short_git_sha,
    )

    slo = parse_slo(args.slo or [])
    baseline = None if args.compare is None else ServeArtifact.load(args.compare)
    config = LoadtestConfig(
        mode=args.mode,
        requests=args.requests,
        clients=args.clients,
        rate=args.rate,
        keys=args.keys,
        zipf_s=args.zipf,
        seed=args.seed,
        workers=args.workers,
        queue_depth=args.queue_depth,
        request_timeout_s=args.request_timeout,
        cluster_workers=args.cluster,
        store_dir=args.store_dir,
    )
    tag = args.tag or short_git_sha()
    progress = None if args.no_progress else (lambda line: print(line))
    artifact = run_loadtest(
        config,
        url=args.url,
        tag=tag,
        progress=progress,
        trace_out=args.trace_out,
    )
    out_path = args.out or f"BENCH_serve_{tag}.json"
    artifact.save(out_path)
    print(f"artifact written to {out_path}")
    status = 0
    if baseline is not None:
        report = compare_serve_artifacts(
            baseline,
            artifact,
            latency_tolerance_pct=args.latency_tolerance,
            rate_tolerance=args.rate_tolerance,
        )
        status = _gate(report, args.compare)
    if slo:
        violations = evaluate_slo(artifact, slo)
        if violations:
            for violation in violations:
                print(
                    f"SLO VIOLATION: {violation.metric} = "
                    f"{violation.current} (limit {violation.baseline})",
                    file=sys.stderr,
                )
            status = status or EXIT_SLO
        else:
            print(f"all {len(slo)} SLO(s) met")
    return status


def _cmd_top(args) -> int:
    from .serve.console import run_top

    return run_top(
        args.url,
        interval_s=args.interval,
        once=args.once,
        plain=args.plain,
    )


def _cmd_synthesis(_args) -> int:
    for name in SCU_CONFIGS:
        print(render_synthesis_report(SCU_CONFIGS[name]))
        print()
    return 0


def _cmd_export(args) -> int:
    results = {}
    for experiment_id in EXPERIMENTS:
        kwargs = {}
        if args.quick and experiment_id in (
            "fig1", "fig9", "fig10", "fig11", "fig12", "fig13", "headline"
        ):
            kwargs["datasets"] = QUICK_DATASETS
        results[experiment_id] = run_experiment(experiment_id, **kwargs)
    written = export_all(results, args.directory)
    print(f"wrote {len(written)} files to {args.directory}")
    return 0


def _cmd_info(_args) -> int:
    rows = []
    for backend in all_backends():
        caps = backend.capabilities
        flags = ", ".join(
            name
            for name, on in (
                ("compaction-offload", caps.offloads_compaction),
                ("filtering", caps.filtering),
                ("grouping", caps.grouping),
                ("access-reorder", caps.reorders_accesses),
            )
            if on
        )
        rows.append((backend.name, backend.describe() + (f" [{flags}]" if flags else "")))
    print(render_key_value("Registered accelerator backends", rows))
    print()
    for name, config in GPU_SYSTEMS.items():
        print(render_key_value(f"GPU system: {name}", config.describe()))
        scu = SCU_CONFIGS[name]
        rows = scu.describe_table1() + scu.describe_table2()
        rows.append(("Synthesized Area", f"{scu.area_mm2:.2f} mm2"))
        print(render_key_value(f"SCU for {name}", rows))
        iru = IRU_CONFIGS[name]
        print(render_key_value(
            f"IRU for {name}",
            [
                ("Lanes", str(iru.lanes)),
                ("Clock", f"{iru.clock_hz / 1e9:.2f} GHz"),
                ("Reorder window", f"{iru.window_entries} entries"),
                ("Synthesized Area", f"{iru.area_mm2:.2f} mm2"),
            ],
        ))
        print()
    return 0


#: Options more than one command takes, declared once: ``serve`` and
#: ``cluster`` share a listener and its store, ``loadtest`` configures
#: the server it starts in-process, and ``bench`` and ``loadtest`` both
#: write and compare artifacts.  ``--port`` has a per-command default.
SHARED_OPTIONS = {
    "--host": dict(default="127.0.0.1", help="address to listen on (default 127.0.0.1)"),
    "--port": dict(
        type=int,
        help="TCP port to listen on (0 picks a free port; default %(default)s)",
    ),
    "--queue-depth": dict(
        type=int, default=8, metavar="N",
        help="admission-queue bound of each server; requests beyond it get "
        "a 429 with a Retry-After hint (default 8)",
    ),
    "--request-timeout": dict(
        type=float, default=None, metavar="SECONDS",
        help="per-request deadline inside each server; a request past it "
        "gets a 504 (default: none)",
    ),
    "--retry-after": dict(
        type=float, default=1.0, metavar="SECONDS",
        help="Retry-After hint attached to 429 and 503 rejections "
        "(default 1.0)",
    ),
    "--store-dir": dict(
        metavar="DIR", default=None,
        help="persistent L2 result-store directory, shared by every "
        "worker; a warm one serves cold starts byte-identical responses "
        "from disk (default: memory only)",
    ),
    "--store-max-mb": dict(
        type=int, default=256, metavar="MB",
        help="L2 store size bound; least-recently-used entries are "
        "evicted beyond it (default 256)",
    ),
    "--tag": dict(default=None, help="artifact tag (default: short git SHA)"),
    "--out": dict(
        default=None,
        help="artifact path (default BENCH_<tag>.json, BENCH_micro_<tag>.json "
        "or BENCH_serve_<tag>.json)",
    ),
    "--compare": dict(
        metavar="BASELINE.json", default=None,
        help="diff this run against a baseline artifact of the same kind; "
        "exit 2 on regression",
    ),
    "--no-progress": dict(action="store_true", help="suppress progress lines"),
}


def _add_shared(parser: argparse.ArgumentParser, *flags: str, **defaults) -> None:
    """Add the named :data:`SHARED_OPTIONS` to one command's parser."""
    for flag in flags:
        parser.add_argument(flag, **SHARED_OPTIONS[flag])
    parser.set_defaults(**defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SCU (ISCA 2019) reproduction — simulate, run, reproduce.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list dataset analogs").set_defaults(
        func=_cmd_datasets
    )

    run_parser = commands.add_parser("run", help="run one primitive")
    run_parser.add_argument("algorithm", choices=sorted(ALGORITHMS))
    run_parser.add_argument("dataset", choices=DATASET_NAMES)
    run_parser.add_argument("--gpu", choices=sorted(GPU_SYSTEMS), default="TX1")
    run_parser.add_argument("--source", type=int, default=None)
    run_parser.add_argument(
        "--mode",
        choices=["all", *available_modes()],
        default="all",
        help="restrict the run to one registered system mode "
        "(default: sweep them all)",
    )
    run_parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace of the selected system runs to PATH",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="simulate the selected system modes across N worker processes "
        "(ignored with --trace, which needs one shared trace registry)",
    )
    run_parser.set_defaults(func=_cmd_run)

    def add_traced_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("algorithm", choices=sorted(ALGORITHMS))
        sub.add_argument("dataset", choices=DATASET_NAMES)
        sub.add_argument("--gpu", choices=sorted(GPU_SYSTEMS), default="TX1")
        sub.add_argument(
            "--mode",
            choices=list(available_modes()),
            default=SystemMode.SCU_ENHANCED.value,
        )

    trace_parser = commands.add_parser(
        "trace", help="run once and write a Perfetto-loadable Chrome trace"
    )
    add_traced_arguments(trace_parser)
    trace_parser.add_argument("--out", default="trace.json")
    trace_parser.add_argument(
        "--jsonl",
        metavar="PATH",
        default=None,
        help="also write the span records as JSON lines",
    )
    trace_parser.add_argument(
        "--request", action="store_true",
        help="record a distributed, stitched trace instead: a client "
        "root span over one sweep cell per system mode, each carrying "
        "its per-phase simulation spans (--mode is ignored)",
    )
    trace_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="with --request: fork the cells across N workers, so the "
        "stitched trace shows real cross-process spans (default 1)",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    profile_parser = commands.add_parser(
        "profile", help="run once and print wall/simulated profiles + metrics"
    )
    add_traced_arguments(profile_parser)
    profile_parser.set_defaults(func=_cmd_profile)

    experiment_parser = commands.add_parser(
        "experiment", help="reproduce one paper artifact"
    )
    experiment_parser.add_argument("id", choices=sorted(EXPERIMENTS))
    experiment_parser.add_argument("--quick", action="store_true")
    experiment_parser.set_defaults(func=_cmd_experiment)

    reproduce_parser = commands.add_parser(
        "reproduce", help="reproduce every table and figure"
    )
    reproduce_parser.add_argument("--quick", action="store_true")
    reproduce_parser.set_defaults(func=_cmd_reproduce)

    bench_parser = commands.add_parser(
        "bench",
        help="run the benchmark grid, write a BENCH_<tag>.json artifact",
    )
    bench_parser.add_argument(
        "--quick", action="store_true",
        help="sweep the three-dataset quick grid instead of all six "
        "(with --micro: smaller kernel inputs, DRAM trace stays 100k)",
    )
    bench_parser.add_argument(
        "--micro", action="store_true",
        help="run the kernel-level microbenchmark suite instead of the "
        "grid; writes BENCH_micro_<tag>.json and supports the same "
        "--compare regression gate",
    )
    bench_parser.add_argument(
        "--algorithms", nargs="+", choices=("bfs", "sssp", "pagerank"),
        default=None, help="restrict the swept primitives",
    )
    bench_parser.add_argument(
        "--datasets", nargs="+", choices=DATASET_NAMES, default=None,
        help="restrict the swept datasets (overrides --quick's subset)",
    )
    bench_parser.add_argument(
        "--gpu", choices=sorted(GPU_SYSTEMS) + ["both"], default="both",
    )
    bench_parser.add_argument(
        "--reps", type=int, default=3,
        help="wall-clock repetitions per grid cell (default 3)",
    )
    bench_parser.add_argument(
        "--wall-tolerance", type=float, default=50.0, metavar="PCT",
        help="relative wall-clock slowdown tolerated by --compare "
        "(percent; <= 0 disables wall gating, e.g. across machines)",
    )
    bench_parser.add_argument(
        "--sim-tolerance", type=float, default=0.0, metavar="RTOL",
        help="relative tolerance for simulated metrics in --compare "
        "(default 0: exact, the determinism contract)",
    )
    bench_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard grid cells across N worker processes; results are "
        "merged in grid order, so simulated metrics and the scoreboard "
        "are identical for every N (default 1: in-process)",
    )
    bench_parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell deadline for parallel workers; a cell past the "
        "deadline is retried, then run in-process (default: none)",
    )
    bench_parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="extra worker attempts per failed/timed-out cell before "
        "the in-process fallback (default 1)",
    )
    bench_parser.add_argument(
        "--no-scoreboard", action="store_true",
        help="skip the paper-fidelity scoreboard sweep",
    )
    _add_shared(bench_parser, "--tag", "--out", "--compare", "--no-progress")
    bench_parser.set_defaults(func=_cmd_bench)

    serve_parser = commands.add_parser(
        "serve", help="run the long-lived HTTP simulation service"
    )
    _add_shared(
        serve_parser,
        "--host",
        "--port",
        "--queue-depth",
        "--request-timeout",
        "--retry-after",
        "--store-dir",
        "--store-max-mb",
        port=8765,
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent simulation workers (default 2)",
    )
    serve_parser.add_argument(
        "--isolate", action="store_true",
        help="simulate each request in a killable child process so the "
        "request timeout is a hard deadline",
    )
    serve_parser.add_argument(
        "--no-telemetry", action="store_true",
        help="disable per-request telemetry (the /debug/requests journal "
        "and stage-latency histograms); responses are byte-identical "
        "either way",
    )
    serve_parser.add_argument(
        "--access-log", metavar="PATH", default=None,
        help="append one JSON line per served request to PATH "
        "('-' for stderr; default: no access log)",
    )
    serve_parser.add_argument(
        "--journal-size", type=int, default=256, metavar="N",
        help="ring-buffer capacity of the /debug/requests journal "
        "(default 256)",
    )
    serve_parser.add_argument(
        "--no-tracing", action="store_true",
        help="disable distributed tracing (traceparent propagation and "
        "the /debug/trace span store); responses are byte-identical "
        "either way",
    )
    serve_parser.add_argument(
        "--trace-capacity", type=int, default=128, metavar="N",
        help="how many recent traces the span store retains (default 128)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    cluster_parser = commands.add_parser(
        "cluster",
        help="run N repro serve workers behind a consistent-hash front "
        "router (cluster-wide single-flight)",
    )
    _add_shared(
        cluster_parser,
        "--host",
        "--port",
        "--queue-depth",
        "--request-timeout",
        "--retry-after",
        "--store-dir",
        "--store-max-mb",
        port=8788,
    )
    cluster_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker daemons to spawn (default 2)",
    )
    cluster_parser.add_argument(
        "--worker-threads", type=int, default=2, metavar="N",
        help="simulation worker pool inside each daemon (default 2)",
    )
    cluster_parser.add_argument(
        "--health-interval", type=float, default=1.0, metavar="SECONDS",
        help="worker health sweep interval (default 1.0)",
    )
    cluster_parser.set_defaults(func=_cmd_cluster)

    loadtest_parser = commands.add_parser(
        "loadtest",
        help="drive a repro serve instance with a reproducible request "
        "mix; writes BENCH_serve_<tag>.json",
    )
    loadtest_parser.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed: N clients back-to-back; open: fixed arrival rate "
        "(default closed)",
    )
    loadtest_parser.add_argument(
        "--requests", type=int, default=120, metavar="N",
        help="total requests to issue (default 120)",
    )
    loadtest_parser.add_argument(
        "--clients", type=int, default=4, metavar="N",
        help="concurrent callers in closed-loop mode (default 4)",
    )
    loadtest_parser.add_argument(
        "--rate", type=float, default=20.0, metavar="RPS",
        help="arrivals per second in open-loop mode (default 20)",
    )
    loadtest_parser.add_argument(
        "--keys", type=int, default=12, metavar="N",
        help="distinct request keys in the population (default 12: the "
        "full default grid of one algorithm x three datasets x all "
        "registered modes)",
    )
    loadtest_parser.add_argument(
        "--zipf", type=float, default=1.1, metavar="S",
        help="zipf popularity exponent; 0 = uniform (default 1.1)",
    )
    loadtest_parser.add_argument(
        "--seed", type=int, default=42,
        help="schedule seed; same seed = same request sequence (default 42)",
    )
    loadtest_parser.add_argument(
        "--url", default=None, metavar="URL",
        help="target a running service instead of starting one in-process "
        "(which --workers, --cluster and the server options configure)",
    )
    loadtest_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="in-process server worker pool (ignored with --url; default 2)",
    )
    loadtest_parser.add_argument(
        "--cluster", type=int, default=0, metavar="N",
        help="drive an in-process N-worker cluster behind the "
        "consistent-hash front instead of a single server "
        "(ignored with --url; default 0 = single server)",
    )
    loadtest_parser.add_argument(
        "--latency-tolerance", type=float, default=300.0, metavar="PCT",
        help="relative latency slowdown tolerated by --compare "
        "(percent; <= 0 disables latency gating, e.g. across machines; "
        "default 300)",
    )
    loadtest_parser.add_argument(
        "--rate-tolerance", type=float, default=0.05, metavar="ABS",
        help="absolute increase in 429/504/error ratios tolerated by "
        "--compare (default 0.05)",
    )
    loadtest_parser.add_argument(
        "--slo", nargs="+", metavar="NAME=VALUE", default=None,
        help="absolute objectives (e.g. p99_ms=500 error_rate=0 "
        "throughput_rps=10); any violation exits 3",
    )
    loadtest_parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the slowest successful request's stitched Chrome "
        "trace (client span + server spans) to PATH",
    )
    _add_shared(
        loadtest_parser,
        "--queue-depth",
        "--request-timeout",
        "--store-dir",
        "--tag",
        "--out",
        "--compare",
        "--no-progress",
    )
    loadtest_parser.set_defaults(func=_cmd_loadtest)

    top_parser = commands.add_parser(
        "top",
        help="live ops console over a running repro serve (throughput, "
        "outcome mix, stage quantiles, slowest traces)",
    )
    top_parser.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="base URL of the service (default http://127.0.0.1:8765)",
    )
    top_parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="polling interval (default 2.0)",
    )
    top_parser.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (non-interactive/CI form)",
    )
    top_parser.add_argument(
        "--plain", action="store_true",
        help="clear-and-reprint instead of the curses UI",
    )
    top_parser.set_defaults(func=_cmd_top)

    commands.add_parser(
        "synthesis", help="per-component SCU area/power report"
    ).set_defaults(func=_cmd_synthesis)

    export_parser = commands.add_parser(
        "export", help="reproduce everything and write JSON+CSV"
    )
    export_parser.add_argument("directory")
    export_parser.add_argument("--quick", action="store_true")
    export_parser.set_defaults(func=_cmd_export)

    commands.add_parser("info", help="show hardware configurations").set_defaults(
        func=_cmd_info
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:  # unwritable --out/--jsonl/export paths
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
