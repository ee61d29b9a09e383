"""Engine micro-benchmarks: simulator throughput and analysis kernels.

Not a paper experiment -- these keep the infrastructure honest: the round
simulator's cost per round, the prefix-sum ring executor's advantage over
it, the ``Trim`` procedure's full pairwise sweep, the experiment runtime's
parallel-vs-serial sweep throughput, the compiled trajectory engine's
speedup over the reactive simulator, the unpruned cube engine's speedup
over the compiled one on the dense (all start pairs, wide delay grid)
sweep streamed as a flat list (the :mod:`repro.sim.batch` substrate's
vectorized passes), and the whole-cube tensor path's speedup over that
stream on the same sweep handed over as a ``ConfigCube`` (cross-label
tensor passes plus orbit/dominance pruning), and the front door
(``Scenario.run``, which shards the sweep through the runtime) against
that whole-cube path on the same sweep.  The engine comparison doubles
as the perf baseline:
``python benchmarks/bench_engine.py`` (or the pytest bench, or the CI
smoke job) rewrites ``BENCH_engine.json`` at the repository root so the
numbers are tracked PR over PR.
"""

import importlib.metadata
import json
import os
import pathlib
import platform
import statistics
import time

import repro.runtime.worker as worker_module
from repro.api import Scenario
from repro.core.cheap import CheapSimultaneous
from repro.core.fast import Fast, FastSimultaneous
from repro.exploration.ring import RingExploration
from repro.graphs.families import oriented_ring
from repro.lower_bounds.behaviour import behaviour_from_schedule
from repro.lower_bounds.ring_exec import meeting_round
from repro.lower_bounds.trim import trimmed_from_algorithm
from repro.obs import MemorySink, Telemetry
from repro.runtime import (
    AlgorithmSpec,
    GraphSpec,
    JobSpec,
    ParallelExecutor,
    SerialExecutor,
    canonical_json,
    execute_job,
)
from repro.sim.adversary import (
    ConfigCube,
    all_label_pairs,
    configurations,
    default_horizon,
    worst_case_search,
)
from repro.sim.batch import numpy_available
from repro.sim.compiled import TrajectoryTable
from repro.sim.simulator import simulate_rendezvous

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def machine_fingerprint() -> dict:
    """What the recorded seconds depend on besides the code."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _instrumented_search(engine, graph, algorithm, configs, horizon, prune=None):
    """One engine pass under an in-memory telemetry collector.

    Returns ``(report, elapsed_seconds, sink)``; the sink's gauges and
    counters source the per-stage breakdown recorded in the baseline.
    """
    sink = MemorySink()
    telemetry = Telemetry(sink)
    started = time.perf_counter()
    report = worst_case_search(
        graph,
        algorithm,
        configs,
        horizon,
        engine=engine,
        telemetry=telemetry,
        prune=prune,
    )
    elapsed = time.perf_counter() - started
    telemetry.close()
    return report, elapsed, sink


def _engine_stages(sink: MemorySink, engine: str) -> dict:
    """The per-stage split of one engine pass (from its telemetry)."""
    gauges = sink.gauge_values()
    if engine == "reactive":
        return {
            "search_seconds": round(
                sink.span_totals().get("reactive.search", 0.0), 4
            ),
        }
    stages = {
        "table_build_seconds": round(
            gauges.get(f"{engine}.table_build_seconds", 0.0), 4
        ),
        "scan_seconds": round(gauges.get(f"{engine}.scan_seconds", 0.0), 4),
    }
    counters = sink.counter_totals()
    if engine == "cube":
        stages["chunks"] = int(counters.get("cube.chunks", 0))
        stages["pruned_orbit_cells"] = int(
            counters.get("cube.prune.orbit_cells", 0)
        )
        stages["pruned_dominated_slices"] = int(
            counters.get("cube.prune.dominated_slices", 0)
        )
        stages["early_exit_rounds"] = int(
            counters.get("cube.prune.early_exit_rounds", 0)
        )
    return stages


def test_engine_simulator_round_throughput(benchmark):
    """Cost of a full two-agent simulation (~400 rounds on this config)."""
    ring = oriented_ring(24)
    algorithm = Fast(RingExploration(24), 16)
    result = benchmark(
        lambda: simulate_rendezvous(ring, algorithm, labels=(9, 14), starts=(0, 12))
    )
    assert result.met


def test_engine_ring_executor(benchmark):
    """The same execution on the prefix-sum executor (orders faster)."""
    n = 24
    algorithm = FastSimultaneous(RingExploration(n), 16)
    vec_a = behaviour_from_schedule(algorithm.schedule(9), n - 1)
    vec_b = behaviour_from_schedule(algorithm.schedule(14), n - 1)
    time = benchmark(lambda: meeting_round(vec_a, 0, vec_b, 12, n))
    assert time is not None


def test_engine_trim_sweep(benchmark):
    """Trim: one all-gaps walk per unordered label pair, L(L-1)/2 walks."""
    algorithm = CheapSimultaneous(RingExploration(12), 8)
    trimmed = benchmark(lambda: trimmed_from_algorithm(algorithm, 12))
    assert len(trimmed.labels) == 8


RUNTIME_JOB = JobSpec(
    algorithm=AlgorithmSpec("fast-sim", 8),
    graph=GraphSpec.make("ring", n=16),
    delays=(0,),
    fix_first_start=True,
)


def test_engine_runtime_serial_sweep(benchmark):
    """The sharded runtime on one in-process worker (840 simulations)."""
    outcome = benchmark(lambda: execute_job(RUNTIME_JOB, executor=SerialExecutor()))
    assert outcome.report.executions == RUNTIME_JOB.config_space_size()


def compiled_engine_baseline(path: pathlib.Path | None = BASELINE_PATH) -> dict:
    """Time the sweep engines against each other and record the baseline.

    The sweep is the hot path of every measured number in the paper:
    ordered label pairs x start pairs x delays on an oriented 16-ring with
    delay-tolerant Fast.  Two comparisons, each on the workload where the
    faster engine's advantage is the claim:

    * compiled vs reactive on the pinned-first-start sweep (2520
      configurations -- the reactive engine cannot afford more);
    * unpruned cube vs compiled on the dense sweep (all ordered start
      pairs, a wide delay grid -- the curve-assembly workload the NumPy
      substrate vectorizes) streamed as a flat list, skipped without
      NumPy;
    * whole-cube vs that unpruned stream on the same sweep, skipped
      without NumPy.

    All engines must produce *equal* reports on their workloads; the
    returned (and, unless ``path`` is None, written) baseline records
    configurations/s per engine and the speedups.
    """
    graph = oriented_ring(16)
    algorithm = Fast(RingExploration(16), 8)
    configs = list(
        configurations(
            graph, all_label_pairs(8), delays=(0, 3, 15), fix_first_start=True
        )
    )

    def horizon(config):
        return default_horizon(algorithm, config)

    reactive, reactive_seconds, reactive_sink = _instrumented_search(
        "reactive", graph, algorithm, configs, horizon
    )
    compiled, compiled_seconds, compiled_sink = _instrumented_search(
        "compiled", graph, algorithm, configs, horizon
    )

    assert compiled == reactive, "engines diverged; do not record a baseline"
    assert not reactive.failures

    # Rounds the reactive engine had to simulate: each execution runs to
    # its meeting time (cheap to recompute from the compiled timelines).
    table = TrajectoryTable(graph, algorithm)
    rounds = 0
    for config in configs:
        met_at, _ = table.evaluate(config, horizon(config))
        rounds += met_at if met_at is not None else horizon(config)

    baseline = {
        "benchmark": "worst-case sweep engine comparison",
        "machine": machine_fingerprint(),
        "compiled_vs_reactive": {
            "sweep": {
                "algorithm": "fast",
                "graph": "ring(n=16)",
                "label_space": 8,
                "delays": [0, 3, 15],
                "fix_first_start": True,
                "configurations": len(configs),
                "rounds_simulated": rounds,
            },
            "reactive": {
                "seconds": round(reactive_seconds, 4),
                "configs_per_s": round(len(configs) / reactive_seconds, 1),
                "rounds_per_s": round(rounds / reactive_seconds, 1),
                "stages": _engine_stages(reactive_sink, "reactive"),
            },
            "compiled": {
                "seconds": round(compiled_seconds, 4),
                "configs_per_s": round(len(configs) / compiled_seconds, 1),
                "stages": _engine_stages(compiled_sink, "compiled"),
            },
            "speedup": round(reactive_seconds / compiled_seconds, 2),
        },
        "unpruned_vs_compiled": unpruned_engine_baseline(graph, algorithm),
        "cube_vs_unpruned": cube_engine_baseline(graph, algorithm),
        "frontdoor_vs_cube": frontdoor_baseline(graph, algorithm),
        "runtime": runtime_baseline(),
        "reports_identical": True,
    }
    if path is not None:
        path.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


#: The dense unpruned-vs-compiled delay grid: wide enough that per-
#: configuration scanning, not trajectory compilation, dominates both.
DENSE_DELAYS = (0, 1, 2, 3, 5, 7, 11, 15)

#: Timed passes of a repeated row, after one untimed warm-up pass.
REPEATS = 5

#: The front door may take at most this many times the direct whole-cube
#: search on the dense sweep (sharding, horizon resolution, merge).
FRONTDOOR_MAX_RATIO = 3


def _warm_median(run):
    """One warm-up ``run()``, then :data:`REPEATS` timed ones.

    ``run`` returns ``(outcome, seconds, ...)``; the result is the last
    timed pass's tuple and the ``{median, min, max}`` seconds.
    """
    run()
    passes = [run() for _ in range(REPEATS)]
    seconds = sorted(outcome[1] for outcome in passes)
    spread = {
        "seconds": round(statistics.median(seconds), 4),
        "min_seconds": round(seconds[0], 4),
        "max_seconds": round(seconds[-1], 4),
        "repeats": REPEATS,
    }
    return passes[-1], spread


def _best_of_two(engine, graph, algorithm, workload, horizon, prune=None):
    """The faster of two passes (one ~100k-configuration pass is long
    enough to measure but still visibly jittery on shared CI runners).
    The stage breakdown recorded is the best pass's, so the stages sum to
    (roughly) the reported seconds."""
    best = None
    for _ in range(2):
        candidate = _instrumented_search(
            engine, graph, algorithm, workload, horizon, prune
        )
        if best is None or candidate[1] < best[1]:
            best = candidate
    return best


def unpruned_engine_baseline(graph, algorithm) -> dict | None:
    """Unpruned cube vs compiled on the dense (all start pairs) sweep.

    The unpruned cube engine gets the configurations as a flat list, so
    it streams them in chunks through the plain :mod:`repro.sim.batch`
    passes.  Returns ``None`` without NumPy -- the baseline then simply
    records no section, and the NumPy-free CI leg stays green.
    """
    if not numpy_available():
        return None
    configs = list(
        configurations(graph, all_label_pairs(8), delays=DENSE_DELAYS)
    )

    def horizon(config):
        return default_horizon(algorithm, config)

    compiled, compiled_seconds, compiled_sink = _best_of_two(
        "compiled", graph, algorithm, configs, horizon
    )
    unpruned, unpruned_seconds, unpruned_sink = _best_of_two(
        "cube", graph, algorithm, configs, horizon, prune=False
    )

    assert unpruned == compiled, "engines diverged; do not record a baseline"
    assert not unpruned.failures
    return {
        "sweep": {
            "algorithm": "fast",
            "graph": "ring(n=16)",
            "label_space": 8,
            "delays": list(DENSE_DELAYS),
            "fix_first_start": False,
            "configurations": len(configs),
        },
        "compiled": {
            "seconds": round(compiled_seconds, 4),
            "configs_per_s": round(len(configs) / compiled_seconds, 1),
            "stages": _engine_stages(compiled_sink, "compiled"),
        },
        "cube_unpruned": {
            "seconds": round(unpruned_seconds, 4),
            "configs_per_s": round(len(configs) / unpruned_seconds, 1),
            "stages": _engine_stages(unpruned_sink, "cube"),
        },
        "speedup": round(compiled_seconds / unpruned_seconds, 2),
    }


def cube_engine_baseline(graph, algorithm) -> dict | None:
    """Whole-cube vs the unpruned stream on the same dense sweep.

    The fast leg receives the space as a
    :class:`~repro.sim.adversary.ConfigCube` (the axes, not a flat
    stream), so its cross-label tensor pass and the orbit/dominance
    pruning engage; the unpruned leg scans the identical configurations
    as a flat stream.  Returns ``None`` without NumPy, like the unpruned
    section.
    """
    if not numpy_available():
        return None
    cube = ConfigCube.make(graph, all_label_pairs(8), delays=DENSE_DELAYS)
    configs = list(cube)

    def horizon(config):
        return default_horizon(algorithm, config)

    unpruned, unpruned_seconds, unpruned_sink = _best_of_two(
        "cube", graph, algorithm, configs, horizon, prune=False
    )
    (cube_report, _, cube_sink), cube_spread = _warm_median(
        lambda: _instrumented_search("cube", graph, algorithm, cube, horizon)
    )
    cube_seconds = cube_spread["seconds"]

    assert cube_report == unpruned, "engines diverged; do not record a baseline"
    assert not cube_report.failures
    return {
        "sweep": {
            "algorithm": "fast",
            "graph": "ring(n=16)",
            "label_space": 8,
            "delays": list(DENSE_DELAYS),
            "fix_first_start": False,
            "configurations": len(configs),
        },
        "cube_unpruned": {
            "seconds": round(unpruned_seconds, 4),
            "configs_per_s": round(len(configs) / unpruned_seconds, 1),
            "stages": _engine_stages(unpruned_sink, "cube"),
        },
        "cube": {
            **cube_spread,
            "configs_per_s": round(len(configs) / cube_seconds, 1),
            "stages": _engine_stages(cube_sink, "cube"),
        },
        "speedup": round(unpruned_seconds / cube_seconds, 2),
    }


def frontdoor_baseline(graph, algorithm) -> dict | None:
    """``Scenario.run`` vs the direct whole-cube search on the dense sweep.

    The front door plans 16 shards, hands each to the cube engine as a
    window of the sweep's :class:`~repro.sim.adversary.ConfigCube` and
    merges them; every pass starts from cold worker tables (in-process,
    ``workers=1``, no run store), as a fresh process would.  The kernel
    leg is ``worst_case_search(engine="cube")`` on the same cube, which
    builds its own table per call.  Both legs are timed as one warm-up
    plus the median of :data:`REPEATS`.  Returns ``None`` without NumPy.
    """
    if not numpy_available():
        return None
    cube = ConfigCube.make(graph, all_label_pairs(8), delays=DENSE_DELAYS)
    scenario = Scenario(
        graph="ring",
        graph_params={"n": 16},
        algorithm="fast",
        label_space=8,
        delays=DENSE_DELAYS,
        fix_first_start=False,
    )

    def horizon(config):
        return default_horizon(algorithm, config)

    def frontdoor():
        for memo in vars(worker_module).values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()
        started = time.perf_counter()
        run = scenario.run(engine="cube", workers=1, cache=False)
        return run, time.perf_counter() - started

    (run, _), door = _warm_median(frontdoor)
    (kernel_report, _, _), kernel = _warm_median(
        lambda: _instrumented_search("cube", graph, algorithm, cube, horizon)
    )
    row = run.row
    assert (row.executions, row.max_time, row.max_cost) == (
        kernel_report.executions,
        kernel_report.max_time,
        kernel_report.max_cost,
    ), "front door diverged from the kernel; do not record a baseline"
    assert row.worst_time_config == kernel_report.worst_time.config
    assert row.worst_cost_config == kernel_report.worst_cost.config
    return {
        "sweep": {
            "algorithm": "fast",
            "graph": "ring(n=16)",
            "label_space": 8,
            "delays": list(DENSE_DELAYS),
            "fix_first_start": False,
            "configurations": len(cube),
            "shards": run.stats.shards_total,
        },
        "frontdoor": {
            **door,
            "configs_per_s": round(len(cube) / door["seconds"], 1),
        },
        "cube": {
            **kernel,
            "configs_per_s": round(len(cube) / kernel["seconds"], 1),
        },
        "ratio": round(door["seconds"] / kernel["seconds"], 2),
    }


def runtime_baseline() -> dict:
    """The sharded runtime sweep, with its merge/store split measured.

    One serial pass of ``RUNTIME_JOB`` under an in-memory collector: the
    recorded stages are the span totals of the runner's own phases, so
    the baseline tracks where sharded-sweep wall-clock actually goes.
    """
    sink = MemorySink()
    telemetry = Telemetry(sink)
    started = time.perf_counter()
    outcome = execute_job(
        RUNTIME_JOB, executor=SerialExecutor(), telemetry=telemetry
    )
    elapsed = time.perf_counter() - started
    telemetry.close()
    spans = sink.span_totals()
    shard_events = sink.of_kind("event")
    shard_seconds = sum(
        event["attrs"].get("seconds", 0.0)
        for event in shard_events
        if event["name"] == "shard.complete"
    )
    return {
        "sweep": {
            "algorithm": "fast-sim",
            "graph": "ring(n=16)",
            "configurations": RUNTIME_JOB.config_space_size(),
            "shards": outcome.stats.shards_total,
        },
        "seconds": round(elapsed, 4),
        "stages": {
            "shard_seconds": round(shard_seconds, 4),
            "merge_seconds": round(spans.get("merge", 0.0), 4),
        },
    }


def test_engine_compiled_sweep_speedup(report):
    """Compiled trajectories must beat the reactive sweep by >= 10x, the
    unpruned cube stream the compiled one by >= 3x, the whole-cube path
    the unpruned stream by >= 10x, and the front door must stay within
    3x of the whole-cube path (the last three when NumPy is present).

    Also refreshes the ``BENCH_engine.json`` baseline, so running the
    bench suite keeps the recorded perf trajectory current.
    """
    baseline = compiled_engine_baseline()
    versus = baseline["compiled_vs_reactive"]
    lines = [
        f"adversary sweep: {versus['sweep']['configurations']} configurations, "
        f"{versus['sweep']['rounds_simulated']} simulated rounds",
        f"reactive {versus['reactive']['seconds'] * 1000:.0f} ms "
        f"({versus['reactive']['configs_per_s']:.0f} configs/s), "
        f"compiled {versus['compiled']['seconds'] * 1000:.0f} ms "
        f"({versus['compiled']['configs_per_s']:.0f} configs/s) "
        f"-> speedup x{versus['speedup']:.1f}",
    ]
    unpruned = baseline["unpruned_vs_compiled"]
    if unpruned is not None:
        lines.append(
            f"dense sweep ({unpruned['sweep']['configurations']} configurations): "
            f"compiled {unpruned['compiled']['seconds'] * 1000:.0f} ms, "
            f"cube unpruned {unpruned['cube_unpruned']['seconds'] * 1000:.0f} ms "
            f"({unpruned['cube_unpruned']['configs_per_s']:.0f} configs/s) "
            f"-> speedup x{unpruned['speedup']:.1f}"
        )
    cube = baseline["cube_vs_unpruned"]
    if cube is not None:
        lines.append(
            f"whole-cube sweep ({cube['sweep']['configurations']} "
            f"configurations): "
            f"cube unpruned {cube['cube_unpruned']['seconds'] * 1000:.0f} ms, "
            f"cube {cube['cube']['seconds'] * 1000:.0f} ms "
            f"({cube['cube']['configs_per_s']:.0f} configs/s) "
            f"-> speedup x{cube['speedup']:.1f}"
        )
    door = baseline["frontdoor_vs_cube"]
    if door is not None:
        lines.append(
            f"front door ({door['sweep']['shards']} shards): "
            f"Scenario.run {door['frontdoor']['seconds'] * 1000:.0f} ms, "
            f"cube {door['cube']['seconds'] * 1000:.0f} ms "
            f"-> ratio x{door['ratio']:.2f}"
        )
    report(lines)
    assert versus["speedup"] >= 10
    if unpruned is not None:
        assert unpruned["speedup"] >= 3
    if cube is not None:
        assert cube["speedup"] >= 10
    if door is not None:
        assert door["ratio"] <= FRONTDOOR_MAX_RATIO


def test_engine_runtime_parallel_speedup(benchmark, report):
    """The same sweep on a 4-worker process pool, with a speedup readout.

    On a single-core box the pool can only break even at best, so the
    assertion is on determinism (bit-identical reports), not on speedup;
    the measured ratio is printed for humans and the bench log.
    """
    serial_started = time.perf_counter()
    serial = execute_job(RUNTIME_JOB, executor=SerialExecutor())
    serial_seconds = time.perf_counter() - serial_started

    with ParallelExecutor(4) as executor:
        parallel = benchmark(lambda: execute_job(RUNTIME_JOB, executor=executor))
    assert canonical_json(parallel.report.to_dict()) == canonical_json(
        serial.report.to_dict()
    )
    parallel_seconds = benchmark.stats.stats.mean
    report([
        f"runtime sweep: {RUNTIME_JOB.config_space_size()} simulations, "
        f"{parallel.stats.shards_total} shards",
        f"serial {serial_seconds * 1000:.0f} ms, "
        f"parallel(4) {parallel_seconds * 1000:.0f} ms "
        f"-> speedup x{serial_seconds / parallel_seconds:.2f}",
    ])


if __name__ == "__main__":
    # The CI smoke job runs this directly (no pytest needed): regenerate
    # the baseline, print it, and fail loudly if the engines diverge or a
    # speedup regresses (compiled below 10x reactive; the unpruned cube
    # stream below 3x compiled, the whole-cube path below 10x the
    # unpruned stream and the front door above 3x the whole-cube path
    # whenever NumPy is installed).
    summary = compiled_engine_baseline()
    print(json.dumps(summary, indent=2))
    if summary["compiled_vs_reactive"]["speedup"] < 10:
        raise SystemExit(
            "compiled engine speedup regressed to "
            f"x{summary['compiled_vs_reactive']['speedup']}"
        )
    unpruned_summary = summary["unpruned_vs_compiled"]
    if unpruned_summary is None:
        print("numpy not installed: unpruned cube baseline skipped")
    elif unpruned_summary["speedup"] < 3:
        raise SystemExit(
            f"unpruned cube speedup regressed to x{unpruned_summary['speedup']}"
        )
    cube_summary = summary["cube_vs_unpruned"]
    if cube_summary is None:
        print("numpy not installed: cube engine baseline skipped")
    elif cube_summary["speedup"] < 10:
        raise SystemExit(
            f"cube engine speedup regressed to x{cube_summary['speedup']}"
        )
    door_summary = summary["frontdoor_vs_cube"]
    if door_summary is None:
        print("numpy not installed: front-door baseline skipped")
    elif door_summary["ratio"] > FRONTDOOR_MAX_RATIO:
        raise SystemExit(
            f"front door regressed to x{door_summary['ratio']} the cube kernel"
        )
