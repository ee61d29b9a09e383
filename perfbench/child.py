"""The benchmark's measuring process: one fresh interpreter per job.

``run.py`` never imports the program; it starts this script once per job
so that set-up is timed from a fresh interpreter and peak memory covers
only the measured process and its pool children.  Modes::

    child.py setup     <workload> <seed> <work_dir>
    child.py reference <workload> <seed> <workers> <out.json>
    child.py measure   <workload> <seed> <seconds> <work_dir>
    child.py trace     <workload> <seed> <work_dir> <traced: 0|1>

Each prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402 -- the set-up clock starts before any import
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, patched, span_function, span_generator  # noqa: E402


def emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def fingerprint() -> dict:
    from importlib import metadata

    import repro
    from repro.sim import batch

    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "numpy_importable": batch.numpy_available(),
        "repro": repro.__version__,
    }


def warm_up(workload: str, inputs: dict, work_dir: str) -> None:
    """Set-up after the inputs are built: the first operation is then ready.

    One tiny call per scenario through the same front door finishes the
    program's lazy imports, and on ``store-mixed`` opens a throwaway store
    of each backend.  The tables it builds are dropped again (see
    :func:`workloads.cold_tables`), so pool start and table builds stay
    in every measured operation.  ``campaign-full`` warms nothing: every
    pass is a fresh process, like ``python -m repro experiments run``.
    """
    if workload == "campaign-full":
        return
    tiny = [
        (name, sc.with_overrides(label_pairs=[(1, 2)]))
        for name, sc in inputs["scenarios"]
    ]
    workloads.sweep_pass({"scenarios": tiny})
    if workload == "store-mixed":
        _name, sc = tiny[0]
        for backend in workloads.STORE_BACKENDS:
            root = tempfile.mkdtemp(prefix=f"warm-{backend}-", dir=work_dir)
            try:
                sc.run(workers=1, shard_count=1, cache=f"{backend}:{root}")
            finally:
                shutil.rmtree(root, ignore_errors=True)
    workloads.cold_tables()


def measure(workload: str, seed: int, seconds: float, work_dir: str) -> dict:
    """Whole passes over the inputs for about ``seconds``.

    A pass starts while it would end, by the last pass's length, no more
    than half a pass past ``seconds``.

    Reports each operation's measured ``seconds`` and, per pass, the
    speed probes taken between its operations (see
    :class:`workloads.SpeedProbe`).
    """
    inputs = workloads.make_inputs(workload, seed)
    warm_up(workload, inputs, work_dir)
    probe = inputs["probe"] = workloads.SpeedProbe()
    passes = []
    started = time.perf_counter()
    def more() -> bool:
        elapsed = time.perf_counter() - started
        return not passes or elapsed + passes[-1]["wall_s"] / 2 < seconds

    while more():
        first = len(probe.points)
        pass_started = time.perf_counter()
        records = workloads.run_pass(workload, inputs, work_dir)
        passes.append({
            "wall_s": time.perf_counter() - pass_started,
            "records": records,
            "probes": [loop for _at, loop in probe.points[first:]],
        })
    return {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb(),
        "fingerprint": fingerprint(),
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def layer_wrappers(tracer: Tracer) -> list:
    """Every public boundary the traced pass opens a span at."""
    import repro.api as api
    import repro.experiments.campaign as campaign
    import repro.lower_bounds.certificates as certificates
    import repro.runtime.executor as executor
    import repro.runtime.report as report
    import repro.runtime.store.query as query
    import repro.runtime.worker as worker
    import repro.sim.adversary as adversary
    import repro.sim.batch as batch
    from repro.runtime.spec import AlgorithmSpec, GraphSpec, JobSpec
    from repro.runtime.store import JsonlBackend, SqliteBackend
    from repro.sim.simulator import Simulator

    def fn(name):
        return lambda original: span_function(tracer, original, name)

    def gen(name):
        return lambda original: span_generator(tracer, original, name)

    def experiment_name(experiment, *args, **kwargs):
        return f"experiments.{getattr(experiment, 'id', experiment)}_s"

    return [
        (api.Scenario, "run", fn("api.scenario_run_s")),
        (api.Scenario, "__post_init__", fn("api.resolve_s")),
        (api.Scenario, "job_spec", fn("api.resolve_s")),
        (api, "resolve_sim_engine", fn("api.resolve_s")),
        (api, "resolve_engine", fn("api.resolve_s")),
        (api, "resolve_store", fn("api.resolve_s")),
        (GraphSpec, "build", fn("graphs.build_s")),
        (AlgorithmSpec, "build", fn("core.algorithm_build_s")),
        (executor, "plan_shards", fn("runtime.executor.plan_s")),
        (executor.SerialExecutor, "map_shards", gen("runtime.executor.map_shards_s")),
        (executor.ParallelExecutor, "map_shards", gen("runtime.executor.map_shards_s")),
        (worker, "run_shard", fn("runtime.worker.run_shard_s")),
        (JobSpec, "iter_shard", gen("runtime.spec.iter_shard_s")),
        (adversary, "default_horizon", fn("sim.adversary.horizon_s")),
        (adversary, "worst_case_search", fn("sim.adversary.search_s")),
        (batch, "evaluate_stream", gen("sim.batch.evaluate_stream_s")),
        (report, "merge_reports", fn("runtime.report.merge_s")),
        (JsonlBackend, "load", fn("runtime.store.load_s.jsonl")),
        (JsonlBackend, "append", fn("runtime.store.append_s.jsonl")),
        (SqliteBackend, "load", fn("runtime.store.load_s.sqlite")),
        (SqliteBackend, "append", fn("runtime.store.append_s.sqlite")),
        (query, "query_payload", fn("runtime.store.query_s")),
        (campaign.Campaign, "run", fn("experiments.campaign_s")),
        (campaign, "run_experiment", fn(experiment_name)),
        (Simulator, "run", fn("sim.simulator.simulate_s")),
        (certificates, "certify_theorem_31", fn("lower_bounds.certify_s")),
        (certificates, "certify_theorem_32", fn("lower_bounds.certify_s")),
    ]


def kernel_probe(name: str, sc) -> dict:
    """A direct ``worst_case_search(engine="cube")`` on the scenario's cube.

    The record's ``seconds`` is the median of three kernel times (table
    build included) and ``build_s`` the median time spent building tables.
    """
    from repro.sim.adversary import (
        ConfigCube,
        all_label_pairs,
        default_horizon,
        worst_case_search,
    )
    from repro.sim.batch import BatchTimelineTable
    from repro.sim.cube import CubeTimelineTable

    graph = sc.build_graph()
    algorithm = sc.build_algorithm(graph)
    cube = ConfigCube.make(
        graph,
        all_label_pairs(sc.label_space),
        delays=sc.delays,
        fix_first_start=sc.resolved_fix_first_start,
    )

    def horizon(config):
        return default_horizon(algorithm, config)

    kernels, builds = [], []
    for _ in range(3):
        tracer = Tracer()
        wrappers = [
            (cls, "timelines", lambda f: span_function(tracer, f, "build"))
            for cls in (BatchTimelineTable, CubeTimelineTable)
        ]
        with patched(wrappers), tracer.root():
            report = worst_case_search(
                graph, algorithm, cube, max_rounds=horizon, engine="cube"
            )
        kernels.append(tracer.wall_s)
        builds.append(tracer.total_s.get("build", 0.0))
    return {
        "kind": "kernel",
        "key": name,
        "seconds": statistics.median(kernels),
        "build_s": statistics.median(builds),
        "configs": len(cube),
        "outputs": {"max_time": report.max_time, "max_cost": report.max_cost},
        "checks": {"executions": report.executions == len(cube)},
        "error": None,
    }


def trace(workload: str, seed: int, work_dir: str, traced: bool = True) -> dict:
    """One pass with wrappers installed (``traced=False``: without).

    Wrappers see every call only in-process, so sweeps run serially.  The
    orchestrator runs the untraced twin in its own fresh process so both
    passes start from the same cold state; the difference of their walls
    is the tracing overhead.  On the sweeps the front door is then timed
    with its own defaults, each call cold as in the measured run, against
    a direct cube kernel on the same configurations.
    """
    inputs = workloads.make_inputs(workload, seed)
    warm_up(workload, inputs, work_dir)
    serial = {"workers": 1} if workload in workloads.SWEEPS else {}
    if not traced:
        started = time.perf_counter()
        records = workloads.run_pass(workload, inputs, work_dir, **serial)
        return {"wall_s": time.perf_counter() - started, "records": records}

    tracer = Tracer()
    with patched(layer_wrappers(tracer)), tracer.root():
        traced_records = workloads.run_pass(workload, inputs, work_dir, **serial)
    records = list(traced_records)

    layers = {name: seconds for name, seconds in tracer.self_s.items()}
    layers["trace.wall_s"] = tracer.wall_s
    layers["trace.unattributed_s"] = tracer.unattributed_s
    layers["runtime.executor.shards"] = tracer.calls.get("runtime.worker.run_shard_s", 0)
    layers["sim.simulator.calls"] = tracer.calls.get("sim.simulator.simulate_s", 0)
    layers["experiments.scenario_run_share"] = (
        tracer.total_s.get("api.scenario_run_s", 0.0) / tracer.wall_s
    )
    planned = sum(r.get("planned_shards", 0) for r in traced_records)
    if planned:
        hits = sum(r.get("hit_shards", 0) for r in traced_records)
        layers["runtime.store.hit_ratio"] = hits / planned
    for record in traced_records:
        if "store_bytes" in record:
            layers[f"runtime.store.bytes.{record['backend']}"] = record["store_bytes"]

    if workload in workloads.SWEEPS:
        front = workloads.sweep_pass(inputs)
        records += front
        kernels = [kernel_probe(name, sc) for name, sc in inputs["scenarios"]]
        records += kernels
        for door, kernel in zip(front, kernels):
            layers[f"sweep.frontdoor_over_kernel.{kernel['key']}"] = (
                door["seconds"] / kernel["seconds"]
            )
        kernel_s = sum(kernel["seconds"] for kernel in kernels)
        layers["sim.cube.kernel_s"] = kernel_s
        layers["sim.cube.table_build_s"] = sum(kernel["build_s"] for kernel in kernels)
        layers["sim.cube.configs_per_s"] = (
            sum(kernel["configs"] for kernel in kernels) / kernel_s
        )

    return {
        "layers": layers,
        "self_s": dict(tracer.self_s),
        "records": records,
        "fingerprint": fingerprint(),
    }


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        warm_up(workload, workloads.make_inputs(workload, seed), argv[3])
        setup = time.perf_counter() - STARTED
        emit({"setup_s": setup, "spin_s": workloads.spin()})
    elif mode == "reference":
        workers, out = int(argv[3]), argv[4]
        reference = workloads.compute_reference(workload, seed, workers)
        with open(out + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(reference, handle, sort_keys=True)
        os.replace(out + ".tmp", out)
        emit({"reference": out})
    elif mode == "measure":
        emit(measure(workload, seed, float(argv[3]), argv[4]))
    elif mode == "trace":
        emit(trace(workload, seed, argv[3], argv[4] == "1"))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
