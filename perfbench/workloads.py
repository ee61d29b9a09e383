"""The benchmark's four workloads: seeded inputs, passes, references, gate.

Every workload drives the program through its public front door only:

* ``sweep-ring``    -- ``Scenario.run()`` with its defaults on rings, where
  cyclic symmetry lets orbit pruning shrink the ring32 kernel to a few
  percent of wall time, so the per-configuration runtime dominates (the
  ring64 ``cheap`` kernel, with its long schedules, stays large);
* ``sweep-torus``   -- the same front door on a torus and a lollipop,
  where no symmetry is declared and the kernel is a large share;
* ``campaign-full`` -- ``Campaign(quick=False, workers=1).run()``, exactly
  ``python -m repro experiments run``;
* ``store-mixed``   -- small cached sweeps written once into a fresh store
  and read back warm, plus one stored-run query, on both backends.

The seed draws the sweep delay grids and the ``store-mixed`` scenario set;
the program receives only the generated :class:`repro.api.Scenario`
objects.  ``campaign-full`` does not depend on the seed: its inputs are
fixed by ``repro/experiments/catalog.py``.

References come from an independent route (the ``compiled`` rung for
sweeps, the reactive simulator for the campaign) and are computed outside
any timed region; :func:`failures` compares every operation's canonical
output with them.  ``repro`` is imported lazily, inside the functions,
so the orchestrator can import this module without loading the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from typing import Any, Callable

WORKLOADS = ("sweep-ring", "sweep-torus", "campaign-full", "store-mixed")
SWEEPS = ("sweep-ring", "sweep-torus")

#: The seed that reproduces the engine bench's hand-picked delay grid.
DEFAULT_SEED = 0
BENCH_GRID = (0, 1, 2, 3, 5, 7, 11, 15)
GRID_SIZE = 8

#: name, graph family, graph params, algorithm, label space, pin first
#: start, node count (delays are drawn from ``[0, 2 * nodes)``).
SWEEP_TEMPLATES = {
    "sweep-ring": (
        ("ring32-fast", "ring", {"n": 32}, "fast", 8, False, 32),
        ("ring64-cheap", "ring", {"n": 64}, "cheap", 16, True, 64),
    ),
    "sweep-torus": (
        ("torus4x4-fast", "torus", {"rows": 4, "cols": 4}, "fast", 16, False, 16),
        (
            "lollipop8x8-fast",
            "lollipop",
            {"clique_size": 8, "tail_length": 8},
            "fast",
            8,
            False,
            16,
        ),
    ),
}

#: ``store-mixed``: every template answers 1,680 configurations with the
#: first start pinned; the last field is the number of delays drawn.
STORE_TEMPLATES = (
    ("ring16-fast", "ring", {"n": 16}, "fast", 8, True, 16, 2),
    ("ring11-cheap", "ring", {"n": 11}, "cheap", 8, True, 11, 3),
    ("torus4x4-fast", "torus", {"rows": 4, "cols": 4}, "fast", 8, True, 16, 2),
    ("ring8-cheap", "ring", {"n": 8}, "cheap", 6, True, 8, 8),
)
STORE_BACKENDS = ("jsonl", "sqlite")
STORE_SHARDS = 64
#: ``(kind, backend)`` operations that are run and gated but left out of
#: the end-to-end times.  A cold SQLite write is about three quarters
#: fsync latency (one commit per shard), which on shared hosts drifts
#: twofold within minutes (0.19-0.43 s per write, measured on a 2-CPU
#: host); the traced run reports its cost as ``runtime.store.append_s.sqlite``.
UNTIMED = {("store-write", "sqlite")}
#: Warm reads per write.  Two keeps the 90th percentile of the timed
#: operations on the cold JSONL writes and the median on the reads.
STORE_READS = 2


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def delay_grid(seed: int, name: str, nodes: int, count: int = GRID_SIZE) -> tuple:
    """``count`` distinct delays from ``[0, 2 * nodes)``, drawn from the seed."""
    if seed == DEFAULT_SEED:
        return BENCH_GRID[:count]
    rng = random.Random(f"perfbench:{seed}:{name}")
    return tuple(sorted(rng.sample(range(2 * nodes), count)))


def _scenario(template: tuple, delays: tuple):
    from repro.api import Scenario

    _name, graph, params, algorithm, labels, pinned = template[:6]
    return Scenario(
        graph=graph,
        graph_params=params,
        algorithm=algorithm,
        label_space=labels,
        delays=delays,
        fix_first_start=pinned,
    )


def _plan(workload: str, seed: int) -> list[tuple[tuple, tuple]]:
    """``(template, delays)`` per scenario of a sweep or store workload."""
    if workload in SWEEPS:
        return [(t, delay_grid(seed, t[0], t[6])) for t in SWEEP_TEMPLATES[workload]]
    if workload == "store-mixed":
        return [(t, delay_grid(seed, t[0], t[6], t[7])) for t in STORE_TEMPLATES]
    raise ValueError(f"{workload!r} has no scenario set")


def scenarios(workload: str, seed: int) -> list[tuple[str, Any]]:
    """The named scenarios a sweep or store workload runs for ``seed``."""
    return [(t[0], _scenario(t, delays)) for t, delays in _plan(workload, seed)]


def make_inputs(workload: str, seed: int) -> dict[str, Any]:
    """Everything a pass needs, built before the first operation."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "campaign-full":
        from repro.experiments import Campaign

        campaign = Campaign(quick=False, workers=1)
        return {"campaign": campaign, "experiments": campaign.resolved()}
    return {"scenarios": scenarios(workload, seed)}


def input_key(workload: str, seed: int) -> str:
    """A digest of the generated inputs (no program import needed)."""
    if workload == "campaign-full":
        return digest("campaign-full:quick=False")
    return digest(json.dumps([workload, _plan(workload, seed)], sort_keys=True))


# ----------------------------------------------------------------------
# References, from an independent rung and outside any timed region
# ----------------------------------------------------------------------


def _sweep_reference(run) -> dict[str, Any]:
    return {
        "digest": digest(run.to_json()),
        "max_time": run.row.max_time,
        "max_cost": run.row.max_cost,
    }


def compute_reference(workload: str, seed: int, workers: int) -> dict[str, Any]:
    if workload == "campaign-full":
        from repro.experiments import Campaign

        # The reactive simulator for every grid unit: no vectorized rung
        # is shared with the measured run.
        result = Campaign(quick=False, engine="parallel", workers=workers).run()
        campaign = digest(result.canonical_json())
        return {
            report.experiment: {
                "digest": digest(report.canonical_json()),
                "campaign": campaign,
            }
            for report in result.reports
        }
    reference = {
        name: _sweep_reference(sc.run(engine="compiled", workers=workers))
        for name, sc in scenarios(workload, seed)
    }
    if workload == "store-mixed":
        reference["query"] = {
            "extremes": sorted(
                [ref["max_time"], ref["max_cost"]] for ref in reference.values()
            )
        }
    return reference


# ----------------------------------------------------------------------
# Operations and passes
# ----------------------------------------------------------------------


#: Seconds one :func:`spin` takes at the nominal machine speed.
NOMINAL_SPIN_S = 0.010
#: Least seconds between two speed probes inside a pass.
PROBE_INTERVAL_S = 0.5


def spin() -> float:
    """Seconds a fixed pure-Python loop takes right now (mean of three)."""
    started = time.perf_counter()
    for _ in range(3):
        total = 0
        for value in range(100_000):
            total += value * value
    return (time.perf_counter() - started) / 3


class SpeedProbe:
    """Tracks the host's speed over a run.

    On shared hosts CPU speed drifts by a fifth or more between passes,
    far more than the changes the benchmark must resolve.  A fixed loop,
    timed between operations (at most every ``PROBE_INTERVAL_S``) and
    independent of the program, measures that drift.  One probe is too
    noisy to correct a single operation (a virtual CPU's speed swings by
    a third within a second), so each pass is normalized as a whole: its
    times are multiplied by ``NOMINAL_SPIN_S`` over the median of the
    probes taken during it.
    """

    def __init__(self) -> None:
        self.points: list[tuple[float, float]] = []

    def tick(self) -> None:
        if not self.points or time.perf_counter() - self.points[-1][0] >= PROBE_INTERVAL_S:
            loop = spin()
            self.points.append((time.perf_counter(), loop))


def _record(
    kind: str, key: str, call: Callable[[], Any], probe: SpeedProbe | None = None
) -> tuple[dict, Any]:
    """Time one operation; an exception becomes a failed record."""
    started = time.perf_counter()
    try:
        value = call()
        error = None
    except Exception as exc:  # noqa: BLE001 -- a raising operation is a failure
        value, error = None, f"{type(exc).__name__}: {exc}"
    record = {
        "kind": kind,
        "key": key,
        "seconds": time.perf_counter() - started,
        "timed": True,
        "configs": 0,
        "outputs": {},
        "checks": {},
        "error": error,
    }
    if probe is not None:
        probe.tick()
    return record, value


def cold_tables() -> None:
    """Drop the program's per-process table memos.

    ``repro.runtime.worker`` memoizes built graphs and trajectory tables
    per process, and forked pool workers inherit the parent's.  A fresh
    ``python -m repro sweep`` starts with none, so every measured sweep
    and every round of cold store writes starts without them too.
    """
    import repro.runtime.worker as worker

    for value in vars(worker).values():
        clear = getattr(value, "cache_clear", None)
        if callable(clear):
            clear()


def sweep_pass(inputs: dict[str, Any], workers: int | None = None) -> list[dict]:
    """One cold ``Scenario.run`` per scenario, cache off (defaults otherwise)."""
    runs = []
    for name, sc in inputs["scenarios"]:
        cold_tables()
        runs.append(
            _record(
                "sweep", name, lambda sc=sc: sc.run(workers=workers), inputs.get("probe")
            )
        )
    for record, run in runs:
        if run is not None:
            record["configs"] = run.row.executions
            record["outputs"]["digest"] = digest(run.to_json())
    return [record for record, _run in runs]


def campaign_pass(inputs: dict[str, Any]) -> list[dict]:
    """``Campaign.run()``; each ``run_experiment`` call is one operation."""
    import repro.experiments.campaign as campaign_module

    timed: list[tuple[dict, Any]] = []
    inner = campaign_module.run_experiment

    def run_experiment(experiment, **kwargs):
        record, report = _record(
            "experiment",
            getattr(experiment, "id", str(experiment)),
            lambda: inner(experiment, **kwargs),
            inputs.get("probe"),
        )
        timed.append((record, report))
        if record["error"] is not None:
            raise RuntimeError(record["error"])
        return report

    campaign_module.run_experiment = run_experiment
    try:
        outcome, result = _record("campaign", "campaign", inputs["campaign"].run)
    finally:
        campaign_module.run_experiment = inner
    campaign = None if result is None else digest(result.canonical_json())
    for record, report in timed:
        if report is not None:
            record["configs"] = sum(
                unit["result"]["executions"] for unit in report.units
            )
            record["outputs"]["digest"] = digest(report.canonical_json())
            record["checks"]["passed"] = report.passed
        record["outputs"]["campaign"] = campaign
        record["checks"]["campaign_passed"] = bool(result and result.passed)
        if outcome["error"] is not None and record["error"] is None:
            record["error"] = outcome["error"]
    expected = {experiment.id for experiment in inputs["experiments"]}
    missing = expected - {record["key"] for record, _ in timed}
    records = [record for record, _ in timed]
    for key in sorted(missing):
        records.append(
            {
                "kind": "experiment",
                "key": key,
                "seconds": 0.0,
                "timed": True,
                "configs": 0,
                "outputs": {},
                "checks": {"ran": False},
                "error": outcome["error"] or "experiment did not run",
            }
        )
    return records


def store_pass(inputs: dict[str, Any], work_dir: str) -> list[dict]:
    """Per backend: cold writes into a fresh store, warm reads, one query.

    Every operation goes through the front door, naming the store by its
    ``"<backend>:<root>"`` cache string as a caller would.  Each backend's
    writes start without memoized tables, so both pay the same compute.
    """
    from repro.api import resolve_store
    from repro.runtime.store import query_payload

    records: list[dict] = []
    queries: dict[str, dict] = {}
    for backend in STORE_BACKENDS:
        root = tempfile.mkdtemp(prefix=f"{backend}-", dir=work_dir)
        cache = f"{backend}:{root}"
        try:
            written: dict[str, str] = {}
            cold_tables()
            for round_ in range(1 + STORE_READS):
                kind = "store-write" if round_ == 0 else "store-read"
                timed = (kind, backend) not in UNTIMED
                for name, sc in inputs["scenarios"]:
                    record, run = _record(
                        kind,
                        name,
                        lambda sc=sc: sc.run(
                            workers=1, shard_count=STORE_SHARDS, cache=cache
                        ),
                        # A probe right after fsync-bound work reads slow.
                        inputs.get("probe") if timed else None,
                    )
                    record["timed"] = timed
                    if run is not None:
                        text = digest(run.to_json())
                        record["configs"] = run.row.executions
                        record["outputs"]["digest"] = text
                        if round_ == 0:
                            written[name] = text
                            record["checks"]["cold"] = run.stats.shards_cached == 0
                        else:
                            record["checks"]["warm"] = run.stats.fully_cached
                            record["checks"]["matches_write"] = (
                                written.get(name) == text
                            )
                        record["hit_shards"] = run.stats.shards_cached
                        record["planned_shards"] = run.stats.shards_total
                    records.append(record)
            record, payload = _record(
                "store-query",
                "query",
                lambda: query_payload(resolve_store(True, root, backend)),
                inputs.get("probe"),
            )
            if payload is not None:
                runs = payload["result"]["runs"]
                record["outputs"]["extremes"] = sorted(
                    [run["result"]["worst_time"]["time"],
                     run["result"]["worst_cost"]["cost"]]
                    for run in runs
                )
                record["payload"] = digest(json.dumps(payload, sort_keys=True))
            record["backend"] = backend
            record["store_bytes"] = _tree_bytes(root)
            queries[backend] = record
            records.append(record)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    agree = len({query.get("payload") for query in queries.values()}) == 1
    for query in queries.values():
        query["checks"]["backends_agree"] = agree
        query.pop("payload", None)
    return records


def _tree_bytes(root: str) -> int:
    total = 0
    for directory, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def run_pass(workload: str, inputs: dict[str, Any], work_dir: str, **kw) -> list[dict]:
    if workload in SWEEPS:
        return sweep_pass(inputs, **kw)
    if workload == "campaign-full":
        return campaign_pass(inputs)
    return store_pass(inputs, work_dir)


# ----------------------------------------------------------------------
# The correctness gate
# ----------------------------------------------------------------------


def failures(record: dict, reference: dict[str, Any]) -> list[str]:
    """Why one operation failed (empty when it passed).

    It fails when it raised, when any of its outputs differs from the
    reference for its key, or when one of its own checks did not hold.
    """
    if record["error"] is not None:
        return [record["error"]]
    expected = reference.get(record["key"])
    if expected is None:
        return [f"no reference for {record['key']!r}"]
    reasons = [
        f"{label} differs from the reference"
        for label, value in record["outputs"].items()
        if expected.get(label) != value
    ]
    if not record["outputs"]:
        reasons.append("no output to check")
    reasons += [f"check {name} failed" for name, ok in record["checks"].items() if not ok]
    return reasons
