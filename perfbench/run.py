"""Front-door benchmark for repro-rendezvous.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload sweep-ring --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sweep-ring``, ``sweep-torus``,
``campaign-full`` and ``store-mixed``.  ``--seed`` draws the sweep delay
grids and the ``store-mixed`` scenario set (seed 0 reproduces the engine
bench's grid ``0,1,2,3,5,7,11,15``); ``campaign-full`` does not depend on
the seed, its inputs being fixed by ``repro/experiments/catalog.py``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured with tracing off:

* ``wall_s``        seconds of one pass over the workload's inputs: the
  sum, over the pass's operations, of each one's median time across
  passes (on ``store-mixed`` the cold SQLite writes run and are gated
  but are not timed, see ``workloads.UNTIMED``);
* ``configs_per_s`` configurations answered per second of pass wall time
  (cached answers count on ``store-mixed``; on ``campaign-full`` only the
  configurations reported by ``Scenario.run`` rows);
* ``op_p50_s``, ``op_p90_s`` median and 90th-percentile seconds of one
  operation (a ``Scenario.run``, a ``run_experiment``, or a store read,
  write or query), as Harrell-Davis estimates over every timed sample;
  the sample counts are on the ``info`` line.  Only ``store-mixed``
  leaves ten or more samples above the 90th percentile;
* ``setup_s``       median, over three fresh interpreters, of the seconds
  from interpreter start to the first operation being ready: ``import
  repro``, building the inputs and one tiny warm-up call per scenario
  (reference computation excluded);
* ``peak_rss_mb``   peak resident memory of the measuring process plus
  its pool children (``RUSAGE_SELF`` + ``RUSAGE_CHILDREN``);
* ``success_rate``  ``1 - fail_rate``.  ``fail_rate`` (failed operations
  over attempted ones) is the result's ``failed / attempted``; an
  operation fails when it raises, when its canonical output digest
  differs from the reference, or when a verdict or check does not pass.

Times are reported at a nominal machine speed: on shared hosts CPU speed
drifts by a fifth or more from one pass to the next, so each pass's
measured times are multiplied by ``NOMINAL_SPIN_S`` over the median time
of a fixed pure-Python loop probed between its operations.  The raw pass
walls and set-up times are on the ``info`` line.

With ``--trace 1`` a separate traced run (``workers=1``, so wrappers see
every call) reports per-layer self times, counts and ratios; a layer the
workload never enters reports 0.  Metric names and units are read from
``BENCHMARK.json``.  References are computed outside the timed region by
an independent rung and cached per seed under ``perfbench/.state/refs/``.
A line ``info {...}`` before the result carries the machine fingerprint
and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = HERE / ".state"
SETUP_PROBES = 3
#: Measuring processes a run's time is split across: a process's memory
#: layout moves its times by more than the passes within it vary.
MEASURE_PROCESSES = 2
IMPORT_PROBES = 3
#: The whole run must end within this many seconds.
BUDGET_S = 170
#: Workloads whose every pass runs in a fresh process: the campaign
#: memoizes trajectory tables in-process, and ``experiments run`` starts
#: cold each time.
FRESH_PROCESS_PER_PASS = ("campaign-full",)
#: Workers for reference runs; the measured runs keep the front door's
#: own defaults.
REFERENCE_WORKERS = 2

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
#: A layer a workload never enters reports 0.
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


class ChildError(RuntimeError):
    """A benchmark subprocess failed, hung or printed no result."""


def child(args: list[str], deadline: float, flags: tuple[str, ...] = ()) -> dict:
    """Run ``child.py`` (or a bare interpreter with ``flags``) to completion.

    The child must finish by ``deadline`` (a ``time.monotonic`` value).  It
    gets its own process group so that a timeout kills its pool workers
    too; every process is waited for before returning.
    """
    timeout = max(deadline - time.monotonic(), 1.0)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    command = [sys.executable, *flags, *args]
    with subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as process:
        try:
            out, err = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise ChildError(f"{args[:2]} exceeded {timeout:.0f} s") from None
    if process.returncode != 0:
        raise ChildError(f"{args[:2]} exited {process.returncode}:\n{err[-4000:]}")
    if flags:
        return {"stderr": err}
    lines = out.strip().splitlines()
    if not lines:
        raise ChildError(f"{args[:2]} printed no result:\n{err[-4000:]}")
    return json.loads(lines[-1])


def child_script(mode: str, *args: object) -> list[str]:
    return [str(HERE / "child.py"), mode, *map(str, args)]


def reference(workload: str, seed: int, deadline: float) -> dict:
    """The cached reference for these inputs, computed on first use."""
    refs = STATE / "refs"
    refs.mkdir(parents=True, exist_ok=True)
    key = workloads.input_key(workload, seed)
    path = refs / f"{workload}-{key[:20]}.json"
    if not path.exists():
        child(
            child_script("reference", workload, seed, REFERENCE_WORKERS, path),
            deadline,
        )
    return json.loads(path.read_text(encoding="utf-8"))


def gate(records: list[dict], expected: dict) -> tuple[int, int, list[str]]:
    """``(attempted, failed, reasons)`` over every operation record."""
    failed, reasons = 0, []
    for record in records:
        why = workloads.failures(record, expected)
        if why:
            failed += 1
            reasons.append(f"{record['kind']} {record['key']}: {'; '.join(why)}")
    return len(records), failed, reasons


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """Content digest of ``src/`` -- identifies the code where git cannot."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def _betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function ``I_x(a, b)``.

    Evaluated by its continued fraction (modified Lentz), on the side of
    ``x`` where the fraction converges fast.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    fraction = d
    for m in range(1, 500):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            fraction *= c * d
        if abs(c * d - 1.0) < 1e-14:
            break
    return math.exp(log_front) * fraction / a


def harrell_davis(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile of ``values``.

    A weighted mean of every order statistic, the weights a Beta
    distribution centred on ``p``.  A single order statistic (the plain
    median of a few samples) jumps whenever two operations swap places;
    this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(ordered, cdf, cdf[1:]))


def end_to_end(run: dict, attempted: int, failed: int) -> dict:
    """The end-to-end metrics; times are at the nominal machine speed.

    Each pass's times are multiplied by its speed factor: ``NOMINAL_SPIN_S``
    over the median of the speed probes taken during it (see
    :class:`workloads.SpeedProbe`); set-up times by the run's factor, from
    all its probes.  Operations in ``workloads.UNTIMED`` are gated but not
    timed.
    """
    factor = run["samples"]["speed_factor"]
    timed = []
    for pass_ in run["passes"]:
        probes = pass_["probes"]
        scale = workloads.NOMINAL_SPIN_S / statistics.median(probes) if probes else factor
        timed.append(
            [{**r, "seconds": scale * r["seconds"]} for r in pass_["records"] if r["timed"]]
        )
    # One column per operation of a pass: passes run the same operations
    # in the same order, so an operation's typical time is its median
    # across passes, which one slow pass cannot move.
    columns = list(zip(*timed))
    wall = sum(statistics.median(r["seconds"] for r in op) for op in columns)
    configs = sum(statistics.median(r["configs"] for r in op) for op in columns)
    ops = [r["seconds"] for records in timed for r in records]
    values = {
        "wall_s": wall,
        "configs_per_s": configs / wall,
        "op_p50_s": harrell_davis(ops, 0.5),
        "op_p90_s": harrell_davis(ops, 0.9),
        "setup_s": factor * statistics.median(probe["setup_s"] for probe in run["setup"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "success_rate": 1.0 - failed / attempted,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def import_times(deadline: float) -> dict:
    """Cumulative import seconds from ``-X importtime``, median of probes."""
    probes = []
    for _ in range(IMPORT_PROBES):
        stderr = child(["-c", "import repro"], deadline, flags=("-X", "importtime"))
        cumulative = {}
        for line in stderr["stderr"].splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                name = parts[2].strip()
                if name in ("repro", "numpy", "networkx") and name not in cumulative:
                    cumulative[name] = int(parts[1]) / 1e6
        probes.append(cumulative)
    return {
        f"import.{name}_s": statistics.median(p.get(name, 0.0) for p in probes)
        for name in ("repro", "numpy", "networkx")
    }


def measured(workload: str, seed: int, seconds: float, work: Path, deadline: float) -> dict:
    """Set-up probes, then timed passes in a few processes or one per pass."""
    setup = [
        child(child_script("setup", workload, seed, work), deadline)
        for _ in range(SETUP_PROBES)
    ]
    if workload in FRESH_PROCESS_PER_PASS:
        runs, last = [], 0.0
        started = time.monotonic()
        while not runs or time.monotonic() - started + last / 2 < seconds:
            begun = time.monotonic()
            runs.append(child(child_script("measure", workload, seed, 0, work), deadline))
            last = time.monotonic() - begun
    else:
        share = seconds / MEASURE_PROCESSES
        runs = [
            child(child_script("measure", workload, seed, share, work), deadline)
            for _ in range(MEASURE_PROCESSES)
        ]
    passes = [p for run in runs for p in run["passes"]]
    probes = [loop for p in passes for loop in p["probes"]] + [
        probe["spin_s"] for probe in setup
    ]
    return {
        "passes": passes,
        "records": [r for p in passes for r in p["records"]],
        "setup": setup,
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
        "fingerprint": runs[0]["fingerprint"],
        "samples": {
            "passes": len(passes),
            "ops": sum(len(p["records"]) for p in passes),
            "setup_probes": SETUP_PROBES,
            "raw_pass_wall_s": [p["wall_s"] for p in passes],
            "raw_setup_s": [probe["setup_s"] for probe in setup],
            "speed_probes": len(probes),
            "speed_factor": workloads.NOMINAL_SPIN_S / statistics.median(probes),
        },
    }


def traced(workload: str, seed: int, work: Path, deadline: float) -> dict:
    """The traced pass and its untraced twin, each in a fresh process."""
    untraced = child(child_script("trace", workload, seed, work, 0), deadline)
    run = child(child_script("trace", workload, seed, work, 1), deadline)
    run["records"] += untraced["records"]
    run["layers"].update(import_times(deadline))
    run["layers"]["trace.overhead_s"] = run["layers"]["trace.wall_s"] - untraced["wall_s"]
    run["samples"] = {"traced_passes": 1, "untraced_wall_s": untraced["wall_s"]}
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    work = STATE / "work"
    work.mkdir(parents=True, exist_ok=True)
    try:
        expected = reference(args.workload, args.seed, deadline)
        if args.trace:
            run = traced(args.workload, args.seed, work, deadline)
        else:
            run = measured(args.workload, args.seed, args.seconds, work, deadline)
    except ChildError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    attempted, failed, reasons = gate(run["records"], expected)
    if args.trace:
        metrics = {
            name: (run["layers"].get(name, 0.0), unit) for name, unit in PER_LAYER.items()
        }
    else:
        metrics = end_to_end(run, attempted, failed)
    fingerprint = {**run["fingerprint"], "git_commit": git_commit(),
                   "src_digest": source_digest()}
    info = {"workload": args.workload, "seed": args.seed, "fingerprint": fingerprint,
            "samples": run["samples"], "fail_rate": failed / attempted,
            "failures": reasons[:20]}
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
