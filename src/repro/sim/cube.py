"""The cube engine: whole-sweep tensor passes with adversary-space pruning.

The unpruned substrate (:mod:`repro.sim.batch`) answers all ``(start,
delay)`` configurations of one label pair per NumPy pass but still loops
over the ``L(L-1)`` label pairs in Python, materializes a
:class:`Configuration` object per cell, and scans every start pair even
when symmetry makes most of them redundant.  This module removes all
three costs:

* **Cross-label tensorization** -- given a :class:`ConfigCube` (the
  product-structured configuration space), the whole
  ``L(L-1) x n(n-1) x D`` cube is answered by per-axis array passes:
  configurations exist only as ``(pair, start, delay)`` indices until the
  two argmax extremes are decoded at the very end.
* **Rotation-orbit reduction** (:mod:`repro.sim.prune`) -- on a graph
  certified cyclic, with a start-oblivious factory, every label's ``n``
  timelines are rotated copies of one compiled trajectory, and a start
  pair's verdict depends only on ``delta = (s2 - s1) mod n``; one
  ``(D, n)`` delta table replaces each ``(D, n, n)`` start-pair tensor.
* **Delay dominance and early exit** -- delay slices past the first
  agent's schedule that share a post-wake window are exact translates of
  a pivot slice and are derived, not scanned; the meeting scan stops as
  soon as every tracked cell has met.

Equivalence contract: identical to the compiled engine's -- every pruned
verdict is reconstructed by an exact rule before any comparison, the
argmax tie-break is the reactive loop's strict-``>`` in global
enumeration order, and the cross-engine suite (``tests/sim``) asserts
byte-identity against the reactive engine with pruning on and off.
With pruning off (``prune=False`` or ``REPRO_PRUNE=0``) every pass is
the substrate's plain unpruned one.

NumPy availability is checked at call time through
:mod:`repro.sim.batch`, so ``engine="cube"`` degrades with the same loud
:class:`~repro.sim.batch.BatchUnavailableError` hint (naming ``'cube'``)
and ``engine="auto"`` falls back to the compiled engine silently.
"""

from __future__ import annotations

# repro: allow-file(REP001) -- perf_counter meters table builds and scans
# for telemetry gauges, exactly as in repro.sim.batch; results flow only
# through Telemetry, never into report bytes.

import time
from typing import Any, Callable, Iterable, Sequence

from repro.graphs.port_graph import PortLabeledGraph
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim import batch as batch_module
from repro.sim.adversary import (
    ConfigCube,
    Configuration,
    ExtremeRecord,
    WorstCaseReport,
)
from repro.sim.batch import (
    _BLOCK_ELEMENTS,
    _MIN_TIME_BLOCK,
    BatchTimelineTable,
    LabelTimelines,
    stream_chunks,
)
from repro.sim.program import ProgramFactory
from repro.sim.prune import (
    PruneStats,
    SymmetryCertificate,
    certify_symmetry,
    derive_met,
    dominance_plan,
    resolve_prune,
)
from repro.sim.simulator import PresenceModel


def _delta_tables(
    np: Any,
    first: LabelTimelines,
    second: LabelTimelines,
    delay_horizons: Sequence[tuple[int, int]],
    parachute: bool,
    n: int,
    stats: PruneStats,
) -> tuple[Any, Any]:
    """Per-delta first colocations and costs for every delay slice.

    The orbit-reduced counterpart of the substrate's
    ``_meeting_tensor``/``_cost_tensor`` pair: with rotation-derived
    timelines, starts ``(s1, s2)`` colocate at ``t`` iff
    ``pos1(t) - pos2(t') == s2 - s1 (mod n)`` of the *start-0* rows, so
    one ``(D, n)`` table over ``delta`` answers all ``n**2`` start pairs
    of each slice.  Row semantics (windows, delay clipping, parachute
    blanking, ``-1`` for never) match the full tensors exactly; the
    column-block scan stops early once every delta has met
    (``stats.early_exit_rounds`` counts the skipped time points).
    """
    count = len(delay_horizons)
    delays = np.array([delay for delay, _ in delay_horizons], dtype=np.intp)
    horizons = np.array([horizon for _, horizon in delay_horizons], dtype=np.int64)
    met = np.full((count, n), -1, dtype=np.int64)
    length1, length2 = first.length, second.length
    limit = np.minimum(horizons, np.maximum(length1, delays + length2))
    max_scan = int(limit.max())
    start_t = int(delays.min()) if parachute else 0
    p1 = first.positions[0].astype(np.int64)
    p2 = second.positions[0].astype(np.int64)
    deltas = np.arange(n, dtype=np.int64)
    block = max(_MIN_TIME_BLOCK, _BLOCK_ELEMENTS // max(count * n, 1))
    t0 = start_t
    while t0 <= max_scan:
        t1 = min(t0 + block - 1, max_scan)
        times = np.arange(t0, t1 + 1, dtype=np.intp)
        a = p1[np.minimum(times, length1)]  # (b,)
        cols2 = np.clip(times[None, :] - delays[:, None], 0, length2)  # (D, b)
        diffs = (a[None, :] - p2[cols2]) % n  # (D, b)
        # Out-of-window time points match no delta: past the slice's own
        # limit, or (parachute only) before its wake.  The sentinel ``n``
        # folds the window mask into the equality test.
        invalid = times[None, :] > limit[:, None]
        if parachute:
            invalid |= times[None, :] < delays[:, None]
        diffs = np.where(invalid, n, diffs)
        hits = diffs[:, :, None] == deltas[None, None, :]  # (D, b, n)
        fresh = hits.any(axis=1) & (met < 0)
        if fresh.any():
            met = np.where(fresh, t0 + hits.argmax(axis=1), met)
            if (met >= 0).all():
                stats.early_exit_rounds += max_scan - t1
                break
        t0 = t1 + 1
    # Start-oblivious costs are start-independent, so the start-0 rows
    # price every orbit member: through the meeting round, or through the
    # slice's horizon where the delta never meets.
    last = np.where(met >= 0, met, horizons[:, None])
    cost = (
        first.costs[0][np.minimum(last, length1)]
        + second.costs[0][np.clip(last - delays[:, None], 0, length2)]
    )
    stats.orbit_cells += count * (n * n - n)
    return met, cost


class CubeTimelineTable(BatchTimelineTable):
    """A :class:`BatchTimelineTable` with certified pruning on top.

    With pruning resolved on (:func:`repro.sim.prune.resolve_prune`) and
    the sweep certified (cyclic graph declaration re-verified exactly,
    start-oblivious factory, derived-trajectory probe), label timelines
    are rotation-derived from two compilations instead of ``n``, and
    group matrices are answered through ``(D, n)`` delta tables.  Delay
    dominance applies on every path.  Any gate failing falls back to the
    parent's full passes -- the reports are byte-identical either way,
    only the work differs (``stats`` meters what was avoided).
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        factory: ProgramFactory,
        provide_map: bool = True,
        provide_position: bool = True,
        prune: bool | None = None,
    ):
        super().__init__(graph, factory, provide_map, provide_position)
        self.prune = resolve_prune(prune)
        self.stats = PruneStats()
        self.certificate = (
            certify_symmetry(graph, factory)
            if self.prune
            else SymmetryCertificate(False, "pruning disabled")
        )
        # (labels, delay, horizon, presence) -> (met_row, cost_row), each
        # an (n,) array over delta.  Tiny (2n per slice), so unbounded.
        self._delta_rows: dict[
            tuple[tuple[int, int], int, int, PresenceModel], tuple[Any, Any]
        ] = {}
        self._probed = False

    @property
    def orbit_active(self) -> bool:
        """Whether rotation-orbit reduction is currently in force."""
        return self.certificate.orbit

    def timelines(self, label: int) -> LabelTimelines:
        """Rotation-derived stacked timelines (one compile per label).

        Row ``s`` is the start-0 trajectory shifted by ``s`` -- exact on a
        certified-cyclic graph with a start-oblivious factory.  Defense
        in depth beyond the declarations: the first label built also
        compiles its start-1 trajectory and probes it against the derived
        row (one extra compile per table, the property is a factory-wide
        one); any mismatch voids the certificate for the whole table,
        discards derived state and falls back to the parent's full
        per-start builds.
        """
        if not self.certificate.orbit or self.graph.num_nodes < 2:
            return super().timelines(label)
        stacked = self._labels.get(label)
        if stacked is not None:
            return stacked
        started = time.perf_counter()
        np = self._np
        n = self.graph.num_nodes
        base = self.trajectories.trajectory(label, 0)
        if not self._probed:
            probe = self.trajectories.trajectory(label, 1)
            derived_positions = tuple((p + 1) % n for p in base.positions)
            if (
                probe.positions != derived_positions
                or probe.actions != base.actions
                or probe.cumulative_cost != base.cumulative_cost
            ):
                self.certificate = SymmetryCertificate(
                    False,
                    f"derived-trajectory probe mismatch for label {label}: "
                    "the factory declared start_oblivious but its start-1 "
                    "trajectory is not the rotated start-0 trajectory",
                )
                self._labels.clear()  # derived rows of other labels are void
                self._delta_rows.clear()
                self.build_seconds += time.perf_counter() - started
                return super().timelines(label)
            self._probed = True
        position_dtype = np.int16 if n <= 2**15 else np.int32
        row0 = np.array(base.positions, dtype=position_dtype)
        shifts = np.arange(n, dtype=position_dtype)[:, None]
        stacked = LabelTimelines(
            positions=(row0[None, :] + shifts) % n,
            costs=np.tile(
                np.array(base.cumulative_cost, dtype=np.int32), (n, 1)
            ),
            length=base.length,
        )
        self._labels[label] = stacked
        self.build_seconds += time.perf_counter() - started
        return stacked

    def delta_tables(
        self,
        labels: tuple[int, int],
        delay_horizons: Sequence[tuple[int, int]],
        presence: PresenceModel,
    ) -> tuple[Any, Any] | None:
        """``(met, cost)`` stacked ``(D, n)`` delta tables for the slices.

        Returns ``None`` when the orbit certificate does not hold (or is
        voided by the trajectory probe while building the timelines) --
        the caller falls back to full matrices.  Missing slices are
        computed in one pass: dominance-planned pivots scanned, the rest
        derived by exact translation.
        """
        if not self.certificate.orbit:
            return None
        np = self._np
        missing = [
            (delay, horizon)
            for delay, horizon in delay_horizons
            if (labels, delay, horizon, presence) not in self._delta_rows
        ]
        if missing:
            first = self.timelines(labels[0])
            second = self.timelines(labels[1])
            if not self.certificate.orbit:  # probe mismatch mid-build
                return None
            parachute = presence is PresenceModel.PARACHUTE
            plan = dominance_plan(missing, first.length)
            scanned = [missing[index] for index in plan.scan]
            met_rows, cost_rows = _delta_tables(
                np,
                first,
                second,
                scanned,
                parachute,
                self.graph.num_nodes,
                self.stats,
            )
            rows: dict[int, tuple[Any, Any]] = {}
            for slot, index in enumerate(plan.scan):
                rows[index] = (met_rows[slot], cost_rows[slot])
            for index, (pivot, shift) in plan.derived.items():
                met_pivot, cost_pivot = rows[pivot]
                rows[index] = (
                    derive_met(
                        np, met_pivot, missing[pivot][0], shift, parachute
                    ),
                    cost_pivot,  # dominance holds costs fixed (see prune.py)
                )
                self.stats.dominated_slices += 1
            for index, (delay, horizon) in enumerate(missing):
                self._delta_rows[(labels, delay, horizon, presence)] = rows[
                    index
                ]
        met = np.stack(
            [
                self._delta_rows[(labels, delay, horizon, presence)][0]
                for delay, horizon in delay_horizons
            ]
        )
        cost = np.stack(
            [
                self._delta_rows[(labels, delay, horizon, presence)][1]
                for delay, horizon in delay_horizons
            ]
        )
        return met, cost

    def cube_delta_tables(
        self,
        label_pairs: Sequence[tuple[int, int]],
        delay_horizons: Sequence[Sequence[tuple[int, int]]],
        presence: PresenceModel,
    ) -> tuple[Any, Any] | None:
        """``(met, cost)`` as ``(P, D, n)`` tensors -- the whole cube at once.

        The cross-label pass: every label's start-0 timeline is stacked
        (parked-tail padded) into one ``(L, Tmax+1)`` tensor, and all
        ``P x D`` dominance-pivot groups are scanned in a single
        column-blocked sweep -- no Python loop over label pairs touches
        the time axis.  ``delay_horizons[p]`` lists pair ``p``'s
        ``(delay, horizon)`` slices (one per delay-axis entry, so ``D``
        is uniform).  Returns ``None`` when the orbit certificate does
        not hold (or the trajectory probe voids it mid-build).
        """
        if not self.certificate.orbit:
            return None
        np = self._np
        n = self.graph.num_nodes
        pair_count = len(label_pairs)
        delay_count = len(delay_horizons[0]) if delay_horizons else 0
        labels_needed = sorted({label for pair in label_pairs for label in pair})
        stacked = {label: self.timelines(label) for label in labels_needed}
        if not self.certificate.orbit:  # probe mismatch mid-build
            return None
        parachute = presence is PresenceModel.PARACHUTE
        index_of = {label: slot for slot, label in enumerate(labels_needed)}
        lengths = [stacked[label].length for label in labels_needed]
        tmax = max(lengths) if lengths else 0
        # Parked-tail padding makes the rows rectangular across labels:
        # past its own schedule a timeline repeats its final position and
        # cost, so clamped reads below need only the shared tmax.
        pos0 = np.empty((len(labels_needed), tmax + 1), dtype=np.int64)
        cost0 = np.empty((len(labels_needed), tmax + 1), dtype=np.int64)
        for slot, label in enumerate(labels_needed):
            rows = stacked[label]
            pos0[slot, : rows.length + 1] = rows.positions[0]
            pos0[slot, rows.length + 1 :] = int(rows.positions[0][-1])
            cost0[slot, : rows.length + 1] = rows.costs[0]
            cost0[slot, rows.length + 1 :] = int(rows.costs[0][-1])
        # One scan group per dominance pivot; dominated slices derive.
        plans = [
            dominance_plan(
                delay_horizons[p], stacked[label_pairs[p][0]].length
            )
            for p in range(pair_count)
        ]
        group_i1: list[int] = []
        group_i2: list[int] = []
        group_delay: list[int] = []
        group_horizon: list[int] = []
        group_t1: list[int] = []
        group_t2: list[int] = []
        for p, labels in enumerate(label_pairs):
            for index in plans[p].scan:
                delay, horizon = delay_horizons[p][index]
                group_i1.append(index_of[labels[0]])
                group_i2.append(index_of[labels[1]])
                group_delay.append(delay)
                group_horizon.append(horizon)
                group_t1.append(stacked[labels[0]].length)
                group_t2.append(stacked[labels[1]].length)
        group_count = len(group_i1)
        i1 = np.array(group_i1, dtype=np.intp)
        i2 = np.array(group_i2, dtype=np.intp)
        delays = np.array(group_delay, dtype=np.int64)
        horizons = np.array(group_horizon, dtype=np.int64)
        t1s = np.array(group_t1, dtype=np.int64)
        t2s = np.array(group_t2, dtype=np.int64)
        limit = np.minimum(horizons, np.maximum(t1s, delays + t2s))
        met = np.full((group_count, n), -1, dtype=np.int64)
        deltas = np.arange(n, dtype=np.int64)
        if group_count:
            max_scan = int(limit.max())
            t0 = int(delays.min()) if parachute else 0
            block = max(
                _MIN_TIME_BLOCK, _BLOCK_ELEMENTS // max(group_count * n, 1)
            )
            while t0 <= max_scan:
                t1 = min(t0 + block - 1, max_scan)
                times = np.arange(t0, t1 + 1, dtype=np.intp)
                a = pos0[i1[:, None], np.minimum(times, tmax)[None, :]]
                cols2 = np.clip(times[None, :] - delays[:, None], 0, tmax)
                diffs = (a - pos0[i2[:, None], cols2]) % n  # (G, b)
                invalid = times[None, :] > limit[:, None]
                if parachute:
                    invalid |= times[None, :] < delays[:, None]
                diffs = np.where(invalid, n, diffs)
                hits = diffs[:, :, None] == deltas[None, None, :]  # (G, b, n)
                fresh = hits.any(axis=1) & (met < 0)
                if fresh.any():
                    met = np.where(fresh, t0 + hits.argmax(axis=1), met)
                    if (met >= 0).all():
                        self.stats.early_exit_rounds += max_scan - t1
                        break
                t0 = t1 + 1
        last = np.where(met >= 0, met, horizons[:, None])
        cost = (
            cost0[i1[:, None], np.minimum(last, tmax)]
            + cost0[i2[:, None], np.clip(last - delays[:, None], 0, tmax)]
        )
        # Scatter pivots into the (P, D, n) cube, then fill dominated
        # slices by exact translation from their pivot rows.
        met_full = np.empty((pair_count, delay_count, n), dtype=np.int64)
        cost_full = np.empty((pair_count, delay_count, n), dtype=np.int64)
        group = 0
        for p in range(pair_count):
            plan = plans[p]
            for index in plan.scan:
                met_full[p, index] = met[group]
                cost_full[p, index] = cost[group]
                group += 1
            for index, (pivot, shift) in plan.derived.items():
                met_full[p, index] = derive_met(
                    np,
                    met_full[p, pivot],
                    delay_horizons[p][pivot][0],
                    shift,
                    parachute,
                )
                cost_full[p, index] = cost_full[p, pivot]
                self.stats.dominated_slices += 1
        self.stats.orbit_cells += pair_count * delay_count * (n * n - n)
        return met_full, cost_full

    def _ensure_matrices(
        self,
        labels: tuple[int, int],
        delay_horizons: Sequence[tuple[int, int]],
        presence: PresenceModel,
    ) -> None:
        """The parent hook, pruned: delta expansion and delay dominance.

        Keeps :meth:`evaluate_arrays` (the stream path) inherited
        unchanged -- it reads the same ``(n, n)`` matrices, they are just
        produced more cheaply: expanded from delta tables on a certified
        sweep, and dominated slices derived instead of scanned either
        way.  With pruning off this is exactly the parent's pass.
        """
        if not self.prune:
            return super()._ensure_matrices(labels, delay_horizons, presence)
        missing = [
            (delay, horizon)
            for delay, horizon in delay_horizons
            if (labels, delay, horizon, presence) not in self._matrices
        ]
        if not missing:
            return
        np = self._np
        tables = self.delta_tables(labels, missing, presence)
        if tables is not None:
            met_rows, cost_rows = tables
            n = self.graph.num_nodes
            # delta of the ordered pair (s1, s2) -- row s1, column s2.
            spread = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
            for index, (delay, horizon) in enumerate(missing):
                self._store_matrices(
                    (labels, delay, horizon, presence),
                    met_rows[index][spread],
                    cost_rows[index][spread],
                )
            return
        # No orbit: full tensors for the pivots, translation for the rest.
        first = self.timelines(labels[0])
        plan = dominance_plan(missing, first.length)
        scanned = [missing[index] for index in plan.scan]
        super()._ensure_matrices(labels, scanned, presence)
        parachute = presence is PresenceModel.PARACHUTE
        for index, (pivot, shift) in plan.derived.items():
            pivot_delay, pivot_horizon = missing[pivot]
            met_pivot, cost_pivot = self._matrices[
                (labels, pivot_delay, pivot_horizon, presence)
            ]
            delay, horizon = missing[index]
            self._store_matrices(
                (labels, delay, horizon, presence),
                derive_met(np, met_pivot, pivot_delay, shift, parachute),
                cost_pivot,
            )
            self.stats.dominated_slices += 1

    def pair_cube(
        self,
        labels: tuple[int, int],
        delay_horizons: Sequence[tuple[int, int]],
        presence: PresenceModel,
        s1: Any,
        s2: Any,
    ) -> tuple[Any, Any]:
        """``(met, cost)`` as ``(S, D)`` arrays for one label pair.

        Rows follow the given start-pair order, columns the given delay
        order -- the flattened result is the global enumeration order
        within the pair, which is what makes one ``argmax`` reproduce the
        serial first-wins tie-break.
        """
        np = self._np
        tables = self.delta_tables(labels, delay_horizons, presence)
        if tables is not None:
            met_rows, cost_rows = tables
            delta = (s2 - s1) % self.graph.num_nodes
            return met_rows[:, delta].T, cost_rows[:, delta].T
        self._ensure_matrices(labels, delay_horizons, presence)
        met_slices = []
        cost_slices = []
        for delay, horizon in delay_horizons:
            met_matrix, cost_matrix = self.group_matrices(
                labels, delay, horizon, presence
            )
            met_slices.append(met_matrix[s1, s2])
            cost_slices.append(cost_matrix[s1, s2])
        return np.stack(met_slices, axis=1), np.stack(cost_slices, axis=1)


def _pair_horizons(
    cube: ConfigCube,
    labels: tuple[int, int],
    max_rounds: int | Callable[[Configuration], int],
) -> list[tuple[int, int]]:
    """One ``(delay, horizon)`` per delay axis entry, probed start-free.

    The whole-cube pass needs the horizon to be a function of ``(labels,
    delay)`` alone -- true of every built-in policy
    (:func:`repro.sim.adversary.default_horizon` depends on schedule
    lengths and the delay).  A custom callable is probed at the first and
    last start pair of each slice; a disagreement raises loudly rather
    than silently mis-windowing the tensor pass.
    """
    if not callable(max_rounds):
        return [(delay, max_rounds) for delay in cube.delays]
    pairs: list[tuple[int, int]] = []
    first_start = cube.start_pairs[0]
    last_start = cube.start_pairs[-1]
    for delay in cube.delays:
        horizon = max_rounds(
            Configuration(labels=labels, starts=first_start, delay=delay)
        )
        if last_start != first_start:
            check = max_rounds(
                Configuration(labels=labels, starts=last_start, delay=delay)
            )
            if check != horizon:
                raise ValueError(
                    "a ConfigCube needs a start-independent horizon, but "
                    f"max_rounds() returned {horizon} and {check} for "
                    f"start pairs {first_start} and {last_start} "
                    f"(labels={labels}, delay={delay}); use a constant or "
                    "a (labels, delay)-determined policy, or pass the "
                    "configurations as a plain iterable (e.g. list(cube)), "
                    "which streams and accepts any horizon"
                )
        pairs.append((delay, horizon))
    return pairs


def _whole_cube_search(
    np: Any,
    table: CubeTimelineTable,
    cube: ConfigCube,
    max_rounds: int | Callable[[Configuration], int],
    presence: PresenceModel,
) -> tuple[
    tuple[int, Configuration, int] | None,
    tuple[int, Configuration, int] | None,
    list[Configuration],
    int,
]:
    """Answer a full :class:`ConfigCube` without materializing configs.

    No :class:`Configuration` objects exist on this path until an argmax
    winner or a failure is decoded.  On a certified-cyclic sweep the
    whole cube is one stacked pass (:meth:`CubeTimelineTable.cube_delta_tables`)
    followed by a single delta-gathered argmax in global enumeration
    order; otherwise per-pair tensor passes run with flat positions
    ``start_index * D + delay_index`` per pair -- the enumeration order
    -- and ``argmax`` returns the first maximiser, so combined with the
    strict-``>`` update across pairs either route is exactly the serial
    first-wins tie-break.
    """
    start_pairs = cube.start_pairs
    delays = cube.delays
    delay_count = len(delays)
    worst_time: tuple[int, Configuration, int] | None = None
    worst_cost: tuple[int, Configuration, int] | None = None
    failures: list[Configuration] = []
    executions = 0
    if not len(cube):
        return worst_time, worst_cost, failures, executions

    if table.certificate.orbit:
        pair_horizons = [
            _pair_horizons(cube, labels, max_rounds)
            for labels in cube.label_pairs
        ]
        tables = table.cube_delta_tables(
            cube.label_pairs, pair_horizons, presence
        )
        if tables is not None:
            met_rows, cost_rows = tables  # (P, D, n)
            n = table.graph.num_nodes
            delta = np.array(
                [(v - u) % n for u, v in start_pairs], dtype=np.intp
            )
            start_count = len(start_pairs)
            # (P, D, S) -> (P, S, D) -> flat row-major = enumeration order.
            met_flat = (
                met_rows[:, :, delta].transpose(0, 2, 1).reshape(-1)
            )
            cost_flat = (
                cost_rows[:, :, delta].transpose(0, 2, 1).reshape(-1)
            )
            executions = int(met_flat.size)

            def decode_flat(position: int) -> tuple[Configuration, int]:
                pair_index, rest = divmod(position, start_count * delay_count)
                start_index, delay_index = divmod(rest, delay_count)
                config = Configuration(
                    labels=cube.label_pairs[pair_index],
                    starts=start_pairs[start_index],
                    delay=delays[delay_index],
                )
                return config, pair_horizons[pair_index][delay_index][1]

            for position in np.nonzero(met_flat < 0)[0].tolist():
                failures.append(decode_flat(position)[0])
            if int(met_flat.max()) >= 0:
                position = int(met_flat.argmax())
                config, horizon = decode_flat(position)
                worst_time = (int(met_flat[position]), config, horizon)
                masked_cost = np.where(met_flat >= 0, cost_flat, -1)
                position = int(masked_cost.argmax())
                config, horizon = decode_flat(position)
                worst_cost = (int(masked_cost[position]), config, horizon)
            return worst_time, worst_cost, failures, executions

    s1 = np.array([pair[0] for pair in start_pairs], dtype=np.intp)
    s2 = np.array([pair[1] for pair in start_pairs], dtype=np.intp)

    def decode(position: int, labels: tuple[int, int]) -> Configuration:
        return Configuration(
            labels=labels,
            starts=start_pairs[position // delay_count],
            delay=delays[position % delay_count],
        )

    for labels in cube.label_pairs:
        delay_horizons = _pair_horizons(cube, labels, max_rounds)
        met, cost = table.pair_cube(labels, delay_horizons, presence, s1, s2)
        flat_met = met.reshape(-1)
        executions += int(flat_met.size)
        missed = np.nonzero(flat_met < 0)[0]
        for position in missed.tolist():
            failures.append(decode(position, labels))
        if missed.size == flat_met.size:
            continue
        position = int(flat_met.argmax())
        if worst_time is None or int(flat_met[position]) > worst_time[0]:
            worst_time = (
                int(flat_met[position]),
                decode(position, labels),
                delay_horizons[position % delay_count][1],
            )
        masked_cost = np.where(flat_met >= 0, cost.reshape(-1), -1)
        position = int(masked_cost.argmax())
        if worst_cost is None or int(masked_cost[position]) > worst_cost[0]:
            worst_cost = (
                int(masked_cost[position]),
                decode(position, labels),
                delay_horizons[position % delay_count][1],
            )
    return worst_time, worst_cost, failures, executions


def _stream_search(
    np: Any,
    table: CubeTimelineTable,
    configs: Iterable[Configuration],
    max_rounds: int | Callable[[Configuration], int],
    presence: PresenceModel,
) -> tuple[
    tuple[int, Configuration, int] | None,
    tuple[int, Configuration, int] | None,
    list[Configuration],
    int,
    int,
]:
    """The chunked reducer for arbitrary configuration streams.

    Pulls :func:`repro.sim.batch.stream_chunks` chunks and answers each
    through :meth:`CubeTimelineTable.evaluate_arrays`.  ``argmax``
    returns the *first* maximiser, and failures sit at ``-1`` below any
    meeting time (costs are masked to ``-1``), so each chunk's candidate
    carries the lowest in-chunk position; with the strict-``>`` update
    across chunks this is exactly the serial first-wins tie-break.
    """
    horizon_of = max_rounds if callable(max_rounds) else None
    worst_time: tuple[int, Configuration, int] | None = None
    worst_cost: tuple[int, Configuration, int] | None = None
    failures: list[Configuration] = []
    executions = 0
    chunks = 0
    for chunk in stream_chunks(configs, table.graph):
        chunks += 1
        if horizon_of is not None:
            horizons = [horizon_of(config) for config in chunk]
        else:
            horizons = [max_rounds] * len(chunk)
        met, cost = table.evaluate_arrays(chunk, horizons, presence)
        executions += len(chunk)
        missed = np.nonzero(met < 0)[0]
        for position in missed.tolist():
            failures.append(chunk[position])
        if missed.size == len(chunk):
            continue
        position = int(met.argmax())
        if worst_time is None or met[position] > worst_time[0]:
            worst_time = (int(met[position]), chunk[position], horizons[position])
        masked_cost = np.where(met >= 0, cost, -1)
        position = int(masked_cost.argmax())
        if worst_cost is None or masked_cost[position] > worst_cost[0]:
            worst_cost = (
                int(masked_cost[position]),
                chunk[position],
                horizons[position],
            )
    return worst_time, worst_cost, failures, executions, chunks


def cube_worst_case_search(
    graph: PortLabeledGraph,
    factory: ProgramFactory,
    configs: Iterable[Configuration],
    max_rounds: int | Callable[[Configuration], int],
    presence: PresenceModel = PresenceModel.FROM_START,
    telemetry: Telemetry = NULL_TELEMETRY,
    prune: bool | None = None,
) -> WorstCaseReport:
    """The cube engine behind ``worst_case_search(engine="cube")``.

    A :class:`ConfigCube` input takes the whole-cube tensor path
    (configurations never materialize); any other iterable streams in
    bounded chunks over the same table.  ``prune=None`` resolves
    through :func:`repro.sim.prune.resolve_prune`; pruned and unpruned
    reports are byte-identical.  Telemetry splits build versus scan
    seconds and meters every prune avenue.
    """
    np = batch_module.require_numpy("cube")
    table = CubeTimelineTable(graph, factory, prune=prune)
    chunks = 0
    with telemetry.span("cube.search"):
        started = time.perf_counter()
        if isinstance(configs, ConfigCube) and configs.graph == graph:
            worst_time, worst_cost, failures, executions = _whole_cube_search(
                np, table, configs, max_rounds, presence
            )
        else:
            worst_time, worst_cost, failures, executions, chunks = (
                _stream_search(np, table, configs, max_rounds, presence)
            )
        if telemetry.enabled:
            elapsed = time.perf_counter() - started
            telemetry.gauge(
                "cube.table_build_seconds", round(table.build_seconds, 6)
            )
            telemetry.gauge(
                "cube.scan_seconds",
                round(max(elapsed - table.build_seconds, 0.0), 6),
            )
            telemetry.count("cube.chunks", chunks)
            telemetry.count("configs.evaluated", executions)
            stats = table.stats
            telemetry.count("cube.prune.orbit_cells", stats.orbit_cells)
            telemetry.count(
                "cube.prune.dominated_slices", stats.dominated_slices
            )
            telemetry.count(
                "cube.prune.early_exit_rounds", stats.early_exit_rounds
            )

    def record(
        extreme: tuple[int, Configuration, int] | None,
    ) -> ExtremeRecord | None:
        if extreme is None:
            return None
        _, config, horizon = extreme
        return ExtremeRecord(
            config=config, result=table.result(config, horizon, presence)
        )

    return WorstCaseReport(
        worst_time=record(worst_time),
        worst_cost=record(worst_cost),
        executions=executions,
        failures=tuple(failures),
    )
