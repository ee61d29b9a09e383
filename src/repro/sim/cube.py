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

:func:`cube_reduce` is the substrate's one reducer: a :class:`ConfigCube`
-- a whole sweep, or a runtime shard's window of one -- takes the
whole-cube path, any other iterable (a sampled population, a flat list)
is folded chunk by chunk from :func:`repro.sim.batch.evaluate_stream`.
Both ``worst_case_search(engine="cube")`` and the runtime's shards call
it on a built table and receive the shared
:class:`~repro.sim.adversary.Reduction`.  The table memoises per-slice
delta rows, so shards of one process that split a label pair scan it
once.

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
from repro.sim.adversary import (
    ConfigCube,
    Configuration,
    Extreme,
    Reduction,
    WorstCaseReport,
)
from repro.sim.batch import (
    _BLOCK_ELEMENTS,
    _DENSE_FRACTION,
    _MIN_TIME_BLOCK,
    BatchTimelineTable,
    LabelTimelines,
    evaluate_stream,
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


def _first_colocations(
    np: Any,
    pos0: Any,
    i1: Any,
    i2: Any,
    delays: Any,
    limit: Any,
    parachute: bool,
    n: int,
    stats: PruneStats,
) -> Any:
    """Per-delta first colocations of every scan group, as a ``(G, n)`` array.

    Group ``g`` pairs label rows ``i1[g]``/``i2[g]`` of the parked-tail
    padded start-0 position tensor ``pos0`` at delay ``delays[g]``.  With
    rotation-derived timelines, starts ``(s1, s2)`` colocate at ``t`` iff
    ``pos1(t) - pos2(t') == s2 - s1 (mod n)`` of the start-0 rows, so one
    row over ``delta`` answers all ``n**2`` start pairs of a slice.  Time
    points past the group's ``limit`` (or, parachute only, before its
    wake) match no delta; ``-1`` means never.  Groups are scanned in
    batches and time in column blocks, so the ``(g, b, n)`` comparison
    stays within ``_BLOCK_ELEMENTS``; a batch stops early once every
    delta has met (``stats.early_exit_rounds`` counts the skipped time
    points).
    """
    count = len(i1)
    met = np.full((count, n), -1, dtype=np.int64)
    tmax = pos0.shape[1] - 1
    deltas = np.arange(n, dtype=np.int64)
    batch = max(1, _BLOCK_ELEMENTS // (n * _MIN_TIME_BLOCK))
    for g0 in range(0, count, batch):
        rows = slice(g0, g0 + batch)
        first, second, shift, end = i1[rows], i2[rows], delays[rows], limit[rows]
        found = met[rows]
        max_scan = int(end.max())
        block = max(_MIN_TIME_BLOCK, _BLOCK_ELEMENTS // (len(first) * n))
        t0 = int(shift.min()) if parachute else 0
        while t0 <= max_scan:
            t1 = min(t0 + block - 1, max_scan)
            times = np.arange(t0, t1 + 1, dtype=np.intp)
            a = pos0[first[:, None], np.minimum(times, tmax)[None, :]]
            cols2 = np.clip(times[None, :] - shift[:, None], 0, tmax)
            diffs = (a - pos0[second[:, None], cols2]) % n  # (g, b)
            # Out-of-window time points match no delta; the sentinel ``n``
            # folds the window mask into the equality test.
            invalid = times[None, :] > end[:, None]
            if parachute:
                invalid |= times[None, :] < shift[:, None]
            diffs = np.where(invalid, n, diffs)
            hits = diffs[:, :, None] == deltas[None, None, :]  # (g, b, n)
            fresh = hits.any(axis=1) & (found < 0)
            if fresh.any():
                found[...] = np.where(fresh, t0 + hits.argmax(axis=1), found)
                if (found >= 0).all():
                    stats.early_exit_rounds += max_scan - t1
                    break
            t0 = t1 + 1
    return met


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

    def cube_delta_tables(
        self,
        label_pairs: Sequence[tuple[int, int]],
        delay_horizons: Sequence[Sequence[tuple[int, int]]],
        presence: PresenceModel,
    ) -> tuple[Any, Any] | None:
        """``(met, cost)`` as ``(P, D, n)`` tensors over ``delta``.

        ``delay_horizons[p]`` lists pair ``p``'s ``(delay, horizon)``
        slices (one per delay-axis entry, so ``D`` is uniform).  Rows are
        memoised per ``(labels, delay, horizon, presence)``, so shards
        that split a label pair scan it once per table; the slices no
        earlier call answered are scanned together in one cross-label
        pass (:meth:`_scan_delta_rows`).  Returns ``None`` when the orbit
        certificate does not hold (or the trajectory probe voids it
        mid-build).
        """
        if not self.certificate.orbit:
            return None
        missing = []
        for labels, slices in zip(label_pairs, delay_horizons):
            todo = [
                (delay, horizon)
                for delay, horizon in slices
                if (labels, delay, horizon, presence) not in self._delta_rows
            ]
            if todo:
                missing.append((labels, todo))
        if missing and not self._scan_delta_rows(missing, presence):
            return None
        np = self._np
        rows = [
            [
                self._delta_rows[(labels, delay, horizon, presence)]
                for delay, horizon in slices
            ]
            for labels, slices in zip(label_pairs, delay_horizons)
        ]
        shape = (len(rows), len(rows[0]) if rows else 0, self.graph.num_nodes)
        met = np.array([[m for m, _ in pair] for pair in rows], dtype=np.int64)
        cost = np.array([[c for _, c in pair] for pair in rows], dtype=np.int64)
        return met.reshape(shape), cost.reshape(shape)

    def _scan_delta_rows(
        self,
        missing: Sequence[tuple[tuple[int, int], Sequence[tuple[int, int]]]],
        presence: PresenceModel,
    ) -> bool:
        """Scan and memoise the delta rows of ``(labels, slices)`` entries.

        The cross-label pass: every label's start-0 timeline is stacked
        (parked-tail padded) into one ``(L, Tmax+1)`` tensor, and the
        dominance pivots of all pairs are scanned by one
        :func:`_first_colocations` call -- no Python loop over label pairs
        touches the time axis; dominated slices derive from their pivot
        rows by exact translation.  ``False`` when the trajectory probe
        voids the orbit certificate while the timelines are built.
        """
        np = self._np
        n = self.graph.num_nodes
        labels_needed = sorted({label for labels, _ in missing for label in labels})
        stacked = {label: self.timelines(label) for label in labels_needed}
        if not self.certificate.orbit:  # probe mismatch mid-build
            return False
        parachute = presence is PresenceModel.PARACHUTE
        index_of = {label: slot for slot, label in enumerate(labels_needed)}
        tmax = max(stacked[label].length for label in labels_needed)
        # Parked-tail padding makes the rows rectangular across labels:
        # past its own schedule a timeline repeats its final position and
        # cost, so clamped reads below need only the shared tmax.
        # Positions stay narrow (with room for the scan's sentinel ``n``);
        # costs widen only where two of them are summed.
        position_dtype = np.int16 if n < 2**15 else np.int64
        pos0 = np.empty((len(labels_needed), tmax + 1), dtype=position_dtype)
        cost0 = np.empty((len(labels_needed), tmax + 1), dtype=np.int32)
        for slot, label in enumerate(labels_needed):
            timeline = stacked[label]
            end = timeline.length + 1
            pos0[slot, :end] = timeline.positions[0]
            pos0[slot, end:] = int(timeline.positions[0][-1])
            cost0[slot, :end] = timeline.costs[0]
            cost0[slot, end:] = int(timeline.costs[0][-1])
        # One scan group per dominance pivot; dominated slices derive.
        plans = [
            dominance_plan(slices, stacked[labels[0]].length)
            for labels, slices in missing
        ]
        groups = [
            (labels, *slices[index])
            for (labels, slices), plan in zip(missing, plans)
            for index in plan.scan
        ]
        i1 = np.array([index_of[labels[0]] for labels, _, _ in groups], dtype=np.intp)
        i2 = np.array([index_of[labels[1]] for labels, _, _ in groups], dtype=np.intp)
        delays = np.array([delay for _, delay, _ in groups], dtype=np.int64)
        horizons = np.array([horizon for _, _, horizon in groups], dtype=np.int64)
        lengths = np.array(
            [stacked[label].length for label in labels_needed], dtype=np.int64
        )
        limit = np.minimum(horizons, np.maximum(lengths[i1], delays + lengths[i2]))
        met = _first_colocations(
            np, pos0, i1, i2, delays, limit, parachute, n, self.stats
        )
        # Start-oblivious costs are start-independent, so the start-0 rows
        # price every orbit member: through the meeting round, or through
        # the slice's horizon where the delta never meets.
        last = np.where(met >= 0, met, horizons[:, None])
        cost = cost0[i1[:, None], np.minimum(last, tmax)].astype(np.int64) + cost0[
            i2[:, None], np.clip(last - delays[:, None], 0, tmax)
        ]
        group = 0
        for (labels, slices), plan in zip(missing, plans):
            rows: dict[int, tuple[Any, Any]] = {}
            for index in plan.scan:
                rows[index] = (met[group], cost[group])
                group += 1
            for index, (pivot, shift) in plan.derived.items():
                met_pivot, cost_pivot = rows[pivot]
                rows[index] = (
                    derive_met(np, met_pivot, slices[pivot][0], shift, parachute),
                    cost_pivot,  # dominance holds costs fixed (see prune.py)
                )
                self.stats.dominated_slices += 1
            for index, (delay, horizon) in enumerate(slices):
                self._delta_rows[(labels, delay, horizon, presence)] = rows[index]
        # Each scanned slice scans n - 1 nonzero deltas (one start pair
        # each) and rotation answers the other (n - 1)**2 of its n(n - 1)
        # cells.
        self.stats.orbit_cells += len(groups) * (n - 1) ** 2
        return True

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
        tables = self.cube_delta_tables([labels], [missing], presence)
        if tables is not None:
            met_rows, cost_rows = tables[0][0], tables[1][0]
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

        The whole-cube path off the orbit: rows follow the given start
        pairs, columns the given delays -- the flattened result is the
        global enumeration order within the pair, which is what makes one
        ``argmax`` reproduce the serial first-wins tie-break.  Dense row
        sets read one tensor pass's all-pairs matrices; sparse ones scan
        just their rows (:meth:`group_rows`).
        """
        np = self._np
        if len(s1) * _DENSE_FRACTION >= self.graph.num_nodes**2:
            self._ensure_matrices(labels, delay_horizons, presence)
        columns = [
            self.group_rows(labels, delay, horizon, presence, s1, s2)
            for delay, horizon in delay_horizons
        ]
        return (
            np.stack([met for met, _ in columns], axis=1),
            np.stack([cost for _, cost in columns], axis=1),
        )


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


class _Extremes:
    """Running extremes over flat blocks folded in enumeration order.

    ``argmax`` returns a block's *first* maximiser, and failures sit at
    ``-1`` below any meeting time (costs are masked to ``-1``), so each
    block's candidate is its earliest; with the strict-``>`` update
    across blocks this is exactly the serial first-wins tie-break.
    """

    def __init__(self, np: Any) -> None:
        self.np = np
        self.worst_time: Extreme | None = None
        self.worst_cost: Extreme | None = None
        self.failures: list[tuple[int, Configuration]] = []

    def fold(self, met: Any, cost: Any, offset: int, decode: Callable) -> None:
        """Fold one block of flat arrays starting at stream ``offset``.

        ``decode(position)`` is the ``(configuration, horizon)`` at a
        stream position; only failures and winners are ever decoded.
        """
        missed = self.np.nonzero(met < 0)[0].tolist()
        self.failures.extend((offset + i, decode(offset + i)[0]) for i in missed)
        if len(missed) == met.size:
            return

        def extreme(i: int) -> Extreme:
            config, horizon = decode(offset + i)
            return Extreme(offset + i, config, int(met[i]), int(cost[i]), horizon)

        i = int(met.argmax())
        if self.worst_time is None or met[i] > self.worst_time.time:
            self.worst_time = extreme(i)
        masked_cost = self.np.where(met >= 0, cost, -1)
        i = int(masked_cost.argmax())
        if self.worst_cost is None or masked_cost[i] > self.worst_cost.cost:
            self.worst_cost = extreme(i)

    def reduction(self, executions: int, chunks: int = 0) -> Reduction:
        return Reduction(
            self.worst_time, self.worst_cost, tuple(self.failures), executions, chunks
        )


def _whole_cube_search(
    table: CubeTimelineTable,
    cube: ConfigCube,
    max_rounds: int | Callable[[Configuration], int],
    presence: PresenceModel,
) -> Reduction:
    """Answer a :class:`ConfigCube` window without materializing configs.

    Only the label pairs the window ``[cube.lo, cube.hi)`` touches are
    answered; positions are window-relative, and a
    :class:`Configuration` exists only once an argmax winner or a failure
    is decoded.  Horizons resolve once per ``(label pair, delay)``.  On a
    certified-cyclic sweep the touched pairs are one stacked pass
    (:meth:`CubeTimelineTable.cube_delta_tables`) folded as a single block
    in global enumeration order; otherwise each pair's in-window start
    rows are one block.
    """
    np = table._np
    extremes = _Extremes(np)
    if not len(cube):
        return extremes.reduction(0)
    delay_count = len(cube.delays)
    block = len(cube.start_pairs) * delay_count  # one label pair's configurations
    first = cube.lo // block
    pairs = cube.label_pairs[first : -(-cube.hi // block)]
    pair_horizons = [_pair_horizons(cube, labels, max_rounds) for labels in pairs]

    def decode(position: int) -> tuple[Configuration, int]:
        index = cube.lo + position
        pair, _, delay = cube.coordinates(index)
        return cube.config_at(index), pair_horizons[pair - first][delay][1]

    tables = table.cube_delta_tables(pairs, pair_horizons, presence)
    if tables is not None:
        met_rows, cost_rows = tables  # (P, D, n)
        n = table.graph.num_nodes
        delta = np.array([(v - u) % n for u, v in cube.start_pairs], dtype=np.intp)
        # (P, D, S) -> (P, S, D) -> flat row-major = enumeration order.
        window = slice(cube.lo - first * block, cube.hi - first * block)
        extremes.fold(
            met_rows[:, :, delta].transpose(0, 2, 1).reshape(-1)[window],
            cost_rows[:, :, delta].transpose(0, 2, 1).reshape(-1)[window],
            0,
            decode,
        )
        return extremes.reduction(len(cube))

    s1 = np.array([pair[0] for pair in cube.start_pairs], dtype=np.intp)
    s2 = np.array([pair[1] for pair in cube.start_pairs], dtype=np.intp)
    for slot, labels in enumerate(pairs):
        # The window's cells of this pair, and the start rows holding them.
        base = (first + slot) * block
        lo, hi = max(cube.lo - base, 0), min(cube.hi - base, block)
        rows = slice(lo // delay_count, -(-hi // delay_count))
        met, cost = table.pair_cube(
            labels, pair_horizons[slot], presence, s1[rows], s2[rows]
        )
        cells = slice(lo - rows.start * delay_count, hi - rows.start * delay_count)
        extremes.fold(
            met.reshape(-1)[cells],
            cost.reshape(-1)[cells],
            base + lo - cube.lo,
            decode,
        )
    return extremes.reduction(len(cube))


def _stream_search(
    table: CubeTimelineTable,
    configs: Iterable[Configuration],
    max_rounds: int | Callable[[Configuration], int],
    presence: PresenceModel,
) -> Reduction:
    """The chunked reducer for arbitrary configuration streams.

    Folds each :func:`repro.sim.batch.evaluate_stream` chunk as one
    block; the chunk count rides on the reduction.
    """
    extremes = _Extremes(table._np)
    offset = chunks = 0
    for chunk, horizons, met, cost in evaluate_stream(
        table, configs, max_rounds, presence
    ):
        extremes.fold(
            met,
            cost,
            offset,
            lambda position, base=offset: (
                chunk[position - base],
                horizons[position - base],
            ),
        )
        offset += len(chunk)
        chunks += 1
    return extremes.reduction(offset, chunks)


def cube_reduce(
    table: CubeTimelineTable,
    configs: Iterable[Configuration],
    max_rounds: int | Callable[[Configuration], int],
    presence: PresenceModel = PresenceModel.FROM_START,
) -> Reduction:
    """The cube substrate's reducer, shared by searches and runtime shards.

    A :class:`ConfigCube` over the table's graph takes the whole-cube
    tensor path (configurations never materialize); any other iterable
    streams in bounded chunks over the same table.
    """
    if isinstance(configs, ConfigCube) and configs.graph == table.graph:
        return _whole_cube_search(table, configs, max_rounds, presence)
    return _stream_search(table, configs, max_rounds, presence)


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

    Builds a :class:`CubeTimelineTable` and reduces through
    :func:`cube_reduce`.  ``prune=None`` resolves through
    :func:`repro.sim.prune.resolve_prune`; pruned and unpruned reports
    are byte-identical.  Telemetry splits build versus scan seconds and
    meters every prune avenue.
    """
    table = CubeTimelineTable(graph, factory, prune=prune)
    with telemetry.span("cube.search"):
        started = time.perf_counter()
        reduction = cube_reduce(table, configs, max_rounds, presence)
        if telemetry.enabled:
            elapsed = time.perf_counter() - started
            telemetry.gauge(
                "cube.table_build_seconds", round(table.build_seconds, 6)
            )
            telemetry.gauge(
                "cube.scan_seconds",
                round(max(elapsed - table.build_seconds, 0.0), 6),
            )
            telemetry.count("cube.chunks", reduction.chunks)
            telemetry.count("configs.evaluated", reduction.executions)
            stats = table.stats
            telemetry.count("cube.prune.orbit_cells", stats.orbit_cells)
            telemetry.count(
                "cube.prune.dominated_slices", stats.dominated_slices
            )
            telemetry.count(
                "cube.prune.early_exit_rounds", stats.early_exit_rounds
            )
    return reduction.report(table, presence)
