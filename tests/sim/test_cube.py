"""The cube engine: whole-cube tensorization and pruning soundness.

Two contracts are enforced here.  First, byte-identity: with pruning on,
with pruning off, on the whole-cube tensor path and on the chunked
stream path, the cube engine must return reports equal field-for-field
to the reactive engine -- for every registered algorithm on a small
instance of every registered graph family, under both presence models
(the matrix the lint rule ``REP030`` cites as its mirror).  Second, the
pruning machinery itself (:mod:`repro.sim.prune`): rotation orbits must
partition the full ordered-start space on odd and even rings, the
certification gates must each refuse exactly their failure mode, delay
dominance must derive exact translates, and every knob must resolve
through its single funnel.
"""

from types import SimpleNamespace

import pytest

from repro.exploration.ring import RingExploration
from repro.graphs.families import oriented_ring
from repro.obs.telemetry import Telemetry
from repro.registry import ALGORITHMS, GRAPH_FAMILIES
from repro.sim import batch as batch_module
from repro.sim.adversary import (
    ConfigCube,
    all_label_pairs,
    configurations,
    default_horizon,
    worst_case_search,
)
from repro.sim.batch import (
    DEFAULT_STREAM_CHUNK,
    BatchUnavailableError,
    numpy_available,
    resolve_stream_chunk,
)
from repro.sim.cube import CubeTimelineTable, cube_worst_case_search
from repro.sim.prune import (
    DEFAULT_PRUNE,
    PRUNE_ENV,
    certify_symmetry,
    derive_met,
    dominance_plan,
    orbit_of,
    orbit_representatives,
    pair_delta,
    reflection_automorphism,
    resolve_prune,
    rotation_automorphism,
    start_oblivious_factory,
)
from repro.sim.simulator import PresenceModel

# The same small-instance conventions as the wider cross-engine suite --
# imported, not copied, so the two matrices can never drift apart (and
# test_compiled's registry-sync test covers this module too).
from tests.sim.test_compiled import (
    LABEL_SPACE,
    SMALL_FAMILIES,
    UndeclaredShortWait,
    build_algorithm,
    delay_grid,
    small_instance,
)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the cube engine needs NumPy"
)


@needs_numpy
@pytest.mark.parametrize("family", sorted(SMALL_FAMILIES))
@pytest.mark.parametrize("algorithm_name", ALGORITHMS.names())
def test_pruning_never_changes_a_report(family, algorithm_name):
    """The REP030 mirror: pruned == unpruned == reactive, everywhere.

    Both the whole-cube tensor path (a :class:`ConfigCube` input) and the
    chunked stream path (the same configurations as a flat list) are
    exercised with pruning resolved both ways; only certified-cyclic
    families actually take the orbit shortcut, but every family must come
    back byte-identical to the reactive reference regardless.
    """
    graph = small_instance(family)
    algorithm = build_algorithm(algorithm_name, graph)
    cube = ConfigCube.make(
        graph, all_label_pairs(LABEL_SPACE), delays=delay_grid(algorithm)
    )

    def horizon(config):
        return default_horizon(algorithm, config)

    flat = list(cube)
    for presence in PresenceModel:
        reactive = worst_case_search(
            graph, algorithm, flat, horizon, presence=presence, engine="reactive"
        )
        for configs, path in ((cube, "cube"), (flat, "stream")):
            for prune in (True, False):
                report = cube_worst_case_search(
                    graph, algorithm, configs, horizon, presence=presence, prune=prune
                )
                assert report == reactive, (
                    f"{algorithm_name} on {family} ({presence}, {path}, prune={prune})"
                )


@needs_numpy
class TestStreamPath:
    def test_stream_and_whole_cube_paths_agree_either_way(self, ring12):
        """Configuration lists take the chunked path; reports still match.

        The delay grid reaches past the schedule so dominance fires on
        both paths, and the stream path is fed a plain iterator so the
        ``ConfigCube`` fast-path check cannot trigger.
        """
        algorithm = build_algorithm("fast", ring12)
        budget = algorithm.exploration_budget
        cube = ConfigCube.make(
            ring12,
            all_label_pairs(LABEL_SPACE),
            delays=(0, 2, budget + 1, budget + 4),
        )

        def horizon(config):
            return default_horizon(algorithm, config)

        reactive = worst_case_search(
            ring12, algorithm, list(cube), horizon, engine="reactive"
        )
        for prune in (True, False):
            whole = cube_worst_case_search(
                ring12, algorithm, cube, horizon, prune=prune
            )
            streamed = cube_worst_case_search(
                ring12, algorithm, iter(list(cube)), horizon, prune=prune
            )
            assert whole == reactive, f"whole-cube path, prune={prune}"
            assert streamed == reactive, f"stream path, prune={prune}"

    def test_foreign_graph_cube_streams_instead_of_tensorizing(self, ring12):
        """A cube built over a *different* graph must not take the fast path."""
        other = oriented_ring(6)
        algorithm = build_algorithm("cheap", ring12)
        cube = ConfigCube.make(other, [(1, 2)], delays=(0,))

        def horizon(config):
            return default_horizon(algorithm, config)

        telemetry = Telemetry()
        report = cube_worst_case_search(
            ring12,
            algorithm,
            list(cube),
            horizon,
            telemetry=telemetry,
        )
        assert telemetry.counters["cube.chunks"] >= 1
        assert report == worst_case_search(
            ring12, algorithm, list(cube), horizon, engine="reactive"
        )


class TestOrbitCoverage:
    """The property behind orbit pruning: a disjoint, exhaustive partition."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17])
    def test_representatives_partition_the_ordered_start_space(self, n):
        representatives = orbit_representatives(n)
        assert len(representatives) == n - 1
        covered: set[tuple[int, int]] = set()
        for representative in representatives:
            delta = pair_delta(representative, n)
            orbit = set(orbit_of(n, delta))
            assert representative in orbit
            assert len(orbit) == n
            assert all(pair_delta(pair, n) == delta for pair in orbit)
            assert not covered & orbit, "orbits must be disjoint"
            covered |= orbit
        full_space = {
            (s1, s2) for s1 in range(n) for s2 in range(n) if s1 != s2
        }
        assert covered == full_space

    @pytest.mark.parametrize("n", [5, 8])
    def test_deltas_are_rotation_invariants(self, n):
        for delta in range(1, n):
            for shift in range(n):
                rotated = ((0 + shift) % n, (delta + shift) % n)
                assert pair_delta(rotated, n) == delta


class TestCertification:
    """Each gate refuses exactly its own failure mode, loudly."""

    def test_oriented_ring_rotation_is_port_preserving(self):
        for n in (3, 8, 12):
            assert rotation_automorphism(oriented_ring(n))

    def test_oriented_ring_reflection_swaps_ports(self):
        # The documented reason reflection orbits are never merged: on an
        # oriented ring the mirror is a graph automorphism but exchanges
        # the clockwise and counterclockwise ports.
        assert not reflection_automorphism(oriented_ring(8))

    def test_undeclared_family_fails_the_declaration_gate(self):
        graph = GRAPH_FAMILIES.entry("path").build(n=4)
        assert graph.declared_symmetry is None
        certificate = certify_symmetry(graph, build_algorithm("fast", graph))
        assert not certificate.orbit
        assert "cyclic" in certificate.reason

    def test_wrong_declaration_fails_the_exact_recheck(self):
        # A lying declaration must cost performance, never correctness:
        # the O(E) structural check catches it before any orbit is used.
        graph = GRAPH_FAMILIES.entry("path").build(n=4).declare_symmetry("cyclic")
        certificate = certify_symmetry(graph, build_algorithm("fast", graph))
        assert not certificate.orbit
        assert "rotation" in certificate.reason

    def test_undeclared_factory_fails_the_behavioural_gate(self, ring12):
        undeclared = UndeclaredShortWait(RingExploration(12), label_space=LABEL_SPACE)
        assert not start_oblivious_factory(undeclared)
        certificate = certify_symmetry(ring12, undeclared)
        assert not certificate.orbit
        assert "start_oblivious" in certificate.reason

    def test_registered_algorithm_on_a_ring_earns_the_certificate(self, ring12):
        certificate = certify_symmetry(ring12, build_algorithm("fast", ring12))
        assert certificate.orbit


class _LyingExploration:
    start_oblivious = True


class StartSensitiveFactory:
    """Declares ``start_oblivious`` but anchors its route to node 0.

    Started at node 0 it walks clockwise for its whole schedule; started
    anywhere else it never moves -- the exact lie the derived-trajectory
    probe exists to catch.
    """

    name = "start-sensitive"
    is_oblivious = True
    exploration = _LyingExploration()

    def schedule_length(self, label: int) -> int:
        return 6

    def __call__(self, ctx):
        anchored = ctx.require_position() == 0
        obs = yield
        for _ in range(self.schedule_length(0)):
            obs = yield (0 if anchored else None)


@needs_numpy
class TestProbeDefense:
    def test_lying_factory_voids_the_certificate(self):
        graph = oriented_ring(6)
        factory = StartSensitiveFactory()
        # Every declaration gate passes -- the lie is behavioural.
        assert certify_symmetry(graph, factory).orbit
        table = CubeTimelineTable(graph, factory, prune=True)
        assert table.orbit_active
        table.timelines(1)
        assert not table.orbit_active
        assert "probe mismatch" in table.certificate.reason

    def test_fallback_after_the_probe_is_still_byte_identical(self):
        graph = oriented_ring(6)
        factory = StartSensitiveFactory()
        cube = ConfigCube.make(graph, [(1, 2), (2, 1)], delays=(0, 2))
        reactive = worst_case_search(
            graph, factory, list(cube), 12, engine="reactive"
        )
        assert cube_worst_case_search(graph, factory, cube, 12) == reactive


class TestDominance:
    def test_plan_groups_slices_by_post_wake_window(self):
        plan = dominance_plan(
            [(0, 10), (6, 16), (8, 18), (7, 20), (9, 19)], first_length=5
        )
        # (0, 10) is below the threshold; (6, 16) pivots K=10 for
        # (8, 18) and (9, 19); (7, 20) pivots K=13 alone.
        assert plan.scan == (0, 1, 3)
        assert plan.derived == {2: (1, 2), 4: (1, 3)}

    def test_plan_below_the_schedule_scans_everything(self):
        plan = dominance_plan([(0, 10), (1, 11), (2, 12)], first_length=5)
        assert plan.scan == (0, 1, 2)
        assert plan.derived == {}

    @needs_numpy
    def test_derive_met_translates_exactly_the_post_wake_meetings(self):
        np = batch_module.require_numpy("cube")
        met_pivot = np.array([-1, 3, 7, 12])
        from_start = derive_met(np, met_pivot, 5, 4, parachute=False)
        assert from_start.tolist() == [-1, 3, 11, 16]
        parachute = derive_met(np, met_pivot, 5, 4, parachute=True)
        assert parachute.tolist() == [-1, 7, 11, 16]


@needs_numpy
class TestTelemetryMeters:
    def test_prune_avenues_are_metered_on_a_certified_sweep(self, ring12):
        algorithm = build_algorithm("fast", ring12)
        longest = max(
            algorithm.schedule_length(label)
            for label in range(1, LABEL_SPACE + 1)
        )
        pairs = list(all_label_pairs(LABEL_SPACE))
        cube = ConfigCube.make(
            ring12, pairs, delays=(0, longest + 1, longest + 2)
        )

        def horizon(config):
            return default_horizon(algorithm, config)

        telemetry = Telemetry()
        report = cube_worst_case_search(
            ring12, algorithm, cube, horizon, telemetry=telemetry
        )
        counters = telemetry.counters
        assert counters["configs.evaluated"] == len(cube)
        assert counters["cube.chunks"] == 0  # whole-cube path, no chunking
        # Both past-schedule delays share K = max schedule length, so one
        # slice per label pair derives from its pivot; the other two are
        # scanned, and rotation answers (n - 1)**2 cells of each.
        assert counters["cube.prune.dominated_slices"] == len(pairs)
        assert counters["cube.prune.orbit_cells"] == len(pairs) * 2 * 11**2
        assert report == worst_case_search(
            ring12, algorithm, list(cube), horizon, engine="reactive"
        )

    def test_orbit_cells_count_rotation_answered_cells_on_both_paths(self):
        ring = oriented_ring(5)
        algorithm = build_algorithm("fast", ring)
        cube = ConfigCube.make(ring, [(1, 2), (2, 1)], delays=(0, 1))

        def horizon(config):
            return default_horizon(algorithm, config)

        counters = []
        for configs in (cube, list(cube)):  # whole-cube path, stream path
            telemetry = Telemetry()
            cube_worst_case_search(
                ring, algorithm, configs, horizon, telemetry=telemetry
            )
            counters.append(telemetry.counters)
        for counted in counters:
            assert counted["cube.prune.dominated_slices"] == 0
            # 2 label pairs x 2 scanned delay slices: each slice scans its
            # 4 nonzero deltas and rotation answers the other (5 - 1)**2
            # of its 5 * 4 ordered start pairs.
            assert counted["cube.prune.orbit_cells"] == 2 * 2 * 4**2

    def test_disabled_pruning_meters_nothing(self, ring12):
        algorithm = build_algorithm("fast", ring12)
        cube = ConfigCube.make(ring12, [(1, 2)], delays=(0,))
        telemetry = Telemetry()
        cube_worst_case_search(
            ring12,
            algorithm,
            cube,
            lambda config: default_horizon(algorithm, config),
            telemetry=telemetry,
            prune=False,
        )
        assert telemetry.counters["cube.prune.orbit_cells"] == 0
        assert telemetry.counters["cube.prune.dominated_slices"] == 0


class TestResolvePrune:
    def test_pruning_defaults_on(self, monkeypatch):
        monkeypatch.delenv(PRUNE_ENV, raising=False)
        assert DEFAULT_PRUNE is True
        assert resolve_prune() is True

    def test_explicit_argument_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv(PRUNE_ENV, "0")
        assert resolve_prune(True) is True
        monkeypatch.setenv(PRUNE_ENV, "1")
        assert resolve_prune(False) is False

    @pytest.mark.parametrize("raw", ["1", "true", "YES", " on "])
    def test_truthy_environment_values(self, monkeypatch, raw):
        monkeypatch.setenv(PRUNE_ENV, raw)
        assert resolve_prune() is True

    @pytest.mark.parametrize("raw", ["0", "false", "No", " OFF "])
    def test_falsy_environment_values(self, monkeypatch, raw):
        monkeypatch.setenv(PRUNE_ENV, raw)
        assert resolve_prune() is False

    def test_garbage_environment_value_raises_naming_the_variable(
        self, monkeypatch
    ):
        monkeypatch.setenv(PRUNE_ENV, "maybe")
        with pytest.raises(ValueError, match=PRUNE_ENV):
            resolve_prune()


class TestResolveStreamChunk:
    def test_derived_default_is_floored_and_capped(self):
        # Small graphs floor at the flat default (8 * 8**2 = 512).
        assert resolve_stream_chunk(oriented_ring(8)) == DEFAULT_STREAM_CHUNK
        # Mid-size graphs scale with 8 * n**2.
        assert resolve_stream_chunk(oriented_ring(64)) == 8 * 64**2
        # Huge graphs cap (only num_nodes is read, so a stub suffices).
        huge = SimpleNamespace(num_nodes=4096)
        assert resolve_stream_chunk(huge) == 1 << 18


class TestWithoutNumpy:
    # Deliberately not skipped without NumPy: on the NumPy-free CI legs
    # the monkeypatch is a no-op and the real absence path is proven.
    def test_cube_raises_a_loud_hint_naming_cube(self, ring12, monkeypatch):
        algorithm = build_algorithm("fast", ring12)
        monkeypatch.setattr(batch_module, "_np", None)
        with pytest.raises(BatchUnavailableError, match="'cube'"):
            cube_worst_case_search(ring12, algorithm, [], 1)


@needs_numpy
class TestStartDependentHorizon:
    def test_whole_cube_path_rejects_start_dependent_horizons(self, ring12):
        algorithm = build_algorithm("fast", ring12)
        cube = ConfigCube.make(ring12, [(1, 2)], delays=(0,))

        def horizon(config):
            return 40 + config.starts[1]

        with pytest.raises(ValueError, match="as a plain iterable"):
            cube_worst_case_search(ring12, algorithm, cube, horizon)
        # The route the message names: the same configurations, flat.
        for prune in (True, False):
            report = cube_worst_case_search(
                ring12, algorithm, list(cube), horizon, prune=prune
            )
            assert report == worst_case_search(
                ring12, algorithm, list(cube), horizon, engine="reactive"
            )

    def test_stream_path_accepts_the_same_horizon(self, ring12):
        # Streamed configurations evaluate per-config horizons fine; only
        # the whole-cube tensor pass needs start independence.
        algorithm = build_algorithm("fast", ring12)
        configs = list(configurations(ring12, [(1, 2)], delays=(0,)))

        def horizon(config):
            return 40 + config.starts[1]

        report = cube_worst_case_search(ring12, algorithm, configs, horizon)
        assert report == worst_case_search(
            ring12, algorithm, configs, horizon, engine="reactive"
        )


class TestConfigCube:
    def test_iteration_matches_configurations_in_global_order(self, ring12):
        pairs = list(all_label_pairs(LABEL_SPACE))
        cube = ConfigCube.make(ring12, pairs, delays=(0, 2, 5))
        assert list(cube) == list(
            configurations(ring12, pairs, delays=(0, 2, 5))
        )
        assert len(cube) == len(pairs) * 12 * 11 * 3

    def test_fix_first_start_matches_too(self, ring12):
        cube = ConfigCube.make(
            ring12, [(1, 2)], delays=(0, 1), fix_first_start=True
        )
        assert list(cube) == list(
            configurations(
                ring12, [(1, 2)], delays=(0, 1), fix_first_start=True
            )
        )
        assert len(cube) == 11 * 2
