"""Adversary-space pruning: symmetry orbits, delay dominance, early exit.

The cube engine (:mod:`repro.sim.cube`) answers the whole
``L(L-1) x n(n-1) x D`` adversarial cube per sweep.  Most of that cube is
redundant: on a graph whose rotation is a *port-preserving* automorphism,
a start-oblivious agent traces rotated copies of one route, so every
rotation orbit of start pairs shares one verdict; and once the second
agent's wake-up delay exceeds the first agent's schedule, further delay
merely translates the tail of the execution, so whole delay slices are
exact translates of a pivot slice.  This module holds the *soundness
machinery* for those reductions -- certification, orbit arithmetic and
dominance planning -- so the engine itself stays a tensor pipeline.

Pruning soundness contract
--------------------------

Every reduction here is *exact reconstruction*, never approximation: a
pruned verdict is recomputed from its representative by a closed-form
rule proven from the simulator's semantics, so reports stay byte-identical
to the reactive engine (the cross-engine suite in ``tests/sim`` asserts
this for every registered algorithm x family x presence model).  Three
gates keep the rules sound:

* **Declaration** -- a graph family must declare ``symmetry="cyclic"``
  (:data:`repro.registry.GRAPH_FAMILIES` metadata, stamped onto built
  graphs as :attr:`~repro.graphs.port_graph.PortLabeledGraph.declared_symmetry`).
  Undeclared families fall back untouched, at zero cost.
* **Exact re-verification** -- the declaration is never trusted:
  :func:`rotation_automorphism` re-checks, in ``O(E)``, that
  ``v -> v + 1 (mod n)`` preserves every port label.  A wrong declaration
  therefore degrades performance, never correctness.  Reflection
  (``v -> -v (mod n)``) is checked by :func:`reflection_automorphism`
  but is *not* port-preserving on oriented rings (it swaps the
  clockwise/counterclockwise ports 0 and 1), so no registered family
  earns reflection orbits and the engine never merges them.
* **Behavioural declaration** -- the algorithm's exploration must declare
  :attr:`~repro.exploration.base.ExplorationProcedure.start_oblivious`
  (its port sequence depends only on the observation stream), and the
  engine still probes one derived trajectory against a real compilation
  before relying on the family (defense in depth).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.graphs.port_graph import PortLabeledGraph

#: Pruning is on by default: it is exact, so the only reason to disable
#: it is debugging (``--no-prune`` / ``REPRO_PRUNE=0``).
DEFAULT_PRUNE = True

#: Environment override consulted by :func:`resolve_prune` -- the hook the
#: CLI's ``--no-prune`` uses so pool and cluster workers inherit the
#: choice without widening ``JobSpec`` (pruned and unpruned runs produce
#: byte-identical reports, so the knob never belongs in run-store keys).
PRUNE_ENV = "REPRO_PRUNE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off"})


def resolve_prune(prune: bool | None = None) -> bool:
    """The single resolution funnel for the pruning knob.

    Explicit argument > ``REPRO_PRUNE`` environment variable >
    :data:`DEFAULT_PRUNE`.  Every ``prune=`` parameter elsewhere in the
    package defaults to ``None`` and routes through here (the lint rule
    ``REP030`` forbids other defaults), so one place defines precedence.
    """
    if prune is not None:
        return bool(prune)
    raw = os.environ.get(PRUNE_ENV)
    if raw is None:
        return DEFAULT_PRUNE
    lowered = raw.strip().lower()
    if lowered in _TRUTHY:
        return True
    if lowered in _FALSY:
        return False
    raise ValueError(
        f"{PRUNE_ENV}={raw!r} is not a boolean; use one of "
        f"{sorted(_TRUTHY)} or {sorted(_FALSY)}"
    )


# ----------------------------------------------------------------------
# Symmetry certification
# ----------------------------------------------------------------------


def rotation_automorphism(graph: PortLabeledGraph) -> bool:
    """Whether ``v -> v + 1 (mod n)`` preserves every port label.

    The exact ``O(E)`` check behind the ``symmetry="cyclic"`` family
    declaration: for every node ``u`` and port ``p`` with
    ``neighbor_via(u, p) == (v, q)``, the rotated node must satisfy
    ``neighbor_via(u + 1, p) == (v + 1, q)`` (all mod ``n``), and degrees
    must match.  When this holds, relabeling every node by ``+ s`` maps
    walks to walks with identical port decisions, which is what makes
    rotation-derived trajectories exact.
    """
    n = graph.num_nodes
    for u in range(n):
        rotated = (u + 1) % n
        degree = graph.degree(u)
        if graph.degree(rotated) != degree:
            return False
        for port in range(degree):
            v, q = graph.neighbor_via(u, port)
            if graph.neighbor_via(rotated, port) != ((v + 1) % n, q):
                return False
    return True


def reflection_automorphism(graph: PortLabeledGraph) -> bool:
    """Whether ``v -> -v (mod n)`` preserves every port label.

    Provided for completeness of the symmetry story: on *oriented* rings
    the reflection is a graph automorphism but swaps the clockwise and
    counterclockwise ports, so this check returns ``False`` there and the
    engine never merges the ``delta`` and ``n - delta`` orbits.  A future
    family with symmetric ports could earn it.
    """
    n = graph.num_nodes
    for u in range(n):
        mirrored = (-u) % n
        degree = graph.degree(u)
        if graph.degree(mirrored) != degree:
            return False
        for port in range(degree):
            v, q = graph.neighbor_via(u, port)
            if graph.neighbor_via(mirrored, port) != ((-v) % n, q):
                return False
    return True


def start_oblivious_factory(factory: Any) -> bool:
    """Whether the factory's route is provably independent of its start.

    Requires both the schedule-driven declaration (``is_oblivious``, the
    gate the compiled and cube engines already use) and the exploration's
    :attr:`~repro.exploration.base.ExplorationProcedure.start_oblivious`
    declaration.  Factories without an ``exploration`` attribute (custom
    program factories) conservatively answer ``False``.
    """
    if not getattr(factory, "is_oblivious", False):
        return False
    exploration = getattr(factory, "exploration", None)
    return bool(getattr(exploration, "start_oblivious", False))


@dataclass(frozen=True)
class SymmetryCertificate:
    """The outcome of :func:`certify_symmetry` -- may orbits be used?

    ``orbit`` is True only when every gate passed; ``reason`` names the
    first gate that failed (or confirms the pass) for telemetry and
    debugging.
    """

    orbit: bool
    reason: str


def certify_symmetry(graph: PortLabeledGraph, factory: Any) -> SymmetryCertificate:
    """Decide whether rotation-orbit reduction is sound for this sweep.

    Declaration gate first (undeclared families cost nothing), then the
    exact structural re-check, then the factory's behavioural
    declaration.  Any failure yields ``orbit=False`` -- the engine falls
    back to full per-pair tensor passes, identical output.
    """
    declared = graph.declared_symmetry
    if declared != "cyclic":
        return SymmetryCertificate(
            False, f"graph declares symmetry {declared!r}, not 'cyclic'"
        )
    if not rotation_automorphism(graph):
        return SymmetryCertificate(
            False,
            "declared cyclic symmetry failed the exact rotation check "
            "(declaration bug: rotation does not preserve ports)",
        )
    if not start_oblivious_factory(factory):
        return SymmetryCertificate(
            False, "factory's exploration does not declare start_oblivious"
        )
    return SymmetryCertificate(
        True, "cyclic rotation verified and factory is start-oblivious"
    )


# ----------------------------------------------------------------------
# Rotation orbits of start pairs
# ----------------------------------------------------------------------


def pair_delta(pair: tuple[int, int], n: int) -> int:
    """The rotation invariant of an ordered start pair: ``(s2 - s1) mod n``."""
    s1, s2 = pair
    return (s2 - s1) % n


def orbit_representatives(n: int) -> list[tuple[int, int]]:
    """One representative per rotation orbit of ordered distinct pairs.

    The orbit of ``(s1, s2)`` under ``+1`` rotation is exactly the set of
    pairs sharing ``delta = (s2 - s1) mod n``, so ``(0, delta)`` for
    ``delta = 1..n-1`` enumerates every orbit once.  The property test in
    ``tests/sim/test_cube.py`` asserts the orbits are disjoint and cover
    the full ``n(n-1)`` start space for odd and even ``n``.
    """
    return [(0, delta) for delta in range(1, n)]


def orbit_of(n: int, delta: int) -> Iterator[tuple[int, int]]:
    """Every ordered start pair in the rotation orbit with this ``delta``."""
    for s1 in range(n):
        yield (s1, (s1 + delta) % n)


# ----------------------------------------------------------------------
# Delay-grid dominance
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DominancePlan:
    """Which ``(delay, horizon)`` slices to scan, which to derive.

    ``scan`` indexes the slices that need a real tensor pass; ``derived``
    maps a slice index to ``(pivot_index, shift)`` where the pivot is in
    ``scan`` and ``shift = delay - pivot_delay``.  Exactness argument
    (per ordered start pair, from the simulator's timeline semantics):
    once ``delay >= T1`` (the first agent's schedule length), agent 1 is
    parked at its final position for every time point ``t >= delay``, so
    two slices whose post-wake windows agree -- equal
    ``K = horizon - delay`` -- see literally the same sequence of
    colocation tests, translated by ``shift``.  Meetings while agent 2 is
    still at its start (``met <= pivot_delay``, from-start presence only)
    happen against the same parked agent 1 and do not translate; later
    meetings and never-meets translate verbatim (:func:`derive_met`).
    Total costs are *identical* to the pivot's in every case: agent 1 has
    already paid its full schedule, and agent 2's traversal count depends
    only on ``met - delay`` (or ``K`` on a miss), which dominance holds
    fixed.
    """

    scan: tuple[int, ...]
    derived: dict[int, tuple[int, int]] = field(default_factory=dict)


def dominance_plan(
    delay_horizons: Sequence[tuple[int, int]], first_length: int
) -> DominancePlan:
    """Partition a label pair's ``(delay, horizon)`` slices for pruning.

    Slices with ``delay >= first_length`` are grouped by
    ``K = horizon - delay``; each group's smallest delay becomes the
    pivot (scanned), the rest are derived.  Slices below the threshold
    are always scanned.  The input order is preserved in ``scan`` so the
    engine's cache keys stay deterministic.
    """
    groups: dict[int, int] = {}  # K -> pivot slice index
    scan: list[int] = []
    derived: dict[int, tuple[int, int]] = {}
    for index, (delay, horizon) in enumerate(delay_horizons):
        if delay < first_length:
            scan.append(index)
            continue
        window = horizon - delay
        pivot = groups.get(window)
        if pivot is None:
            groups[window] = index
            scan.append(index)
        else:
            derived[index] = (pivot, delay - delay_horizons[pivot][0])
    return DominancePlan(scan=tuple(scan), derived=derived)


def derive_met(
    np: Any, met_pivot: Any, pivot_delay: int, shift: int, parachute: bool
) -> Any:
    """A derived slice's meeting times from its pivot's (exact translate).

    Under the parachute presence model no meeting can precede the wake,
    so every meeting translates (misses stay ``-1``).  Under from-start
    presence, meetings at ``t <= pivot_delay`` happen while agent 2 still
    sits at its start against a parked agent 1 -- the identical situation
    at the derived delay -- so they keep their time; only meetings after
    the pivot wake translate.  ``-1`` misses satisfy ``met <= pivot_delay``
    and are preserved by the same branch.
    """
    if parachute:
        return np.where(met_pivot >= 0, met_pivot + shift, met_pivot)
    return np.where(met_pivot > pivot_delay, met_pivot + shift, met_pivot)


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------


@dataclass
class PruneStats:
    """Counters of work the pruner avoided, for telemetry gauges.

    ``orbit_cells`` counts start-pair cells answered by rotation instead
    of a direct scan; ``dominated_slices`` counts delay slices derived
    from a pivot; ``early_exit_rounds`` counts time points the meeting
    scan skipped because every tracked cell had already met.  Pure
    observability: nothing reads these back into the computation.
    """

    orbit_cells: int = 0
    dominated_slices: int = 0
    early_exit_rounds: int = 0
