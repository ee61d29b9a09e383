"""Fast execution of behaviour-vector pairs on an oriented ring.

The lower-bound analyses need many pairwise executions (the ``Trim``
procedure alone asks for ``Theta(L^2 n)`` of them), so this module
executes them directly over the vectors by prefix sums instead of driving
the full simulator.  :func:`meeting_round` answers one starting gap;
:func:`meeting_rounds_by_gap` answers every gap of a label pair from one
walk over the pair's displacement difference, which is how ``Trim`` and
the certificates sweep all ``n - 1`` gaps.  Tests cross-validate both
against a reference loop and the full simulator on random inputs.

All executions here use simultaneous start -- the setting of Section 3.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Sequence


def displacement(vector: Sequence[int], upto: int | None = None) -> int:
    """Net clockwise displacement after ``upto`` rounds (all, if omitted).

    This is the paper's ``disp``: the sum of the behaviour vector's prefix.
    """
    if upto is None:
        upto = len(vector)
    return sum(vector[:upto])


def positions_over_time(
    vector: Sequence[int], start: int, ring_size: int, rounds: int
) -> list[int]:
    """Node occupied at each time point ``0..rounds`` (vector exhausted => idle)."""
    positions = [start % ring_size]
    node = start
    for t in range(rounds):
        if t < len(vector):
            node += vector[t]
        positions.append(node % ring_size)
    return positions


def meeting_round(
    vector_a: Sequence[int],
    start_a: int,
    vector_b: Sequence[int],
    start_b: int,
    ring_size: int,
    max_rounds: int | None = None,
) -> int | None:
    """First time point at which the two agents are colocated, or ``None``.

    This is ``|alpha(a, start_a, b, start_b)|`` of the paper for
    simultaneous start.  After both vectors are exhausted the positions are
    frozen, so if the agents have not met by then they never will;
    ``max_rounds`` defaults to that natural horizon.

    Note the engine checks colocation at time points only: two agents
    exchanging positions in one round cross on the edge and do *not* meet,
    exactly as in the full simulator.
    """
    horizon = max(len(vector_a), len(vector_b))
    if max_rounds is not None:
        horizon = min(horizon, max_rounds)
    gap = (start_b - start_a) % ring_size
    if gap == 0:
        return 0
    for t in range(horizon):
        step_a = vector_a[t] if t < len(vector_a) else 0
        step_b = vector_b[t] if t < len(vector_b) else 0
        gap = (gap + step_b - step_a) % ring_size
        if gap == 0:
            return t + 1
    return None


def meeting_rounds_by_gap(
    vector_a: Sequence[int], vector_b: Sequence[int], ring_size: int
) -> list[int | None]:
    """:func:`meeting_round` from every starting gap, in one pass.

    Entry ``gap`` of the result equals ``meeting_round(vector_a, 0,
    vector_b, gap, ring_size)`` for ``gap = 0..ring_size - 1`` (entry 0
    is 0: the agents start together).  Agent ``b`` starting ``gap``
    nodes ahead meets agent ``a`` at the first time point ``t`` with
    ``disp_a(t) - disp_b(t) = gap (mod n)``, so one walk over that
    difference records the first time each residue is reached; it stops
    once every gap has met.  ``None`` marks a gap from which the pair
    never meets.
    """
    rounds: list[int | None] = [0] + [None] * (ring_size - 1)
    unmet = ring_size - 1
    difference = 0
    for t, (step_a, step_b) in enumerate(
        zip_longest(vector_a, vector_b, fillvalue=0), start=1
    ):
        difference = (difference + step_a - step_b) % ring_size
        if rounds[difference] is None:
            rounds[difference] = t
            unmet -= 1
            if not unmet:
                break
    return rounds


def solo_cost(vector: Sequence[int], upto: int | None = None) -> int:
    """Edge traversals in a solo execution (non-zero entries of the prefix)."""
    if upto is None:
        upto = len(vector)
    return sum(1 for step in vector[:upto] if step != 0)
