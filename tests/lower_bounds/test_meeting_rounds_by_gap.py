"""The all-gaps ring executor against the one-gap executor.

:func:`meeting_rounds_by_gap` answers every starting gap of a vector pair
from one walk; ``Trim`` and the certificates' cost sweep are built on it.
Both must behave exactly as the gap-by-gap loops they replace, including
which ``(x, y, gap)`` an error names.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lower_bounds.certificates import CertificateError, _max_execution_cost
from repro.lower_bounds.ring_exec import meeting_round, meeting_rounds_by_gap, solo_cost
from repro.lower_bounds.trim import NonMeetingError, TrimmedAlgorithm, trim_vectors

steps = st.sampled_from([-1, 0, 1])
vectors = st.lists(steps, max_size=60)
ring_sizes = st.integers(min_value=3, max_value=20)


@st.composite
def labelled_vectors(draw):
    """A ring size and 2-5 labels' vectors of unequal lengths.

    Short vectors often leave some gap unmet -- the truncated case.
    """
    labels = draw(st.lists(st.integers(1, 9), min_size=2, max_size=5, unique=True))
    return draw(ring_sizes), {label: draw(vectors) for label in labels}


def gap_by_gap_trim(raw_vectors, ring_size):
    """``Trim`` as one ``meeting_round`` per (ordered pair, gap)."""
    labels = sorted(raw_vectors)
    deadlines = {}
    for x in labels:
        worst = 0
        for y in labels:
            if y == x:
                continue
            for gap in range(1, ring_size):
                met = meeting_round(raw_vectors[x], 0, raw_vectors[y], gap, ring_size)
                if met is None:
                    raise NonMeetingError(
                        f"labels {x} and {y} never meet from gap {gap}: "
                        "not a correct algorithm (or truncated vectors)"
                    )
                worst = max(worst, met)
        deadlines[x] = worst
    return deadlines


def gap_by_gap_max_cost(trimmed):
    """The certificates' worst cost as one ``meeting_round`` per gap."""
    labels = trimmed.labels
    worst = 0
    for i, x in enumerate(labels):
        for y in labels[i + 1 :]:
            for gap in range(1, trimmed.ring_size):
                time = meeting_round(
                    trimmed.vector(x), 0, trimmed.vector(y), gap, trimmed.ring_size
                )
                if time is None:
                    raise CertificateError(
                        f"trimmed vectors of {x}, {y} never meet from gap {gap}"
                    )
                cost = solo_cost(trimmed.vector(x), time) + solo_cost(
                    trimmed.vector(y), time
                )
                worst = max(worst, cost)
    return worst


def outcome(function, *args):
    try:
        return function(*args)
    except (NonMeetingError, CertificateError) as error:
        return type(error), str(error)


@given(vectors, vectors, ring_sizes)
@example([], [], 5)  # no gap ever meets
@example([1] * 3, [], 8)  # only gaps 1..3 meet
@settings(max_examples=300, deadline=None)
def test_every_gap_equals_meeting_round(vector_a, vector_b, ring_size):
    rounds = meeting_rounds_by_gap(vector_a, vector_b, ring_size)
    assert rounds == [
        meeting_round(vector_a, 0, vector_b, gap, ring_size)
        for gap in range(ring_size)
    ]


def test_gaps_that_never_meet_are_none():
    # Both agents walk clockwise in lockstep: the gap never changes.
    assert meeting_rounds_by_gap([1] * 10, [1] * 10, 6) == [0] + [None] * 5
    assert meeting_rounds_by_gap([1, 1, 1], [0], 8) == [0, 1, 2, 3, None, None, None, None]


@given(labelled_vectors())
@settings(max_examples=200, deadline=None)
def test_trim_equals_the_gap_by_gap_sweep(case):
    """Same deadlines, or a NonMeetingError naming the same (x, y, gap)."""
    ring_size, raw = case
    expected = outcome(gap_by_gap_trim, raw, ring_size)
    trimmed = outcome(trim_vectors, raw, ring_size)
    if isinstance(expected, dict):
        assert trimmed.meeting_deadlines == expected
        assert trimmed.vectors == {
            x: tuple(raw[x][: expected[x]]) for x in sorted(raw)
        }
    else:
        assert trimmed == expected


@given(labelled_vectors())
@settings(max_examples=200, deadline=None)
def test_max_execution_cost_equals_the_gap_by_gap_sweep(case):
    """Same worst cost, or a CertificateError naming the same pair and gap."""
    ring_size, raw = case
    trimmed = TrimmedAlgorithm(
        ring_size=ring_size,
        vectors={x: tuple(vector) for x, vector in raw.items()},
        meeting_deadlines={x: len(vector) for x, vector in raw.items()},
    )
    assert outcome(_max_execution_cost, trimmed) == outcome(
        gap_by_gap_max_cost, trimmed
    )


def test_truncated_vectors_name_the_first_failing_pair_and_gap():
    vectors = {1: [1, 1, 1, 1, 1], 2: [0] * 5, 3: [1]}
    with pytest.raises(NonMeetingError, match="labels 1 and 3 never meet from gap 5"):
        trim_vectors(vectors, 6)
