"""Cross-validation of meeting_round against an inlined reference loop.

Long vectors (40-120 rounds) and vectors of a round or two must both
get exactly the reference's answers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lower_bounds.ring_exec import meeting_round

long_vectors = st.lists(st.sampled_from([-1, 0, 1]), min_size=40, max_size=120)


def pure_python_meeting_round(vector_a, vector_b, gap, ring_size):
    """Reference implementation (the scalar loop, inlined)."""
    if gap % ring_size == 0:
        return 0
    current = gap % ring_size
    for t in range(max(len(vector_a), len(vector_b))):
        step_a = vector_a[t] if t < len(vector_a) else 0
        step_b = vector_b[t] if t < len(vector_b) else 0
        current = (current + step_b - step_a) % ring_size
        if current == 0:
            return t + 1
    return None


@given(long_vectors, long_vectors, st.integers(min_value=1, max_value=17))
@settings(max_examples=120, deadline=None)
def test_numpy_path_matches_reference(vec_a, vec_b, gap):
    n = 18
    expected = pure_python_meeting_round(vec_a, vec_b, gap, n)
    assert meeting_round(vec_a, 0, vec_b, gap, n) == expected


def test_short_vectors_use_scalar_path():
    assert meeting_round([1, 1], 0, [0, 0], 2, 6) == 2
    assert meeting_round([1], 0, [0], 3, 6) is None
