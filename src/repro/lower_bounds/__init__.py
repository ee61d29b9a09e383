"""Executable machinery of the paper's lower bounds (Section 3).

Both lower-bound proofs argue about *behaviour vectors*: an algorithm's
per-label movement sequence over ``{-1, 0, +1}`` on an oriented ring,
position-independent because the ring gives an agent nothing observable to
condition on.  The proofs then build derived objects -- trimmed vectors,
aggregate vectors over blocks and sectors, progress vectors, eager-agent
tournaments -- whose combinatorics force the bounds.  Everything in those
constructions is computable, and this package computes it:

* :mod:`repro.lower_bounds.behaviour` -- extracting behaviour vectors from
  schedules and from solo simulations;
* :mod:`repro.lower_bounds.ring_exec` -- fast prefix-sum execution of
  vector pairs on the ring, one gap or all gaps of a pair in one pass
  (validated against the full simulator);
* :mod:`repro.lower_bounds.trim` -- the paper's ``Trim`` procedure;
* :mod:`repro.lower_bounds.aggregate` -- blocks, sectors, aggregate
  vectors, surpluses (Facts 3.9/3.10);
* :mod:`repro.lower_bounds.progress` -- Algorithm 3, ``DefineProgress``,
  with Facts 3.12-3.14 as checkable invariants;
* :mod:`repro.lower_bounds.tournament` -- eagerness, the tournament and
  its Hamiltonian path (Redei);
* :mod:`repro.lower_bounds.certificates` -- full Theorem 3.1 / 3.2
  certificate reports over real algorithm executions.
"""

from repro.lower_bounds.aggregate import aggregate_vector, surplus
from repro.lower_bounds.behaviour import (
    behaviour_from_schedule,
    behaviour_from_solo_run,
    forward_and_back,
)
from repro.lower_bounds.certificates import (
    CertificateError,
    Theorem31Certificate,
    Theorem32Certificate,
    certify_theorem_31,
    certify_theorem_32,
)
from repro.lower_bounds.lemmas import (
    fact_31_disjoint_placement,
    fact_32_cost_lower_bound,
    fact_34_holds,
    fact_36_bound,
)
from repro.lower_bounds.progress import (
    define_progress,
    progress_pairs,
    verify_progress_invariants,
)
from repro.lower_bounds.ring_exec import (
    displacement,
    meeting_round,
    meeting_rounds_by_gap,
    positions_over_time,
    solo_cost,
)
from repro.lower_bounds.tournament import (
    EagerReport,
    eager_agent,
    hamiltonian_path,
    tournament_edges,
)
from repro.lower_bounds.trim import TrimmedAlgorithm, extract_trimmed_vectors, trim_vectors

__all__ = [
    "CertificateError",
    "EagerReport",
    "fact_31_disjoint_placement",
    "fact_32_cost_lower_bound",
    "fact_34_holds",
    "fact_36_bound",
    "Theorem31Certificate",
    "Theorem32Certificate",
    "TrimmedAlgorithm",
    "aggregate_vector",
    "behaviour_from_schedule",
    "behaviour_from_solo_run",
    "certify_theorem_31",
    "certify_theorem_32",
    "define_progress",
    "displacement",
    "eager_agent",
    "extract_trimmed_vectors",
    "forward_and_back",
    "hamiltonian_path",
    "meeting_round",
    "meeting_rounds_by_gap",
    "positions_over_time",
    "progress_pairs",
    "solo_cost",
    "surplus",
    "tournament_edges",
    "trim_vectors",
    "verify_progress_invariants",
]
