"""Deliberately weakened algorithm variants (ablation study).

Each class here removes one construction detail from a paper algorithm so
the benchmark harness can show what that detail buys.  **None of these are
correct rendezvous algorithms in general** -- that is their purpose:

* :class:`FastNoDelimiter` drops the ``01`` delimiter from the modified
  label, destroying prefix-freeness.  When one label's bit string is a
  prefix of another's and the suffix contains no 1 (e.g. labels 2 = ``10``
  and 4 = ``100``), both agents execute identical movement prefixes and
  then idle forever at constant distance: rendezvous *never* happens, even
  with simultaneous start on a ring.
* :class:`FastNoDoubling` drops the bit-doubling of Algorithm 2's vector
  ``T``.  The doubling is what guarantees that a full idle window of one
  agent contains a full exploration window of the other for *any* delay;
  without it the containment argument fails.  (Adversarial search at
  simulation scale has not produced a counterexample -- the undoubled
  variant keeps meeting thanks to partial window overlaps -- so the bench
  reports the construction as proof-driven conservatism costing a factor
  of about 2 in schedule length.)
* :class:`CheapShortWait` waits ``l * E`` instead of Algorithm 1's
  ``2 l E``.  The doubled coefficient makes waiting windows of different
  labels nest under arbitrary delays; with the shorter wait the adversary
  finds non-meeting executions on stars, trees and paths (e.g. labels
  (1, 2) on the 6-star with delay 2).

The declared ``time_bound``/``cost_bound`` of these variants are the
*horizons the adversary searches to* (generously above the original
algorithms' bounds), not claims.  Each variant only overrides
:meth:`~repro.core.base.RendezvousAlgorithm.schedule`, so it declares
``is_oblivious`` like the algorithm it weakens and sweeps run on the
compiled or cube engine.
"""

from __future__ import annotations

from repro.core.base import RendezvousAlgorithm
from repro.core.labels import binary_bits, modified_label
from repro.core.schedule import Schedule, explore, wait


class FastNoDelimiter(RendezvousAlgorithm):
    """Fast (simultaneous) without the ``01`` delimiter: not prefix-free."""

    name = "ablation:fast-no-delimiter"
    is_oblivious = True
    requires_simultaneous_start = True

    def schedule(self, label: int) -> Schedule:
        self._check_label(label)
        doubled: list[int] = []
        for bit in binary_bits(label):
            doubled.extend((bit, bit))
        return Schedule.from_bits(doubled, wait_rounds=self.exploration_budget)

    def time_bound(self, smaller_label: int | None = None) -> int:
        # Search horizon only: 4x the legitimate algorithm's bound.
        from repro.core import bounds

        return 4 * bounds.fast_simultaneous_time(self.label_space, self.exploration_budget)

    def cost_bound(self, smaller_label: int | None = None) -> int:
        return 2 * self.time_bound()


class FastNoDoubling(RendezvousAlgorithm):
    """Fast without the bit-doubling in ``T`` (keeps the leading 1)."""

    name = "ablation:fast-no-doubling"
    is_oblivious = True

    def schedule(self, label: int) -> Schedule:
        self._check_label(label)
        return Schedule.from_bits(
            (1,) + modified_label(label), wait_rounds=self.exploration_budget
        )

    def time_bound(self, smaller_label: int | None = None) -> int:
        from repro.core import bounds

        return 4 * bounds.fast_time(self.label_space, self.exploration_budget)

    def cost_bound(self, smaller_label: int | None = None) -> int:
        return 2 * self.time_bound()


class CheapShortWait(RendezvousAlgorithm):
    """Cheap with waiting period ``l * E`` instead of ``2 l E``."""

    name = "ablation:cheap-short-wait"
    is_oblivious = True

    def schedule(self, label: int) -> Schedule:
        self._check_label(label)
        return Schedule(
            [explore(), wait(label * self.exploration_budget), explore()]
        )

    def time_bound(self, smaller_label: int | None = None) -> int:
        from repro.core import bounds

        return 4 * bounds.cheap_time_worst(self.label_space, self.exploration_budget)

    def cost_bound(self, smaller_label: int | None = None) -> int:
        return 4 * 3 * self.exploration_budget
