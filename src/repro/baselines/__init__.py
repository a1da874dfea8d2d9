"""Baseline MC protocols the paper compares against or discusses.

* :mod:`repro.baselines.mospf` -- MOSPF (Moy, RFC 1584): group-membership
  LSAs plus *data-driven* topology computation: each datagram triggers a
  source-rooted SPT computation at every on-tree router with a cold cache.
  Section 4: D-GMC "compares very favorably with the MOSPF protocol, which
  requires a topology computation at every switch involved in the MC."
* :mod:`repro.baselines.brute_force` -- the "brute-force LSR-based MC
  protocol" of Section 2: every membership LSA triggers a recomputation at
  all n switches ("a single event could trigger n redundant computations").

Both take the same ``inject(JoinEvent | LeaveEvent, at)`` call as
:class:`~repro.core.protocol.DgmcNetwork`, so
:func:`repro.harness.experiment.run_trial` drives all three through one
loop.  The core-based tree (CBT) of Section 5 is a tree shape, not a
protocol run here: :mod:`repro.trees.cbt`.
"""

from repro.baselines.brute_force import BruteForceNetwork
from repro.baselines.mospf import MospfNetwork

__all__ = ["MospfNetwork", "BruteForceNetwork"]
