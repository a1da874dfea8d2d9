"""Fast reroute: precomputed backup fragments for installed topologies.

See :mod:`repro.frr.backup` for the computation and docs/fast-reroute.md
for the activation / reconciliation lifecycle.
"""

from repro.frr.backup import (
    BackupFragment,
    BackupPlan,
    compute_backup_plan,
    detour_delay,
    detour_is_live,
)

__all__ = [
    "BackupFragment",
    "BackupPlan",
    "activate_for_edge",
    "compute_backup_plan",
    "detour_delay",
    "detour_is_live",
]


def activate_for_edge(states, u: int, v: int):
    """Activate every covering fragment for failed edge ``(u, v)``.

    ``states`` maps connection id to :class:`~repro.core.state.McState`;
    a fragment activates when the connection's precomputed plan covers
    the edge.  No check against the installed topology is needed: a
    plan's edges are a subset of the installed tree's by construction
    (:meth:`McState.install` clears the plan and the install path
    recomputes it for that very topology).  Returns the connection ids
    whose data plane switched over (idempotent: re-detection of an
    already-activated edge returns nothing).
    """
    activated = []
    for connection_id in sorted(states):
        state = states[connection_id]
        if state.backup_plan is None:
            continue
        fragment = state.backup_plan.fragment_for(u, v)
        if fragment is not None and state.activate_backup(fragment):
            activated.append(connection_id)
    return activated
