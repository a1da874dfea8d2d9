"""Protocol timelines and convergence profiles.

Debugging a distributed signaling protocol needs a merged, chronological
view of what every switch did.  :func:`build_timeline` assembles one from
a deployment's logs (computations, installs, floods);
:func:`render_timeline` pretty-prints it; :func:`convergence_profile`
reduces the install log to "when had k% of switches adopted the final
topology" -- the per-burst responsiveness curve behind Figure 6(c).

Like ``attach`` and ``profile`` this module reaches into the protocol
stack, so :mod:`repro.obs` does not import it eagerly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.lsa import McLsa
from repro.core.protocol import DgmcNetwork


@dataclass(frozen=True)
class TimelineEntry:
    """One protocol action, normalized for display."""

    time: float
    kind: str  # "compute" | "install" | "flood"
    switch: int
    connection_id: int
    detail: str


def build_timeline(
    dgmc: DgmcNetwork, connection_id: Optional[int] = None
) -> List[TimelineEntry]:
    """Merge a deployment's logs into one chronological timeline.

    Flood entries require the fabric's history
    (``dgmc.fabric.record_history = True`` before running); computation
    and install entries are always available.  ``connection_id`` filters
    to one MC.
    """
    if not dgmc.fabric.record_history and dgmc.fabric.total_floods:
        warnings.warn(
            "build_timeline: the flooding fabric ran with record_history "
            "disabled, so the timeline will contain no flood entries; set "
            "dgmc.fabric.record_history = True before running the simulation",
            stacklevel=2,
        )
    entries: List[TimelineEntry] = []
    for rec in dgmc.computation_log:
        if connection_id is not None and rec.connection_id != connection_id:
            continue
        entries.append(
            TimelineEntry(rec.time, "compute", rec.switch, rec.connection_id, "")
        )
    for rec in dgmc.install_log:
        if connection_id is not None and rec.connection_id != connection_id:
            continue
        entries.append(
            TimelineEntry(
                rec.time,
                "install",
                rec.switch,
                rec.connection_id,
                f"stamp_total={rec.stamp.total()} proposer={rec.proposer}",
            )
        )
    for flood in dgmc.fabric.history:
        payload = flood.payload
        if not isinstance(payload, McLsa):
            continue
        if connection_id is not None and payload.connection_id != connection_id:
            continue
        has_p = "P" if payload.proposal is not None else "-"
        entries.append(
            TimelineEntry(
                flood.start_time,
                "flood",
                flood.origin,
                payload.connection_id,
                f"V={payload.event.value} {has_p} T_total={payload.timestamp.total()}",
            )
        )
    entries.sort(key=lambda e: (e.time, e.kind, e.switch))
    return entries


def render_timeline(entries: List[TimelineEntry], limit: Optional[int] = None) -> str:
    """Human-readable rendering, one action per line."""
    lines = [f"{'time':>12} | {'action':>7} | {'switch':>6} | {'MC':>4} | detail"]
    lines.append("-" * 60)
    shown = entries if limit is None else entries[:limit]
    for e in shown:
        lines.append(
            f"{e.time:12.4f} | {e.kind:>7} | {e.switch:>6} | "
            f"{e.connection_id:>4} | {e.detail}"
        )
    if limit is not None and len(entries) > limit:
        lines.append(f"... ({len(entries) - limit} more)")
    return "\n".join(lines)


def convergence_profile(
    dgmc: DgmcNetwork, connection_id: int
) -> List[Tuple[float, int]]:
    """Adoption curve of the *final* consensus topology.

    Returns ``[(time, switches_converged_so_far), ...]``: for each switch,
    its *last* install (the moment it settled on what it still holds),
    sorted by time.  The curve's tail is the convergence time; its shape
    shows how agreement spreads through the network.
    """
    states = dgmc.states_for(connection_id)
    last_install: Dict[int, float] = {}
    for rec in dgmc.install_log:
        if rec.connection_id != connection_id:
            continue
        if rec.switch not in states:
            continue
        last_install[rec.switch] = rec.time
    times = sorted(last_install.values())
    return [(t, i + 1) for i, t in enumerate(times)]
