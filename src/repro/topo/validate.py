"""Topology sanity checks used by generators, tests, and the harness."""

from __future__ import annotations

from repro.topo.graph import Network


class TopologyError(ValueError):
    """Raised when a network violates a structural requirement."""


def validate_network(net: Network, require_connected: bool = True) -> None:
    """Raise :class:`TopologyError` when ``net`` is structurally unsound.

    Checks: positive link delays, endpoints in range, no self-loops (the
    :class:`~repro.topo.graph.Network` constructor enforces most of this;
    the function re-verifies in case callers mutated links directly), and,
    optionally, connectivity over up links.
    """
    for link in net.links(include_down=True):
        if link.delay <= 0:
            raise TopologyError(f"link {link.key} has non-positive delay")
        if link.u == link.v:
            raise TopologyError(f"self-loop at {link.u}")
        for endpoint in link.key:
            if not (0 <= endpoint < net.n):
                raise TopologyError(f"link endpoint {endpoint} out of range")
    if require_connected and not net.is_connected():
        raise TopologyError("network is not connected over up links")
