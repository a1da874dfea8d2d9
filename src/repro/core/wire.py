"""Binary wire format for LSAs.

Section 3.1 defines the MC LSA as the tuple ``(S, F, V, G, P, T)`` and the
non-MC LSA as ``(S, F, D)``.  This module pins an actual octet encoding so
the protocol could interoperate outside the simulator:

MC LSA (``F = 1``)::

    magic     u8   = 0xD6
    version   u8   = 1 (dense stamp) or 2 (pair stamp)
    flags     u8   : bit0 F, bits1-3 V, bit4 has-proposal, bits5-6 role
    source    u16  (S)
    conn      u32  (G)
    count     u16  n (version 1) or k (version 2)
    stamp     version 1: u32 x n         -- T[0..n-1], n = highest
                                            non-zero origin + 1
              version 2: (origin u16, count u32) x k
                                         -- the k non-zero components,
                                            origins strictly ascending
    proposal  (present iff bit4): see below (P)

The timestamp ``T`` is sparse (:mod:`repro.core.timestamp`); the encoder
emits whichever stamp layout is shorter (6k against 4n bytes), so an LSA
never grows over the all-dense format and its size follows the number of
originators, not the network size.  The decoder accepts both and yields
the same stamp.

Proposal ``P`` -- "a complete topological description of the MC"::

    tree_count u16
    per tree:  key i32 (-1 = shared), root i32 (-1 = none),
               member_count u16, members u32 x member_count,
               edge_count u32, edges (u32, u32) x edge_count

Non-MC LSA (``F = 0``)::

    magic, version = 1, flags (bit0 = 0)
    source  u16 (S)
    seqnum  u32
    link_count u16                      } D: the RouterLsa description
    per link: neighbor u16, delay f64 (finite, > 0), up u8

All integers are big-endian (network byte order).
"""

from __future__ import annotations

import math
import struct
from itertools import chain
from operator import lt
from typing import Callable, Optional, Union

from repro.core.lsa import McEvent, McLsa
from repro.core.mc import Role
from repro.core.timestamp import Stamp
from repro.lsr.lsa import NonMcLsa, RouterLsa
from repro.trees.base import SHARED, McTopology, MulticastTree

MAGIC = 0xD6
VERSION = 1
#: MC LSAs whose stamp is in pair form.
PAIR_VERSION = 2

_EVENT_CODES = {
    McEvent.JOIN: 1,
    McEvent.LEAVE: 2,
    McEvent.LINK: 3,
    McEvent.NONE: 0,
}
_EVENT_BY_CODE = {v: k for k, v in _EVENT_CODES.items()}

_ROLE_CODES = {None: 0, Role.SENDER: 1, Role.RECEIVER: 2, Role.BOTH: 3}
_ROLE_BY_CODE = {v: k for k, v in _ROLE_CODES.items()}


class WireError(ValueError):
    """Base class for wire-format errors."""


class WireDecodeError(WireError):
    """The single error raised for undecodable bytes.

    Truncated, garbage, bad-magic, and structurally invalid frames all
    raise this (never a bare ``struct.error`` / ``IndexError`` /
    ``ValueError``), so socket-facing code needs exactly one except
    clause per datagram.
    """


def pairs_are_shorter(stored: int, span: int) -> bool:
    """Whether ``stored`` 6-byte pairs undercut ``span`` 4-byte components."""
    return 6 * stored < 4 * span


def pack_stamp_dense(stamp: Stamp, length: int) -> bytes:
    """``u32 x length``: the first ``length`` components of ``stamp``."""
    return struct.pack(f"!{length}I", *stamp.dense(length))


def pack_stamp_pairs(stamp: Stamp) -> bytes:
    """``(origin u16, count u32)`` per stored component, origins ascending."""
    return struct.pack(
        "!" + "HI" * len(stamp), *chain.from_iterable(sorted(stamp.items()))
    )


def read_stamp_dense(take: Callable[[str], tuple], length: int) -> Stamp:
    """Inverse of :func:`pack_stamp_dense`; ``take(fmt)`` is a checked read."""
    return Stamp.from_dense(take(f"!{length}I"))


def read_stamp_pairs(take: Callable[[str], tuple], stored: int) -> Stamp:
    """Inverse of :func:`pack_stamp_pairs`; rejects non-canonical pairs."""
    flat = take("!" + "HI" * stored)
    origins, counts = flat[0::2], flat[1::2]
    if not all(counts) or not all(map(lt, origins, origins[1:])):
        raise WireDecodeError("stamp pairs not strictly ascending and non-zero")
    return Stamp(zip(origins, counts))


def _encode_tree(key: int, tree: MulticastTree) -> bytes:
    """One tree in one ``struct`` call: header, members, edge count, edges."""
    members = sorted(tree.members)
    edges = sorted(tree.edges)
    return struct.pack(
        f"!iiH{len(members)}II{2 * len(edges)}I",
        key, -1 if tree.root is None else tree.root, len(members),
        *members, len(edges), *chain.from_iterable(edges),
    )


def _encode_proposal(proposal: McTopology) -> bytes:
    parts = [struct.pack("!H", len(proposal.trees))]
    for key, tree in proposal.trees:
        parts.append(_encode_tree(key, tree))
    return b"".join(parts)


def encode_lsa(lsa: Union[McLsa, NonMcLsa]) -> bytes:
    """Serialize an LSA to network-order bytes."""
    if isinstance(lsa, McLsa):
        flags = 0x01  # F = mc
        flags |= _EVENT_CODES[lsa.event] << 1
        if lsa.proposal is not None:
            flags |= 0x10
        flags |= _ROLE_CODES[lsa.role] << 5
        stamp = lsa.timestamp
        span = stamp.span()
        if pairs_are_shorter(len(stamp), span):
            version, count, body = PAIR_VERSION, len(stamp), pack_stamp_pairs(stamp)
        else:
            version, count, body = VERSION, span, pack_stamp_dense(stamp, span)
        parts = [
            struct.pack(
                "!BBBHIH", MAGIC, version, flags, lsa.source,
                lsa.connection_id, count,
            ),
            body,
        ]
        if lsa.proposal is not None:
            parts.append(_encode_proposal(lsa.proposal))
        return b"".join(parts)
    if isinstance(lsa, NonMcLsa):
        desc = lsa.description
        parts = [
            struct.pack(
                "!BBBHIH", MAGIC, VERSION, 0x00, lsa.source, desc.seqnum,
                len(desc.links),
            )
        ]
        for neighbor, delay, up in desc.links:
            parts.append(struct.pack("!HdB", neighbor, delay, 1 if up else 0))
        return b"".join(parts)
    raise TypeError(f"cannot encode {lsa!r}")


class Reader:
    """Cursor over a byte buffer with checked struct reads, for LSAs and
    frame bodies alike; a read past the end raises WireDecodeError."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, fmt: str) -> tuple:
        size = struct.calcsize(fmt)
        if self.offset + size > len(self.data):
            raise WireDecodeError("truncated data")
        values = struct.unpack_from(fmt, self.data, self.offset)
        self.offset += size
        return values

    def done(self) -> bool:
        return self.offset == len(self.data)


def _decode_proposal(reader: Reader) -> McTopology:
    """One topology, its :attr:`~McTopology.node_span` read off the raw ids."""
    trees = []
    top = -1
    for _ in range(reader.take("!H")[0]):
        key, root, member_count = reader.take("!iiH")
        if key < SHARED:
            raise WireDecodeError(f"bad tree key {key}")
        *members, edge_count = reader.take(f"!{member_count}II")
        # One checked read for every edge: a bogus count fails the bounds
        # check in ``take`` before anything is unpacked.
        flat = reader.take(f"!{2 * edge_count}I")
        top = max(top, key, root, *members, *flat)
        trees.append((key, MulticastTree.build(
            zip(flat[0::2], flat[1::2]), members, root=None if root < 0 else root
        )))
    proposal = McTopology(tuple(trees))
    proposal.__dict__["node_span"] = top + 1  # what the cached property computes
    return proposal


def _decode_lsa_body(data: bytes) -> Union[McLsa, NonMcLsa]:
    reader = Reader(data)
    magic, version, flags = reader.take("!BBB")
    if magic != MAGIC:
        raise WireDecodeError(f"bad magic 0x{magic:02x}")
    if version != VERSION and not (version == PAIR_VERSION and flags & 0x01):
        raise WireDecodeError(f"unsupported version {version}")
    if flags & 0x01:  # MC LSA
        source, connection_id, count = reader.take("!HIH")
        if version == PAIR_VERSION:
            stamp = read_stamp_pairs(reader.take, count)
        else:
            stamp = read_stamp_dense(reader.take, count)
        event = _EVENT_BY_CODE.get((flags >> 1) & 0x07)
        if event is None:
            raise WireDecodeError("bad event code")
        role = _ROLE_BY_CODE.get((flags >> 5) & 0x03)
        proposal: Optional[McTopology] = None
        if flags & 0x10:
            proposal = _decode_proposal(reader)
        if not reader.done():
            raise WireDecodeError("trailing bytes after MC LSA")
        return McLsa(source, event, connection_id, proposal, stamp, role)
    # non-MC LSA
    source, seqnum, link_count = reader.take("!HIH")
    links = []
    for _ in range(link_count):
        neighbor, delay, up = reader.take("!HdB")
        if not (math.isfinite(delay) and delay > 0):
            # Network.add_link's rule: an image weight must be a positive
            # real, or the tree computations' heaps stop being ordered.
            raise WireDecodeError(f"bad link delay {delay!r}")
        links.append((neighbor, delay, bool(up)))
    if not reader.done():
        raise WireDecodeError("trailing bytes after non-MC LSA")
    return NonMcLsa(source, RouterLsa(source, seqnum, tuple(links)))


def decode_lsa(data: bytes) -> Union[McLsa, NonMcLsa]:
    """Parse bytes back into an LSA.

    Raises :class:`WireDecodeError` -- and only that -- on any undecodable
    input: bytes that arrive from a real socket may be arbitrary garbage,
    so structural validation errors from the LSA constructors are folded
    into the same exception.
    """
    try:
        return _decode_lsa_body(data)
    except WireDecodeError:
        raise
    except (struct.error, ValueError, KeyError, IndexError, TypeError) as exc:
        raise WireDecodeError(f"malformed LSA: {exc}") from exc


def encode_topology(topology: McTopology) -> bytes:
    """Serialize a bare :class:`McTopology` (the proposal encoding).

    This is the canonical byte form used to compare installed trees
    across execution backends (simulated vs. live): members and edges are
    sorted, so equal topologies encode to equal bytes.
    """
    return _encode_proposal(topology)


def decode_topology(data: bytes) -> McTopology:
    """Inverse of :func:`encode_topology`; raises :class:`WireDecodeError`."""
    try:
        reader = Reader(data)
        topology = _decode_proposal(reader)
        if not reader.done():
            raise WireDecodeError("trailing bytes after topology")
        return topology
    except WireDecodeError:
        raise
    except (struct.error, ValueError, KeyError, IndexError, TypeError) as exc:
        raise WireDecodeError(f"malformed topology: {exc}") from exc
