"""Datagram frame format of the live runtime.

A UDP datagram carries exactly one frame.  All frames share one header::

    magic    u8   = 0xD7   (distinct from the LSA magic 0xD6)
    version  u8   = 2 (3: a SNAP frame whose stamps are in pair form)
    type     u8
    src      u16  originating switch id
    dest     u16  destination switch id
    seq      u32  per-(src, dest) sequence number (HELLO: boot generation)

Version 2 prefixes the DATA, SNAP, and LSU bodies with an optional
causal trace context (:class:`~repro.obs.context.TraceContext`)::

    has_ctx  u8   0 or 1
    ctx      12 bytes, present iff has_ctx  (origin, connection, seq,
                                             cause code, hop counter)

The context is observability metadata only -- it never feeds protocol
decisions -- but it is what stitches flood -> compute -> arbitration ->
install into one causal trace tree across hosts.  The encoder emits
version 2 for everything but pair-form SNAP frames; version 1 (no
context prefix) was never emitted by this repository's encoders and is
rejected as an unsupported version.  ACK/HELLO/DBD carry no context
(acks are infrastructure, hellos/DBDs are liveness probes whose cause is
themselves).

Six frame types exist:

* DATA (1) -- one :mod:`repro.core.wire`-encoded LSA; the normal flooding
  path.  Reliable (acked, deduplicated, retransmitted).
* ACK (2) -- acknowledges one reliable frame; ``src`` is the
  *acknowledging* switch, ``dest``/``seq`` name the acknowledged frame.
  Acks are type-agnostic: DATA, DBD, SNAP, and LSU share one sequence
  space per (src, dest) pair.
* HELLO (3) -- keepalive between physical neighbors.  Unreliable by
  design (never acked, never retransmitted: a lost hello *is* the
  failure signal); the ``seq`` field carries the sender's boot
  generation so a restarted neighbor is recognised immediately.
* DBD (4) -- OSPF-style database description: the sender's LSA headers,
  ``(origin, seqnum)`` pairs, opening a resync handshake.  Body: a
  reply flag (a reply DBD never triggers another DBD, so the handshake
  terminates), then the header list.
* SNAP (5) -- one MC connection's arbitration state
  (:class:`~repro.core.state.McSnapshot`) for resync: connection ``u32``,
  proposer ``u16``, the R / E / C / M stamps, member roles, the active
  fast-reroute fragments (count-prefixed, before the topology flag), and
  the installed topology as canonical
  :func:`~repro.core.wire.encode_topology` bytes.  The four
  stamps take whichever layout is shorter in total, exactly as in an MC
  LSA (:mod:`repro.core.wire`): version 2 is ``n u16`` then four
  ``u32 x n`` vectors (``n`` = highest non-zero origin of any of them
  + 1); version 3 is, per stamp, ``k u16`` then ``(origin u16, count
  u32) x k``.
* LSU (6) -- link-state update: one full non-MC LSA transferred during
  resync.  Distinct from DATA so the receiver applies resync semantics
  (re-flood if news; recover the own-origin sequence number).

All integers are big-endian.  Decoding raises
:class:`FrameDecodeError` (a :class:`~repro.core.wire.WireDecodeError`)
on anything undecodable, so socket readers need a single except clause.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.core.lsa import McLsa
from repro.core.state import McSnapshot
from repro.core.wire import (
    Reader,
    WireDecodeError,
    decode_lsa,
    encode_lsa,
    pack_stamp_dense,
    pack_stamp_pairs,
    pairs_are_shorter,
    read_stamp_dense,
    read_stamp_pairs,
)
from repro.lsr.lsa import NonMcLsa
from repro.obs.context import TraceContext, TraceContextError
from repro.trees.algorithms import RECEIVER, SENDER

FRAME_MAGIC = 0xD7
FRAME_VERSION = 2
#: SNAP frames whose four stamps are in pair form.
PAIR_FRAME_VERSION = 3
DATA = 1
ACK = 2
HELLO = 3
DBD = 4
SNAP = 5
LSU = 6

#: Frame types carried by the reliable (ack/retransmit/dedup) machinery.
RELIABLE_TYPES = frozenset((DATA, DBD, SNAP, LSU))

_HEADER = struct.Struct("!BBBHHI")
_DBD_HEAD = struct.Struct("!BH")
_DBD_ENTRY = struct.Struct("!HI")
_SNAP_HEAD = struct.Struct("!IH")  # connection, proposer
_U16 = struct.Struct("!H")
_SNAP_MEMBER = struct.Struct("!HB")
_SNAP_BACKUP = struct.Struct("!HHH")  # protected edge u, v, detour path length

_ROLE_BITS = ((SENDER, 0x01), (RECEIVER, 0x02))


class FrameDecodeError(WireDecodeError):
    """Raised on malformed datagram frames (subclass of WireDecodeError)."""


@dataclass(frozen=True)
class DataFrame:
    """A decoded DATA frame: one LSA in flight from ``src`` to ``dest``."""

    src: int
    dest: int
    seq: int
    lsa: Union[McLsa, NonMcLsa]


@dataclass(frozen=True)
class AckFrame:
    """A decoded ACK frame: ``src`` acknowledges ``(dest, seq)``."""

    src: int
    dest: int
    seq: int


@dataclass(frozen=True)
class HelloFrame:
    """A keepalive: ``src`` is alive in boot ``generation``."""

    src: int
    dest: int
    generation: int


@dataclass(frozen=True)
class DbdFrame:
    """A database description: ``src``'s LSA headers, sorted by origin.

    ``reply`` marks the second leg of the handshake; a reply never
    triggers another DBD, so the exchange always terminates.
    """

    src: int
    dest: int
    seq: int
    reply: bool
    headers: Tuple[Tuple[int, int], ...]  # (origin, seqnum)

    def header_map(self) -> Dict[int, int]:
        return dict(self.headers)


@dataclass(frozen=True)
class SnapFrame:
    """A decoded SNAP frame carrying one :class:`McSnapshot`."""

    src: int
    dest: int
    seq: int
    snapshot: McSnapshot


@dataclass(frozen=True)
class LsuFrame:
    """A decoded LSU frame: one non-MC LSA transferred during resync."""

    src: int
    dest: int
    seq: int
    lsa: NonMcLsa


Frame = Union[DataFrame, AckFrame, HelloFrame, DbdFrame, SnapFrame, LsuFrame]


def _pack_header(
    ftype: int, src: int, dest: int, seq: int, version: int = FRAME_VERSION
) -> bytes:
    return _HEADER.pack(FRAME_MAGIC, version, ftype, src, dest, seq)


def _pack_ctx(ctx: Optional[TraceContext]) -> bytes:
    """The version-2 trace-context prefix: has_ctx flag + optional bytes."""
    if ctx is None:
        return b"\x00"
    return b"\x01" + ctx.to_wire()


def data_body(lsa: Union[McLsa, NonMcLsa]) -> bytes:
    """The DATA frame body: trace-context prefix plus the encoded LSA.

    Everything after the header, and so the same for every copy of one
    flood: the sender encodes it once and splices a header per copy.
    """
    return _pack_ctx(getattr(lsa, "ctx", None)) + encode_lsa(lsa)


def encode_data(
    src: int, dest: int, seq: int, lsa: Union[McLsa, NonMcLsa],
    body: Optional[bytes] = None,
) -> bytes:
    """Build the wire bytes of one DATA frame (context taken from the LSA).

    ``body`` is ``data_body(lsa)`` when the caller already holds it.
    """
    if body is None:
        body = data_body(lsa)
    return _pack_header(DATA, src, dest, seq) + body


def encode_ack(src: int, dest: int, seq: int) -> bytes:
    """Build the wire bytes of one ACK frame."""
    return _pack_header(ACK, src, dest, seq)


def encode_hello(src: int, dest: int, generation: int) -> bytes:
    """Build the wire bytes of one HELLO frame (generation rides in seq)."""
    return _pack_header(HELLO, src, dest, generation)


def encode_dbd(
    src: int, dest: int, seq: int, headers: Dict[int, int], reply: bool = False
) -> bytes:
    """Build the wire bytes of one DBD frame from an ``{origin: seqnum}`` map."""
    entries = sorted(headers.items())
    parts = [
        _pack_header(DBD, src, dest, seq),
        _DBD_HEAD.pack(1 if reply else 0, len(entries)),
    ]
    for origin, seqnum in entries:
        parts.append(_DBD_ENTRY.pack(origin, seqnum))
    return b"".join(parts)


def _role_bits(roles: FrozenSet[str]) -> int:
    bits = 0
    for role, bit in _ROLE_BITS:
        if role in roles:
            bits |= bit
    return bits


def _roles_from_bits(bits: int) -> FrozenSet[str]:
    return frozenset(role for role, bit in _ROLE_BITS if bits & bit)


def encode_snapshot(snapshot: McSnapshot) -> Tuple[int, bytes]:
    """Serialize one :class:`McSnapshot` body: ``(frame version, bytes)``."""
    stamps = snapshot.stamps()
    n = max(stamp.span() for stamp in stamps)
    parts = [_SNAP_HEAD.pack(snapshot.connection_id, snapshot.proposer)]
    # Pair form spends one count per stamp where dense shares one ``n``.
    if pairs_are_shorter(sum(map(len, stamps)) + 1, 4 * n):
        version = PAIR_FRAME_VERSION
        for stamp in stamps:
            parts += (_U16.pack(len(stamp)), pack_stamp_pairs(stamp))
    else:
        version = FRAME_VERSION
        parts.append(_U16.pack(n))
        parts += (pack_stamp_dense(stamp, n) for stamp in stamps)
    parts.append(_U16.pack(len(snapshot.members)))
    for switch, roles in sorted(snapshot.members):
        parts.append(_SNAP_MEMBER.pack(switch, _role_bits(roles)))
    parts.append(struct.pack("!H", len(snapshot.active_backup)))
    for u, v, path in sorted(snapshot.active_backup):
        parts.append(_SNAP_BACKUP.pack(u, v, len(path)))
        if path:
            parts.append(struct.pack(f"!{len(path)}H", *path))
    if snapshot.topology is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01")
        parts.append(snapshot.topology)
    return version, b"".join(parts)


def encode_snap(src: int, dest: int, seq: int, snapshot: McSnapshot) -> bytes:
    """Build the wire bytes of one SNAP frame (context from the snapshot)."""
    version, body = encode_snapshot(snapshot)
    return _pack_header(SNAP, src, dest, seq, version) + _pack_ctx(snapshot.ctx) + body


def encode_lsu(src: int, dest: int, seq: int, lsa: NonMcLsa) -> bytes:
    """Build the wire bytes of one LSU frame (context taken from the LSA)."""
    if not isinstance(lsa, NonMcLsa):
        raise TypeError("LSU frames carry non-MC LSAs only")
    return (
        _pack_header(LSU, src, dest, seq)
        + _pack_ctx(lsa.ctx)
        + encode_lsa(lsa)
    )


def _decode_dbd(src: int, dest: int, seq: int, body: bytes) -> DbdFrame:
    reader = Reader(body)
    reply, count = reader.take(_DBD_HEAD.format)
    if reply not in (0, 1):
        raise FrameDecodeError(f"bad DBD reply flag {reply}")
    headers = []
    last_origin = -1
    for _ in range(count):
        origin, seqnum = reader.take(_DBD_ENTRY.format)
        if origin <= last_origin:
            raise FrameDecodeError("DBD headers not strictly sorted by origin")
        last_origin = origin
        headers.append((origin, seqnum))
    if not reader.done():
        raise FrameDecodeError("trailing bytes after DBD")
    return DbdFrame(src, dest, seq, bool(reply), tuple(headers))


def _decode_snap(
    src: int, dest: int, seq: int, body: bytes, ctx: Optional[TraceContext],
    pairs: bool,
) -> SnapFrame:
    reader = Reader(body)
    connection_id, proposer = reader.take(_SNAP_HEAD.format)
    if pairs:
        received, expected, current, member_stamp = (
            read_stamp_pairs(reader.take, *reader.take("!H")) for _ in range(4)
        )
    else:
        (n,) = reader.take("!H")
        received, expected, current, member_stamp = (
            read_stamp_dense(reader.take, n) for _ in range(4)
        )
    (member_count,) = reader.take("!H")
    members = []
    last_switch = -1
    for _ in range(member_count):
        switch, bits = reader.take(_SNAP_MEMBER.format)
        if switch <= last_switch:
            raise FrameDecodeError("SNAP members not strictly sorted")
        last_switch = switch
        members.append((switch, _roles_from_bits(bits)))
    (backup_count,) = reader.take("!H")
    active_backup = []
    last_edge = (-1, -1)
    for _ in range(backup_count):
        u, v, path_len = reader.take(_SNAP_BACKUP.format)
        if u > v:
            raise FrameDecodeError("SNAP backup edge not canonical")
        if (u, v) <= last_edge:
            raise FrameDecodeError("SNAP backups not strictly sorted")
        last_edge = (u, v)
        path = reader.take(f"!{path_len}H") if path_len else ()
        active_backup.append((u, v, tuple(path)))
    (has_topology,) = reader.take("!B")
    if has_topology not in (0, 1):
        raise FrameDecodeError(f"bad SNAP topology flag {has_topology}")
    topology: Optional[bytes] = None
    if has_topology:
        topology = body[reader.offset :]
    elif not reader.done():
        raise FrameDecodeError("trailing bytes after SNAP")
    snapshot = McSnapshot(
        connection_id=connection_id,
        received=received,
        expected=expected,
        current=current,
        proposer=proposer,
        member_stamp=member_stamp,
        members=tuple(members),
        topology=topology,
        active_backup=tuple(active_backup),
        ctx=ctx,
    )
    snapshot.decoded_topology  # raises on bytes that are no topology
    return SnapFrame(src, dest, seq, snapshot)


def _take_ctx(body: bytes) -> Tuple[Optional[TraceContext], bytes]:
    """Split a frame body into (trace context, remaining payload)."""
    if not body:
        raise FrameDecodeError("truncated trace-context prefix")
    flag = body[0]
    if flag == 0:
        return None, body[1:]
    if flag != 1:
        raise FrameDecodeError(f"bad trace-context flag {flag}")
    end = 1 + TraceContext.WIRE_SIZE
    if len(body) < end:
        raise FrameDecodeError("truncated trace context")
    try:
        ctx = TraceContext.from_wire(body[1:end])
    except TraceContextError as exc:
        raise FrameDecodeError(f"bad trace context: {exc}") from exc
    return ctx, body[end:]


def decode_frame(data: bytes) -> Frame:
    """Parse one datagram into a frame; raises :class:`FrameDecodeError`."""
    if len(data) < _HEADER.size:
        raise FrameDecodeError("truncated frame header")
    magic, version, ftype, src, dest, seq = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise FrameDecodeError(f"bad frame magic 0x{magic:02x}")
    if version != FRAME_VERSION and not (
        version == PAIR_FRAME_VERSION and ftype == SNAP
    ):
        raise FrameDecodeError(f"unsupported frame version {version}")
    try:
        return _decode_body(version, ftype, src, dest, seq, data[_HEADER.size :])
    except FrameDecodeError:
        raise
    except WireDecodeError as exc:  # the one translation: a bad body
        raise FrameDecodeError(f"bad payload in a type-{ftype} frame: {exc}") from exc


def _decode_body(
    version: int, ftype: int, src: int, dest: int, seq: int, body: bytes
) -> Frame:
    """The frame after its header; raises :class:`WireDecodeError`."""
    if ftype == ACK:
        if body:
            raise FrameDecodeError("trailing bytes after ACK")
        return AckFrame(src, dest, seq)
    if ftype == DATA:
        ctx, payload = _take_ctx(body)
        lsa = decode_lsa(payload)
        if ctx is not None:
            # The LSA was built two lines up and nobody else holds it:
            # stamp the (observability-only, compare=False) context in
            # place rather than rebuild the frozen dataclass per datagram.
            object.__setattr__(lsa, "ctx", ctx)
        return DataFrame(src, dest, seq, lsa)
    if ftype == HELLO:
        if body:
            raise FrameDecodeError("trailing bytes after HELLO")
        return HelloFrame(src, dest, seq)
    if ftype == DBD:
        return _decode_dbd(src, dest, seq, body)
    if ftype == SNAP:
        ctx, payload = _take_ctx(body)
        return _decode_snap(
            src, dest, seq, payload, ctx, pairs=version == PAIR_FRAME_VERSION
        )
    if ftype == LSU:
        ctx, payload = _take_ctx(body)
        lsa = decode_lsa(payload)
        if not isinstance(lsa, NonMcLsa):
            raise FrameDecodeError("LSU frames carry non-MC LSAs only")
        if ctx is not None:
            lsa = replace(lsa, ctx=ctx)
        return LsuFrame(src, dest, seq, lsa)
    raise FrameDecodeError(f"unknown frame type {ftype}")


def try_decode_frame(data: bytes) -> Optional[Frame]:
    """Decode, returning ``None`` instead of raising (hot receive path)."""
    try:
        return decode_frame(data)
    except FrameDecodeError:
        return None
