"""Round-trip and fuzz tests for the live runtime's datagram framing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lsa import McEvent, McLsa
from repro.core.mc import Role
from repro.core.timestamp import Stamp
from repro.core.wire import WireDecodeError
from repro.lsr.lsa import NonMcLsa, RouterLsa
from repro.core.wire import encode_topology
from repro.net.frames import (
    ACK,
    DATA,
    DBD,
    FRAME_MAGIC,
    FRAME_VERSION,
    HELLO,
    LSU,
    RELIABLE_TYPES,
    SNAP,
    AckFrame,
    DataFrame,
    DbdFrame,
    FrameDecodeError,
    HelloFrame,
    LsuFrame,
    McSnapshot,
    PAIR_FRAME_VERSION,
    SnapFrame,
    decode_frame,
    encode_ack,
    encode_data,
    encode_dbd,
    encode_hello,
    encode_lsu,
    encode_snap,
    try_decode_frame,
)
from repro.trees.base import McTopology, MulticastTree
from tests.stamps import S


def sample_mc_lsa() -> McLsa:
    topo = McTopology.shared(MulticastTree.build([(0, 1), (1, 2)], [0, 2]))
    return McLsa(3, McEvent.JOIN, 7, topo, S(1, 0, 2, 0), Role.BOTH)


def sample_router_lsa() -> NonMcLsa:
    return NonMcLsa(2, RouterLsa(2, 17, ((0, 1.5, True), (5, 0.25, False))))


class TestRoundTrip:
    def test_data_with_mc_lsa(self):
        lsa = sample_mc_lsa()
        frame = decode_frame(encode_data(3, 9, 42, lsa))
        assert frame == DataFrame(3, 9, 42, lsa)

    def test_data_with_router_lsa(self):
        lsa = sample_router_lsa()
        frame = decode_frame(encode_data(2, 0, 1, lsa))
        assert frame == DataFrame(2, 0, 1, lsa)

    def test_ack(self):
        assert decode_frame(encode_ack(9, 3, 42)) == AckFrame(9, 3, 42)

    @given(
        src=st.integers(0, 2**16 - 1),
        dest=st.integers(0, 2**16 - 1),
        seq=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_ack_roundtrip_ranges(self, src, dest, seq):
        assert decode_frame(encode_ack(src, dest, seq)) == AckFrame(src, dest, seq)


def sample_snapshot(with_topology: bool = True) -> McSnapshot:
    topo = McTopology.shared(MulticastTree.build([(0, 1), (1, 2)], [0, 2]))
    return McSnapshot(
        connection_id=7,
        received=S(1, 0, 2, 1),
        expected=S(1, 0, 2, 1),
        current=S(1, 0, 1, 1),
        proposer=2,
        member_stamp=S(1, 0, 2, 1),
        members=((0, frozenset({"sender", "receiver"})), (2, frozenset({"receiver"}))),
        topology=encode_topology(topo) if with_topology else None,
    )


class TestControlRoundTrip:
    def test_hello(self):
        assert decode_frame(encode_hello(4, 9, 3)) == HelloFrame(4, 9, 3)

    def test_dbd_request(self):
        frame = decode_frame(encode_dbd(1, 2, 5, {0: 3, 4: 17}))
        assert frame == DbdFrame(1, 2, 5, False, ((0, 3), (4, 17)))
        assert frame.header_map() == {0: 3, 4: 17}

    def test_dbd_reply_flag(self):
        frame = decode_frame(encode_dbd(1, 2, 5, {}, reply=True))
        assert frame == DbdFrame(1, 2, 5, True, ())

    def test_snap(self):
        snap = sample_snapshot()
        frame = decode_frame(encode_snap(3, 8, 11, snap))
        assert frame == SnapFrame(3, 8, 11, snap)

    def test_snap_without_topology(self):
        snap = sample_snapshot(with_topology=False)
        assert decode_frame(encode_snap(3, 8, 11, snap)) == SnapFrame(3, 8, 11, snap)

    def test_lsu(self):
        lsa = sample_router_lsa()
        assert decode_frame(encode_lsu(2, 0, 9, lsa)) == LsuFrame(2, 0, 9, lsa)

    def test_lsu_rejects_mc_lsa(self):
        with pytest.raises(TypeError):
            encode_lsu(2, 0, 9, sample_mc_lsa())

    def test_reliable_types(self):
        assert RELIABLE_TYPES == frozenset((DATA, DBD, SNAP, LSU))
        assert HELLO not in RELIABLE_TYPES
        assert ACK not in RELIABLE_TYPES


def sparse_snapshot() -> McSnapshot:
    """A young connection in a big network: few origins, high ids."""
    r = Stamp({7: 2, 300: 1})
    return McSnapshot(
        connection_id=7,
        received=r,
        expected=Stamp({7: 2, 300: 1, 512: 1}),
        current=Stamp({7: 1}),
        proposer=7,
        member_stamp=r,
        members=((7, frozenset({"receiver"})), (300, frozenset({"receiver"}))),
        topology=None,
    )


class TestSnapStampForms:
    HEADER = len(encode_ack(0, 0, 0))

    def test_dense_snapshot_stays_version_2(self):
        data = encode_snap(3, 8, 11, sample_snapshot())
        assert data[1] == FRAME_VERSION

    def test_sparse_snapshot_goes_out_as_pairs(self):
        snap = sparse_snapshot()
        data = encode_snap(3, 8, 11, snap)
        assert data[1] == PAIR_FRAME_VERSION
        # header, no-ctx flag, connection + proposer, four counted pair
        # lists (8 pairs in all), member list, no backups, no topology
        assert len(data) == self.HEADER + 1 + 6 + (4 * 2 + 8 * 6) + (2 + 2 * 3) + 2 + 1
        assert decode_frame(data) == SnapFrame(3, 8, 11, snap)

    def test_pair_version_is_for_snap_frames_only(self):
        for data in (encode_ack(1, 2, 3), encode_data(3, 9, 42, sample_mc_lsa())):
            bumped = bytearray(data)
            bumped[1] = PAIR_FRAME_VERSION
            with pytest.raises(FrameDecodeError, match="version"):
                decode_frame(bytes(bumped))

    def test_non_canonical_pairs_rejected(self):
        data = bytearray(encode_snap(3, 8, 11, sparse_snapshot()))
        first_pair = self.HEADER + 1 + 6 + 2
        data[first_pair : first_pair + 2] = (400).to_bytes(2, "big")  # 400 before 300
        with pytest.raises(FrameDecodeError, match="pairs"):
            decode_frame(bytes(data))
        assert try_decode_frame(bytes(data)) is None

    def test_parent_commit_bytes_still_decode(self):
        """A version-2 SNAP and DATA frame as the dense-stamp code wrote
        them (vectors of full length n = 6 and 4, trailing zeros included)."""
        snap = bytes.fromhex(
            "d70205000300080000000b000000000700020006"
            "000000010000000000000002000000010000000000000000"
            "000000010000000000000002000000010000000000000000"
            "000000010000000000000001000000010000000000000000"
            "000000010000000000000002000000000000000000000000"
            "0002000003000202"
            "0000"
            "01"
            "0001ffffffffffffffff0002000000000000000200000002"
            "00000000000000010000000100000002"
        )
        expected = McSnapshot(
            connection_id=7,
            received=S(1, 0, 2, 1),
            expected=S(1, 0, 2, 1),
            current=S(1, 0, 1, 1),
            proposer=2,
            member_stamp=S(1, 0, 2),
            members=sample_snapshot().members,
            topology=sample_snapshot().topology,
        )
        assert decode_frame(snap) == SnapFrame(3, 8, 11, expected)
        data = bytes.fromhex(
            "d70201000300090000002a00"
            "d60105000300000007000400000001000000000000000200000000"
        )
        assert decode_frame(data) == DataFrame(
            3, 9, 42, McLsa(3, McEvent.LEAVE, 7, None, S(1, 0, 2))
        )

    @given(
        st.lists(
            st.dictionaries(st.integers(0, 2**16 - 1), st.integers(1, 2**32 - 1), max_size=12),
            min_size=4, max_size=4,
        ),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_both_forms(self, vectors, crowd):
        if crowd:  # origins packed low: the dense form wins
            vectors = [dict(enumerate(v.values())) for v in vectors]
        r, e, c, m = map(Stamp, vectors)
        snap = McSnapshot(7, r, e, c, 2, m, (), None)
        data = encode_snap(3, 8, 11, snap)
        n = max(s.span() for s in (r, e, c, m))
        stored = sum(len(s) for s in (r, e, c, m))
        pairs = 8 + 6 * stored < 2 + 16 * n
        assert data[1] == (PAIR_FRAME_VERSION if pairs else FRAME_VERSION)
        assert len(data) == self.HEADER + 1 + 6 + min(8 + 6 * stored, 2 + 16 * n) + 5
        assert decode_frame(data) == SnapFrame(3, 8, 11, snap)


class TestControlRobustness:
    def test_hello_with_trailing_bytes(self):
        with pytest.raises(FrameDecodeError, match="HELLO"):
            decode_frame(encode_hello(1, 2, 3) + b"\x00")

    def test_dbd_unsorted_headers(self):
        good = encode_dbd(1, 2, 5, {0: 3, 4: 17})
        # Swap the two 6-byte header entries after the 3-byte DBD head.
        body_at = len(encode_ack(0, 0, 0)) + 3
        swapped = (
            good[:body_at]
            + good[body_at + 6 : body_at + 12]
            + good[body_at : body_at + 6]
        )
        with pytest.raises(FrameDecodeError, match="sorted"):
            decode_frame(swapped)

    def test_snap_truncated_vectors(self):
        data = encode_snap(3, 8, 11, sample_snapshot())
        with pytest.raises(FrameDecodeError, match="truncated"):
            decode_frame(data[: len(encode_ack(0, 0, 0)) + 10])

    def test_snap_garbage_topology(self):
        snap = sample_snapshot(with_topology=False)
        data = encode_snap(3, 8, 11, snap)
        # Flip the has-topology flag and append junk.
        with pytest.raises(FrameDecodeError):
            decode_frame(data[:-1] + b"\x01garbage")

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_corrupted_control_frames(self, suffix):
        for data in (
            encode_dbd(1, 2, 5, {0: 3, 4: 17}),
            encode_snap(3, 8, 11, sample_snapshot()),
            encode_snap(3, 8, 11, sparse_snapshot()),
            encode_lsu(2, 0, 9, sample_router_lsa()),
        ):
            for blob in (data[: len(data) // 2] + suffix, data + suffix):
                try:
                    decode_frame(blob)
                except FrameDecodeError:
                    pass


class TestRobustness:
    def test_truncated_header(self):
        with pytest.raises(FrameDecodeError, match="truncated"):
            decode_frame(b"\xd7\x01")

    def test_bad_magic(self):
        data = bytearray(encode_ack(1, 2, 3))
        data[0] = 0x00
        with pytest.raises(FrameDecodeError, match="magic"):
            decode_frame(bytes(data))

    def test_lsa_magic_is_not_frame_magic(self):
        """A raw LSA accidentally fed to the frame decoder must not parse."""
        from repro.core.wire import encode_lsa

        with pytest.raises(FrameDecodeError, match="magic"):
            decode_frame(encode_lsa(sample_mc_lsa()))

    def test_bad_version(self):
        data = bytearray(encode_ack(1, 2, 3))
        data[1] = 99
        with pytest.raises(FrameDecodeError, match="version"):
            decode_frame(bytes(data))

    def test_unknown_type(self):
        data = bytearray(encode_ack(1, 2, 3))
        data[2] = 77
        with pytest.raises(FrameDecodeError, match="type"):
            decode_frame(bytes(data))

    def test_ack_with_trailing_bytes(self):
        with pytest.raises(FrameDecodeError, match="ACK"):
            decode_frame(encode_ack(1, 2, 3) + b"\x00")

    def test_data_with_garbage_payload(self):
        header = encode_ack(1, 2, 3)[:2] + bytes([DATA]) + encode_ack(1, 2, 3)[3:]
        # \x00 = "no trace context", so the garbage reaches the LSA codec.
        with pytest.raises(FrameDecodeError, match="payload"):
            decode_frame(header + b"\x00" + b"garbage")

    def test_data_with_bad_ctx_flag(self):
        header = encode_ack(1, 2, 3)[:2] + bytes([DATA]) + encode_ack(1, 2, 3)[3:]
        with pytest.raises(FrameDecodeError, match="trace-context flag"):
            decode_frame(header + b"\x67garbage")

    def test_data_with_truncated_ctx(self):
        header = encode_ack(1, 2, 3)[:2] + bytes([DATA]) + encode_ack(1, 2, 3)[3:]
        with pytest.raises(FrameDecodeError, match="trace context"):
            decode_frame(header + b"\x01" + b"\x00" * 4)

    def test_frame_error_is_wire_decode_error(self):
        """One except clause covers frames and LSAs alike."""
        assert issubclass(FrameDecodeError, WireDecodeError)

    def test_try_decode_returns_none(self):
        assert try_decode_frame(b"junk") is None
        assert try_decode_frame(encode_ack(1, 2, 3)) == AckFrame(1, 2, 3)

    @given(st.binary(min_size=0, max_size=96))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_never_crashes_uncontrolled(self, blob):
        """Arbitrary bytes either decode or raise FrameDecodeError."""
        try:
            decode_frame(blob)
        except FrameDecodeError:
            pass

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_corrupted_real_frames(self, suffix):
        """Mutations of real frames fail controlled (or decode, if benign)."""
        pair_lsa = McLsa(3, McEvent.LEAVE, 7, None, Stamp({7: 2, 300: 1}))
        for lsa in (sample_mc_lsa(), pair_lsa):
            data = encode_data(3, 9, 42, lsa)
            for blob in (data[: len(data) // 2] + suffix, data + suffix):
                try:
                    decode_frame(blob)
                except FrameDecodeError:
                    pass

    def test_constants(self):
        from repro.core.wire import MAGIC

        assert FRAME_MAGIC != MAGIC  # frames must never alias raw LSAs
        assert DATA != ACK
