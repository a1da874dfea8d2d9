"""Round-trip and robustness tests for the LSA wire format."""

from __future__ import annotations

import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lsa import McEvent, McLsa
from repro.core.mc import Role
from repro.core.timestamp import Stamp
from repro.core.wire import (
    MAGIC,
    PAIR_VERSION,
    VERSION,
    WireDecodeError,
    WireError,
    decode_lsa,
    decode_topology,
    encode_lsa,
    encode_topology,
)
from repro.lsr.lsa import NonMcLsa, RouterLsa
from repro.trees.base import SHARED, McTopology, MulticastTree
from tests.stamps import S


def shared_topology():
    return McTopology.shared(
        MulticastTree.build([(0, 1), (1, 2)], [0, 2], root=None)
    )


def per_source_topology():
    return McTopology.per_source(
        {
            0: MulticastTree.build([(0, 3)], [0, 3], root=0),
            5: MulticastTree.build([(4, 5), (3, 4)], [3, 5], root=5),
        }
    )


class TestMcRoundTrip:
    def test_join_with_proposal(self):
        lsa = McLsa(3, McEvent.JOIN, 7, shared_topology(), S(1, 0, 2, 0), Role.BOTH)
        assert decode_lsa(encode_lsa(lsa)) == lsa

    def test_leave_without_proposal(self):
        lsa = McLsa(1, McEvent.LEAVE, 42, None, S(5, 5, 5))
        assert decode_lsa(encode_lsa(lsa)) == lsa

    def test_triggered_lsa(self):
        lsa = McLsa(0, McEvent.NONE, 9, per_source_topology(), S(2, 1))
        assert decode_lsa(encode_lsa(lsa)) == lsa

    def test_link_event(self):
        lsa = McLsa(4, McEvent.LINK, 1, None, S(0, 0, 0, 0, 1))
        assert decode_lsa(encode_lsa(lsa)) == lsa

    def test_empty_topology(self):
        lsa = McLsa(0, McEvent.NONE, 1, McTopology.empty(), S(1))
        assert decode_lsa(encode_lsa(lsa)) == lsa

    @given(
        source=st.integers(0, 500),
        conn=st.integers(0, 2**20),
        stamp=st.lists(st.integers(0, 2**20), min_size=1, max_size=30),
        event=st.sampled_from([McEvent.LEAVE, McEvent.LINK]),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_event_lsas(self, source, conn, stamp, event):
        lsa = McLsa(source, event, conn, None, S(*stamp))
        assert decode_lsa(encode_lsa(lsa)) == lsa

    @given(
        members=st.sets(st.integers(0, 100), min_size=2, max_size=8),
        stamp=st.lists(st.integers(0, 100), min_size=1, max_size=10),
        role=st.sampled_from(list(Role)),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_join_with_tree(self, members, stamp, role):
        ordered = sorted(members)
        edges = list(zip(ordered, ordered[1:]))  # a path over the members
        topo = McTopology.shared(MulticastTree.build(edges, members))
        lsa = McLsa(0, McEvent.JOIN, 1, topo, S(*stamp), role)
        assert decode_lsa(encode_lsa(lsa)) == lsa


class TestNonMcRoundTrip:
    def test_router_lsa(self):
        desc = RouterLsa(2, 17, ((0, 1.5, True), (5, 0.25, False)))
        lsa = NonMcLsa(2, desc)
        assert decode_lsa(encode_lsa(lsa)) == lsa

    def test_empty_links(self):
        lsa = NonMcLsa(0, RouterLsa(0, 1, ()))
        assert decode_lsa(encode_lsa(lsa)) == lsa

    @given(
        source=st.integers(0, 300),
        seqnum=st.integers(1, 2**20),
        links=st.lists(
            st.tuples(
                st.integers(0, 300),
                st.floats(0.001, 1000.0, allow_nan=False),
                st.booleans(),
            ),
            max_size=10,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, source, seqnum, links):
        lsa = NonMcLsa(source, RouterLsa(source, seqnum, tuple(links)))
        assert decode_lsa(encode_lsa(lsa)) == lsa


class TestStampForms:
    """The stamp takes whichever layout is shorter; both decode alike."""

    #: What the parent commit put on the wire for a stamp of n components.
    HEADER = 11

    @staticmethod
    def lsa(stamp: Stamp) -> McLsa:
        return McLsa(1, McEvent.LEAVE, 9, None, stamp)

    def test_dense_stamp_stays_version_1(self):
        """At k/n >= 2/3 pairs (6k bytes) cannot beat dense (4n bytes)."""
        for stamp in (S(1, 1, 1), S(1, 1, 0), S(4, 0, 2, 1, 0, 7)):
            data = encode_lsa(self.lsa(stamp))
            assert data[1] == VERSION
            assert len(data) == self.HEADER + 4 * stamp.span()
            assert decode_lsa(data).timestamp == stamp

    def test_dense_form_is_trimmed_to_the_span(self):
        data = encode_lsa(self.lsa(S(2, 1, 0, 0, 0, 0)))
        assert data[1] == VERSION and len(data) == self.HEADER + 4 * 2

    def test_sparse_stamp_goes_out_as_pairs(self):
        stamp = Stamp({5: 1, 300: 2})
        data = encode_lsa(self.lsa(stamp))
        assert data[1] == PAIR_VERSION
        assert len(data) == self.HEADER + 6 * 2  # not 4 * 301
        assert data[self.HEADER :].hex() == "000500000001" "012c00000002"
        assert decode_lsa(data).timestamp == stamp

    def test_empty_stamp(self):
        data = encode_lsa(self.lsa(Stamp()))
        assert data[1] == VERSION and len(data) == self.HEADER
        assert decode_lsa(data).timestamp == Stamp()

    def test_parent_commit_bytes_still_decode(self):
        """Version-1 LSAs as the dense-stamp code wrote them: full length
        n, trailing zeros included."""
        wire = bytes.fromhex(
            "d60173000300000007000600000001000000000000000200000000000000"
            "00000000000001ffffffffffffffff000200000000000000020000000200"
            "000000000000010000000100000002"
        )
        assert decode_lsa(wire) == McLsa(
            3, McEvent.JOIN, 7, shared_topology(), S(1, 0, 2), Role.BOTH
        )
        all_zero = bytes.fromhex("d601050001000000090003000000000000000000000000")
        assert decode_lsa(all_zero) == self.lsa(Stamp())

    @pytest.mark.parametrize(
        "pairs",
        ["000500000001" "000500000002",  # duplicate origin
         "012c00000002" "000500000001",  # descending origins
         "000500000000" "012c00000002"],  # a stored zero
    )
    def test_non_canonical_pairs_rejected(self, pairs):
        good = encode_lsa(self.lsa(Stamp({5: 1, 300: 2})))
        with pytest.raises(WireDecodeError, match="pairs"):
            decode_lsa(good[: self.HEADER] + bytes.fromhex(pairs))

    def test_router_lsa_has_no_pair_version(self):
        data = bytearray(encode_lsa(NonMcLsa(0, RouterLsa(0, 1, ()))))
        data[1] = PAIR_VERSION
        with pytest.raises(WireDecodeError, match="version"):
            decode_lsa(bytes(data))

    @given(
        st.dictionaries(st.integers(0, 2**16 - 1), st.integers(1, 2**32 - 1), max_size=40),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_both_forms(self, components, crowd):
        """Scattered origins (pairs win) and origins crowded low (dense wins)."""
        if crowd:
            components = {i: c for i, c in enumerate(components.values())}
        stamp = Stamp(components)
        data = encode_lsa(self.lsa(stamp))
        want_pairs = 6 * len(stamp) < 4 * stamp.span()
        assert data[1] == (PAIR_VERSION if want_pairs else VERSION)
        assert len(data) == self.HEADER + min(6 * len(stamp), 4 * stamp.span())
        decoded = decode_lsa(data).timestamp
        assert decoded == stamp and hash(decoded) == hash(stamp)
        assert encode_lsa(self.lsa(decoded)) == data  # canonical bytes


class TestRobustness:
    def test_bad_magic(self):
        data = bytes([0x00]) + encode_lsa(
            McLsa(0, McEvent.LEAVE, 1, None, S(1))
        )[1:]
        with pytest.raises(WireError, match="magic"):
            decode_lsa(data)

    def test_bad_version(self):
        good = bytearray(encode_lsa(McLsa(0, McEvent.LEAVE, 1, None, S(1))))
        good[1] = 99
        with pytest.raises(WireError, match="version"):
            decode_lsa(bytes(good))

    def test_truncation_detected(self):
        data = encode_lsa(McLsa(3, McEvent.JOIN, 7, shared_topology(), S(1, 2), Role.BOTH))
        for cut in (3, 7, len(data) - 1):
            with pytest.raises(WireError):
                decode_lsa(data[:cut])

    def test_trailing_garbage_detected(self):
        data = encode_lsa(McLsa(0, McEvent.LEAVE, 1, None, S(1)))
        with pytest.raises(WireError, match="trailing"):
            decode_lsa(data + b"\x00")

    def test_encode_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            encode_lsa("not an lsa")

    def test_decode_error_is_single_type(self):
        """Every failure mode funnels into WireDecodeError (a ValueError)."""
        assert issubclass(WireDecodeError, WireError)
        assert issubclass(WireDecodeError, ValueError)
        for blob in (b"", b"\x00", b"\xd6", b"\xd6\x01", b"\xff" * 40):
            with pytest.raises(WireDecodeError):
                decode_lsa(blob)

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_never_crashes_uncontrolled(self, blob):
        """Arbitrary bytes either decode or raise WireDecodeError -- nothing else."""
        try:
            decode_lsa(blob)
        except WireDecodeError:
            pass

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_valid_prefix_corruption(self, suffix):
        """Truncated/extended real encodings also fail with WireDecodeError."""
        for stamp in (S(1, 2), Stamp({5: 1, 300: 2})):  # dense form, pair form
            data = encode_lsa(
                McLsa(3, McEvent.JOIN, 7, shared_topology(), stamp, Role.BOTH)
            )
            for blob in (data[: len(data) // 2] + suffix, data + suffix):
                try:
                    decode_lsa(blob)
                except WireDecodeError:
                    pass


def reference_tree(key: int, tree: MulticastTree) -> bytes:
    """The tree encoding written out field by field, one edge at a time."""
    members = sorted(tree.members)
    edges = sorted(tree.edges)
    parts = [
        struct.pack("!iiH", key, -1 if tree.root is None else tree.root, len(members)),
        struct.pack(f"!{len(members)}I", *members) if members else b"",
        struct.pack("!I", len(edges)),
    ]
    for u, v in edges:
        parts.append(struct.pack("!II", u, v))
    return b"".join(parts)


def reference_topology(topo: McTopology) -> bytes:
    return struct.pack("!H", len(topo.trees)) + b"".join(
        reference_tree(key, tree) for key, tree in topo.trees
    )


NODES = st.integers(0, 2**32 - 1)

trees = st.builds(
    MulticastTree.build,
    st.lists(st.tuples(NODES, NODES), max_size=64),
    st.frozensets(NODES, max_size=12),
    root=st.none() | st.integers(0, 2**31 - 1),
)

topologies = st.dictionaries(
    st.just(SHARED) | st.integers(0, 2**31 - 1), trees, max_size=3
).map(lambda by_key: McTopology(tuple(sorted(by_key.items()))))


class TestTreeCodecProperties:
    """The bulk tree codec against the field-by-field reference."""

    @given(topologies)
    @settings(max_examples=100, deadline=None)
    def test_topology_bytes_match_the_reference(self, topo):
        data = encode_topology(topo)
        assert data == reference_topology(topo)
        assert decode_topology(data) == topo

    @given(topologies, st.lists(st.integers(0, 2**16), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_lsa_bytes_match_the_reference_and_every_prefix_fails(self, topo, stamp):
        lsa = McLsa(3, McEvent.JOIN, 7, topo, S(*stamp), Role.SENDER)
        bare = bytearray(encode_lsa(replace(lsa, proposal=None)))
        bare[2] |= 0x10  # has-proposal
        data = encode_lsa(lsa)
        assert data == bytes(bare) + reference_topology(topo)
        assert decode_lsa(data) == lsa
        for cut in range(len(data)):
            with pytest.raises(WireDecodeError):
                decode_lsa(data[:cut])

    @pytest.mark.parametrize("tail", [b"", b"\x00" * 8, b"\xff" * 64])
    def test_an_absurd_edge_count_is_a_fast_truncation(self, tail):
        head = struct.pack("!HiiHI", 1, SHARED, -1, 0, 0xFFFFFFFF) + tail
        with pytest.raises(WireDecodeError, match="truncated"):
            decode_topology(head)
        lsa = bytearray(encode_lsa(McLsa(0, McEvent.LEAVE, 1, None, S(1))))
        lsa[2] |= 0x10
        with pytest.raises(WireDecodeError, match="truncated"):
            decode_lsa(bytes(lsa) + head)


class TestTopologyCodec:
    def test_roundtrip_shared(self):
        topo = shared_topology()
        assert decode_topology(encode_topology(topo)) == topo

    def test_roundtrip_per_source(self):
        topo = per_source_topology()
        assert decode_topology(encode_topology(topo)) == topo

    def test_roundtrip_empty(self):
        topo = McTopology.empty()
        assert decode_topology(encode_topology(topo)) == topo

    def test_canonical_bytes_stable(self):
        """Re-encoding a decoded topology reproduces the exact bytes."""
        data = encode_topology(per_source_topology())
        assert encode_topology(decode_topology(data)) == data

    def test_trailing_garbage_detected(self):
        data = encode_topology(shared_topology())
        with pytest.raises(WireDecodeError, match="trailing"):
            decode_topology(data + b"\x00")

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_never_crashes_uncontrolled(self, blob):
        try:
            decode_topology(blob)
        except WireDecodeError:
            pass
