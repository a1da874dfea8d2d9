"""Per-switch link-state database and the derived network image.

Every switch stores the newest :class:`~repro.lsr.lsa.RouterLsa` from each
origin.  The *network image* -- the complete local picture of the network
that LSR gives every switch, and that D-GMC topology computations run on --
is derived from the database with OSPF's two-way check: a link is part of
the image only when **both** endpoints currently advertise it as up.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.lsr.ispf import MAX_REPAIR_CHAIN, LinkDelta
from repro.lsr.lsa import RouterLsa
from repro.lsr.spfcache import GLOBAL_STATS, wrap_image

#: Longest delta sequence worth replaying through incremental SPF; past
#: this, a full Dijkstra is cheaper than the chain of repairs.  Shared
#: with the cache-side repair horizon (see
#: :data:`repro.lsr.ispf.MAX_REPAIR_CHAIN`): tracking more deltas than
#: the cache replays would silently drop them past the horizon.
_MAX_PENDING_DELTAS = MAX_REPAIR_CHAIN


class LinkStateDatabase:
    """Newest-LSA-per-origin store with a cached adjacency image.

    The image is handed out as a :class:`~repro.lsr.spfcache.SpfCache`
    snapshot keyed by the install generation: every accepted LSA install
    discards the snapshot (and its memoized SPF results) and the next
    :meth:`adjacency` call builds a fresh one.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self._entries: Dict[int, RouterLsa] = {}
        self._image: Optional[Mapping[int, Dict[int, float]]] = None
        #: Count of accepted (newer) installs, for diagnostics.  Doubles as
        #: the SPF cache generation: each install starts a new image.
        self.installs = 0
        #: The superseded image (when one existed at invalidation time) and
        #: the ordered link deltas leading from it to the next image --
        #: possibly several, when multiple installs land between rebuilds.
        #: Threaded into the next :func:`wrap_image` so incremental SPF can
        #: repair the old generation's trees instead of recomputing them;
        #: ``None`` means the combined change is too large to track.
        self._prev_image: Optional[Mapping[int, Dict[int, float]]] = None
        self._pending_delta: Optional[Tuple[LinkDelta, ...]] = None
        #: The plain row table the last image was built from (the wrapped
        #: image only offers the slow mapping protocol); a delta-patched
        #: rebuild copies it and shares every row the delta does not name.
        self._rows: Dict[int, Dict[int, float]] = {}
        #: Whether the most recent accepted install affected the image
        #: (False only for content-identical refreshes detected against a
        #: live image); consumers may keep image-derived state when False.
        self.last_install_changed_image = True

    def install(self, lsa: RouterLsa) -> bool:
        """Install ``lsa`` if it is newer than the stored one; return whether.

        An accepted install whose link content matches the stored LSA (a
        pure seqnum refresh) keeps the current image -- and its memoized
        SPF results -- valid.  Link changes (from this and any further
        installs before the next rebuild) accumulate as an ordered delta
        sequence for the next image generation; past
        :data:`_MAX_PENDING_DELTAS` changes the sequence degrades to the
        old discard-everything behavior.
        """
        current = self._entries.get(lsa.origin)
        if current is not None and not lsa.is_newer_than(current):
            return False
        changes: Optional[Tuple[LinkDelta, ...]] = None
        if self._image is not None or self._prev_image is not None:
            changes = self._image_delta(current, lsa)
        self._entries[lsa.origin] = lsa
        self.installs += 1
        self.last_install_changed_image = changes != ()
        if self._image is not None:
            if changes == ():
                return True
            self._prev_image = self._image
            self._image = None
            self._pending_delta = (
                changes
                if changes is not None
                and len(changes) <= _MAX_PENDING_DELTAS
                else None
            )
            GLOBAL_STATS.invalidations += 1
        elif self._prev_image is not None and changes:
            # Further image-affecting installs before the rebuild extend
            # the sequence (incremental SPF replays it in order).
            if self._pending_delta is not None:
                combined = self._pending_delta + changes
                self._pending_delta = (
                    combined if len(combined) <= _MAX_PENDING_DELTAS else None
                )
        return True

    def _lsa_edges(self, origin: int, lsa: Optional[RouterLsa]) -> Dict[int, float]:
        """Image edges incident to ``origin`` if ``lsa`` were its entry.

        Applies the same two-way check and mean-delay rule as
        :meth:`adjacency`, against the *current* peer entries.
        """
        edges: Dict[int, float] = {}
        if lsa is None:
            return edges
        for nbr, delay, up in lsa.links:
            if not up:
                continue
            peer = self._entries.get(nbr)
            if peer is None:
                continue
            back = peer.link_map().get(origin)
            if back is None or not back[1]:
                continue
            edges[nbr] = (delay + back[0]) / 2.0
        return edges

    def _image_delta(
        self, old: Optional[RouterLsa], new: RouterLsa
    ) -> Tuple[LinkDelta, ...]:
        """Image edge changes caused by replacing ``old`` with ``new``.

        An install only touches edges incident to the LSA's origin (the
        two-way check consults peers, but peers are unchanged), so diffing
        the origin's effective edge sets captures the whole image delta.
        """
        before = self._lsa_edges(new.origin, old)
        after = self._lsa_edges(new.origin, new)
        changes = []
        for nbr in sorted(set(before) | set(after)):
            old_w = before.get(nbr)
            new_w = after.get(nbr)
            if old_w != new_w:
                changes.append((new.origin, nbr, old_w, new_w))
        return tuple(changes)

    def get(self, origin: int) -> Optional[RouterLsa]:
        return self._entries.get(origin)

    def headers(self) -> Dict[int, int]:
        """The database summary: ``{origin: seqnum}`` of every stored LSA.

        This is the payload of a database-description (DBD) frame in the
        neighbor resync protocol -- headers are enough for both sides to
        compute exactly which full LSAs the other is missing.
        """
        return {origin: lsa.seqnum for origin, lsa in self._entries.items()}

    def entries(self) -> Dict[int, RouterLsa]:
        """Snapshot of the stored LSAs by origin (do not mutate the LSAs)."""
        return dict(self._entries)

    def complete(self) -> bool:
        """True when the database holds an LSA from every switch."""
        return len(self._entries) == self.n

    def adjacency(self) -> Mapping[int, Dict[int, float]]:
        """The network image as ``{node: {neighbor: delay}}``.

        A link appears iff both endpoints advertise it up; the delay is the
        mean of the two advertised values (they normally agree).  The
        returned mapping is an SPF-memoizing snapshot (see module
        docstring); treat it as immutable.
        """
        if self._image is not None:
            return self._image
        if self._prev_image is not None and self._pending_delta is not None:
            # An install changes only edges incident to its origin, and the
            # tracked delta names both ends of each: every other row equals
            # the superseded image's, so rebuild just the named ones.
            adj: Dict[int, Dict[int, float]] = dict(self._rows)
            for x in {x for u, v, _, _ in self._pending_delta for x in (u, v)}:
                adj[x] = self._lsa_edges(x, self._entries.get(x))
        else:
            adj = {x: {} for x in range(self.n)}
            # One map per origin per rebuild, not one per directed link.
            maps = {origin: lsa.link_map() for origin, lsa in self._entries.items()}
            for origin, lsa in self._entries.items():
                for nbr, delay, up in lsa.links:
                    if not up:
                        continue
                    peer = maps.get(nbr)
                    if peer is None:
                        continue
                    back = peer.get(origin)
                    if back is None or not back[1]:
                        continue
                    adj[origin][nbr] = (delay + back[0]) / 2.0
        self._rows = adj
        self._image = wrap_image(
            adj,
            generation=self.installs,
            prev=self._prev_image,
            delta=self._pending_delta,
        )
        self._prev_image = None
        self._pending_delta = None
        return self._image

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LinkStateDatabase(n={self.n}, origins={len(self._entries)})"
