"""Per-switch link-state database and the derived network image.

Every switch stores the newest :class:`~repro.lsr.lsa.RouterLsa` from each
origin.  The *network image* -- the complete local picture of the network
that LSR gives every switch, and that D-GMC topology computations run on --
is derived from the database with OSPF's two-way check: a link is part of
the image only when **both** endpoints currently advertise it as up.

A database is built with its deployment's
:class:`~repro.lsr.spfcache.SolvedImages` table.  Its first image scans
every LSA; from then on the database holds the table's
:class:`~repro.lsr.spfcache.LsaSet` equal to its LSAs.  A flood hands one
LSA to every database, and most hold the same set when it arrives, so an
install is one lookup of the move the first database computed (its link
delta and the set after), and an image is one lookup of the image the
first database built.  Images with the same content -- reached in any
install order -- share one set of solved SPF tables and one row table.
"""

from __future__ import annotations

import weakref
from typing import Dict, Mapping, Optional, Tuple

from repro.lsr.lsa import RouterLsa
from repro.lsr.spfcache import (
    GLOBAL_STATS,
    LinkDelta,
    LsaSet,
    SolvedImages,
    SpfCache,
    wrap_image,
)

#: Most link changes tracked between two image rebuilds.  Up to this many,
#: the rebuild recomputes only the rows they name; past it, the next
#: :meth:`LinkStateDatabase.adjacency` scans every LSA.
MAX_PENDING_DELTAS = 8


class LinkStateDatabase:
    """Newest-LSA-per-origin store with a cached adjacency image.

    The image is handed out as a :class:`~repro.lsr.spfcache.SpfCache`
    snapshot: every accepted LSA install that changes it discards the
    snapshot, and the next :meth:`adjacency` call returns the image of
    the new LSA set -- the one another database of the deployment built,
    or a fresh one that adopts the solved SPF results of any image in the
    deployment's ``solved`` table with the same content.
    """

    def __init__(self, n: int, solved: SolvedImages) -> None:
        self.n = n
        #: The deployment's table of solved images.
        self.solved = solved
        #: The deployment's LSA set equal to ``_entries``: the first full
        #: scan finds it, and each install after it (the only ones with a
        #: link delta) moves to the next.  ``None`` before the first image.
        self._lsas: Optional[LsaSet] = None
        self._entries: Dict[int, RouterLsa] = {}
        self._image: Optional[Mapping[int, Dict[int, float]]] = None
        #: Count of accepted (newer) installs, for diagnostics.
        self.installs = 0
        #: The ordered link deltas since the last image was built --
        #: possibly several, when multiple installs land between rebuilds;
        #: ``None`` when no image was built yet or the combined change is
        #: longer than :data:`MAX_PENDING_DELTAS`.
        self._pending_delta: Optional[Tuple[LinkDelta, ...]] = None
        #: The plain row table of the last image this database held (the
        #: wrapped image only offers the slow mapping protocol); a
        #: delta-patched rebuild copies it and shares every row the delta
        #: does not name.  Empty until the first image is built.
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
        sequence for the next image; past :data:`MAX_PENDING_DELTAS`
        changes the next rebuild scans every LSA.  The delta is read
        from the deployment's memo of moves out of the held LSA set, and
        computed only when no database made this move before.
        """
        current = self._entries.get(lsa.origin)
        if current is not None and not lsa.is_newer_than(current):
            return False
        changes: Optional[Tuple[LinkDelta, ...]] = None
        if self._lsas is not None:  # an image was built: track how this one differs
            changes, self._lsas = self.solved.move(self._lsas, lsa, self._image_delta)
        self._entries[lsa.origin] = lsa
        self.installs += 1
        self.last_install_changed_image = changes != ()
        if self._image is not None:
            if changes == ():
                return True
            self._image = None
            self._pending_delta = (
                changes
                if changes is not None and len(changes) <= MAX_PENDING_DELTAS
                else None
            )
            GLOBAL_STATS.invalidations += 1
        elif changes and self._pending_delta is not None:
            # Further image-affecting installs before the rebuild extend
            # the sequence.
            combined = self._pending_delta + changes
            self._pending_delta = (
                combined if len(combined) <= MAX_PENDING_DELTAS else None
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
            # The peer's last entry for ``origin`` (what its link_map()
            # holds), read without building that dict.
            back = None
            for peer_nbr, peer_delay, peer_up in peer.links:
                if peer_nbr == origin:
                    back = peer_delay, peer_up
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
        lsas = self._lsas
        image = lsas.image() if lsas is not None and lsas.image is not None else None
        if image is None:
            if lsas is None:
                lsas = self._lsas = self.solved.scan(self._entries, self._scan)
            elif lsas.rows is None:
                lsas.rows = self._build_rows()
            image = wrap_image(lsas.rows, table=self.solved, key=lsas.key)
            if isinstance(image, SpfCache):
                # A table hit reads the rows of the content's first image:
                # adopt them, so images of one content keep sharing rows.
                lsas.rows = image.rows
                lsas.image = weakref.ref(image)
        self._rows = lsas.rows
        self._image = image
        self._pending_delta = None
        return image

    def _build_rows(self) -> Dict[int, Dict[int, float]]:
        """The rows of the stored LSAs' image: the last image's rows
        patched by the pending delta, or a full scan past its cap."""
        if self._pending_delta is None:
            return self._scan()
        # An install changes only edges incident to its origin, and the
        # tracked delta names both ends of each: every other row equals
        # the superseded image's, so rebuild just the named ones.
        adj: Dict[int, Dict[int, float]] = dict(self._rows)
        for x in {x for u, v, _, _ in self._pending_delta for x in (u, v)}:
            adj[x] = self._lsa_edges(x, self._entries.get(x))
        return adj

    def _scan(self) -> Dict[int, Dict[int, float]]:
        """The image of every stored LSA (see :meth:`SolvedImages.scan
        <repro.lsr.spfcache.SolvedImages.scan>`)."""
        adj: Dict[int, Dict[int, float]] = {x: {} for x in range(self.n)}
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
        return adj

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LinkStateDatabase(n={self.n}, origins={len(self._entries)})"
