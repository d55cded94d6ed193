"""Heap files — the page collections backing tables.

The heap implements the three erasure-relevant physical behaviours the paper
benchmarks (Figure 4a):

* ``mark_dead`` (DELETE): out-of-place delete, bloat accumulates;
* ``vacuum`` (VACUUM): prunes dead tuples in place — space becomes reusable
  but the file does **not** shrink, and tuple ids stay stable;
* ``rewrite`` (VACUUM FULL): compacts live tuples into fresh pages — the
  file shrinks, every tuple id changes (indexes must be rebuilt).

A free-space map (list of page numbers with room) keeps inserts O(1)
amortized without scanning the whole file, and file-wide live/dead tuple
totals are kept as counters every mutation updates, so the bloat statistic
every read pays for (``dead_fraction``) is O(1) too.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from repro.storage.page import PAGE_SIZE, TUPLE_OVERHEAD, Page, TupleSlot

#: Tuple id: (page_no, slot_no).
TID = Tuple[int, int]


class HeapFile:
    """An append-friendly collection of heap pages."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._pages: List[Page] = []
        self._free_map: List[int] = []  # page numbers believed to have room
        # File-wide tuple totals; always equal to the page sums.
        self._live = 0
        self._dead = 0

    # ------------------------------------------------------------ statistics
    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def live_tuples(self) -> int:
        return self._live

    @property
    def dead_tuples(self) -> int:
        return self._dead

    @property
    def live_bytes(self) -> int:
        return sum(p.live_bytes for p in self._pages)

    @property
    def dead_bytes(self) -> int:
        return sum(p.dead_bytes for p in self._pages)

    @property
    def total_bytes(self) -> int:
        """On-disk footprint: the file never shrinks except via rewrite."""
        return len(self._pages) * PAGE_SIZE

    @property
    def dead_fraction(self) -> float:
        """Dead share of occupied tuples — the bloat statistic reads pay for."""
        total = self._live + self._dead
        return self._dead / total if total else 0.0

    # --------------------------------------------------------------- mutation
    def insert(self, key: Any, payload: Any, payload_size: int) -> TID:
        """Place the tuple on a page with room; extends the file if needed."""
        while self._free_map:
            page_no = self._free_map[-1]
            page = self._pages[page_no]
            if page.fits(payload_size):
                slot_no = page.insert(key, payload, payload_size)
                self._live += 1
                if not page.fits(payload_size):
                    self._free_map.pop()
                return (page_no, slot_no)
            self._free_map.pop()
        page = Page(len(self._pages))
        self._pages.append(page)
        slot_no = page.insert(key, payload, payload_size)
        self._live += 1
        if page.fits(payload_size):
            self._free_map.append(page.page_no)
        return (page.page_no, slot_no)

    def mark_dead(self, tid: TID) -> None:
        page_no, slot_no = tid
        self._pages[page_no].mark_dead(slot_no)
        self._live -= 1
        self._dead += 1

    def fetch(self, tid: TID) -> TupleSlot:
        page_no, slot_no = tid
        return self._pages[page_no].slot(slot_no)

    def overwrite(self, tid: TID, payload: Any) -> None:
        """In-place payload replacement (same size) — used by the reversible
        inaccessibility grounding, which flips a flag without moving data."""
        self.fetch(tid).payload = payload

    # --------------------------------------------------------------- vacuums
    def vacuum(self) -> int:
        """VACUUM: prune dead tuples everywhere; file size unchanged.

        Returns the number of tuples reclaimed.  Pages that regained room
        rejoin the free-space map.
        """
        reclaimed = 0
        for page in self._pages:
            got = page.prune()
            if got:
                reclaimed += got
                if page.page_no not in self._free_map and page.free_bytes > TUPLE_OVERHEAD:
                    self._free_map.append(page.page_no)
        self._dead -= reclaimed
        return reclaimed

    def rewrite(self) -> Dict[Any, Tuple[TID, TupleSlot]]:
        """VACUUM FULL: compact live tuples into fresh pages.

        Returns ``{key: (new_tid, slot)}`` for every surviving tuple so the
        caller can rebuild its indexes.  Keys are assumed unique among live
        tuples (the engine enforces primary keys).
        """
        survivors: List[TupleSlot] = [
            slot for page in self._pages for _, slot in page.live_slots()
        ]
        self._pages = []
        self._free_map = []
        self._live = 0
        self._dead = 0
        mapping: Dict[Any, Tuple[TID, TupleSlot]] = {}
        for slot in survivors:
            tid = self.insert(slot.key, slot.payload, slot.payload_size)
            mapping[slot.key] = (tid, slot)
        return mapping

    # ----------------------------------------------------------------- scans
    def scan(self) -> Iterator[Tuple[TID, TupleSlot]]:
        """Sequential scan over live tuples, page order."""
        for page in self._pages:
            for slot_no, slot in page.live_slots():
                yield (page.page_no, slot_no), slot

    def scan_all(self) -> Iterator[Tuple[TID, TupleSlot]]:
        """Scan including dead tuples (what a forensic read would see —
        relevant to the illegal-retention analysis)."""
        for page in self._pages:
            for slot_no, slot in page.all_slots():
                yield (page.page_no, slot_no), slot

    def page(self, page_no: int) -> Page:
        return self._pages[page_no]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HeapFile({self.name!r}, pages={self.page_count}, "
            f"live={self.live_tuples}, dead={self.dead_tuples})"
        )
