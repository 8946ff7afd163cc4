"""Cache-slot geometry inside a leaf page's free window (§2.1.1).

The free window ``[free_lo, free_hi)`` between the directory and the key
region is carved into *slots* whose start offsets are aligned to the item
size — the paper's example: "if the item size is 25 bytes, then the start
of each slot is a multiple of 25".  Alignment makes slot boundaries a pure
function of the item size, so a reader needs no per-page slot table: it
derives the same slots the writer used even after the window has shrunk.

Each slot holds one self-describing item::

    tuple_id (8 B) | payload (fixed) | checksum (2 B)

A zeroed slot is empty.  A slot half-clobbered by index growth fails its
checksum and *reads as* empty — this is what lets key inserts "freely
overwrite the periphery of the cache space" without any coordination.

**Stable point.**  The paper derives the location overwritten last as
``S = K/(K+D) × P`` for its Figure-1 layout (keys grow down from the
header, directory grows up from the footer).  Our pages mirror that layout
(directory low, keys high), so the same meeting point measured in our
coordinates is ``S = H + U·D/(K+D)`` where ``H`` is the header size and
``U`` the usable bytes — the point where the two growing regions collide.
Slots are ranked by distance from S into buckets; hits migrate items
bucket-by-bucket toward S so the hottest items die last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import ReproError
from repro.storage.constants import PAGE_FOOTER_SIZE, PAGE_HEADER_SIZE, SLOT_ENTRY_SIZE
from repro.storage.page import SlottedPage

#: Bytes of tuple id at the start of every cache item.
ITEM_HEADER_SIZE = 8

#: Trailing checksum bytes.
ITEM_CHECKSUM_SIZE = 2


def item_size_for_payload(payload_size: int) -> int:
    """Full slot width for a given cached-payload width."""
    if payload_size <= 0:
        raise ReproError("cache payload size must be positive")
    return ITEM_HEADER_SIZE + payload_size + ITEM_CHECKSUM_SIZE


def checksum(tuple_id: bytes, payload: bytes) -> int:
    """16-bit multiplicative checksum over an item, never zero.

    Zero is reserved to mean "empty slot", so a computed zero is remapped.
    The checksum's job is not cryptographic integrity — it is detecting
    slots clobbered by index key/directory growth.  The rolling ``h*31+b``
    form guarantees any single-byte change alters the value (31 is odd, so
    ``delta · 31^k mod 2^16`` is never zero for a byte-sized delta), and
    larger clobbers collide with probability ~2^-16.
    """
    h = 1
    for byte in tuple_id:
        h = (h * 31 + byte) & 0xFFFF
    for byte in payload:
        h = (h * 31 + byte) & 0xFFFF
    return h if h else 0x55AA


@dataclass(frozen=True)
class CacheGeometry:
    """The slot layout of one page's free window at one item size.

    A geometry is a snapshot: it is built from the page's current free
    window at the start of every cache operation, because the window moves
    as the page fills and slots that no longer fit simply vanish from the
    layout (their bytes are fair game for the index).  The slot range is
    derived once at construction.
    """

    page_size: int
    free_lo: int
    free_hi: int
    item_size: int
    entry_size: int  # leaf key+value record width (the paper's K)
    #: Index of the first aligned slot fully inside the window.
    first_slot_index: int = field(init=False, compare=False)
    #: How many aligned slots currently fit in the free window.
    num_slots: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        first = -(-self.free_lo // self.item_size)  # ceil division
        start = first * self.item_size
        fits = (self.free_hi - start) // self.item_size if start < self.free_hi else 0
        object.__setattr__(self, "first_slot_index", first)
        object.__setattr__(self, "num_slots", fits)

    @classmethod
    def of(cls, page: SlottedPage, payload_size: int, entry_size: int) -> "CacheGeometry":
        lo, hi = page.free_window()
        return cls(
            page_size=page.size,
            free_lo=lo,
            free_hi=hi,
            item_size=item_size_for_payload(payload_size),
            entry_size=entry_size,
        )

    # -- slots ------------------------------------------------------------

    @property
    def last_slot_end(self) -> int:
        return self.free_hi

    def slot_offset(self, slot: int) -> int:
        """Absolute byte offset of logical slot ``slot`` (0-based)."""
        if not 0 <= slot < self.num_slots:
            raise ReproError(f"slot {slot} out of range 0..{self.num_slots - 1}")
        return (self.first_slot_index + slot) * self.item_size

    def slot_offsets(self) -> list[int]:
        """Absolute start offsets of every slot, in address order."""
        base = self.first_slot_index
        return [
            (base + i) * self.item_size for i in range(self.num_slots)
        ]

    # -- stable point -------------------------------------------------------

    @property
    def stable_point(self) -> float:
        """The byte offset overwritten last as the page fills.

        Mirror image of the paper's ``S = K/(K+D) × P``: with the directory
        (pointer size D) growing up from the header and key records
        (size K) growing down from the footer, the two regions meet at
        ``header + usable × D/(K+D)``.
        """
        usable = self.page_size - PAGE_HEADER_SIZE - PAGE_FOOTER_SIZE
        d = SLOT_ENTRY_SIZE
        k = self.entry_size
        return PAGE_HEADER_SIZE + usable * d / (k + d)

    def slots_by_stability(self) -> list[int]:
        """Slot indices ordered most-stable (closest to S) first."""
        return _stability_order(
            self.first_slot_index, self.num_slots, self.item_size, self.stable_point
        )

    def buckets(self, bucket_slots: int) -> tuple[tuple[int, ...], ...]:
        """Group slots into buckets of ``bucket_slots``, stable bucket first.

        Bucket 0 is the interior (nearest S); the last bucket is the
        periphery that index growth will overwrite first and evictions
        target.  The result is shared between calls and read-only.
        """
        if bucket_slots <= 0:
            raise ReproError("bucket_slots must be positive")
        return self._ranking(bucket_slots)[0]

    def bucket_of(self, slot: int, bucket_slots: int) -> int | None:
        """Index into :meth:`buckets` of the bucket holding ``slot``, or
        ``None`` if the slot is not in this geometry."""
        if not 0 <= slot < self.num_slots:
            return None
        return self._ranking(bucket_slots)[1][slot]

    def _ranking(
        self, bucket_slots: int
    ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        return _ranked_buckets(
            self.first_slot_index,
            self.num_slots,
            self.item_size,
            self.stable_point,
            bucket_slots,
        )


def _stability_order(
    first_slot: int, num_slots: int, item_size: int, stable: float
) -> list[int]:
    """Slot indices by distance of the slot centre from ``stable``; ties
    keep address order (``sorted`` is stable)."""
    half = item_size / 2
    return sorted(
        range(num_slots),
        key=lambda i: abs((first_slot + i) * item_size + half - stable),
    )


@lru_cache(maxsize=256)
def _ranked_buckets(
    first_slot: int, num_slots: int, item_size: int, stable: float, bucket_slots: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """``(buckets, bucket index of each slot)`` for one slot layout.

    The ranking is a pure function of the layout, so it is sorted once per
    layout rather than on every probe.  Leaves with the same entry count
    share a layout, so distinct layouts are far fewer than probes; the
    memo is bounded so memory stays flat however many there are.
    """
    ranked = _stability_order(first_slot, num_slots, item_size, stable)
    buckets = tuple(
        tuple(ranked[i : i + bucket_slots])
        for i in range(0, num_slots, bucket_slots)
    )
    index_of = [0] * num_slots
    for b, bucket in enumerate(buckets):
        for slot in bucket:
            index_of[slot] = b
    return buckets, tuple(index_of)
