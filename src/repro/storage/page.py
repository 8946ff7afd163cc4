"""Slotted page implementing the Figure-1 anatomy of the paper.

Byte layout of a page of size ``P``::

    offset 0                                                        P
    | header (32 B) | directory -> | ...free window... | <- records | footer (4 B) |

* The **directory** grows upward from the header; entry ``i`` is 4 bytes:
  record offset (u16) + record length (u16).  Offset 0 marks a tombstone.
* The **record region** grows downward from the footer.
* The **free window** ``[free_lo, free_hi)`` in the middle belongs to nobody
  — which is exactly why the paper's index cache can squat there (§2.1).
  Inserts consume the window from *both* ends without preserving its
  contents; cache slots near the periphery are silently clobbered, and the
  cache layer re-validates slots via checksums on every read.

Header fields (little-endian)::

    magic      u16   format check
    page_id    u32
    page_type  u8    PageType
    flags      u8
    slot_count u16   number of directory entries (incl. tombstones)
    free_lo    u16   first byte past the directory
    free_hi    u16   first byte of the lowest record
    cache_csn  u64   per-page cache sequence number (§2.1.2)
    next_page  u32
    level      u8
    checksum   u32   CRC32 over the page with this field zeroed
    reserved   u8

The checksum is storage-integrity state, not page-content state: it is
stamped by the buffer pool immediately before a write-back and verified
when the page next comes off disk, so torn writes and at-rest bit flips
surface as :class:`~repro.errors.CorruptPageError` instead of silently
wrong query results.
"""

from __future__ import annotations

import zlib
from struct import Struct
from typing import Iterator

from repro.errors import InvalidRidError, PageFormatError, PageFullError
from repro.storage.constants import (
    FOOTER_MAGIC,
    NO_PAGE,
    PAGE_CHECKSUM_OFFSET,
    PAGE_CHECKSUM_SIZE,
    PAGE_FOOTER_SIZE,
    PAGE_HEADER_SIZE,
    PAGE_MAGIC,
    SLOT_ENTRY_SIZE,
    PageType,
)

_OFF_MAGIC = 0
_OFF_PAGE_ID = 2
_OFF_TYPE = 6
_OFF_FLAGS = 7
_OFF_SLOT_COUNT = 8
_OFF_FREE_LO = 10
_OFF_FREE_HI = 12
_OFF_CACHE_CSN = 14
_OFF_NEXT_PAGE = 22
_OFF_LEVEL = 26
_OFF_CHECKSUM = PAGE_CHECKSUM_OFFSET
_TOMBSTONE_OFFSET = 0

# Precompiled little-endian codecs for header fields and directory entries
# (one C call per field instead of a slice plus ``int.from_bytes``).
_U16 = Struct("<H")
_U32 = Struct("<I")
_U64 = Struct("<Q")
_U16X2 = Struct("<HH")
#: ``slot_count, free_lo, free_hi``: three adjacent header fields.
_COUNTS = Struct("<HHH")

#: Header byte -> PageType (a lookup, not an enum call, per access).
_PAGE_TYPES = {int(t): t for t in PageType}


def compute_page_checksum(buffer: bytes | bytearray) -> int:
    """CRC32 over the page bytes with the checksum field treated as zero."""
    crc = zlib.crc32(buffer[:_OFF_CHECKSUM])
    crc = zlib.crc32(bytes(PAGE_CHECKSUM_SIZE), crc)
    return zlib.crc32(buffer[_OFF_CHECKSUM + PAGE_CHECKSUM_SIZE :], crc)


def read_page_checksum(buffer: bytes | bytearray) -> int:
    """The stored CRC32 stamp (0 on a never-stamped page)."""
    return _U32.unpack_from(buffer, _OFF_CHECKSUM)[0]


def stamp_page_checksum(buffer: bytearray) -> int:
    """Stamp the current CRC32 into the checksum field; returns the CRC."""
    crc = compute_page_checksum(buffer)
    _U32.pack_into(buffer, _OFF_CHECKSUM, crc)
    return crc


def page_checksum_ok(buffer: bytes | bytearray) -> bool:
    """True if the stamp matches the contents, or the page was never
    stamped (all-zero bytes, as fresh allocations are)."""
    stored = read_page_checksum(buffer)
    if compute_page_checksum(buffer) == stored:
        return True
    return stored == 0 and not any(buffer)


class SlottedPage:
    """A mutable view over one page's ``bytearray``.

    The page does not own its buffer: the buffer pool does.  Constructing a
    view is cheap; all state lives in the bytes, so two views over the same
    buffer always agree.
    """

    def __init__(self, buffer: bytearray) -> None:
        if len(buffer) < PAGE_HEADER_SIZE + PAGE_FOOTER_SIZE:
            raise PageFormatError("buffer smaller than header + footer")
        if len(buffer) > 0xFFFF:
            raise PageFormatError("2-byte offsets cap pages at 65535 bytes")
        self._buf = buffer
        self._size = len(buffer)

    # -- construction ------------------------------------------------------

    @classmethod
    def format(
        cls, buffer: bytearray, page_id: int, page_type: PageType
    ) -> "SlottedPage":
        """Initialise a fresh page in ``buffer`` and return a view over it."""
        size = len(buffer)
        buffer[:] = bytes(size)
        page = cls(buffer)
        _U16.pack_into(buffer, _OFF_MAGIC, PAGE_MAGIC)
        _U32.pack_into(buffer, _OFF_PAGE_ID, page_id)
        buffer[_OFF_TYPE] = int(page_type)
        _U16X2.pack_into(
            buffer, _OFF_FREE_LO, PAGE_HEADER_SIZE, size - PAGE_FOOTER_SIZE
        )
        _U32.pack_into(buffer, _OFF_NEXT_PAGE, NO_PAGE)
        _U16.pack_into(buffer, size - PAGE_FOOTER_SIZE, FOOTER_MAGIC)
        return page

    def verify(self) -> None:
        """Raise :class:`PageFormatError` if the page bytes look corrupt."""
        buf = self._buf
        if _U16.unpack_from(buf, _OFF_MAGIC)[0] != PAGE_MAGIC:
            raise PageFormatError("bad page magic")
        if _U16.unpack_from(buf, self._size - PAGE_FOOTER_SIZE)[0] != FOOTER_MAGIC:
            raise PageFormatError("bad footer magic")
        lo, hi = self.free_window()
        if not PAGE_HEADER_SIZE <= lo <= hi <= self._size - PAGE_FOOTER_SIZE:
            raise PageFormatError(f"inconsistent free window [{lo}, {hi})")

    # -- header properties ---------------------------------------------------

    @property
    def buffer(self) -> bytearray:
        """The raw page bytes (the index cache writes here directly)."""
        return self._buf

    @property
    def size(self) -> int:
        return self._size

    @property
    def page_id(self) -> int:
        return _U32.unpack_from(self._buf, _OFF_PAGE_ID)[0]

    @property
    def page_type(self) -> PageType:
        """The page's :class:`PageType`; ``ValueError`` for an unknown byte
        (the consistency checker reports those as corruption)."""
        byte = self._buf[_OFF_TYPE]
        page_type = _PAGE_TYPES.get(byte)
        if page_type is None:
            raise ValueError(f"{byte} is not a valid PageType")
        return page_type

    @property
    def slot_count(self) -> int:
        """Directory entries, including tombstones."""
        return _U16.unpack_from(self._buf, _OFF_SLOT_COUNT)[0]

    @property
    def cache_csn(self) -> int:
        """Per-page cache sequence number (§2.1.2 ``CSN_p``)."""
        return _U64.unpack_from(self._buf, _OFF_CACHE_CSN)[0]

    @cache_csn.setter
    def cache_csn(self, value: int) -> None:
        _U64.pack_into(self._buf, _OFF_CACHE_CSN, value)

    @property
    def next_page(self) -> int | None:
        """Sibling link (B+Tree leaf chaining); ``None`` when unset."""
        raw = _U32.unpack_from(self._buf, _OFF_NEXT_PAGE)[0]
        return None if raw == NO_PAGE else raw

    @next_page.setter
    def next_page(self, value: int | None) -> None:
        _U32.pack_into(self._buf, _OFF_NEXT_PAGE, NO_PAGE if value is None else value)

    @property
    def checksum(self) -> int:
        """The stored CRC32 stamp (see :func:`stamp_page_checksum`)."""
        return read_page_checksum(self._buf)

    def checksum_ok(self) -> bool:
        """True if the stored stamp matches the page bytes."""
        return page_checksum_ok(self._buf)

    @property
    def level(self) -> int:
        """Tree level: 0 for leaves, increasing toward the root."""
        return self._buf[_OFF_LEVEL]

    @level.setter
    def level(self, value: int) -> None:
        self._buf[_OFF_LEVEL] = value

    def free_window(self) -> tuple[int, int]:
        """``(free_lo, free_hi)`` — the unclaimed middle of the page."""
        return _U16X2.unpack_from(self._buf, _OFF_FREE_LO)

    @property
    def free_bytes(self) -> int:
        lo, hi = self.free_window()
        return hi - lo

    # -- directory -----------------------------------------------------------

    def slot_entry(self, slot: int) -> tuple[int, int]:
        """Directory entry ``slot`` as ``(record offset, record length)``;
        offset 0 marks a tombstone.  Raises :class:`InvalidRidError` when
        ``slot`` is outside the directory."""
        buf = self._buf
        if not 0 <= slot < _U16.unpack_from(buf, _OFF_SLOT_COUNT)[0]:
            raise InvalidRidError(
                f"slot {slot} out of range on page {self.page_id}"
            )
        return _U16X2.unpack_from(buf, PAGE_HEADER_SIZE + slot * SLOT_ENTRY_SIZE)

    def record_offset(self, slot: int) -> int:
        """Byte offset of the live record in ``slot`` (B+Tree nodes read
        their fixed-width fields from here without copying the record)."""
        buf = self._buf
        if 0 <= slot < _U16.unpack_from(buf, _OFF_SLOT_COUNT)[0]:
            offset = _U16.unpack_from(buf, PAGE_HEADER_SIZE + slot * SLOT_ENTRY_SIZE)[0]
            if offset != _TOMBSTONE_OFFSET:
                return offset
            raise InvalidRidError(
                f"slot {slot} on page {self.page_id} is deleted"
            )
        return self.slot_entry(slot)[0]  # raises the out-of-range error

    def _set_slot_entry(self, slot: int, offset: int, length: int) -> None:
        _U16X2.pack_into(
            self._buf, PAGE_HEADER_SIZE + slot * SLOT_ENTRY_SIZE, offset, length
        )

    def slot_is_live(self, slot: int) -> bool:
        """True if the slot holds a record (not a tombstone)."""
        return self.slot_entry(slot)[0] != _TOMBSTONE_OFFSET

    # -- record operations -----------------------------------------------------

    def insert(self, data: bytes) -> int:
        """Insert a record, return its slot number.

        Prefers reusing a tombstone directory entry (no directory growth);
        otherwise appends a new entry.  Record bytes are always taken from
        the high end of the free window — possibly clobbering cache slots —
        per the paper's "inserts freely overwrite the periphery" rule.
        """
        if not data:
            raise PageFullError("cannot insert an empty record")
        buf = self._buf
        count, lo, hi = _COUNTS.unpack_from(buf, _OFF_SLOT_COUNT)
        reuse_slot = self._find_tombstone()
        need = len(data) if reuse_slot is not None else len(data) + SLOT_ENTRY_SIZE
        if hi - lo < need:
            raise PageFullError(
                f"page {self.page_id}: need {need} bytes, have {hi - lo}"
            )
        new_hi = hi - len(data)
        buf[new_hi:hi] = data
        if reuse_slot is not None:
            slot = reuse_slot
            _U16.pack_into(buf, _OFF_FREE_HI, new_hi)
        else:
            slot = count
            _COUNTS.pack_into(
                buf, _OFF_SLOT_COUNT, count + 1, lo + SLOT_ENTRY_SIZE, new_hi
            )
        self._set_slot_entry(slot, new_hi, len(data))
        return slot

    def read(self, slot: int) -> bytes:
        """Read the record in ``slot``."""
        offset, length = self.slot_entry(slot)
        if offset == _TOMBSTONE_OFFSET:
            raise InvalidRidError(
                f"slot {slot} on page {self.page_id} is deleted"
            )
        return bytes(self._buf[offset : offset + length])

    def update(self, slot: int, data: bytes) -> None:
        """Overwrite a record in place; the length must not change."""
        offset, length = self.slot_entry(slot)
        if offset == _TOMBSTONE_OFFSET:
            raise InvalidRidError(
                f"slot {slot} on page {self.page_id} is deleted"
            )
        if len(data) != length:
            raise PageFullError(
                f"in-place update must keep length {length}, got {len(data)}"
            )
        self._buf[offset : offset + len(data)] = data

    def delete(self, slot: int) -> None:
        """Tombstone a slot.  Record bytes stay until :meth:`compact`."""
        offset, length = self.slot_entry(slot)
        if offset == _TOMBSTONE_OFFSET:
            raise InvalidRidError(
                f"slot {slot} on page {self.page_id} already deleted"
            )
        self._set_slot_entry(slot, _TOMBSTONE_OFFSET, length)

    @property
    def is_formatted(self) -> bool:
        """True if the buffer carries this module's magic (i.e. has been
        through :meth:`format`); fresh zeroed pages are not."""
        return _U16.unpack_from(self._buf, _OFF_MAGIC)[0] == PAGE_MAGIC

    def place_at(self, slot: int, data: bytes) -> None:
        """Materialize ``data`` at exactly ``slot`` (heap-mode redo only).

        Unlike :meth:`insert`, which picks its own slot (reusing the
        lowest tombstone), WAL redo must reproduce the slot the original
        run chose — including slots past the current directory end when
        earlier inserts on this page were never redone (their effects
        were already durable).  Intervening missing slots are created as
        tombstones; the directory never shifts, so existing RIDs stay
        valid.  Compacts once if the free window is tight (compaction is
        not logged, so redo may need more contiguous room than the
        original run did).
        """
        if not data:
            raise PageFullError("cannot place an empty record")
        count = self.slot_count
        if slot < count and self.slot_is_live(slot):
            raise InvalidRidError(
                f"slot {slot} on page {self.page_id} is live; redo must "
                f"delete before re-placing"
            )
        grow = max(0, slot + 1 - count)
        need = len(data) + grow * SLOT_ENTRY_SIZE
        lo, hi = self.free_window()
        if hi - lo < need:
            self.compact()
            lo, hi = self.free_window()
            if hi - lo < need:
                raise PageFullError(
                    f"page {self.page_id}: redo needs {need} bytes, "
                    f"have {hi - lo} after compaction"
                )
        if grow:
            for s in range(count, slot + 1):
                self._set_slot_entry(s, _TOMBSTONE_OFFSET, 0)
            _U16.pack_into(self._buf, _OFF_SLOT_COUNT, slot + 1)
            _U16.pack_into(self._buf, _OFF_FREE_LO, lo + grow * SLOT_ENTRY_SIZE)
            hi = _U16.unpack_from(self._buf, _OFF_FREE_HI)[0]
        new_hi = hi - len(data)
        self._buf[new_hi:hi] = data
        _U16.pack_into(self._buf, _OFF_FREE_HI, new_hi)
        self._set_slot_entry(slot, new_hi, len(data))

    def reserve_tombstones(self, new_count: int) -> None:
        """Extend the directory to ``new_count`` entries, all tombstones.

        Page-rebuild companion to :meth:`place_at`: a page whose
        highest-numbered slots were all deleted still needs those
        directory entries so future inserts reuse them exactly as the
        pre-crash page would have.
        """
        count = self.slot_count
        if new_count <= count:
            return
        grow = new_count - count
        lo, hi = self.free_window()
        if hi - lo < grow * SLOT_ENTRY_SIZE:
            raise PageFullError(
                f"page {self.page_id}: no room for {grow} directory entries"
            )
        for s in range(count, new_count):
            self._set_slot_entry(s, _TOMBSTONE_OFFSET, 0)
        _U16.pack_into(self._buf, _OFF_SLOT_COUNT, new_count)
        _U16.pack_into(self._buf, _OFF_FREE_LO, lo + grow * SLOT_ENTRY_SIZE)

    # -- ordered-directory operations (B+Tree nodes) -------------------------
    #
    # B+Tree nodes keep their directory sorted by key, so they never use
    # tombstones: removal shifts the directory closed and insertion shifts
    # it open.  Record bytes of removed entries are orphaned in the record
    # region until :meth:`compact` — exactly the fill-factor decay the paper
    # cites for B+Trees under deletes.

    def insert_at(self, position: int, data: bytes) -> None:
        """Insert a record so its directory entry lands at ``position``.

        All entries at ``position`` and beyond shift one step up.  Raises
        :class:`PageFullError` if the record plus a directory entry do not
        fit in the free window.
        """
        buf = self._buf
        count, lo, hi = _COUNTS.unpack_from(buf, _OFF_SLOT_COUNT)
        if not 0 <= position <= count:
            raise InvalidRidError(
                f"position {position} out of range 0..{count}"
            )
        if not data:
            raise PageFullError("cannot insert an empty record")
        need = len(data) + SLOT_ENTRY_SIZE
        if hi - lo < need:
            raise PageFullError(
                f"page {self.page_id}: need {need} bytes, have {hi - lo}"
            )
        new_hi = hi - len(data)
        buf[new_hi:hi] = data
        start = PAGE_HEADER_SIZE + position * SLOT_ENTRY_SIZE
        end = PAGE_HEADER_SIZE + count * SLOT_ENTRY_SIZE
        buf[start + SLOT_ENTRY_SIZE : end + SLOT_ENTRY_SIZE] = buf[start:end]
        _COUNTS.pack_into(
            buf, _OFF_SLOT_COUNT, count + 1, lo + SLOT_ENTRY_SIZE, new_hi
        )
        self._set_slot_entry(position, new_hi, len(data))

    def remove_at(self, position: int) -> None:
        """Remove the directory entry at ``position``, shifting the rest down.

        The record's bytes are orphaned in the record region (reclaimed by
        :meth:`compact`), so the free window does not grow at the high end.
        """
        count = self.slot_count
        if not 0 <= position < count:
            raise InvalidRidError(
                f"position {position} out of range 0..{count - 1}"
            )
        buf = self._buf
        start = PAGE_HEADER_SIZE + (position + 1) * SLOT_ENTRY_SIZE
        end = PAGE_HEADER_SIZE + count * SLOT_ENTRY_SIZE
        buf[start - SLOT_ENTRY_SIZE : end - SLOT_ENTRY_SIZE] = buf[start:end]
        lo = _U16.unpack_from(buf, _OFF_FREE_LO)[0]
        _U16X2.pack_into(buf, _OFF_SLOT_COUNT, count - 1, lo - SLOT_ENTRY_SIZE)

    def truncate(self, new_count: int) -> None:
        """Drop every directory entry at position >= ``new_count``.

        Used when splitting B+Tree nodes: the upper half is copied to the
        new sibling and truncated here.  Orphaned record bytes are then
        reclaimed with :meth:`compact`.
        """
        count = self.slot_count
        if not 0 <= new_count <= count:
            raise InvalidRidError(
                f"truncate target {new_count} out of range 0..{count}"
            )
        removed = count - new_count
        lo = _U16.unpack_from(self._buf, _OFF_FREE_LO)[0]
        _U16X2.pack_into(
            self._buf, _OFF_SLOT_COUNT, new_count, lo - removed * SLOT_ENTRY_SIZE
        )

    def _directory(self) -> Iterator[tuple[int, int]]:
        """Every directory entry as ``(offset, length)``, in slot order,
        decoded in one C-level pass over a snapshot of the directory.

        A corrupt ``slot_count`` reaching past the page is clamped to the
        entries that fit (the checker walks such pages to report them).
        """
        count = min(self.slot_count, (self._size - PAGE_HEADER_SIZE) // SLOT_ENTRY_SIZE)
        end = PAGE_HEADER_SIZE + count * SLOT_ENTRY_SIZE
        return _U16X2.iter_unpack(self._buf[PAGE_HEADER_SIZE:end])

    def _find_tombstone(self) -> int | None:
        for slot, (offset, _) in enumerate(self._directory()):
            if offset == _TOMBSTONE_OFFSET:
                return slot
        return None

    def live_slots(self) -> Iterator[int]:
        """Yield slot numbers that hold live records."""
        for slot, (offset, _) in enumerate(self._directory()):
            if offset != _TOMBSTONE_OFFSET:
                yield slot

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot, record_bytes)`` for every live record."""
        for slot in self.live_slots():
            yield slot, self.read(slot)

    # -- maintenance -------------------------------------------------------

    def compact(self) -> None:
        """Rewrite the record region to reclaim tombstoned record bytes.

        Slot numbers are preserved; record offsets change.  The free window
        is zeroed afterwards — moving bytes under the cache's feet is
        exactly the situation its checksums guard against, and zeroing makes
        every stale slot read as empty.
        """
        buf = self._buf
        live = [
            (slot, bytes(buf[offset : offset + length]))
            for slot, (offset, length) in enumerate(self._directory())
            if offset != _TOMBSTONE_OFFSET
        ]
        hi = self._size - PAGE_FOOTER_SIZE
        for slot, data in live:
            hi -= len(data)
            buf[hi : hi + len(data)] = data
            self._set_slot_entry(slot, hi, len(data))
        _U16.pack_into(buf, _OFF_FREE_HI, hi)
        lo = _U16.unpack_from(buf, _OFF_FREE_LO)[0]
        buf[lo:hi] = bytes(hi - lo)

    # -- statistics --------------------------------------------------------

    @property
    def live_record_bytes(self) -> int:
        """Bytes of live record payload."""
        return sum(
            length
            for offset, length in self._directory()
            if offset != _TOMBSTONE_OFFSET
        )

    @property
    def usable_bytes(self) -> int:
        """Bytes available to records + directory (page minus fixed areas)."""
        return self._size - PAGE_HEADER_SIZE - PAGE_FOOTER_SIZE

    @property
    def fill_factor(self) -> float:
        """Fraction of usable bytes holding live data (records + their
        directory entries) — the statistic the paper quotes as ~68% for
        healthy B+Trees and 45% for the churned CarTel database."""
        live = self.live_record_bytes
        live_slots = sum(1 for _ in self.live_slots())
        used = live + live_slots * SLOT_ENTRY_SIZE
        return used / self.usable_bytes if self.usable_bytes else 0.0
