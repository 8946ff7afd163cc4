"""Typed views over B+Tree node pages.

Nodes are ordinary :class:`SlottedPage`\\ s whose directory is kept sorted
by key, which is exactly the Figure-1 anatomy: directory entries grow up
from the header, key records grow down from the footer, and the free window
in the middle is where the index cache lives.

* **Leaf** records are ``key || value`` (both fixed width).
* **Internal** records are ``key || child_page_id(u32)``.  Entry 0's key is
  a sentinel treated as −∞, giving ``n`` entries for ``n`` children.
"""

from __future__ import annotations

from functools import lru_cache
from struct import Struct

from repro.errors import PageFormatError
from repro.storage.constants import PageType
from repro.storage.page import SlottedPage

CHILD_PTR_SIZE = 4

_CHILD = Struct("<I")


@lru_cache(maxsize=64)
def _field(size: int) -> Struct:
    """Codec for one fixed-width ``bytes`` field of a node record."""
    return Struct(f"{size}s")


@lru_cache(maxsize=64)
def _pair(key_size: int, value_size: int) -> Struct:
    """Codec for a whole ``key || value`` leaf record."""
    return Struct(f"{key_size}s{value_size}s")


class LeafNode:
    """Sorted ``key -> value`` entries in a leaf page."""

    def __init__(self, page: SlottedPage, key_size: int, value_size: int) -> None:
        if page.page_type is not PageType.BTREE_LEAF:
            raise PageFormatError(
                f"page {page.page_id} is {page.page_type.name}, not a leaf"
            )
        self.page = page
        self._buf = page.buffer
        self._key_size = key_size
        self._value_size = value_size
        # Fields are decoded straight from the page bytes at the record's
        # offset; no intermediate record copy.
        self._key = _field(key_size).unpack_from
        self._value = _field(value_size).unpack_from
        self._entry = _pair(key_size, value_size).unpack_from

    @property
    def count(self) -> int:
        return self.page.slot_count

    def key_at(self, pos: int) -> bytes:
        return self._key(self._buf, self.page.record_offset(pos))[0]

    def value_at(self, pos: int) -> bytes:
        offset = self.page.record_offset(pos)
        return self._value(self._buf, offset + self._key_size)[0]

    def entry_at(self, pos: int) -> tuple[bytes, bytes]:
        return self._entry(self._buf, self.page.record_offset(pos))

    def find(self, key: bytes) -> tuple[int, bool]:
        """Lower-bound binary search: ``(position, exact_match)``."""
        key_at = self.key_at
        count = self.count
        lo, hi = 0, count
        while lo < hi:
            mid = (lo + hi) // 2
            if key_at(mid) < key:
                lo = mid + 1
            else:
                hi = mid
        found = lo < count and key_at(lo) == key
        return lo, found

    def insert(self, pos: int, key: bytes, value: bytes) -> None:
        """Insert an entry at ``pos`` (raises ``PageFullError`` when full)."""
        self.page.insert_at(pos, key + value)

    def set_value(self, pos: int, value: bytes) -> None:
        """Overwrite the value of an existing entry."""
        key = self.key_at(pos)
        self.page.update(pos, key + value)

    def remove(self, pos: int) -> None:
        self.page.remove_at(pos)

    def entries(self) -> list[tuple[bytes, bytes]]:
        return [self.entry_at(i) for i in range(self.count)]

    @property
    def entry_size(self) -> int:
        return self._key_size + self._value_size


class InternalNode:
    """Sorted ``separator -> child`` routing entries in an internal page."""

    def __init__(self, page: SlottedPage, key_size: int) -> None:
        if page.page_type is not PageType.BTREE_INTERNAL:
            raise PageFormatError(
                f"page {page.page_id} is {page.page_type.name}, not internal"
            )
        self.page = page
        self._buf = page.buffer
        self._key_size = key_size
        self._key = _field(key_size).unpack_from

    @property
    def count(self) -> int:
        return self.page.slot_count

    def key_at(self, pos: int) -> bytes:
        return self._key(self._buf, self.page.record_offset(pos))[0]

    def child_at(self, pos: int) -> int:
        offset = self.page.record_offset(pos)
        return _CHILD.unpack_from(self._buf, offset + self._key_size)[0]

    def entry_at(self, pos: int) -> tuple[bytes, int]:
        offset = self.page.record_offset(pos)
        return (
            self._key(self._buf, offset)[0],
            _CHILD.unpack_from(self._buf, offset + self._key_size)[0],
        )

    def find_child(self, key: bytes) -> tuple[int, int]:
        """``(position, child_page_id)`` routing ``key``.

        Picks the rightmost entry whose separator is <= ``key``; entry 0's
        separator is ignored (−∞), so position 0 is the floor.
        """
        key_at = self.key_at
        lo, hi = 1, self.count
        while lo < hi:
            mid = (lo + hi) // 2
            if key_at(mid) <= key:
                lo = mid + 1
            else:
                hi = mid
        pos = lo - 1
        return pos, self.child_at(pos)

    def insert(self, pos: int, key: bytes, child: int) -> None:
        self.page.insert_at(pos, key + child.to_bytes(CHILD_PTR_SIZE, "little"))

    def entries(self) -> list[tuple[bytes, int]]:
        return [self.entry_at(i) for i in range(self.count)]

    @property
    def entry_size(self) -> int:
        return self._key_size + CHILD_PTR_SIZE
