"""Property tests for the index cache's central safety claims.

The §2.1 design rests on two properties that must hold under *arbitrary*
interleavings of cache operations and index mutations:

1. **No lies.**  A probe returns either a payload that was previously
   inserted for exactly that tuple id, or None — never another tuple's
   bytes, never a torn/clobbered value.
2. **No interference.**  The index's own contents are never corrupted by
   cache activity, no matter what the cache does.

Hypothesis drives random operation sequences against one page shared by a
B+-style ordered record region and a cache.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.index_cache.cache import IndexCache
from repro.core.index_cache.invalidation import CacheInvalidation
from repro.core.index_cache.layout import checksum
from repro.errors import PageFullError
from repro.storage.constants import PageType
from repro.storage.page import SlottedPage
from repro.util.rng import DeterministicRng

PAYLOAD = 10
ENTRY = 20


def tid(n: int) -> bytes:
    return n.to_bytes(8, "little")


def payload_for(n: int) -> bytes:
    return (n * 2654435761 % 2**64).to_bytes(8, "little") + bytes([n % 256] * 2)


operation = st.one_of(
    st.tuples(st.just("probe"), st.integers(0, 15)),
    st.tuples(st.just("cache_insert"), st.integers(0, 15)),
    st.tuples(st.just("index_insert"), st.integers(0, 200)),
    st.tuples(st.just("index_remove"), st.integers(0, 200)),
    st.tuples(st.just("compact"), st.just(0)),
    st.tuples(st.just("zero"), st.just(0)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(operation, max_size=60), st.integers(0, 2**31))
def test_cache_never_lies_under_interleaving(ops, seed):
    page = SlottedPage.format(bytearray(1024), 1, PageType.BTREE_LEAF)
    cache = IndexCache(PAYLOAD, ENTRY, rng=DeterministicRng(seed))
    index_model: list[bytes] = []  # sorted records in the page

    for op, arg in ops:
        if op == "probe":
            result = cache.probe(page, tid(arg))
            # Property 1: a hit is byte-exact for that id.
            if result is not None:
                assert result == payload_for(arg)
        elif op == "cache_insert":
            cache.insert(page, tid(arg), payload_for(arg))
        elif op == "index_insert":
            record = arg.to_bytes(4, "big") + bytes(ENTRY - 4)
            pos = next(
                (i for i, r in enumerate(index_model) if r > record),
                len(index_model),
            )
            try:
                page.insert_at(pos, record)
                index_model.insert(pos, record)
            except PageFullError:
                pass
        elif op == "index_remove":
            if index_model:
                pos = arg % len(index_model)
                page.remove_at(pos)
                index_model.pop(pos)
        elif op == "compact":
            page.compact()
        elif op == "zero":
            cache.zero_window(page)

        # Property 2: index records are intact and ordered after every op.
        assert page.slot_count == len(index_model)
        for i, expected in enumerate(index_model):
            assert page.read(i) == expected
    page.verify()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("fill"), st.integers(0, 9)),
            st.tuples(st.just("update"), st.integers(0, 9)),
            st.tuples(st.just("read"), st.integers(0, 9)),
            st.tuples(st.just("flush_all"), st.just(0)),
        ),
        max_size=50,
    ),
    st.integers(0, 2**31),
)
def test_invalidation_never_serves_stale_data(ops, seed):
    """Strong consistency through the §2.1.2 machinery: after an update is
    noted, no read may see the old cached payload."""
    page = SlottedPage.format(bytearray(2048), 1, PageType.BTREE_LEAF)
    cache = IndexCache(PAYLOAD, ENTRY, rng=DeterministicRng(seed))
    inv = CacheInvalidation(log_threshold=8)
    versions = {n: 0 for n in range(10)}

    def key_of(n: int) -> bytes:
        return n.to_bytes(8, "big")

    def current_payload(n: int) -> bytes:
        return versions[n].to_bytes(4, "little") + bytes([n] * (PAYLOAD - 4))

    first, last = key_of(0), key_of(9)
    for op, n in ops:
        if op == "fill":
            # the normal miss path: validate, then cache current data
            inv.validate_page(page, cache, first, last)
            cache.insert(page, tid(n), current_payload(n))
        elif op == "update":
            versions[n] += 1
            inv.note_update(key_of(n))
        elif op == "read":
            inv.validate_page(page, cache, first, last)
            got = cache.probe(page, tid(n))
            if got is not None:
                assert got == current_payload(n), (
                    f"stale cache for item {n}: {got!r}"
                )
        elif op == "flush_all":
            inv.invalidate_all()


# -- differential: the window scan against a per-slot reference ---------------


def reference_item(page, geo, payload_size, slot):
    """One slot decoded field by field: the per-slot scan the C-level
    window pass must agree with."""
    item = geo.item_size
    off = (geo.first_slot_index + slot) * item
    buf = page.buffer
    stored = int.from_bytes(buf[off + item - 2 : off + item], "little")
    if stored == 0:
        return None
    item_tid = bytes(buf[off : off + 8])
    item_payload = bytes(buf[off + 8 : off + 8 + payload_size])
    if checksum(item_tid, item_payload) != stored:
        return None
    return item_tid, item_payload


def reference_buckets(geo, bucket_slots):
    """The stability grouping as a fresh sort over the slot offsets."""
    s = geo.stable_point
    half = geo.item_size / 2
    first_start = -(-geo.free_lo // geo.item_size) * geo.item_size
    n = max(0, (geo.free_hi - first_start) // geo.item_size)
    offsets = [first_start + i * geo.item_size for i in range(n)]
    ranked = sorted(range(n), key=lambda i: abs(offsets[i] + half - s))
    return [ranked[i : i + bucket_slots] for i in range(0, n, bucket_slots)]


clobber = st.one_of(
    # arbitrary bytes over an arbitrary range of the window
    st.tuples(
        st.just("bytes"), st.integers(0, 10**6), st.binary(min_size=1, max_size=40)
    ),
    # one bad byte inside an item's tid or payload: its stored checksum
    # stays nonzero over an item that no longer matches it
    st.tuples(st.just("item"), st.integers(0, 10**6), st.integers(1, 255)),
    # the stored checksum field itself rewritten
    st.tuples(st.just("crc"), st.integers(0, 10**6), st.integers(0, 0xFFFF)),
)


@settings(max_examples=80, deadline=None)
@given(
    payload_size=st.integers(1, 24),
    entry_size=st.integers(8, 40),
    records=st.integers(0, 30),
    fills=st.lists(st.integers(0, 63), max_size=64),
    clobbers=st.lists(clobber, max_size=12),
    seed=st.integers(0, 2**31),
)
def test_window_scan_matches_per_slot_reference(
    payload_size, entry_size, records, fills, clobbers, seed
):
    page = SlottedPage.format(bytearray(1024), 1, PageType.BTREE_LEAF)
    for i in range(records):
        try:
            page.insert_at(i, i.to_bytes(4, "big") + bytes(entry_size - 4))
        except PageFullError:
            break
    cache = IndexCache(payload_size, entry_size, rng=DeterministicRng(seed))
    geo = cache.geometry(page)
    n = geo.num_slots
    for k in fills:
        if n:
            cache.write_slot(
                page, geo, k % n, tid(k), bytes([k]) * payload_size
            )
    buf = page.buffer
    lo, hi = page.free_window()
    for kind, where, what in clobbers:
        if kind == "bytes" and hi > lo:
            start = lo + where % (hi - lo)
            chunk = what[: hi - start]
            buf[start : start + len(chunk)] = chunk
        elif kind == "item" and n:
            off = (geo.first_slot_index + where % n) * geo.item_size
            at = off + where % (geo.item_size - 2)
            buf[at] ^= what
        elif kind == "crc" and n:
            end = (geo.first_slot_index + where % n + 1) * geo.item_size
            buf[end - 2 : end] = what.to_bytes(2, "little")

    reference = [reference_item(page, geo, payload_size, s) for s in range(n)]
    free, occupied = cache.occupancy(page)
    assert occupied == [s for s in range(n) if reference[s] is not None]
    assert free == [s for s in range(n) if reference[s] is None]
    assert cache.entries(page) == [
        (s, item[0], item[1]) for s, item in enumerate(reference) if item is not None
    ]
    for k in set(fills) | {999}:
        expected = next(
            (
                (s, item[1])
                for s, item in enumerate(reference)
                if item is not None and item[0] == tid(k)
            ),
            None,
        )
        assert cache.find(page, geo, tid(k)) == expected
    for bucket_slots in (1, 3, 4):
        want = reference_buckets(geo, bucket_slots)
        got = geo.buckets(bucket_slots)
        assert [list(b) for b in got] == want
        for b, bucket in enumerate(want):
            for slot in bucket:
                assert geo.bucket_of(slot, bucket_slots) == b
    assert geo.bucket_of(n, 4) is None
    assert geo.slots_by_stability() == [s for b in reference_buckets(geo, 1) for s in b]
