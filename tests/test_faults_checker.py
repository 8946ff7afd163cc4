"""check_database: a clean engine passes; seeded damage is reported."""

import pytest

from repro.faults import check_database, flip_bit
from repro.query.database import Database
from repro.schema import UINT32, UINT64, Schema

pytestmark = pytest.mark.faults

N_ROWS = 150


def make_db():
    db = Database(data_pool_pages=64, seed=0)
    schema = Schema.of(("k", UINT64), ("n", UINT32))
    table = db.create_table("t", schema)
    db.create_index("t", "pk", ("k",))
    for i in range(N_ROWS):
        table.insert({"k": i, "n": i})
    return db, table


def test_clean_database_passes_with_counts():
    db, table = make_db()
    report = check_database(db)
    assert report.ok
    assert report.problems == []
    assert report.tables_checked == 1
    assert report.indexes_checked == 1
    assert report.records_checked >= N_ROWS
    assert report.pages_checked > 0
    assert "OK" in report.summary()


def test_db_check_method_is_the_same_walk():
    db, _ = make_db()
    assert db.check().ok


def test_orphan_heap_row_is_reported():
    db, table = make_db()
    # Slip a row into the heap behind the indexes' back.
    from repro.schema.record import pack_record_map

    table.heap.insert(pack_record_map(table.schema, {"k": 999, "n": 1}))
    report = check_database(db)
    assert not report.ok
    assert any("count" in p or "heap" in p for p in report.problems)


def test_dangling_index_entry_is_reported():
    db, table = make_db()
    index = table.index("pk")
    index.tree.delete(index.encode_key(7))
    report = check_database(db)
    assert not report.ok


def test_corrupt_page_surfaces_as_a_problem_not_a_crash():
    db, table = make_db()
    db.data_pool.flush_all()
    db.data_pool.drop_clean()
    victim = table.heap.page_ids[0]
    db.disk.write_page(victim, flip_bit(db.disk.peek(victim), 12345))
    report = check_database(db)
    assert not report.ok
    assert any(str(victim) in p for p in report.problems)


def test_summary_mentions_problem_count():
    db, table = make_db()
    index = table.index("pk")
    index.tree.delete(index.encode_key(3))
    report = check_database(db)
    assert not report.ok
    assert "problem" in report.summary()


def test_invalid_page_type_byte_is_noted_not_a_crash():
    db, table = make_db()
    victim = table.heap.page_ids[0]
    with db.data_pool.page(victim) as page:
        page.buffer[6] = 0xEE  # the page-type header byte; no PageType owns it
        with pytest.raises(ValueError):
            page.page_type
    report = check_database(db)
    assert report.problems == [
        f"table 't' heap page {victim}: invalid page-type byte"
    ]
    assert report.records_checked >= N_ROWS


def test_invalid_index_page_type_byte_is_noted_not_a_crash():
    db, table = make_db()
    tree = table.index("pk").tree
    victim = tree.leaf_page_ids[0]
    with tree.pool.page(victim) as page:
        page.buffer[6] = 0xEE  # the page-type header byte; no PageType owns it
        with pytest.raises(ValueError):
            page.page_type
    report = check_database(db)
    assert not report.ok
    assert f"index 'pk' page {victim}: invalid page-type byte" in report.problems
