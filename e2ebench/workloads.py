"""The three seeded workloads: inputs, engine set-up, ops, and oracles.

Every workload is one client in a closed loop: it sends the next request
only after the previous reply.  Its inputs — rows and the request
schedule — come from ``repro.workload.wikipedia`` and a seeded RNG before
any clock starts; the engine receives only those generated rows and keys.
A dict model mirrors every write, so every read is checked outside the
timed region.

Each request is ``(cls, op, arg)``; ``cls`` is the latency class it is
reported under (``point``, ``batch``, ``write``, ``analytic``).  Mixes are
fixed request counts per second of ``--seconds``, so a run does the same
work on every host and the simulated clock, stored bytes, result digest
and recovery log repeat exactly.  The schedule is :data:`BLOCKS` blocks of
identical composition, each shuffled by the seed, so the mix is even
over the whole run.
"""

from __future__ import annotations

import bisect
import random

from repro import Database, MetricsRegistry, ShardedDatabase
from repro.query.predicates import ColumnRange
from repro.shard import recovery as shard_recovery
from repro.storage.disk import SimulatedDisk
from repro.wal import replay
from repro.workload.wikipedia import (
    PAGE_ID_BASE,
    PAGE_SCHEMA,
    REV_ID_BASE,
    REVISION_SCHEMA,
    WikipediaConfig,
    generate,
    name_title_lookup_trace,
    revision_lookup_trace,
)

BATCH = 16
GROUP_COMMIT = 8
BLOCKS = 10

#: Samples each latency class needs in a run so that every reported
#: percentile has at least ten samples beyond it (p99 -> 1000, p50 -> 20).
MIN_SAMPLES = {"point": 1000, "write": 1000, "batch": 20, "analytic": 20}

#: Ops counted per request: a batch of 16 keys is 16 ops.
OPS_PER_REQUEST = {"point": 1, "batch": BATCH, "write": 1, "analytic": 1}


def clone_disk(disk: SimulatedDisk) -> SimulatedDisk:
    """A copy of a survived disk, so recovery can be repeated from it."""
    copy = SimulatedDisk(disk.page_size)
    for page_id in range(disk.num_pages):
        copy.allocate_page()
        copy.write_page(page_id, disk.peek(page_id))
    return copy


def build_schedule(rng: random.Random, counts: dict[str, int]) -> list[str]:
    """The op names, ``counts[name]`` of each, as :data:`BLOCKS` equal
    blocks, each in seeded random order."""
    schedule = []
    for _ in range(BLOCKS):
        block = [op for op, n in counts.items() for _ in range(n // BLOCKS)]
        rng.shuffle(block)
        schedule.extend(block)
    return schedule


class Workload:
    """What ``run.py`` needs from a workload; subclasses fill in the
    engine specifics."""

    name = ""
    #: Requests per second of ``--seconds``, by op name.
    rates: dict[str, float] = {}
    #: Latency class of each op name.
    classes: dict[str, str] = {}

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.counts = {
            op: BLOCKS * max(1, round(rate * seconds / BLOCKS))
            for op, rate in self.rates.items()
        }
        per_class: dict[str, int] = {}
        for op, n in self.counts.items():
            cls = self.classes[op]
            per_class[cls] = per_class.get(cls, 0) + n
        short = {
            cls: n for cls, n in per_class.items() if n < MIN_SAMPLES[cls]
        }
        if short:
            raise ValueError(
                f"{self.name}: --seconds {seconds} gives too few samples "
                f"for {short} (need {MIN_SAMPLES})"
            )
        self.schedule: list[tuple[str, str, object]] = []

    #: Attributes through which ``build`` publishes the engine.
    ENGINE_ATTRS = ("db", "sdb", "table", "name_title", "session")

    def release(self) -> None:
        """Drop the engine built last, so that it can be collected."""
        for name in self.ENGINE_ATTRS:
            self.__dict__.pop(name, None)

    # Subclasses implement: reset_model (the oracle's initial state),
    # build (engine construction, load and warm-up: the timed set-up),
    # execute, check, engines, sim_now_ns, crash_image, recover,
    # verify_recovered and user_bytes.

    def registries(self) -> list[MetricsRegistry]:
        return [db.metrics for db in self.engines()]

    def disks(self) -> list[SimulatedDisk]:
        return [db.disk for db in self.engines()]

    def stored_bytes(self) -> int:
        return sum(disk.size_bytes for disk in self.disks())

    def final_checks(self) -> list[str]:
        """Engine-touching oracles run after the measured phase."""
        return []

    def columnar_bytes(self) -> tuple[int, int]:
        """``(encoded, raw)`` bytes of sealed column segments, if any."""
        return 0, 0


class SingleEngine(Workload):
    """A workload over one :class:`Database` built as ``self.db``."""

    POOL_PAGES = 1024

    def engines(self) -> list[Database]:
        return [self.db]

    def sim_now_ns(self) -> float:
        return self.db.cost_model.now_ns

    def crash_image(self):
        """Flush the WAL, then keep the log and the disk as they survive."""
        self.db.wal.flush()
        return self.db.wal.device.data, clone_disk(self.db.disk)

    def recover(self, image):
        wal_bytes, disk = image
        registry = MetricsRegistry()
        db, _ = replay.recover(
            wal_bytes, disk=clone_disk(disk),
            data_pool_pages=self.POOL_PAGES, seed=self.seed,
            metrics=registry, group_commit_records=GROUP_COMMIT,
        )
        return db, [registry]


class OltpCached(SingleEngine):
    """§2.1 request path on a page table that fits in the pool."""

    name = "oltp_cached"
    N_PAGES = 20_000
    WARMUP_LOOKUPS = 5_000
    RANGE_ROWS = 64
    PROJECT = ("page_namespace", "page_title", "page_latest", "page_len")
    rates = {
        "lookup": 3100, "lookup_many": 115, "update": 390, "txn": 195,
        "range": 80,
    }
    classes = {
        "lookup": "point", "lookup_many": "batch", "update": "write",
        "txn": "write", "range": "analytic",
    }

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        data = generate(WikipediaConfig(
            n_pages=self.N_PAGES, revisions_per_page_mean=1, seed=seed,
        ))
        self.rows = data.page_rows
        self.id_of = {
            (r["page_namespace"], r["page_title"]): r["page_id"]
            for r in self.rows
        }
        self.sorted_keys = sorted(self.id_of)
        c = self.counts
        n_keys = (
            self.WARMUP_LOOKUPS + c["lookup"] + BATCH * c["lookup_many"]
        )
        keys = iter(name_title_lookup_trace(data, n_keys, seed=seed + 1))
        self.warmup = [next(keys) for _ in range(self.WARMUP_LOOKUPS)]
        write_keys = iter(name_title_lookup_trace(
            data, c["update"] + c["txn"], seed=seed + 2
        ))
        rng = self.rng
        txns = 0
        for op in build_schedule(rng, c):
            if op == "lookup":
                arg = next(keys)
            elif op == "lookup_many":
                arg = [next(keys) for _ in range(BATCH)]
            elif op == "range":
                start = rng.randrange(len(self.sorted_keys) - self.RANGE_ROWS)
                arg = start
            else:
                changes = {
                    "page_latest": rng.randrange(REV_ID_BASE, 1 << 32),
                    "page_len": rng.randint(100, 200_000),
                }
                arg = (self.id_of[next(write_keys)], changes)
                if op == "txn":
                    txns += 1
                    # One transaction in eight rolls back.
                    arg = arg + (txns % 8 == 0,)
            self.schedule.append((self.classes[op], op, arg))

    def reset_model(self) -> None:
        self.model = {r["page_id"]: dict(r) for r in self.rows}

    def build(self) -> None:
        db = Database(
            data_pool_pages=self.POOL_PAGES, wal=True,
            wal_group_commit=GROUP_COMMIT, seed=self.seed,
        )
        table = db.create_table("page", PAGE_SCHEMA)
        db.create_index("page", "page_pk", ("page_id",))
        db.create_cached_index(
            "page", "name_title", ("page_namespace", "page_title"),
            ("page_latest", "page_len"),
        )
        for row in self.rows:
            table.insert(row)
        for key in self.warmup:
            table.lookup("name_title", key, self.PROJECT)
        self.db = db
        self.table = table
        self.name_title = table.index("name_title")
        self.session = db.session()

    def execute(self, op: str, arg):
        table = self.table
        if op == "lookup":
            return table.lookup("name_title", arg, self.PROJECT)
        if op == "lookup_many":
            return table.lookup_many("name_title", arg, self.PROJECT)
        if op == "update":
            page_id, changes = arg
            return table.update("page_pk", page_id, changes)
        if op == "txn":
            page_id, changes, rollback = arg
            session = self.session
            session.begin()
            applied = session.update("page", page_id, changes)
            if rollback:
                session.abort()
            else:
                session.commit()
            return applied
        lo = self.sorted_keys[arg]
        hi = self.sorted_keys[arg + self.RANGE_ROWS]
        return list(
            self.name_title.scan_range(lo, hi, ("page_id", "page_len"))
        )

    def _projected(self, key) -> dict:
        row = self.model[self.id_of[key]]
        return {name: row[name] for name in self.PROJECT}

    def check(self, op: str, arg, result) -> bool:
        if op == "lookup":
            return result.found and result.values == self._projected(arg)
        if op == "lookup_many":
            return len(result) == len(arg) and all(
                r.found and r.values == self._projected(k)
                for k, r in zip(arg, result)
            )
        if op in ("update", "txn"):
            if not result:
                return False
            if op == "update" or not arg[2]:
                self.model[arg[0]].update(arg[1])
            return True
        keys = self.sorted_keys[arg:arg + self.RANGE_ROWS]
        want = [
            {"page_id": self.id_of[k], "page_len": self.model[self.id_of[k]]["page_len"]}
            for k in keys
        ]
        return result == want

    def user_bytes(self) -> int:
        return len(self.model) * PAGE_SCHEMA.record_size

    def verify_recovered(self, db) -> list[str]:
        got = {r["page_id"]: r for r in db.table("page").scan()}
        problems = [] if got == self.model else [
            "recovered page table differs from the model"
        ]
        return problems + db.check().problems


class ShardSkew(Workload):
    """Zipf-skewed revision lookups over 4 shards, ~4.75x larger than RAM."""

    name = "shard_skew"
    N_SHARDS = 4
    #: The sharded drill's RAM budget (64 frames) split across 4 shards.
    POOL_PAGES = 16
    WARMUP_LOOKUPS = 4_000
    rates = {
        "lookup": 2400, "lookup_many": 150, "update": 300, "aggregate": 2,
        "scan": 2,
    }
    classes = {
        "lookup": "point", "lookup_many": "batch", "update": "write",
        "aggregate": "analytic", "scan": "analytic",
    }
    AGG_SPECS = [("count", None), ("sum", "rev_len"), ("max", "rev_len")]

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        data = generate(WikipediaConfig(
            n_pages=3_000, revisions_per_page_mean=4, seed=seed,
        ))
        self.rows = data.revision_rows
        c = self.counts
        keys = iter(revision_lookup_trace(
            data, c["lookup"] + BATCH * c["lookup_many"] + c["update"],
            seed=seed + 1,
        ))
        self.warmup = revision_lookup_trace(
            data, self.WARMUP_LOOKUPS, seed=seed + 2
        )
        rng = self.rng
        for op in build_schedule(rng, c):
            if op == "lookup":
                arg = next(keys)
            elif op == "lookup_many":
                arg = [next(keys) for _ in range(BATCH)]
            elif op == "update":
                arg = (next(keys), {"rev_len": rng.randint(100, 200_000)})
            elif op == "aggregate":
                lo = rng.randint(100, 180_000)
                arg = ColumnRange("rev_len", lo, lo + 20_000)
            else:
                lo = rng.randint(100, 198_000)
                arg = ColumnRange("rev_len", lo, lo + 2_000)
            self.schedule.append((self.classes[op], op, arg))

    def reset_model(self) -> None:
        self.model = {r["rev_id"]: dict(r) for r in self.rows}

    def build(self) -> None:
        sdb = ShardedDatabase(
            self.N_SHARDS, mode="zipf", data_pool_pages=self.POOL_PAGES,
            wal=True, wal_group_commit=GROUP_COMMIT, seed=self.seed,
        )
        table = sdb.create_table("revision", REVISION_SCHEMA)
        sdb.create_index("revision", "rev_pk", ("rev_id",))
        for row in self.rows:
            table.insert(row)
        for key in self.warmup:
            table.lookup("rev_pk", key)
        sdb.rebalance()
        self.sdb = sdb
        self.table = table

    def execute(self, op: str, arg):
        table = self.table
        if op == "lookup":
            return table.lookup("rev_pk", arg)
        if op == "lookup_many":
            return table.lookup_many("rev_pk", arg)
        if op == "update":
            return table.update("rev_pk", *arg)
        if op == "aggregate":
            return table.aggregate(self.AGG_SPECS, arg)
        return list(table.scan(arg))

    def _matching(self, predicate) -> list[dict]:
        return [
            row for _, row in sorted(self.model.items())
            if predicate.matches(row)
        ]

    def check(self, op: str, arg, result) -> bool:
        if op == "lookup":
            return result.found and result.values == self.model[arg]
        if op == "lookup_many":
            return len(result) == len(arg) and all(
                r.found and r.values == self.model[k]
                for k, r in zip(arg, result)
            )
        if op == "update":
            if not result:
                return False
            self.model[arg[0]].update(arg[1])
            return True
        rows = self._matching(arg)
        if op == "scan":
            return result == rows
        lens = [row["rev_len"] for row in rows]
        return result == {
            "count": len(lens), "sum(rev_len)": sum(lens),
            "max(rev_len)": max(lens) if lens else None,
        }

    def engines(self) -> list[Database]:
        return self.sdb.shards

    def registries(self) -> list[MetricsRegistry]:
        return [self.sdb.metrics] + [
            self.sdb.shard_registry(i) for i in range(self.N_SHARDS)
        ]

    def sim_now_ns(self) -> float:
        return self.sdb.sim_now_ns

    def user_bytes(self) -> int:
        return len(self.model) * REVISION_SCHEMA.record_size

    def crash_image(self):
        self.sdb.flush_wals()
        return [
            (db.wal.device.data, clone_disk(db.disk)) for db in self.sdb.shards
        ]

    def recover(self, image):
        registries = [MetricsRegistry() for _ in image]
        sdb, _ = shard_recovery.recover_sharded(
            [wal for wal, _ in image],
            disks=[clone_disk(disk) for _, disk in image],
            data_pool_pages=self.POOL_PAGES, seed=self.seed,
            shard_metrics=registries, group_commit_records=GROUP_COMMIT,
            mode="zipf",
        )
        return sdb, registries

    def verify_recovered(self, sdb) -> list[str]:
        got = list(sdb.table("revision").scan(use_columnar=False))
        problems = [] if got == [
            row for _, row in sorted(self.model.items())
        ] else ["recovered revision table differs from the model"]
        report = sdb.check()
        return problems + report.problems + [
            p for shard in report.per_shard for p in shard.problems
        ]


class AnalyticsMixed(SingleEngine):
    """Columnar range scans and aggregates interleaved with writes."""

    name = "analytics_mixed"
    #: Distinct predicates per kind: repeats between inserts can reuse
    #: cached fragments, the rest recompute.
    PREDICATES = 48
    #: Sampled columnar answers diffed against the row executor.
    ROW_DIFFS = 4
    #: Updates sit beside the inserts in the write class: about one insert
    #: in 118 opens a heap page and costs ~10x, which on inserts alone
    #: would sit right at the p99 and make it flip between runs.  Point
    #: reads and writes are cheap beside the analytic ops, so there are
    #: enough of them for each p99 to rest on ~40 samples, not ~20: the
    #: requests that follow a scan set both tails, and fewer samples left
    #: them spreading with the host.
    rates = {
        "scan": 45, "aggregate": 45, "insert": 300, "update": 240,
        "lookup": 520, "lookup_many": 40,
    }
    classes = {
        "scan": "analytic", "aggregate": "analytic", "insert": "write",
        "update": "write", "lookup": "point", "lookup_many": "batch",
    }
    AGG_SPECS = [("count", None), ("sum", "rev_len"), ("max", "rev_len")]

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        data = generate(WikipediaConfig(
            n_pages=1_200, revisions_per_page_mean=20, seed=seed,
        ))
        self.rows = data.revision_rows
        rng = self.rng
        scans = [rng.randint(100, 198_000) for _ in range(self.PREDICATES)]
        aggs = [rng.randint(100, 180_000) for _ in range(self.PREDICATES)]
        ids = [r["rev_id"] for r in self.rows]
        next_id = REV_ID_BASE + len(self.rows)
        last_ts = self.rows[-1]["rev_timestamp"]
        for op in build_schedule(rng, self.counts):
            if op == "scan":
                lo = rng.choice(scans)
                arg = ColumnRange("rev_len", lo, lo + 2_000)
            elif op == "aggregate":
                lo = rng.choice(aggs)
                arg = ColumnRange("rev_len", lo, lo + 20_000)
            elif op == "lookup":
                arg = rng.choice(ids)
            elif op == "lookup_many":
                arg = [rng.choice(ids) for _ in range(BATCH)]
            elif op == "update":
                arg = (rng.choice(ids), {"rev_len": rng.randint(100, 200_000)})
            else:
                next_id += 1
                last_ts += 60
                arg = {
                    "rev_id": next_id,
                    "rev_page": PAGE_ID_BASE + rng.randrange(1_200),
                    "rev_text_id": next_id,
                    "rev_user": rng.randrange(12_000_000),
                    "rev_timestamp": last_ts,
                    "rev_minor_edit": rng.randint(0, 1),
                    "rev_len": rng.randint(100, 200_000),
                    "rev_comment": f"/* sec {rng.randrange(40)} */ edit r{next_id}",
                }
            self.schedule.append((self.classes[op], op, arg))
        analytic = [req for req in self.schedule if req[0] == "analytic"]
        step = max(1, len(analytic) // self.ROW_DIFFS)
        self.diff_requests = analytic[::step][: self.ROW_DIFFS]

    def reset_model(self) -> None:
        self.model = {r["rev_id"]: dict(r) for r in self.rows}
        self.by_len = sorted((r["rev_len"], r["rev_id"]) for r in self.rows)

    def build(self) -> None:
        db = Database(
            data_pool_pages=self.POOL_PAGES, wal=True,
            wal_group_commit=GROUP_COMMIT, seed=self.seed,
        )
        db.enable_columnar()
        table = db.create_table("revision", REVISION_SCHEMA)
        db.create_index("revision", "rev_pk", ("rev_id",))
        for row in self.rows:
            table.insert(row)
        # Warm-up builds the column mirror and its heap-order memo.
        table.aggregate(self.AGG_SPECS)
        table.scan(ColumnRange("rev_len", 0, 1))
        self.db = db
        self.table = table

    def execute(self, op: str, arg):
        table = self.table
        if op == "scan":
            return list(table.scan(arg))
        if op == "aggregate":
            return table.aggregate(self.AGG_SPECS, arg)
        if op == "insert":
            return table.insert(arg)
        if op == "update":
            return table.update("rev_pk", *arg)
        if op == "lookup":
            return table.lookup("rev_pk", arg)
        return table.lookup_many("rev_pk", arg)

    def _in_range(self, predicate) -> list[int]:
        lo = bisect.bisect_left(self.by_len, (predicate.lo, -1))
        hi = bisect.bisect_left(self.by_len, (predicate.hi, -1))
        return [rev_id for _, rev_id in self.by_len[lo:hi]]

    def check(self, op: str, arg, result) -> bool:
        if op == "lookup":
            return result.found and result.values == self.model[arg]
        if op == "lookup_many":
            return len(result) == len(arg) and all(
                r.found and r.values == self.model[k]
                for k, r in zip(arg, result)
            )
        if op == "insert":
            row = dict(arg)
            self.model[row["rev_id"]] = row
            bisect.insort(self.by_len, (row["rev_len"], row["rev_id"]))
            return True
        if op == "update":
            if not result:
                return False
            rev_id, changes = arg
            row = self.model[rev_id]
            self.by_len.remove((row["rev_len"], rev_id))
            row.update(changes)
            bisect.insort(self.by_len, (row["rev_len"], rev_id))
            return True
        ids = self._in_range(arg)
        if op == "scan":
            return sorted(result, key=lambda r: r["rev_id"]) == [
                self.model[i] for i in sorted(ids)
            ]
        lens = [self.model[i]["rev_len"] for i in ids]
        return result == {
            "count": len(lens), "sum(rev_len)": sum(lens),
            "max(rev_len)": max(lens) if lens else None,
        }

    def final_checks(self) -> list[str]:
        problems = []
        for _, op, predicate in self.diff_requests:
            if op == "scan":
                fast = list(self.table.scan(predicate))
                slow = list(self.table.scan(predicate, use_columnar=False))
            else:
                fast = self.table.aggregate(self.AGG_SPECS, predicate)
                slow = self.table.aggregate(
                    self.AGG_SPECS, predicate, use_columnar=False
                )
            if fast != slow:
                problems.append(f"columnar {op} {predicate} != row executor")
        return problems

    def user_bytes(self) -> int:
        return len(self.model) * REVISION_SCHEMA.record_size

    def columnar_bytes(self) -> tuple[int, int]:
        return self.db.columnar.refresh_encoding_stats()

    def verify_recovered(self, db) -> list[str]:
        got = {
            r["rev_id"]: r
            for r in db.table("revision").scan(use_columnar=False)
        }
        problems = [] if got == self.model else [
            "recovered revision table differs from the model"
        ]
        return problems + db.check().problems


WORKLOADS = {w.name: w for w in (OltpCached, ShardSkew, AnalyticsMixed)}
