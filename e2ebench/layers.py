"""Per-layer wall attribution from outside the engine.

:class:`LayerTimer` patches the public entry points of every ``repro``
layer with a stack-based timer: each wrapped call pushes a frame, and on
return its elapsed time minus the time of the wrapped calls nested inside
it is that layer's *self* time.  Nothing in ``src/`` changes; the patches
are installed for the traced pass only and removed afterwards.

Three call shapes are handled:

* plain functions and methods — timed around the call;
* generator functions (``HeapFile.scan``, ``BPlusTree.leaf_runs`` …) —
  every resumption is timed, because their work runs lazily inside the
  consumer's frame;
* ``@contextmanager`` functions (``Tracer.span``, ``BufferPool.page`` …) —
  the returned manager's ``__enter__``/``__exit__`` are timed, not the
  body of the ``with`` block.

Module-level functions are re-bound in every loaded ``repro`` module that
imported them by name, so a caller holding
``from repro.schema.record import unpack_fields`` is timed too.  The call
counts double as a coverage check: :data:`COUNTER_CHECKS` pairs wrapped
calls with the registry counter they mirror, and a mismatch means some
call site escaped the patches.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

#: Layers in report order.  ``storage.disk`` is the simulated device under
#: the pool; everything the benchmark's op glue does outside any wrapped
#: call is ``unattributed``.
LAYERS = (
    "query",
    "shard",
    "txn",
    "columnar",
    "index_cache",
    "btree",
    "storage.heap",
    "storage.buffer_pool",
    "storage.page",
    "storage.disk",
    "schema",
    "wal",
    "obs",
)

PUBLIC = "*"

#: (layer, module, class or None, attribute names or PUBLIC).  PUBLIC
#: wraps every public function defined on the class itself.
SPEC = (
    ("query", "repro.query.table", "Table",
     ("insert", "update", "delete", "lookup", "lookup_many", "fetch_rid",
      "scan", "aggregate", "_scan_rows", "_profiled_scan")),
    ("query", "repro.query.table", "PlainIndex", PUBLIC),
    ("query", "repro.query.predicates", "ColumnRange", ("matches",)),
    ("shard", "repro.shard.database", "ShardedTable", PUBLIC),
    ("shard", "repro.shard.database", "ShardedDatabase",
     ("rebalance", "flush_wals", "checkpoint")),
    ("shard", "repro.shard.router", "ShardRouter", PUBLIC),
    ("shard", "repro.shard.recovery", None, ("recover_sharded",)),
    ("txn", "repro.txn.manager", "Session",
     ("begin", "commit", "abort", "lookup", "scan", "insert", "update",
      "delete")),
    ("txn", "repro.txn.manager", "TransactionManager", ("session",)),
    ("columnar", "repro.columnar.manager", "TableColumnar", PUBLIC),
    ("columnar", "repro.columnar.manager", "ColumnarManager", PUBLIC),
    ("columnar", "repro.columnar.store", "ColumnStore", PUBLIC),
    ("columnar", "repro.columnar.cache", "IntermediateCache", PUBLIC),
    ("columnar", "repro.columnar.executor", None,
     ("compile_predicate", "select_segments", "materialize",
      "aggregate_segments", "aggregate_rows")),
    ("index_cache", "repro.core.index_cache.cached_index", "CachedBTree",
     PUBLIC),
    ("index_cache", "repro.core.index_cache.cache", "IndexCache",
     ("probe", "insert", "occupancy", "find", "entries", "invalidate_tuple",
      "zero_window")),
    ("index_cache", "repro.core.index_cache.invalidation",
     "CacheInvalidation",
     ("validate_page", "validate_heap_page", "note_update",
      "invalidate_all")),
    ("btree", "repro.btree.tree", "BPlusTree",
     ("search", "find_leaf", "lookup_many", "leaf_runs", "range_scan",
      "range_batch", "insert", "update_value", "delete")),
    ("btree", "repro.btree.keycodec", "UIntKey", ("encode", "decode")),
    ("btree", "repro.btree.keycodec", "IntKey", ("encode", "decode")),
    ("btree", "repro.btree.keycodec", "StringKey", ("encode", "decode")),
    ("btree", "repro.btree.keycodec", "CompositeKey", ("encode", "decode")),
    ("storage.heap", "repro.storage.heap", "HeapFile", PUBLIC),
    ("storage.buffer_pool", "repro.storage.buffer_pool", "BufferPool",
     ("fetch", "fetch_many", "page", "pages_many", "unpin", "new_page",
      "flush", "flush_all", "drop_clean")),
    ("storage.page", "repro.storage.page", "SlottedPage",
     ("read", "insert", "update", "delete")),
    ("storage.page", "repro.storage.page", None,
     ("compute_page_checksum", "read_page_checksum", "stamp_page_checksum",
      "page_checksum_ok")),
    ("storage.disk", "repro.storage.disk", "SimulatedDisk",
     ("read_page", "write_page", "allocate_page")),
    ("schema", "repro.schema.record", None,
     ("pack_record", "pack_record_map", "unpack_record",
      "unpack_record_map", "unpack_fields")),
    ("schema", "repro.schema.types", "PhysicalType", ("pack", "unpack")),
    ("wal", "repro.wal.log", "WalWriter",
     ("reserve_lsn", "log_insert", "log_update", "log_delete",
      "log_txn_begin", "log_txn_commit", "log_txn_abort",
      "log_create_table", "log_create_index", "log_hot_cold_move",
      "log_shard_migrate", "log_index_cache_drop", "flush", "flush_to",
      "checkpoint")),
    ("wal", "repro.wal.replay", None, ("recover",)),
    ("obs", "repro.obs.tracer", "Tracer", ("span",)),
    ("obs", "repro.obs.tracer", "NullTracer", ("span",)),
    ("obs", "repro.obs.profiler", "QueryProfiler", ("operation",)),
    ("obs", "repro.obs.trace", "TraceCollector", ("trace", "span")),
)


def _distinct_keys(args, kwargs) -> int:
    keys = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    return len(set(keys))


_WAL_LOGS = tuple(
    f"repro.wal.log.WalWriter.{name}"
    for name in (
        "log_insert", "log_update", "log_delete", "log_txn_begin",
        "log_txn_commit", "log_txn_abort", "log_create_table",
        "log_create_index", "log_hot_cold_move", "log_shard_migrate",
        "log_index_cache_drop",
    )
)

#: Registry counter(s) -> the wrapped calls that must account for every
#: increment.  Batched entry points count one unit per distinct key, as
#: the engine does.
COUNTER_CHECKS = (
    (("btree.descent",), ("repro.btree.tree.BPlusTree.find_leaf",)),
    (("btree.search",),
     ("repro.btree.tree.BPlusTree.search",
      "repro.btree.tree.BPlusTree.lookup_many")),
    (("index_cache.lookup",),
     ("repro.core.index_cache.cached_index.CachedBTree.lookup",
      "repro.core.index_cache.cached_index.CachedBTree.lookup_many")),
    (("bufferpool.hit", "bufferpool.miss"),
     ("repro.storage.buffer_pool.BufferPool.fetch",)),
    (("wal.records",), _WAL_LOGS),
)

#: Wrapped calls whose unit count is not one per call.
UNIT_WEIGHTS = {
    "repro.btree.tree.BPlusTree.lookup_many": _distinct_keys,
    "repro.core.index_cache.cached_index.CachedBTree.lookup_many":
        _distinct_keys,
}


class _TimedContext:
    """Times a context manager's enter and exit as calls of one layer."""

    __slots__ = ("_timer", "_layer", "_name", "_cm")

    def __init__(self, timer, layer, name, cm) -> None:
        self._timer = timer
        self._layer = layer
        self._name = name
        self._cm = cm

    def __enter__(self):
        return self._timer.call(self._layer, self._name, self._cm.__enter__)

    def __exit__(self, *exc):
        return self._timer.call(
            self._layer, self._name, self._cm.__exit__, *exc
        )


class LayerTimer:
    """Stack-based self-time accounting over patched entry points.

    Calls are always counted while installed; self time accumulates only
    while :attr:`recording` is true, so the benchmark times exactly its
    op intervals and nothing it does between them.
    """

    def __init__(self) -> None:
        self.recording = False
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.units: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- accounting ------------------------------------------------------

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        stack = self._stack
        frame = [0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            if self.recording:
                self.self_ns[layer] += elapsed - frame[0]
            self.calls[name] += 1

    def layer_calls(self, layer: str) -> int:
        prefixes = tuple(
            f"{module}." for lay, module, _, _ in SPEC if lay == layer
        )
        return sum(
            n for name, n in self.calls.items() if name.startswith(prefixes)
        )

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        call = self.call
        weight = UNIT_WEIGHTS.get(name)
        units = self.units
        raw = inspect.unwrap(fn)
        if raw is not fn and inspect.isgeneratorfunction(raw):
            # @contextmanager: time the manager's enter/exit.
            def wrapper(*args, **kwargs):
                cm = call(layer, name, fn, *args, **kwargs)
                return _TimedContext(self, layer, name, cm)
        elif inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = call(layer, name, fn, *args, **kwargs)
                try:
                    while True:
                        try:
                            item = call(layer, name, next, it)
                        except StopIteration:
                            return
                        yield item
                finally:
                    call(layer, name, it.close)
        elif weight is not None:
            def wrapper(*args, **kwargs):
                units[name] += weight(args, kwargs)
                return call(layer, name, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return call(layer, name, fn, *args, **kwargs)
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def unit_count(self, name: str) -> int:
        """Calls of ``name``, or its weighted units for batched calls."""
        return self.units[name] if name in UNIT_WEIGHTS else self.calls[name]

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Patch every entry point in :data:`SPEC`."""
        if self._restore:
            raise RuntimeError("layer timer already installed")
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))
        ]
        for layer, module_name, class_name, names in SPEC:
            module = importlib.import_module(module_name)
            if class_name is None:
                for attr in names:
                    fn = getattr(module, attr)
                    wrapper = self._wrap(
                        layer, f"{module_name}.{attr}", fn
                    )
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                self._patch(mod, key, wrapper)
                continue
            cls = getattr(module, class_name)
            own = vars(cls)
            if names == PUBLIC:
                names = [
                    n for n, v in own.items()
                    if not n.startswith("_") and inspect.isfunction(v)
                ]
            for attr in names:
                fn = own.get(attr)
                if not inspect.isfunction(fn):
                    raise RuntimeError(
                        f"{module_name}.{class_name}.{attr} is not a "
                        "function defined on the class"
                    )
                self._patch(
                    cls, attr,
                    self._wrap(
                        layer, f"{module_name}.{class_name}.{attr}", fn
                    ),
                )

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "LayerTimer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def counter_mismatches(timer: LayerTimer, deltas: dict[str, float]) -> list[str]:
    """Every :data:`COUNTER_CHECKS` pair whose counts disagree."""
    problems = []
    for counters, calls in COUNTER_CHECKS:
        want = sum(deltas.get(c, 0.0) for c in counters)
        got = sum(timer.unit_count(name) for name in calls)
        if got != want:
            problems.append(
                f"{'+'.join(counters)} moved by {want:g} but the wrapped "
                f"calls account for {got}"
            )
    return problems
