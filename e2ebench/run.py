"""Two-clock, per-layer benchmark of the engine (see README.md).

    python3 e2ebench/run.py --workload oltp_cached --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
beyond what the engine always runs.  ``--trace 1`` runs the same schedule
twice on fresh engines — untraced, then with every layer's entry points
wrapped by :class:`layers.LayerTimer` — requires both passes to agree on
the result digest and the simulated clock, and reports the per-layer
metrics of the traced pass.  The last line of stdout is the JSON result;
the lines before it record the host and the details behind the numbers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import struct
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: End-to-end metric -> unit.  Wall metrics come from the untraced run.
END_TO_END = {
    "throughput_ops_s": "ops/s",
    "point_read_p50_us": "us",
    "point_read_p99_us": "us",
    "batch_read_p50_us": "us",
    "write_p50_us": "us",
    "write_p99_us": "us",
    "analytic_p50_ms": "ms",
    "sim_us_per_op": "sim_us",
    "setup_s": "s",
    "recovery_s": "s",
    "stored_bytes_per_user_byte": "B/B",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run) whose unit is not a plain ratio.
PER_LAYER_UNITS = {
    "storage.page.calls_per_op": "calls/op",
    "schema.decodes_per_op": "calls/op",
    "index_cache.fills_per_op": "fills/op",
    "index_cache.invalidations_per_write": "preds/write",
    "btree.descents_per_op": "descents/op",
    "storage.buffer_pool.misses_per_op": "misses/op",
    "storage.buffer_pool.evictions_per_op": "evicts/op",
    "storage.disk.reads_per_op": "reads/op",
    "storage.disk.writes_per_op": "writes/op",
    "wal.bytes_per_write": "B/write",
    "wal.flushes_per_write": "flushes/write",
    "wal.replay.us_per_record": "us/record",
    "columnar.rebuilds_per_write": "rebuilds/write",
    "shard.fanout_mean": "shards/op",
}

SETUPS = 3
RECOVERIES = 3
REPIN_NS = 500_000_000

#: The host's speed is probed every ``PROBE_NS`` of timed work.
PROBE_NS = 20_000_000

#: :func:`probe_ms` on an uncontended core of the reference host (a
#: 2-vCPU Xeon VM).  Wall figures are scaled by ``REF_PROBE_MS / probe``
#: measured beside them, so they read as time on that uncontended core:
#: other tenants slow the host by up to 2x, in bursts from tens of
#: milliseconds to minutes, which CPU pinning alone cannot hide.  The raw
#: times are in the ``detail`` record.
REF_PROBE_MS = 0.31

#: The lookup loop's fixed inputs: packed records behind a dict of 30k
#: keys, and 1,000 keys to look up in it.
_PROBE_FORMAT = struct.Struct("<QIIq")
_probe_rng = random.Random(0)
_PROBE_TABLE = {
    i * 7919: (_PROBE_FORMAT.pack(i, i * 3, i ^ 0x55, -i), str(i))
    for i in range(30_000)
}
_PROBE_KEYS = [_probe_rng.randrange(30_000) * 7919 for _ in range(1_000)]


def spin_ns(steps: int) -> int:
    """Wall time of a fixed pure-Python loop of ``steps`` steps."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(steps):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter_ns() - start


def calibration_ms() -> float:
    """Median of five 200k-step loops: the host's own speed, so a
    host-wide slowdown can be told apart from a program slowdown."""
    return statistics.median(spin_ns(200_000) for _ in range(5)) / 1e6


def lookup_pass_ns() -> int:
    """One pass of a fixed ~0.3 ms memory-bound loop shaped like request
    work: dict lookups, record unpacking and row-dict materialization."""
    table, unpack = _PROBE_TABLE, _PROBE_FORMAT.unpack_from
    start = time.perf_counter_ns()
    rows = []
    for key in _PROBE_KEYS:
        raw, name = table[key]
        a, b, _, _ = unpack(raw)
        rows.append({"a": a, "b": b, "name": name})
    return time.perf_counter_ns() - start


def probe_ms() -> float:
    """The host's speed for requests right now: the geometric mean of a
    5k-step arithmetic loop and :func:`lookup_pass_ns`, each the better of
    two passes.

    A contended host slows request work more than the arithmetic loop and
    less than the lookup loop, so either alone under- or over-corrects as
    the host slows; their geometric mean kept ``oltp_cached`` throughput
    within ~3% over a 20% host slowdown.  The first lookup pass reloads
    its data into the caches, so whatever the engine did just before does
    not change the reading.  The collector is held off meanwhile, so the
    probe never pays for a collection the requests' garbage is due.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        spin = min(spin_ns(5_000), spin_ns(5_000))
        lookup = min(lookup_pass_ns(), lookup_pass_ns())
    finally:
        if enabled:
            gc.enable()
    return math.sqrt(spin * lookup) / 1e6


def pin_fastest_cpu(cpus: set[int]) -> float:
    """Pin this process to whichever allowed CPU runs the probe fastest
    right now (other tenants contend for the cores unevenly); returns
    that CPU's probe time."""
    timed = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        timed.append((probe_ms(), cpu))
    best, cpu = min(timed)
    os.sched_setaffinity(0, {cpu})
    return best


def percentile(samples: list[int], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in (0, 1])."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def canonical(result):
    """A digestible, process-independent form of one op's reply."""
    if hasattr(result, "found"):
        return (result.found, result.values)
    if isinstance(result, list):
        return [canonical(item) for item in result]
    return result


def cost_counters(engines) -> list[tuple[float, int, int, int, int, int]]:
    return [
        (c.now_ns, c.bp_hits, c.bp_misses, c.disk_writes, c.index_descents,
         c.cache_probes)
        for c in (db.cost_model for db in engines)
    ]


def registry_values(registries) -> list[dict[str, float]]:
    """Per registry: counter values, and ``<name>.count``/``.sum`` of
    histograms."""
    from repro.obs.registry import Counter, Histogram

    out = []
    for reg in registries:
        values: dict[str, float] = {}
        for name, inst in reg.items():
            if isinstance(inst, Counter):
                values[name] = inst.value
            elif isinstance(inst, Histogram):
                values[f"{name}.count"] = inst.count
                values[f"{name}.sum"] = inst.sum
        out.append(values)
    return out


def deltas(before: list[dict], after: list[dict]) -> list[dict[str, float]]:
    return [
        {k: v - b.get(k, 0) for k, v in a.items()}
        for b, a in zip(before, after)
    ]


def summed(per_registry: list[dict[str, float]]) -> dict[str, float]:
    total: dict[str, float] = {}
    for values in per_registry:
        for k, v in values.items():
            total[k] = total.get(k, 0) + v
    return total


class Pass:
    """One run of the schedule against a freshly built engine."""

    def __init__(self, wl, timer=None) -> None:
        from workloads import OPS_PER_REQUEST

        #: Per latency class: ``(raw ns, index of the probe taken
        #: just before the request)``.
        self._samples: dict[str, list[tuple[int, int]]] = {
            cls: [] for cls in OPS_PER_REQUEST
        }
        self._ops_per_request = OPS_PER_REQUEST
        self.ops = 0
        self.busy_ns = 0
        self.writes = 0
        self.failed = 0
        self.problems: list[str] = []
        self.probes_ms: list[float] = []
        digest = hashlib.blake2b(digest_size=16)
        engines = wl.engines()
        sim0 = wl.sim_now_ns()
        costs0 = cost_counters(engines)
        disk0 = [(d.reads, d.writes) for d in wl.disks()]
        regs0 = registry_values(wl.registries())
        cpus = os.sched_getaffinity(0)
        repin_at = probe_at = 0
        gc.collect()
        try:
            for cls, op, arg in wl.schedule:
                now = time.perf_counter_ns()
                if now >= repin_at:
                    # Contention moves between cores within a second, so
                    # the client re-picks its core every REPIN_NS...
                    self.probes_ms.append(pin_fastest_cpu(cpus))
                    repin_at = now + REPIN_NS
                    probe_at = time.perf_counter_ns() + PROBE_NS
                elif now >= probe_at:
                    # ...and the host's speed on that core changes within
                    # tens of milliseconds, so it is probed every PROBE_NS.
                    self.probes_ms.append(probe_ms())
                    probe_at = time.perf_counter_ns() + PROBE_NS
                self._request(wl, timer, cls, op, arg, digest)
            self.probes_ms.append(probe_ms())
        finally:
            os.sched_setaffinity(0, cpus)
        # Each request's host speed: the mean of the probes just
        # before and just after the stretch of requests it belongs to.
        self.scales = [
            REF_PROBE_MS / ((a + b) / 2)
            for a, b in zip(self.probes_ms, self.probes_ms[1:])
        ]
        #: Per latency class, every request's time scaled to the
        #: reference host speed.
        self.latency = {
            cls: [ns * self.scales[e] for ns, e in samples]
            for cls, samples in self._samples.items()
        }
        self.norm_busy_ns = sum(sum(v) for v in self.latency.values())
        self.registry_deltas = deltas(regs0, registry_values(wl.registries()))
        self.sim_ns = wl.sim_now_ns() - sim0
        self.cost_deltas = [
            tuple(a - b for a, b in zip(after, before))
            for before, after in zip(costs0, cost_counters(engines))
        ]
        self.disk_reads = sum(d.reads for d in wl.disks()) - sum(
            r for r, _ in disk0
        )
        self.disk_writes = sum(d.writes for d in wl.disks()) - sum(
            w for _, w in disk0
        )
        self.digest = digest.hexdigest()

    def _request(self, wl, timer, cls, op, arg, digest) -> None:
        """Send one request, time it, and check the reply."""
        if timer is not None:
            timer.recording = True
        start = time.perf_counter_ns()
        try:
            result = wl.execute(op, arg)
        except Exception as exc:  # counted as a failed op, run goes on
            elapsed = time.perf_counter_ns() - start
            ok, result = False, repr(exc)
        else:
            elapsed = time.perf_counter_ns() - start
            ok = None
        if timer is not None:
            timer.recording = False
        if ok is None:
            ok = wl.check(op, arg, result)
        self._samples[cls].append((elapsed, len(self.probes_ms) - 1))
        self.busy_ns += elapsed
        n = self._ops_per_request[cls]
        self.ops += n
        if cls == "write":
            self.writes += 1
        if not ok:
            self.failed += n
            if len(self.problems) < 5:
                self.problems.append(f"{op} {arg!r:.120} -> {result!r:.200}")
        digest.update(repr(canonical(result)).encode())


def sim_attribution(wl, cost_deltas) -> dict[str, float]:
    """Split each engine's sim-clock delta by its CostModel counters.

    ``other`` is what the counters do not explain (``charge()`` glue,
    per-query overhead); the parts sum to the summed engine deltas.
    """
    preset = wl.engines()[0].cost_model.preset
    parts = {"buffer_pool": 0.0, "disk": 0.0, "btree": 0.0,
             "index_cache": 0.0, "other": 0.0}
    total = 0.0
    for now, hits, misses, writes, descents, probes in cost_deltas:
        known = {
            "buffer_pool": (hits + misses) * preset.bp_access_ns,
            "disk": misses * preset.disk_read_ns
            + writes * preset.disk_write_ns,
            "btree": descents * preset.index_descent_ns,
            "index_cache": probes * preset.cache_probe_ns,
        }
        other = now - sum(known.values())
        if other < -1e-6 * max(1.0, now):
            raise AssertionError(
                f"cost counters explain {sum(known.values())} ns of a "
                f"{now} ns clock delta"
            )
        for k, v in known.items():
            parts[k] += v
        parts["other"] += other
        total += now
    if abs(sum(parts.values()) - total) > 1e-6 * max(1.0, total):
        raise AssertionError("sim parts do not sum to the clock delta")
    return {k: (v / total if total else 0.0) for k, v in parts.items()}


def timed(fn, *args):
    """``(raw, normalized)`` wall seconds of ``fn(*args)`` on the least
    contended CPU, and its result.

    Set-up and recovery are single calls of seconds, over which the host's
    speed changes many times, so an interval timer interrupts the call
    every ``PROBE_NS`` to run the probe.  Each stretch of the call between
    two probes is scaled by their mean, as requests are, and the probes'
    own time is left out of both figures.
    """
    cpus = os.sched_getaffinity(0)
    gc.collect()
    pin_fastest_cpu(cpus)
    probes = [probe_ms()]
    stretches: list[int] = []
    last = time.perf_counter_ns()

    def tick(signum, frame) -> None:
        nonlocal last
        stretches.append(time.perf_counter_ns() - last)
        probes.append(probe_ms())
        last = time.perf_counter_ns()

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PROBE_NS / 1e9, PROBE_NS / 1e9)
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        stretches.append(time.perf_counter_ns() - last)
        probes.append(probe_ms())
        os.sched_setaffinity(0, cpus)
    raw = sum(stretches) / 1e9
    norm = sum(
        ns * REF_PROBE_MS / ((a + b) / 2)
        for ns, a, b in zip(stretches, probes, probes[1:])
    ) / 1e9
    return (raw, norm), result


def build(wl) -> tuple[float, float]:
    """Reset the oracle, then time engine construction, load and warm-up.

    The benchmark's own inputs and oracle (tens of thousands of row dicts)
    are moved to the permanent generation first.  Otherwise every full
    collection during set-up and the run walks them too: on
    ``analytics_mixed`` ~14 ms per gen-2 pass, a sixth of the measured
    time, charged to whichever request sets it off and slowed most by a
    contended host.  The engine's own objects stay collectable.
    """
    gc.unfreeze()
    wl.release()
    wl.reset_model()
    gc.collect()
    gc.freeze()
    return timed(wl.build)[0]


def recover_and_verify(wl, image, repeats: int):
    """Recover ``repeats`` times from the crash image; verify the first.
    Returns the ``(raw, normalized)`` times, the problems found and the
    first recovery's registries."""
    times = []
    problems: list[str] = []
    registries = None
    for i in range(repeats):
        elapsed, (engine, regs) = timed(wl.recover, image)
        times.append(elapsed)
        if i == 0:
            problems = wl.verify_recovered(engine)
            registries = regs
        del engine
    return times, problems, registries


def e2e_metrics(wl) -> tuple[dict, int, int, list[str]]:
    setups = [build(wl) for _ in range(SETUPS)]
    run = Pass(wl)
    problems = list(run.problems)
    problems += wl.final_checks()
    stored = wl.stored_bytes() / wl.user_bytes()
    image = wl.crash_image()
    recoveries, rec_problems, _ = recover_and_verify(wl, image, RECOVERIES)
    problems += rec_problems
    lat = run.latency
    values = {
        "throughput_ops_s": run.ops / (run.norm_busy_ns / 1e9),
        "point_read_p50_us": percentile(lat["point"], 0.50) / 1e3,
        "point_read_p99_us": percentile(lat["point"], 0.99) / 1e3,
        "batch_read_p50_us": percentile(lat["batch"], 0.50) / 1e3,
        "write_p50_us": percentile(lat["write"], 0.50) / 1e3,
        "write_p99_us": percentile(lat["write"], 0.99) / 1e3,
        "analytic_p50_ms": percentile(lat["analytic"], 0.50) / 1e6,
        "sim_us_per_op": run.sim_ns / 1e3 / run.ops,
        "setup_s": statistics.median(norm for _, norm in setups),
        "recovery_s": statistics.median(norm for _, norm in recoveries),
        "stored_bytes_per_user_byte": stored,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    detail = {
        "samples": {cls: len(v) for cls, v in lat.items()},
        "ops": run.ops,
        "digest": run.digest,
        "raw_setup_s": [raw for raw, _ in setups],
        "raw_recovery_s": [raw for raw, _ in recoveries],
        "raw_measured_s": run.busy_ns / 1e9,
        "probes": len(run.probes_ms),
        "scale_quartiles": statistics.quantiles(run.scales, n=4),
        "sim_per_engine_ns": [d[0] for d in run.cost_deltas],
    }
    print(json.dumps({"detail": detail}))
    return values, run.ops, run.failed, problems


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 where the layer saw no attempts."""
    return num / den if den else 0.0


def traced_metrics(wl) -> tuple[dict, int, int, list[str]]:
    from layers import LAYERS, LayerTimer, counter_mismatches

    build(wl)
    plain = Pass(wl)
    build(wl)
    with LayerTimer() as timer:
        run = Pass(wl, timer)
        d = summed(run.registry_deltas)
        problems = list(run.problems) + counter_mismatches(timer, d)
        page_calls = timer.layer_calls("storage.page")
        schema_decodes = (
            timer.calls["repro.schema.record.unpack_record"]
            + timer.calls["repro.schema.record.unpack_fields"]
        )
        problems += wl.final_checks()
        encoded, raw = wl.columnar_bytes()
        image = wl.crash_image()
        recovery_s, rec_problems, rec_regs = recover_and_verify(wl, image, 1)
        problems += rec_problems
    if plain.digest != run.digest:
        problems.append("traced pass changed the result digest")
    if plain.sim_ns != run.sim_ns:
        problems.append(
            f"traced pass changed the sim clock ({plain.sim_ns} != "
            f"{run.sim_ns} ns)"
        )
    ops, writes = run.ops, run.writes
    busy = run.busy_ns
    shares = {layer: timer.self_ns.get(layer, 0) / busy for layer in LAYERS}
    replayed = summed(registry_values(rec_regs)).get(
        "wal.replay.records_applied", 0
    )
    hits, misses = d.get("bufferpool.hit", 0), d.get("bufferpool.miss", 0)
    ic_hits, ic_misses = d.get("index_cache.hit", 0), d.get("index_cache.miss", 0)
    col_hits = d.get("columnar.cache.hits", 0)
    col_misses = d.get("columnar.cache.misses", 0)
    # Page accesses per engine: the cost model counts every pool fetch.
    pages = [c[1] + c[2] for c in run.cost_deltas]
    sim = sim_attribution(wl, run.cost_deltas)
    values = {
        f"{layer}.self_share": shares[layer] for layer in LAYERS
    }
    values.update({
        "unattributed.self_share": 1.0 - sum(shares.values()),
        "storage.page.calls_per_op": page_calls / ops,
        "schema.decodes_per_op": schema_decodes / ops,
        "index_cache.hit_rate": ratio(ic_hits, ic_hits + ic_misses),
        "index_cache.fills_per_op": d.get("index_cache.fill", 0) / ops,
        "index_cache.invalidations_per_write": ratio(
            d.get("index_cache.invalidation.predicates", 0), writes
        ),
        "btree.descents_per_op": d.get("btree.descent", 0) / ops,
        "storage.buffer_pool.hit_rate": ratio(hits, hits + misses),
        "storage.buffer_pool.misses_per_op": misses / ops,
        "storage.buffer_pool.evictions_per_op": d.get("bufferpool.eviction", 0)
        / ops,
        "storage.disk.reads_per_op": run.disk_reads / ops,
        "storage.disk.writes_per_op": run.disk_writes / ops,
        "wal.bytes_per_write": ratio(d.get("wal.bytes", 0), writes),
        "wal.flushes_per_write": ratio(d.get("wal.flushes", 0), writes),
        "txn.abort_share": ratio(d.get("txn.aborts", 0), d.get("txn.begins", 0)),
        "wal.replay.us_per_record": ratio(recovery_s[0][1] * 1e6, replayed),
        "columnar.cache_hit_rate": ratio(col_hits, col_hits + col_misses),
        "columnar.rebuilds_per_write": ratio(
            d.get("columnar.rebuilds", 0), writes
        ),
        "columnar.compression_ratio": ratio(raw, encoded),
        "shard.fanout_mean": ratio(
            d.get("shard.fanout.shards.sum", 0),
            d.get("shard.fanout.shards.count", 0),
        ),
        "shard.max_shard_share": ratio(max(pages), sum(pages))
        if len(pages) > 1 else 0.0,
        "trace.overhead_ratio": run.norm_busy_ns / plain.norm_busy_ns,
    })
    values.update({f"sim.{k}_share": v for k, v in sim.items()})
    detail = {
        "ops": ops,
        "digest": run.digest,
        "sim_ns": run.sim_ns,
        "sim_per_engine_ns": [c[0] for c in run.cost_deltas],
        "untraced_s": plain.busy_ns / 1e9,
        "traced_s": busy / 1e9,
        "self_ns": dict(timer.self_ns),
    }
    print(json.dumps({"detail": detail}))
    return values, ops, run.failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    host = {
        "calibration_ms": calibration_ms(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }
    wl = WORKLOADS[args.workload](args.seed, args.seconds)
    if args.trace:
        values, ops, failed, problems = traced_metrics(wl)
        units = {name: PER_LAYER_UNITS.get(name, "ratio") for name in values}
    else:
        values, ops, failed, problems = e2e_metrics(wl)
        units = END_TO_END
    host["calibration_end_ms"] = calibration_ms()
    print(json.dumps({"host": host}))
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    if problems and not failed:
        failed = 1  # a recovery or cross-pass mismatch fails the run
    print(json.dumps({
        "correct": correct,
        "attempted": ops,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
