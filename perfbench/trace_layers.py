"""The traced run: spans around each layer's public entry points, and per-layer metrics.

Tracing lives entirely in benchmark code.  ``Tracer.install`` replaces public
functions and methods of the program with wrappers that record a span (name,
start, end, parent) per call; spans stay in memory and are written to a file
when the run ends.  A layer's self time is its span minus the spans of the
layers it called.  Counters come from the program's own public statistics,
read before and after the timed loop.

A traced run first sets the workload up and runs it untraced for half the
run time, then sets it up again with tracing on and runs the same number of
rounds; ``bench.tracing_overhead`` is the traced ``ops_per_s`` divided by the
untraced one.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

import repro.connection
import repro.net.client
import repro.net.server
import repro.persist.checkpoint
from repro.connection import Connection
from repro.core.maintainers import HazyEagerMaintainer, HazyLazyMaintainer
from repro.db.sql.executor import SQLExecutor
from repro.db.table import Table
from repro.features.bag_of_words import TfBagOfWords
from repro.learn.sgd import SGDTrainer
from repro.net.admission import AdmissionController
from repro.persist.wal import WriteAheadLog
from repro.serve.batcher import ReadBatcher
from repro.serve.sharding import ShardSet

from calibrate import Clock
from corpus import BenchmarkError
from workloads import OP_KINDS, ServedWire, run_loop

__all__ = ["PER_LAYER", "Tracer", "run_traced"]

#: Cost-model tags reported as ``db.costmodel.<tag>_sim_s``.
COST_TAGS = ("page_read", "page_write", "tuple_read", "tuple_write", "dot_product", "featurize", "sort")

#: Per-layer metrics and their units, in report order.
PER_LAYER = [
    ("connection.execute_self_ms", "ms"),
    ("connection.plan_cache_hit_ratio", "ratio"),
    ("db.sql.parse_ms", "ms"),
    ("db.sql.plan_ms", "ms"),
    ("db.sql.execute_self_ms", "ms"),
    ("db.sql.update_rows_examined_per_row", "rows"),
    ("db.table.update_by_key_ms", "ms"),
    ("db.buffer_pool.hit_ratio", "ratio"),
    ("db.buffer_pool.misses", "count/op"),
    ("db.buffer_pool.evictions", "count/op"),
    *[(f"db.costmodel.{tag}_sim_s", "s/op") for tag in COST_TAGS],
    ("features.compute_feature_ms", "ms"),
    ("features.calls", "count"),
    ("learn.absorb_ms", "ms"),
    ("linalg.dot_products", "count/op"),
    ("core.bulk_load_ms", "ms"),
    ("core.apply_model_ms", "ms"),
    ("core.tuples_reclassified", "count/op"),
    ("core.labels_changed", "count/op"),
    ("core.relabel_yield", "ratio"),
    ("core.read_all_members_ms", "ms"),
    ("core.tuples_scanned_for_reads", "count/op"),
    ("core.reorganizations", "count/op"),
    ("core.reorganization_sim_s", "s/op"),
    ("core.read_single_ms", "ms"),
    ("core.epsmap_hits", "count/op"),
    ("core.buffer_hits", "count/op"),
    ("core.disk_lookups", "count/op"),
    ("serve.read_batches", "count/op"),
    ("serve.read_wait_ms", "ms"),
    ("serve.maintenance_apply_ms", "ms"),
    ("serve.epochs_published", "count/op"),
    ("serve.cache_hit_ratio", "ratio"),
    ("persist.wal_append_ms", "ms"),
    ("persist.wal_bytes", "bytes/op"),
    ("persist.checkpoint_bytes", "bytes"),
    ("persist.shards_rewritten", "count"),
    ("persist.load_checkpoint_ms", "ms"),
    ("persist.replayed_records", "count"),
    ("net.write_frame_ms", "ms"),
    ("net.read_frame_ms", "ms"),
    ("net.response_bytes", "bytes"),
    ("net.admission_wait_ms", "ms"),
    ("obs.spans_per_statement", "count"),
    ("bench.tracing_overhead", "ratio"),
]


class _CountingSocket:
    """Socket stand-in for one frame call: times ``recv`` and counts ``sendall`` bytes."""

    __slots__ = ("sock", "waited", "sent")

    def __init__(self, sock) -> None:
        self.sock = sock
        self.waited = 0.0
        self.sent = 0

    def recv(self, count: int) -> bytes:
        started = time.perf_counter()
        try:
            return self.sock.recv(count)
        finally:
            self.waited += time.perf_counter() - started

    def sendall(self, data: bytes) -> None:
        self.sent += len(data)
        self.sock.sendall(data)

    def __getattr__(self, name: str):
        return getattr(self.sock, name)


class _TimedEntry:
    """A context manager whose entry is one span: the wait before its block may run."""

    __slots__ = ("tracer", "manager", "name")

    def __init__(self, tracer: "Tracer", manager, name: str) -> None:
        self.tracer = tracer
        self.manager = manager
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        span_id, parent, stack = tracer._enter()
        started = time.perf_counter()
        try:
            return self.manager.__enter__()
        finally:
            ended = time.perf_counter()
            stack.pop()
            tracer.spans.append((span_id, parent, self.name, started, ended, 0.0))

    def __exit__(self, *exc_info):
        return self.manager.__exit__(*exc_info)


class Tracer:
    """In-memory spans around the program's public entry points."""

    def __init__(self) -> None:
        #: (span id, parent id, name, start, end, seconds to leave out of self time)
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        #: (start, bytes) of each server-side frame write that sent bytes.
        self.responses: list[tuple[float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.marks: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def mark(self, phase: str) -> None:
        self.marks[phase] = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> tuple[int, int, list[int]]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, stack

    def wrap(self, function, name: str):
        """``function`` recording one span per call under ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            span_id, parent, stack = tracer._enter()
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, started, ended, 0.0))

        traced.__wrapped__ = function
        return traced

    def wrap_frame(self, function, name: str, side: str):
        """A frame codec call: its self time leaves out socket waits; server sends count bytes."""
        tracer = self

        def traced(sock, *args, **kwargs):
            span_id, parent, stack = tracer._enter()
            proxy = _CountingSocket(sock)
            started = time.perf_counter()
            try:
                return function(proxy, *args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, started, ended, proxy.waited))
                if side == "server" and proxy.sent:
                    tracer.responses.append((started, proxy.sent))

        return traced

    def wrap_entry(self, function, name: str):
        """A context-manager factory whose entry (not its block) records one span under ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            return _TimedEntry(tracer, function(*args, **kwargs), name)

        return traced

    def response_bytes(self, since: float, until: float) -> float:
        """Mean bytes per server response among frames written in [since, until)."""
        sent = [count for started, count in self.responses if since <= started < until]
        return _ratio(sum(sent), len(sent))

    def wrap_counted(self, function, name: str, counter: str):
        """Like :meth:`wrap`, also adding the length of each result to ``counter``."""
        traced = self.wrap(function, name)
        tracer = self

        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            tracer.counts[counter] += len(result)
            return result

        return counted

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__.get(attribute, _MISSING)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every traced entry point."""
        patch = self._patch
        # The one method both an in-process cursor and a wire handler run a
        # statement through (the handler has no public entry point to wrap).
        patch(Connection, "_execute", self.wrap(Connection._execute, "connection.execute"))
        patch(repro.connection, "parse", self.wrap(repro.connection.parse, "db.sql.parse"))
        patch(SQLExecutor, "plan_select", self.wrap(SQLExecutor.plan_select, "db.sql.plan"))
        patch(SQLExecutor, "execute", self.wrap(SQLExecutor.execute, "db.sql.execute"))
        patch(Table, "update_by_key", self.wrap(Table.update_by_key, "db.table.update_by_key"))
        patch(TfBagOfWords, "compute_feature",
              self.wrap(TfBagOfWords.compute_feature, "features.compute_feature"))
        patch(SGDTrainer, "absorb", self.wrap(SGDTrainer.absorb, "learn.absorb"))
        for maintainer in (HazyEagerMaintainer, HazyLazyMaintainer):
            for method in ("bulk_load", "apply_model", "read_all_members", "read_single"):
                patch(maintainer, method, self.wrap(getattr(maintainer, method), f"core.{method}"))
        patch(ReadBatcher, "read", self.wrap(ReadBatcher.read, "serve.read_wait"))
        patch(ShardSet, "apply_model_batch",
              self.wrap(ShardSet.apply_model_batch, "serve.maintenance_apply"))
        patch(WriteAheadLog, "append", self.wrap(WriteAheadLog.append, "persist.wal_append"))
        patch(WriteAheadLog, "records_after", self.wrap_counted(
            WriteAheadLog.records_after, "persist.records_after", "persist.replayed_records"))
        patch(repro.persist.checkpoint, "load_checkpoint",
              self.wrap(repro.persist.checkpoint.load_checkpoint, "persist.load_checkpoint"))
        patch(AdmissionController, "admit",
              self.wrap_entry(AdmissionController.admit, "net.admission_wait"))
        for module, side in ((repro.net.server, "server"), (repro.net.client, "client")):
            patch(module, "read_frame", self.wrap_frame(module.read_frame, "net.read_frame", side))
            patch(module, "write_frame", self.wrap_frame(module.write_frame, "net.write_frame", side))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- reading the spans ----------------------------------------------------------------

    def durations(self, clock: Clock, since: float, until: float) -> dict[str, dict[str, list[float]]]:
        """Per span name: total and self durations of spans begun in [since, until).

        Durations are in reference seconds by the kernel's bytecode part: a span
        times the work of one layer in one thread.
        """
        children: dict[int, float] = defaultdict(float)
        for _, parent, _, started, ended, _ in self.spans:
            if parent:
                children[parent] += ended - started
        out: dict[str, dict[str, list[float]]] = defaultdict(lambda: {"total": [], "self": []})
        for span_id, _, name, started, ended, excluded in self.spans:
            if not since <= started < until:
                continue
            seconds = ended - started
            own = seconds - children.get(span_id, 0.0) - excluded
            out[name]["total"].append(clock.to_reference(started, seconds))
            out[name]["self"].append(clock.to_reference(started, own))
        return out

    def write(self, path: Path) -> None:
        """One line per span: id, parent, name, start and end (perf_counter seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span_id, parent, name, started, ended, _ in self.spans:
                handle.write(f"{span_id}\t{parent}\t{name}\t{started:.9f}\t{ended:.9f}\n")


_MISSING = object()


def counters(workload) -> dict[str, float]:
    """The program's public counters that the per-layer metrics difference."""
    out: dict[str, float] = defaultdict(float)
    for maintainer in workload.maintainers():
        stats = maintainer.stats
        for key in ("tuples_reclassified", "labels_changed", "reorganizations",
                    "tuples_scanned_for_reads", "epsmap_hits", "buffer_hits", "disk_lookups"):
            out[f"core.{key}"] += getattr(stats, key)
        out["core.reorganization_sim_s"] += stats.simulated_reorganization_seconds
    for ledger in workload.ledgers():
        out["linalg.dot_products"] += ledger.dot_products
        for tag in COST_TAGS:
            out[f"sim.{tag}"] += ledger.detail.get(tag, 0.0)
    pool = workload.conn.database.pool.stats
    out["pool.hits"], out["pool.misses"], out["pool.evictions"] = (
        pool.buffer_hits, pool.buffer_misses, pool.evictions)
    for row in workload.conn.database.obs.plan_cache_rows():
        out["plan.hits"] += row["hits_total"]
        out["plan.misses"] += row["misses_total"]
    server = workload.view().server
    if server is not None:
        metrics = server.metrics()
        out["serve.read_batches"] = metrics.get("batcher.rounds_total", 0)
        out["serve.epochs_published"] = metrics.get("epochs_published_total", 0)
        out["serve.cache_hits"] = metrics.get("cache.hits_total", 0)
        out["serve.cache_misses"] = metrics.get("cache.misses_total", 0)
        out["persist.wal_bytes"] = metrics.get("wal.appended_bytes", 0)
    return out


class UpdateProbe:
    """Heap tuples an UPDATE reads, per row it changes (the database pool's ledger)."""

    def __init__(self, workload) -> None:
        self.stats = workload.conn.database.pool.stats
        self.read = 0
        self.changed = 0

    def before(self) -> int:
        return self.stats.tuples_read

    def after(self, before: int, changed: int) -> None:
        if changed:
            self.read += self.stats.tuples_read - before
            self.changed += changed


def _mean_ms(values: list[float]) -> float:
    return statistics.fmean(values) * 1000.0 if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _busy(clock: Clock) -> float:
    return sum(sum(clock.calibrated(kind)) for kind in OP_KINDS)


def spans_per_statement(workload) -> float:
    """Spans per statement over the program's recent-trace ring."""
    rows = workload.conn.execute("SELECT trace_id FROM system.traces").fetchall()
    return _ratio(len(rows), len({row["trace_id"] for row in rows}))


def run_traced(workload_class, seed: int, seconds: float, workdir: Path, trace_dir: Path) -> dict:
    with Clock(workload_class.handoff_kinds) as untraced_clock:
        reference = workload_class(f"{seed}.0", workdir / "untraced")
        reference.build(untraced_clock)
        untraced = run_loop(reference, untraced_clock, seconds / 2, checks=False)
        untraced_rate = (untraced["attempted"] - untraced["failed"]) / _busy(untraced_clock)
        reference.close()
    del reference
    gc.collect()

    tracer = Tracer()
    clock = Clock(workload_class.handoff_kinds)
    tracer.install()
    try:
        workload = workload_class(f"{seed}.0", workdir / "traced")
        tracer.mark("setup")
        workload.build(clock)
        workload.update_probe = probe = UpdateProbe(workload)
        before = counters(workload)
        tracer.mark("loop")
        loop = run_loop(workload, clock, 0, rounds=untraced["rounds"], checks=False)
        tracer.mark("checks")
        after = counters(workload)
        per_statement = spans_per_statement(workload)
        try:
            workload.check(loop["rounds"], final=True)
            tracer.mark("recovery")
            if isinstance(workload, ServedWire):
                checkpoints = workload.checkpoints
                workload.recover(clock)
            else:
                checkpoints = []
                workload.close()
        except BenchmarkError as error:
            error.attempted, error.failed = loop["attempted"], loop["failed"]
            raise
        tracer.mark("end")
    finally:
        tracer.uninstall()
        clock.close()
    tracer.write(trace_dir / f"spans-{workload_class.name}-{seed}.tsv")

    marks = tracer.marks
    setup = tracer.durations(clock, marks["setup"], marks["loop"])
    timed = tracer.durations(clock, marks["loop"], marks["checks"])
    recovery = tracer.durations(clock, marks["recovery"], marks["end"])
    delta = {key: after[key] - before.get(key, 0.0) for key in after}
    ops = loop["attempted"]
    traced_rate = (loop["attempted"] - loop["failed"]) / _busy(clock)
    statements = len(timed["connection.execute"]["total"])
    recoveries = len(recovery["persist.load_checkpoint"]["total"])

    def per_op(key: str) -> float:
        return delta.get(key, 0.0) / ops

    metrics = {
        "connection.execute_self_ms": _mean_ms(timed["connection.execute"]["self"]),
        "connection.plan_cache_hit_ratio": _ratio(
            delta["plan.hits"], delta["plan.hits"] + delta["plan.misses"]),
        "db.sql.parse_ms": _ratio(sum(timed["db.sql.parse"]["total"]), statements) * 1000.0,
        "db.sql.plan_ms": _ratio(sum(timed["db.sql.plan"]["total"]), statements) * 1000.0,
        "db.sql.execute_self_ms": _mean_ms(timed["db.sql.execute"]["self"]),
        "db.sql.update_rows_examined_per_row": _ratio(probe.read, probe.changed),
        "db.table.update_by_key_ms": _mean_ms(timed["db.table.update_by_key"]["total"]),
        "db.buffer_pool.hit_ratio": _ratio(
            delta["pool.hits"], delta["pool.hits"] + delta["pool.misses"]),
        "db.buffer_pool.misses": per_op("pool.misses"),
        "db.buffer_pool.evictions": per_op("pool.evictions"),
        **{f"db.costmodel.{tag}_sim_s": per_op(f"sim.{tag}") for tag in COST_TAGS},
        "features.compute_feature_ms": _mean_ms(
            setup["features.compute_feature"]["total"] + timed["features.compute_feature"]["total"]),
        "features.calls": float(len(setup["features.compute_feature"]["total"])),
        "learn.absorb_ms": _mean_ms(timed["learn.absorb"]["total"]),
        "linalg.dot_products": per_op("linalg.dot_products"),
        "core.bulk_load_ms": _mean_ms(setup["core.bulk_load"]["total"]),
        "core.apply_model_ms": _mean_ms(timed["core.apply_model"]["total"]),
        "core.tuples_reclassified": per_op("core.tuples_reclassified"),
        "core.labels_changed": per_op("core.labels_changed"),
        "core.relabel_yield": _ratio(delta["core.labels_changed"], delta["core.tuples_reclassified"]),
        "core.read_all_members_ms": _mean_ms(timed["core.read_all_members"]["total"]),
        "core.tuples_scanned_for_reads": per_op("core.tuples_scanned_for_reads"),
        "core.reorganizations": per_op("core.reorganizations"),
        "core.reorganization_sim_s": per_op("core.reorganization_sim_s"),
        "core.read_single_ms": _mean_ms(timed["core.read_single"]["total"]),
        "core.epsmap_hits": per_op("core.epsmap_hits"),
        "core.buffer_hits": per_op("core.buffer_hits"),
        "core.disk_lookups": per_op("core.disk_lookups"),
        "serve.read_batches": per_op("serve.read_batches"),
        "serve.read_wait_ms": _mean_ms(timed["serve.read_wait"]["total"]),
        "serve.maintenance_apply_ms": _mean_ms(timed["serve.maintenance_apply"]["total"]),
        "serve.epochs_published": per_op("serve.epochs_published"),
        "serve.cache_hit_ratio": _ratio(
            delta.get("serve.cache_hits", 0.0),
            delta.get("serve.cache_hits", 0.0) + delta.get("serve.cache_misses", 0.0)),
        "persist.wal_append_ms": _mean_ms(timed["persist.wal_append"]["total"]),
        "persist.wal_bytes": per_op("persist.wal_bytes"),
        "persist.checkpoint_bytes": _ratio(sum(row["bytes"] for row in checkpoints), len(checkpoints)),
        "persist.shards_rewritten": _ratio(
            sum(row["shards_written"] for row in checkpoints), len(checkpoints)),
        "persist.load_checkpoint_ms": _mean_ms(recovery["persist.load_checkpoint"]["total"]),
        "persist.replayed_records": _ratio(tracer.counts["persist.replayed_records"], recoveries),
        "net.write_frame_ms": _mean_ms(timed["net.write_frame"]["self"]),
        "net.read_frame_ms": _mean_ms(timed["net.read_frame"]["self"]),
        "net.response_bytes": tracer.response_bytes(marks["loop"], marks["checks"]),
        "net.admission_wait_ms": _mean_ms(timed["net.admission_wait"]["total"]),
        "obs.spans_per_statement": per_statement,
        "bench.tracing_overhead": traced_rate / untraced_rate,
    }
    print(f"{workload_class.name} seed={seed} traced: {loop['rounds']} rounds, "
          f"{len(tracer.spans)} spans; untraced {untraced_rate:.1f} ops/s, traced {traced_rate:.1f} ops/s")
    for name, unit in PER_LAYER:
        print(f"  {name:<38} {metrics[name]:14.6g} {unit}")
    return {"attempted": loop["attempted"], "failed": loop["failed"], "metrics": metrics,
            "units": dict(PER_LAYER)}
