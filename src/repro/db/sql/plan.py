"""Typed logical/physical plan nodes for the SQL read path.

Every SQL read — base table, unserved classification view, served view, and
joins between them — is compiled by the :mod:`~repro.db.sql.planner` into a
tree of the nodes in this module, and then *executed by walking that tree*.
``EXPLAIN`` prints the same tree the executor runs; ``EXPLAIN ANALYZE``
executes it and reports the actual simulated seconds each node charged to the
cost ledgers next to the planner's estimate.

The node vocabulary:

========================  ==========================================================
``SeqScan``               sequential heap scan of a base table
``IndexRange``            primary-key index access (point form: a ``[k, k]`` range);
                          index-only when the query needs just the key
``SecondaryIndexRange``   B+-tree probe on a ``CREATE INDEX`` column + heap fetch
                          per match; optionally index-ordered with a fused LIMIT
``LogicalViewScan``       materialization of an opaque logical view callable
``ViewScan``              full materialization of a classification view
``ViewPointRead``         Single Entity read on a view's direct maintainer
``ServedPointRead``       batched point read through the ``ViewServer`` batcher
``ServedScatterGather``   All Members / contents scatter/gather across the shards
``ServedRangeScan``       class + key-range predicate pushed into the shards
``ViewRangeRead``         the same pushdown against an unserved view's maintainer
``TopK``                  ranked read (fused per-shard heaps when served)
``Sort`` / ``Limit``      ORDER BY without LIMIT / LIMIT without ORDER BY
``Filter`` / ``Project``  residual predicate re-check / column projection
``Aggregate``             ``COUNT(*)``
``HashJoin``              equi-join; a predicate-free served side is driven
                          through the read batcher with the probe side's keys
========================  ==========================================================

Nodes are immutable after planning (a cached plan is re-executed by re-binding
``?`` parameters only); all per-execution state lives in a
:class:`PlanRuntime`.  View-access nodes re-resolve the serving state at
execution time, so a plan cached while a view was served still answers
correctly after ``STOP SERVING`` (and vice versa) — the label records what the
planner *chose*, the runtime guarantees the answer stays right.

**Execution protocol.**  Nodes expose two measured entry points:
:meth:`PlanNode.execute` (rows out) and :meth:`PlanNode.execute_chunks`
(columnar :class:`Chunk` batches out).  In the default ``"batched"`` execution
mode the whole tree runs chunk-to-chunk: scans emit fixed-size column-array
batches, ``Filter`` evaluates predicates as NumPy masks over whole columns
(via :mod:`repro.linalg.kernels`), and ``Project``/``Aggregate``/``TopK``/
``HashJoin`` consume chunks directly; rows are only materialized at the plan
root.  The explicit ``"row"`` mode runs the legacy tuple-at-a-time
interpretation and charges the cost model's ``row_interpret_cpu`` per tuple
per operator — the dispatch overhead that vectorization amortizes — which is
what the vectorized-execution benchmark gate measures.  Simulated storage
costs are identical in both modes, so batched execution (the default) charges
exactly what this engine always charged.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import compress

import numpy as np

from repro.db.sql.ast import PLACEHOLDER
from repro.db.types import coerce_value
from repro.exceptions import (
    ConfigurationError,
    KeyNotFoundError,
    SQLExecutionError,
)
from repro.linalg import kernels

__all__ = [
    "Predicate",
    "PlanRuntime",
    "NodeStats",
    "PlanNode",
    "Chunk",
    "DEFAULT_CHUNK_ROWS",
    "SeqScan",
    "IndexRange",
    "SecondaryIndexRange",
    "LogicalViewScan",
    "SystemTableScan",
    "ViewScan",
    "ServedContentsScan",
    "ViewPointRead",
    "ServedPointRead",
    "ViewMembers",
    "ServedScatterGather",
    "ViewRangeRead",
    "ServedRangeScan",
    "TopK",
    "Sort",
    "Limit",
    "Filter",
    "Project",
    "Aggregate",
    "HashJoin",
    "compare_values",
    "row_matches",
]


@dataclass(frozen=True)
class Predicate:
    """One ``column op value`` conjunct as the planner resolved it.

    ``column`` is the bare (unqualified) name the produced rows carry;
    ``value`` is either a literal or :data:`PLACEHOLDER`, in which case
    ``param_index`` names the positional ``?`` parameter bound at execution.
    """

    column: str
    operator: str
    value: object
    param_index: int | None = None

    def bind(self, parameters: list) -> object:
        """The concrete comparison value for this execution."""
        if self.value is not PLACEHOLDER:
            return self.value
        if self.param_index is None or self.param_index >= len(parameters):
            raise SQLExecutionError("not enough parameters for placeholders")
        return parameters[self.param_index]

    def test(self, row, parameters: list) -> bool:
        """Evaluate this predicate against one row (case-insensitive column match)."""
        matched = next((key for key in row if key.lower() == self.column.lower()), None)
        if matched is None:
            raise SQLExecutionError(f"unknown column {self.column!r} in WHERE clause")
        return compare_values(row[matched], self.operator, self.bind(parameters))

    def render(self) -> str:
        """Stable text form for EXPLAIN output."""
        if self.value is PLACEHOLDER:
            return f"{self.column} {self.operator} ?"
        return f"{self.column} {self.operator} {self.value!r}"


def compare_values(actual: object, operator: str, expected: object) -> bool:
    """SQL comparison semantics shared by every filtering node."""
    if operator == "=":
        return actual == expected
    if operator == "!=":
        return actual != expected
    if actual is None or expected is None:
        return False
    if operator == "<":
        return actual < expected
    if operator == "<=":
        return actual <= expected
    if operator == ">":
        return actual > expected
    if operator == ">=":
        return actual >= expected
    raise SQLExecutionError(f"unsupported operator {operator!r}")


def row_matches(row, predicates, parameters) -> bool:
    """Whether ``row`` satisfies every predicate (AND semantics)."""
    return all(predicate.test(row, parameters) for predicate in predicates)


#: Rows per columnar batch in batched execution mode.
DEFAULT_CHUNK_ROWS = 1024

#: float64 represents integers exactly up to 2**53; larger ints stay on the
#: exact Python comparison path rather than risking a lossy conversion.
_EXACT_FLOAT_INT = 2**53


class Chunk:
    """A batch of rows, columnar when the producer is schema-shaped.

    Columnar chunks hold one Python list per column (exact original values —
    results stay byte-identical to row execution) plus lazily-built NumPy
    ``float64`` views for numeric columns, which is what the vectorized
    ``Filter``/``Sort`` kernels operate on.  Producers whose rows are not
    uniformly shaped (view reads, joins, system tables) use the row-backed
    form and the consuming operators fall back to per-row evaluation.
    """

    __slots__ = ("names", "columns", "rows", "length", "_numeric_cache")

    def __init__(self, names, columns, rows, length):
        self.names = names  # ordered column names (columnar form only)
        self.columns = columns  # dict name -> list of values
        self.rows = rows  # list of dict rows (row-backed form only)
        self.length = length
        self._numeric_cache: dict[str, np.ndarray | None] = {}

    @classmethod
    def columnar(cls, names: Sequence[str], columns: dict[str, list]) -> "Chunk":
        names = list(names)
        length = len(columns[names[0]]) if names else 0
        return cls(names, columns, None, length)

    @classmethod
    def of_rows(cls, rows: list[dict]) -> "Chunk":
        return cls(None, None, rows, len(rows))

    @property
    def is_columnar(self) -> bool:
        return self.columns is not None

    def to_rows(self) -> list[dict]:
        """Materialize as fresh row dicts (column order preserved)."""
        if self.rows is not None:
            return self.rows
        names = self.names
        columns = [self.columns[name] for name in names]
        return [
            {name: column[i] for name, column in zip(names, columns)}
            for i in range(self.length)
        ]

    def resolve(self, name: str) -> str | None:
        """Case-insensitive column lookup; None when the chunk lacks it."""
        wanted = name.lower()
        if self.columns is not None:
            return next((n for n in self.names if n.lower() == wanted), None)
        if not self.rows:
            return None
        return next((key for key in self.rows[0] if key.lower() == wanted), None)

    def values(self, resolved: str) -> list:
        """The value list for a column name returned by :meth:`resolve`."""
        if self.columns is not None:
            return self.columns[resolved]
        return [row[resolved] for row in self.rows]

    def numeric(self, resolved: str) -> np.ndarray | None:
        """A ``float64`` view of the column, or None when it holds values the
        conversion could change (None, bools, strings, huge ints)."""
        if resolved in self._numeric_cache:
            return self._numeric_cache[resolved]
        view: np.ndarray | None = None
        if self.columns is not None:
            values = self.columns[resolved]
            if all(
                type(value) is float
                or (type(value) is int and -_EXACT_FLOAT_INT <= value <= _EXACT_FLOAT_INT)
                for value in values
            ):
                view = np.array(values, dtype=np.float64)
        self._numeric_cache[resolved] = view
        return view

    def filter(self, mask: np.ndarray) -> "Chunk":
        """A new chunk keeping only the rows where ``mask`` is True."""
        if self.columns is not None:
            kept = {
                name: list(compress(column, mask))
                for name, column in self.columns.items()
            }
            return Chunk.columnar(self.names, kept)
        return Chunk.of_rows(list(compress(self.rows, mask)))

    def head(self, count: int) -> "Chunk":
        """A new chunk with only the first ``count`` rows."""
        if count >= self.length:
            return self
        if self.columns is not None:
            return Chunk.columnar(
                self.names, {name: column[:count] for name, column in self.columns.items()}
            )
        return Chunk.of_rows(self.rows[:count])


def _rows_to_chunks(names: Sequence[str], rows) -> list["Chunk"]:
    """Slice schema-shaped row dicts into columnar chunks of DEFAULT_CHUNK_ROWS."""
    names = list(names)
    chunks: list[Chunk] = []
    columns: list[list] = [[] for _ in names]
    filled = 0
    for row in rows:
        for column, name in zip(columns, names):
            column.append(row[name])
        filled += 1
        if filled == DEFAULT_CHUNK_ROWS:
            chunks.append(Chunk.columnar(names, dict(zip(names, columns))))
            columns = [[] for _ in names]
            filled = 0
    if filled:
        chunks.append(Chunk.columnar(names, dict(zip(names, columns))))
    return chunks


@dataclass
class NodeStats:
    """Per-node execution statistics collected by a :class:`PlanRuntime`."""

    rows: int = 0
    seconds: float = 0.0  # this node's own simulated seconds (children excluded)
    inclusive: float = 0.0  # including children


class PlanRuntime:
    """Everything one execution of a plan needs: parameters, session context,
    and the cost probe that attributes simulated seconds to nodes.

    ``context`` is the per-connection session registry threaded through from
    :class:`repro.connection.Connection`; served-view nodes use it to read on
    that connection's monotonic read-your-writes session.

    ``mode`` selects the execution protocol: ``"batched"`` (columnar chunks,
    the default) or ``"row"`` (tuple-at-a-time with per-tuple interpretation
    charges).  It defaults to the owning database's ``execution_mode``.
    """

    def __init__(self, database, parameters, context, cost_probe, mode: str | None = None) -> None:
        self.database = database
        self.parameters = list(parameters or [])
        self.context = context
        self._cost_probe = cost_probe
        self.node_stats: dict[int, NodeStats] = {}
        self.mode = mode or getattr(database, "execution_mode", "batched")

    @property
    def batched(self) -> bool:
        return self.mode != "row"

    def cost(self) -> float:
        """Current simulated seconds across every ledger this plan touches."""
        return self._cost_probe()

    def charge_interpretation(self, rows: int) -> None:
        """Row-mode only: charge ``row_interpret_cpu`` for ``rows`` tuples.

        This is the per-tuple operator-dispatch overhead the batched protocol
        amortizes away; in batched mode (the default) it is zero, so default
        execution charges exactly what the engine charged before the batched
        protocol existed.
        """
        if self.mode != "row" or rows <= 0:
            return
        cost_model = self.database.pool.cost_model
        self.database.stats.charge(rows * cost_model.row_interpret_cpu, "row_execute")

    def record(self, node: "PlanNode", rows: int, seconds: float, inclusive: float) -> None:
        self.node_stats[id(node)] = NodeStats(rows=rows, seconds=seconds, inclusive=inclusive)

    def stats_of(self, node: "PlanNode") -> NodeStats:
        return self.node_stats.get(id(node), NodeStats())

    def view_reader(self, view):
        """The session (or raw server) to read a *served* view through.

        Returns None when the view is not currently served — the node then
        falls back to the direct maintainer, which keeps cached plans correct
        across SERVE VIEW / STOP SERVING transitions.
        """
        server = view.server
        if server is None:
            return None
        if self.context is not None and hasattr(self.context, "session_for"):
            return self.context.session_for(view.name, server)
        return server


class PlanNode:
    """Base class: children, cost annotations, measured execution."""

    def __init__(self, children=(), estimated_seconds: float | None = None, detail: str = ""):
        self.children: tuple[PlanNode, ...] = tuple(children)
        self.estimated_seconds = estimated_seconds
        self.detail = detail

    # -- execution -----------------------------------------------------------------------

    def execute(self, runtime: PlanRuntime) -> list[dict]:
        """Run this node (and its children), attributing simulated seconds.

        In batched mode the subtree runs chunk-to-chunk and rows materialize
        only here; in row mode the legacy tuple-at-a-time ``_run`` path runs.
        Either way the node's stats are recorded identically.
        """
        start = runtime.cost()
        if runtime.batched:
            chunks = self._run_chunks(runtime)
            count = sum(chunk.length for chunk in chunks)
            rows = [row for chunk in chunks for row in chunk.to_rows()]
        else:
            rows = self._run(runtime)
            count = len(rows)
        self._record(runtime, start, count)
        return rows

    def execute_chunks(self, runtime: PlanRuntime) -> list[Chunk]:
        """Run this node, returning columnar chunks (the batched protocol)."""
        start = runtime.cost()
        if runtime.batched:
            chunks = self._run_chunks(runtime)
        else:
            chunks = [Chunk.of_rows(self._run(runtime))]
        self._record(runtime, start, sum(chunk.length for chunk in chunks))
        return chunks

    def _record(self, runtime: PlanRuntime, start: float, rows: int) -> None:
        inclusive = runtime.cost() - start
        children_inclusive = sum(
            runtime.stats_of(child).inclusive for child in self.children
        )
        runtime.record(self, rows, inclusive - children_inclusive, inclusive)

    def _run(self, runtime: PlanRuntime) -> list[dict]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _run_chunks(self, runtime: PlanRuntime) -> list[Chunk]:
        """Batched implementation; nodes without a native columnar path wrap
        their row output in a single row-backed chunk."""
        rows = self._run(runtime)
        return [Chunk.of_rows(rows)] if rows else []

    # -- explain -------------------------------------------------------------------------

    def label(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "PlanNode"]]:
        """Pre-order traversal yielding ``(depth, node)`` pairs."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


def _render_predicates(predicates) -> str:
    return " AND ".join(predicate.render() for predicate in predicates)


# ---------------------------------------------------------------------------
# Base-table access
# ---------------------------------------------------------------------------


class SeqScan(PlanNode):
    """Sequential heap scan of a base table."""

    def __init__(self, table, **kwargs):
        super().__init__(**kwargs)
        self.table = table

    def label(self) -> str:
        return f"SeqScan({self.table.name})"

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        rows = [dict(row) for row in self.table.scan()]
        runtime.charge_interpretation(len(rows))
        return rows

    def _run_chunks(self, runtime: PlanRuntime) -> list[Chunk]:
        names = self.table.schema.column_names()
        return _rows_to_chunks(names, (row for _, row in self.table.heap.scan()))


class IndexRange(PlanNode):
    """Primary-key index access; the point form is the degenerate ``[k, k]`` range.

    With ``covering`` set the query needs no column but the key itself, so
    the hash probe answers alone and the heap fetch is skipped: the row is
    the key in its stored form (the planner only marks INTEGER and TEXT keys
    covering, whose coercion reproduces the stored value exactly).
    """

    def __init__(self, table, predicate: Predicate, covering: bool = False, **kwargs):
        super().__init__(**kwargs)
        self.table = table
        self.predicate = predicate
        self.covering = covering

    def label(self) -> str:
        suffix = ", covering" if self.covering else ""
        return f"IndexRange({self.table.name}.{self.predicate.render()}{suffix})"

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        key = self.predicate.bind(runtime.parameters)
        if self.covering:
            rows = []
            if key in self.table.primary_index:
                pk = self.table.schema.column(self.table.schema.primary_key)
                rows.append({pk.name: coerce_value(key, pk.data_type, pk.name)})
        else:
            row = self.table.try_get_by_key(key)
            rows = [dict(row)] if row is not None else []
        runtime.charge_interpretation(len(rows))
        return rows


class SecondaryIndexRange(PlanNode):
    """B+-tree probe over a ``CREATE INDEX`` key, plus a heap fetch per match
    (unless the scan is *covering*).

    ``predicates`` are the conjuncts the index serves.  For a single-column
    index they are ``=``, ``<``, ``<=``, ``>``, ``>=`` comparisons on the
    indexed column, tightened to one ``[low, high]`` interval at execution.
    For a composite index they follow the leftmost-prefix rule the planner
    enforced: equality conjuncts pinning the leading key columns plus at most
    one range over the next column, which the index turns into a contiguous
    tuple-key range.

    With ``order`` set the node is *index-ordered*: rows come back sorted by
    ``column`` (the leaf chain is walked forward for ``asc`` and backwards
    along the ``prev_leaf`` chain for ``desc``, so **both** directions
    early-exit) and the planner elided the ``Sort``/``TopK`` above; ``limit``
    then caps how many entries are walked, which is the fused top-k win.

    With ``covering`` set the SELECT's column set is a subset of the index
    key, so rows are rebuilt from the B+-tree keys themselves and the
    per-match heap fetch is skipped entirely — the index-only scan.

    Execution re-resolves the index by name and falls back to a full heap
    scan — sorted when ordered — whenever the index answer could differ from
    scan semantics: the index was dropped (a cached plan raced the DDL), a
    bound binds to NULL (``col = NULL`` matches NULL rows under this
    dialect's ``compare_values``, but NULLs are never indexed), or an ordered
    read finds unindexed NULL rows the ordering must still place.  The
    residual ``Filter`` above re-checks every conjunct either way, so answers
    stay byte-identical to a scan.
    """

    #: Sentinel distinguishing "fall back to a heap scan" from "provably
    #: empty result" (conflicting equality bindings on a prefix column).
    _EMPTY = object()

    def __init__(
        self,
        table,
        index_name: str,
        column: str,
        predicates,
        order: str | None = None,
        limit: int | None = None,
        key_columns: Sequence[str] | None = None,
        covering: bool = False,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.table = table
        self.index_name = index_name
        self.column = column
        self.predicates = tuple(predicates)
        self.order = order
        self.limit = limit
        self.key_columns = tuple(key_columns) if key_columns else (column,)
        self.covering = covering

    def label(self) -> str:
        parts = [_render_predicates(self.predicates) or "unbounded"]
        if self.order is not None:
            parts.append(f"order={self.column} {self.order}")
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        if self.covering:
            parts.append("covering")
        return f"SecondaryIndexRange({self.table.name}.{self.index_name}: {', '.join(parts)})"

    def _bounds(self, parameters):
        """Tighten the bound conjuncts to ``(low, high, incl_low, incl_high)``.

        Returns None when any bound binds to NULL — the index cannot answer
        that (NULLs are unindexed) and the caller must fall back to a scan.
        """
        low = high = None
        include_low = include_high = True
        for predicate in self.predicates:
            value = predicate.bind(parameters)
            if value is None:
                return None
            if predicate.operator in ("=", ">", ">="):
                strict = predicate.operator == ">"
                if low is None or value > low or (value == low and strict):
                    low, include_low = value, not strict
            if predicate.operator in ("=", "<", "<="):
                strict = predicate.operator == "<"
                if high is None or value < high or (value == high and strict):
                    high, include_high = value, not strict
        return low, high, include_low, include_high

    def _composite_probe(self, parameters):
        """Resolve the composite probe: equality prefix values + range bounds.

        Returns None for scan fallback (a NULL binding), :data:`_EMPTY` when
        conflicting equality bindings make the result provably empty, or
        ``(eq_values, low, high, incl_low, incl_high)``.
        """
        by_column: dict[str, list[Predicate]] = {}
        for predicate in self.predicates:
            by_column.setdefault(predicate.column.lower(), []).append(predicate)
        eq_values: list[object] = []
        low = high = None
        include_low = include_high = True
        for key_column in self.key_columns:
            preds = by_column.get(key_column.lower())
            if not preds:
                break
            if all(p.operator == "=" for p in preds) and len(eq_values) < len(self.key_columns) - 1:
                values = [p.bind(parameters) for p in preds]
                if any(value is None for value in values):
                    return None
                first = values[0]
                if any(
                    not (value == first and type(value) is type(first))
                    for value in values[1:]
                ):
                    return self._EMPTY
                eq_values.append(first)
                continue
            # Range column: tighten all its conjuncts to one interval.
            for predicate in preds:
                value = predicate.bind(parameters)
                if value is None:
                    return None
                if predicate.operator in ("=", ">", ">="):
                    strict = predicate.operator == ">"
                    if low is None or value > low or (value == low and strict):
                        low, include_low = value, not strict
                if predicate.operator in ("=", "<", "<="):
                    strict = predicate.operator == "<"
                    if high is None or value < high or (value == high and strict):
                        high, include_high = value, not strict
            break
        return tuple(eq_values), low, high, include_low, include_high

    def _matching_entries(self, index, parameters):
        """The probe's index entries — rids, or ``(key, rid)`` when covering.

        Returns None when the index cannot answer and the caller must fall
        back to a heap scan.  Applies the fused ``limit`` by early-exiting
        the leaf walk in either direction.
        """
        reverse = self.order == "desc"
        if len(self.key_columns) == 1:
            bounds = self._bounds(parameters)
            if bounds is None:
                return None
            low, high, include_low, include_high = bounds
            scan = index.scan(
                low, high, include_low, include_high,
                reverse=reverse, with_keys=self.covering,
            )
        else:
            probe = self._composite_probe(parameters)
            if probe is None:
                return None
            if probe is self._EMPTY:
                return []
            eq_values, low, high, include_low, include_high = probe
            scan = index.scan(
                low, high, include_low, include_high,
                equalities=eq_values, reverse=reverse, with_keys=self.covering,
            )
        if self.limit is not None:
            entries = []
            for entry in scan:
                entries.append(entry)
                if len(entries) >= self.limit:
                    break
            return entries
        return list(scan)

    def _covered_row(self, key: object) -> dict:
        """Rebuild a (partial) row from the tree key — no heap access."""
        if len(self.key_columns) == 1:
            return {self.key_columns[0]: key}
        return dict(zip(self.key_columns, key))

    def _fallback_scan(self) -> list[dict]:
        rows = [dict(row) for row in self.table.scan()]
        if self.order is not None:
            rows.sort(key=_sort_key_for(self.column), reverse=self.order == "desc")
        return rows

    def _resolve_entries(self, runtime: PlanRuntime):
        """Index entries for this execution, or None when falling back."""
        index = self.table.secondary_index(self.index_name)
        if index is None:
            return None
        if not index.covers_all_rows(self.table.row_count()):
            # Some live rows are unindexed (NULL/NaN in a key column).  For a
            # single-column index with bound predicates those rows could never
            # match anyway, but any of these reads must see them:
            if self.order is not None:
                # index order would misplace (drop) rows the ordering must place
                return None
            if len(self.key_columns) > 1:
                # a row NULL in one key column may still match a partial-prefix
                # probe on the others, yet is absent from the tree
                return None
            if not self.predicates:
                # an unbounded read has no predicate to exclude the NULL rows
                return None
        return self._matching_entries(index, runtime.parameters)

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        entries = self._resolve_entries(runtime)
        if entries is None:
            rows = self._fallback_scan()
            runtime.charge_interpretation(len(rows))
            return rows
        if self.covering:
            rows = [self._covered_row(key) for key, _ in entries]
        else:
            rows = [
                dict(self.table.heap.read(rid, sequential=False)) for rid in entries
            ]
        runtime.charge_interpretation(len(rows))
        return rows

    def _run_chunks(self, runtime: PlanRuntime) -> list[Chunk]:
        names = self.table.schema.column_names()
        entries = self._resolve_entries(runtime)
        if entries is None:
            return _rows_to_chunks(names, self._fallback_scan())
        if self.covering:
            if len(self.key_columns) == 1:
                return _rows_to_chunks(
                    self.key_columns, ({self.key_columns[0]: key} for key, _ in entries)
                )
            return _rows_to_chunks(
                self.key_columns, (dict(zip(self.key_columns, key)) for key, _ in entries)
            )
        return _rows_to_chunks(
            names, (self.table.heap.read(rid, sequential=False) for rid in entries)
        )


class LogicalViewScan(PlanNode):
    """Materialization of a logical (callable-backed) view."""

    def __init__(self, name: str, producer, **kwargs):
        super().__init__(**kwargs)
        self.name = name
        self.producer = producer

    def label(self) -> str:
        return f"LogicalViewScan({self.name})"

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        return [dict(row) for row in self.producer()]


class SystemTableScan(PlanNode):
    """Materialization of a virtual ``system.*`` observability table.

    Like :class:`LogicalViewScan`, the producer is a callable returning row
    mappings; unlike every other access path it reads process state rather
    than stored data, so its estimated cost is pinned to zero — observability
    reads must never perturb the cost model they report on.
    """

    def __init__(self, name: str, producer, **kwargs):
        kwargs.setdefault("estimated_seconds", 0.0)
        super().__init__(**kwargs)
        self.name = name
        self.producer = producer

    def label(self) -> str:
        return f"SystemTableScan({self.name})"

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        return [dict(row) for row in self.producer()]


# ---------------------------------------------------------------------------
# Classification-view access
# ---------------------------------------------------------------------------


class _ViewNode(PlanNode):
    """Shared machinery for nodes reading a classification view."""

    def __init__(self, view, **kwargs):
        super().__init__(**kwargs)
        self.view = view

    def _display_row(self, entity_id: object, binary_label: int) -> dict:
        return {
            self.view.definition.view_key: entity_id,
            "class": self.view.from_binary_label(binary_label),
        }

    def _binary_class(self, value: object) -> int | None:
        """Map a user-facing class literal to {-1, +1}; None when unmappable."""
        try:
            return self.view.to_binary_label(value)
        except ConfigurationError:
            return None


class ViewScan(_ViewNode):
    """Full materialization of a classification view (one coherent epoch when served)."""

    served_planned = False

    def label(self) -> str:
        return f"ViewScan({self.view.name})"

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        reader = runtime.view_reader(self.view)
        if reader is None:
            return [dict(row) for row in self.view.rows()]
        return [
            self._display_row(entity_id, label)
            for entity_id, label in reader.contents().items()
        ]


class ServedContentsScan(ViewScan):
    """``ViewScan`` planned against a live server (scatter/gather contents)."""

    served_planned = True

    def label(self) -> str:
        return f"ServedScatterGather({self.view.name}, contents)"


class ViewPointRead(_ViewNode):
    """Single Entity read answered by the view's direct maintainer."""

    def __init__(self, view, predicate: Predicate, **kwargs):
        super().__init__(view, **kwargs)
        self.predicate = predicate

    def label(self) -> str:
        return f"ViewPointRead({self.view.name}.{self.predicate.render()})"

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        key = self.predicate.bind(runtime.parameters)
        reader = runtime.view_reader(self.view)
        try:
            label = reader.label_of(key) if reader is not None else self.view.label_of(key)
        except KeyNotFoundError:
            return []
        return [self._display_row(key, label)]


class ServedPointRead(ViewPointRead):
    """Point read through the server's request batcher (session-consistent).

    With ``predicate=None`` the node is a *probe-side lookup* for
    :class:`HashJoin`: it has no key of its own and is executed via
    :meth:`execute_batch` with the join's probe keys, all driven through the
    read batcher in one coalesced burst.
    """

    is_probe_lookup = False

    def __init__(self, view, predicate: Predicate | None, **kwargs):
        if predicate is None:
            _ViewNode.__init__(self, view, **kwargs)
            self.predicate = None
            self.is_probe_lookup = True
        else:
            super().__init__(view, predicate, **kwargs)

    def label(self) -> str:
        if self.is_probe_lookup:
            return f"ServedPointRead({self.view.name}, batch)"
        return f"ServedPointRead({self.view.name}.{self.predicate.render()})"

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        if self.is_probe_lookup:  # only a HashJoin may drive this node
            raise SQLExecutionError(
                "a probe-side ServedPointRead executes only through its join"
            )
        return super()._run(runtime)

    def execute_batch(self, runtime: PlanRuntime, keys) -> list[dict]:
        """Fetch labels for the join's probe keys; records this node's stats."""
        start = runtime.cost()
        reader = runtime.view_reader(self.view)
        rows: list[dict] = []
        if reader is not None:
            for entity_id, label in reader.labels_of(keys).items():
                rows.append(self._display_row(entity_id, label))
        else:
            for entity_id in keys:
                try:
                    label = self.view.label_of(entity_id)
                except KeyNotFoundError:
                    continue
                rows.append(self._display_row(entity_id, label))
        inclusive = runtime.cost() - start
        runtime.record(self, len(rows), inclusive, inclusive)
        return rows


class ViewMembers(_ViewNode):
    """All Members read on the direct maintainer."""

    served_planned = False

    def __init__(self, view, class_predicate: Predicate, **kwargs):
        super().__init__(view, **kwargs)
        self.class_predicate = class_predicate

    def label(self) -> str:
        return f"ViewMembers({self.view.name}, {self.class_predicate.render()})"

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        label = self._binary_class(self.class_predicate.bind(runtime.parameters))
        if label is None:
            return []
        reader = runtime.view_reader(self.view)
        members = reader.all_members(label) if reader is not None else self.view.members(label)
        return [self._display_row(entity_id, label) for entity_id in members]


class ServedScatterGather(ViewMembers):
    """All Members scatter/gather across the shards (session-consistent)."""

    served_planned = True

    def label(self) -> str:
        return f"ServedScatterGather({self.view.name}, {self.class_predicate.render()})"


class ViewRangeRead(_ViewNode):
    """``class = x AND <key> <op> k`` pushed into the view's maintainer.

    The range over the entity key is resolved at execution time from the
    pushed conjuncts (placeholders included), tightened to a single
    ``[low, high]`` interval, and answered by ``read_range`` — one scan that
    classifies only in-range candidates instead of materializing the view.
    """

    served_planned = False

    def __init__(self, view, class_predicate: Predicate, range_predicates, **kwargs):
        super().__init__(view, **kwargs)
        self.class_predicate = class_predicate
        self.range_predicates = tuple(range_predicates)

    def label(self) -> str:
        rendered = _render_predicates((self.class_predicate, *self.range_predicates))
        return f"ViewRangeRead({self.view.name}, {rendered})"

    def _bounds(self, parameters):
        low = high = None
        include_low = include_high = True
        for predicate in self.range_predicates:
            value = predicate.bind(parameters)
            if predicate.operator in (">", ">="):
                strict = predicate.operator == ">"
                if low is None or value > low or (value == low and strict):
                    low, include_low = value, not strict
            else:
                strict = predicate.operator == "<"
                if high is None or value < high or (value == high and strict):
                    high, include_high = value, not strict
        return low, high, include_low, include_high

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        label = self._binary_class(self.class_predicate.bind(runtime.parameters))
        if label is None:
            return []
        low, high, include_low, include_high = self._bounds(runtime.parameters)
        reader = runtime.view_reader(self.view)
        if reader is not None:
            members = reader.range_scan(
                label, low, high, include_low=include_low, include_high=include_high
            )
        else:
            members = self.view.maintainer.read_range(
                label, low, high, include_low=include_low, include_high=include_high
            )
        return [self._display_row(entity_id, label) for entity_id in members]


class ServedRangeScan(ViewRangeRead):
    """The range pushdown as a shard operator: scatter ``read_range`` to every
    shard under one epoch, gather only the in-class, in-range ids."""

    served_planned = True

    def label(self) -> str:
        rendered = _render_predicates((self.class_predicate, *self.range_predicates))
        return f"ServedRangeScan({self.view.name}, {rendered})"


# ---------------------------------------------------------------------------
# Interior operators
# ---------------------------------------------------------------------------


class Filter(PlanNode):
    """Residual predicate re-check above an access path."""

    def __init__(self, child: PlanNode, predicates, **kwargs):
        super().__init__(children=(child,), **kwargs)
        self.predicates = tuple(predicates)

    def label(self) -> str:
        return f"Filter({_render_predicates(self.predicates)})"

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        rows = self.children[0].execute(runtime)
        runtime.charge_interpretation(len(rows))
        return [row for row in rows if row_matches(row, self.predicates, runtime.parameters)]

    def _run_chunks(self, runtime: PlanRuntime) -> list[Chunk]:
        chunks = self.children[0].execute_chunks(runtime)
        out: list[Chunk] = []
        for chunk in chunks:
            if chunk.length == 0:
                continue
            filtered = self._filter_chunk(chunk, runtime)
            if filtered.length:
                out.append(filtered)
        return out

    def _filter_chunk(self, chunk: Chunk, runtime: PlanRuntime) -> Chunk:
        """Evaluate the conjuncts over whole columns; NumPy masks on numeric
        columns (via :func:`repro.linalg.kernels.compare`), per-value Python
        comparison otherwise.  Semantics match :func:`row_matches` exactly."""
        mask: np.ndarray | None = None
        for predicate in self.predicates:
            resolved = chunk.resolve(predicate.column)
            if resolved is None:
                raise SQLExecutionError(
                    f"unknown column {predicate.column!r} in WHERE clause"
                )
            bound = predicate.bind(runtime.parameters)
            predicate_mask: np.ndarray | None = None
            if type(bound) is float or (
                type(bound) is int and -_EXACT_FLOAT_INT <= bound <= _EXACT_FLOAT_INT
            ):
                numeric = chunk.numeric(resolved)
                if numeric is not None:
                    predicate_mask = kernels.compare(numeric, predicate.operator, bound)
            if predicate_mask is None:
                predicate_mask = np.fromiter(
                    (
                        compare_values(value, predicate.operator, bound)
                        for value in chunk.values(resolved)
                    ),
                    dtype=bool,
                    count=chunk.length,
                )
            mask = predicate_mask if mask is None else mask & predicate_mask
            if not mask.any():
                return chunk.filter(mask)
        return chunk if mask is None else chunk.filter(mask)


def _sort_key_for(column: str):
    def sort_key(row: dict):
        matched = next((key for key in row if key.lower() == column.lower()), None)
        if matched is None:
            raise SQLExecutionError(f"unknown ORDER BY column {column!r}")
        value = row[matched]
        return (value is None, value)

    return sort_key


def _sorted_chunk_rows(
    chunks: list[Chunk], column: str, descending: bool
) -> list[dict]:
    """Rows from ``chunks`` ordered by ``column``, vectorized when possible.

    When every chunk is columnar with a NaN-free numeric sort column, the
    permutation comes from one stable ``np.argsort`` over the concatenated
    column (negated for descending — stability then preserves the original
    order of equal keys, exactly like a stable reverse-order sort).  Anything
    else falls back to the Python sort with the row-mode key (None-first
    ascending, None-last descending).
    """
    arrays: list[np.ndarray] = []
    for chunk in chunks:
        resolved = chunk.resolve(column) if chunk.is_columnar else None
        numeric = chunk.numeric(resolved) if resolved is not None else None
        if numeric is None:
            arrays = []
            break
        arrays.append(numeric)
    if arrays and len(arrays) == len(chunks):
        values = np.concatenate(arrays)
        if not np.isnan(values).any():
            order = np.argsort(-values if descending else values, kind="stable")
            rows = [row for chunk in chunks for row in chunk.to_rows()]
            return [rows[i] for i in order]
    rows = [row for chunk in chunks for row in chunk.to_rows()]
    rows.sort(key=_sort_key_for(column), reverse=descending)
    return rows


class Sort(PlanNode):
    """Full sort for ORDER BY without LIMIT."""

    def __init__(self, child: PlanNode, column: str, descending: bool, **kwargs):
        super().__init__(children=(child,), **kwargs)
        self.column = column
        self.descending = descending

    def label(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"Sort(by={self.column} {direction})"

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        rows = list(self.children[0].execute(runtime))
        runtime.charge_interpretation(len(rows))
        rows.sort(key=_sort_key_for(self.column), reverse=self.descending)
        return rows

    def _run_chunks(self, runtime: PlanRuntime) -> list[Chunk]:
        chunks = self.children[0].execute_chunks(runtime)
        rows = _sorted_chunk_rows(chunks, self.column, self.descending)
        return [Chunk.of_rows(rows)] if rows else []


class TopK(PlanNode):
    """Ranked read: ORDER BY + LIMIT.

    With a child, a stable sort-and-slice over the child's rows.  Without one
    (``view`` set), the *fused* served top-k: per-shard heaps merged across
    the shards by the server, driven through the session.
    """

    def __init__(
        self,
        k: int,
        column: str,
        descending: bool,
        child: PlanNode | None = None,
        view=None,
        **kwargs,
    ):
        super().__init__(children=(child,) if child is not None else (), **kwargs)
        self.k = k
        self.column = column
        self.descending = descending
        self.view = view

    def label(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"TopK(k={self.k}, by={self.column} {direction})"

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        if self.view is not None:
            reader = runtime.view_reader(self.view)
            if reader is None:
                raise SQLExecutionError(
                    f"ORDER BY margin requires view {self.view.name!r} to be served"
                )
            key_column = self.view.definition.view_key
            return [
                {
                    key_column: entity_id,
                    "class": self.view.from_binary_label(1),
                    "margin": margin,
                }
                for entity_id, margin in reader.top_k(self.k, label=1)
            ]
        rows = list(self.children[0].execute(runtime))
        runtime.charge_interpretation(len(rows))
        rows.sort(key=_sort_key_for(self.column), reverse=self.descending)
        return rows[: self.k]

    def _run_chunks(self, runtime: PlanRuntime) -> list[Chunk]:
        if self.view is not None:
            rows = self._run(runtime)
            return [Chunk.of_rows(rows)] if rows else []
        chunks = self.children[0].execute_chunks(runtime)
        rows = _sorted_chunk_rows(chunks, self.column, self.descending)[: self.k]
        return [Chunk.of_rows(rows)] if rows else []


class Limit(PlanNode):
    """LIMIT without ORDER BY."""

    def __init__(self, child: PlanNode, count: int, **kwargs):
        super().__init__(children=(child,), **kwargs)
        self.count = count

    def label(self) -> str:
        return f"Limit({self.count})"

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        rows = self.children[0].execute(runtime)[: self.count]
        runtime.charge_interpretation(len(rows))
        return rows

    def _run_chunks(self, runtime: PlanRuntime) -> list[Chunk]:
        out: list[Chunk] = []
        remaining = self.count
        for chunk in self.children[0].execute_chunks(runtime):
            if remaining <= 0:
                break
            taken = chunk.head(remaining)
            if taken.length:
                out.append(taken)
            remaining -= taken.length
        return out


class Project(PlanNode):
    """Column projection; ``lookups`` are the row keys resolved at plan time."""

    def __init__(self, child: PlanNode, lookups, **kwargs):
        super().__init__(children=(child,), **kwargs)
        self.lookups = tuple(lookups)

    def label(self) -> str:
        return f"Project({', '.join(self.lookups)})"

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        rows = self.children[0].execute(runtime)
        runtime.charge_interpretation(len(rows))
        projected: list[dict] = []
        for row in rows:
            out: dict[str, object] = {}
            for wanted in self.lookups:
                matched = next((key for key in row if key.lower() == wanted.lower()), None)
                if matched is None:
                    raise SQLExecutionError(f"unknown column {wanted!r} in SELECT list")
                out[matched] = row[matched]
            projected.append(out)
        return projected

    def _run_chunks(self, runtime: PlanRuntime) -> list[Chunk]:
        out: list[Chunk] = []
        for chunk in self.children[0].execute_chunks(runtime):
            if chunk.length == 0:
                continue
            if chunk.is_columnar:
                names: list[str] = []
                columns: dict[str, list] = {}
                for wanted in self.lookups:
                    resolved = chunk.resolve(wanted)
                    if resolved is None:
                        raise SQLExecutionError(
                            f"unknown column {wanted!r} in SELECT list"
                        )
                    names.append(resolved)
                    columns[resolved] = chunk.values(resolved)
                out.append(Chunk.columnar(names, columns))
                continue
            projected: list[dict] = []
            for row in chunk.to_rows():
                row_out: dict[str, object] = {}
                for wanted in self.lookups:
                    matched = next(
                        (key for key in row if key.lower() == wanted.lower()), None
                    )
                    if matched is None:
                        raise SQLExecutionError(
                            f"unknown column {wanted!r} in SELECT list"
                        )
                    row_out[matched] = row[matched]
                projected.append(row_out)
            out.append(Chunk.of_rows(projected))
        return out


class Aggregate(PlanNode):
    """``COUNT(*)`` over the child's rows."""

    def __init__(self, child: PlanNode, **kwargs):
        super().__init__(children=(child,), **kwargs)

    def label(self) -> str:
        return "Aggregate(count)"

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        rows = self.children[0].execute(runtime)
        runtime.charge_interpretation(len(rows))
        return [{"count": len(rows)}]

    def _run_chunks(self, runtime: PlanRuntime) -> list[Chunk]:
        # Counting never materializes rows: chunk lengths sum directly.
        total = sum(chunk.length for chunk in self.children[0].execute_chunks(runtime))
        return [Chunk.of_rows([{"count": total}])]


class HashJoin(PlanNode):
    """Inner equi-join: build a hash table on the right side, probe with the left.

    When the right child is a probe-side :class:`ServedPointRead` (a served
    view with no pushable predicate), the left side runs first and its join
    keys drive one batched lookup through the server's read batcher instead of
    materializing the whole view.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_key: str,
        right_key: str,
        right_renames: dict[str, str],
        **kwargs,
    ):
        super().__init__(children=(left, right), **kwargs)
        self.left_key = left_key
        self.right_key = right_key
        self.right_renames = dict(right_renames)

    def label(self) -> str:
        return f"HashJoin({self.left_key} = {self.right_key})"

    @staticmethod
    def _value_of(row: dict, column: str):
        matched = next((key for key in row if key.lower() == column.lower()), None)
        if matched is None:
            raise SQLExecutionError(f"unknown join column {column!r}")
        return row[matched]

    def _run(self, runtime: PlanRuntime) -> list[dict]:
        left, right = self.children
        left_rows = left.execute(runtime)
        right_rows = self._right_rows(runtime, self._probe_keys(left_rows))
        runtime.charge_interpretation(len(left_rows) + len(right_rows))
        return self._join(left_rows, right_rows)

    def _run_chunks(self, runtime: PlanRuntime) -> list[Chunk]:
        left, right = self.children
        left_chunks = left.execute_chunks(runtime)
        bare_left = self.left_key.rpartition(".")[2]
        # Probe keys come straight off the key column arrays, chunk by chunk.
        seen: dict[object, None] = {}
        for chunk in left_chunks:
            if chunk.length == 0:
                continue
            resolved = chunk.resolve(bare_left)
            if resolved is None:
                raise SQLExecutionError(f"unknown join column {bare_left!r}")
            for value in chunk.values(resolved):
                seen.setdefault(value)
        if getattr(right, "is_probe_lookup", False):
            right_rows = right.execute_batch(runtime, list(seen))
        else:
            right_rows = [row for chunk in right.execute_chunks(runtime) for row in chunk.to_rows()]
        left_rows = [row for chunk in left_chunks for row in chunk.to_rows()]
        joined = self._join(left_rows, right_rows)
        return [Chunk.of_rows(joined)] if joined else []

    def _probe_keys(self, left_rows: list[dict]) -> list:
        seen: dict[object, None] = {}
        bare_left = self.left_key.rpartition(".")[2]
        for row in left_rows:
            seen.setdefault(self._value_of(row, bare_left))
        return list(seen)

    def _right_rows(self, runtime: PlanRuntime, probe_keys: list) -> list[dict]:
        right = self.children[1]
        if getattr(right, "is_probe_lookup", False):
            return right.execute_batch(runtime, probe_keys)
        return right.execute(runtime)

    def _join(self, left_rows: list[dict], right_rows: list[dict]) -> list[dict]:
        bare_left = self.left_key.rpartition(".")[2]
        bare_right = self.right_key.rpartition(".")[2]
        build: dict[object, list[dict]] = {}
        for row in right_rows:
            build.setdefault(self._value_of(row, bare_right), []).append(row)
        joined: list[dict] = []
        for left_row in left_rows:
            for right_row in build.get(self._value_of(left_row, bare_left), ()):
                merged = dict(left_row)
                for column, value in right_row.items():
                    merged[self.right_renames.get(column.lower(), column)] = value
                joined.append(merged)
        return joined
