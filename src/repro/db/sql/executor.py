"""Execution of parsed SQL statements against a Database.

Reads are **plan-first**: every ``SELECT`` — base table, unserved view,
served view, joins — is compiled by the :class:`~repro.db.sql.planner.Planner`
into a :class:`~repro.db.sql.planner.SelectPlan` of typed
:mod:`~repro.db.sql.plan` nodes and executed by walking that tree; the
executor itself contains no statement-shape dispatch.  ``EXPLAIN`` prints the
same plan the executor would run; ``EXPLAIN ANALYZE`` runs it and reports
actual vs estimated simulated seconds per node.

``UPDATE`` and ``DELETE`` are plan-first too: their target rows are found by
the planned ``SELECT <pk> FROM t WHERE <their WHERE>`` (an index-only
primary-key probe, a secondary-index range or a scan, under the same residual
``Filter`` as any read), every target key is collected, and only then are
the writes applied by primary key in heap order.  ``EXPLAIN UPDATE|DELETE``
prints that key-finding plan under the write node.  ``INSERT`` and DDL
execute directly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.db.schema import Column, TableSchema
from repro.db.sql.ast import (
    PLACEHOLDER,
    CheckpointView,
    CreateClassificationView,
    CreateIndex,
    CreateTable,
    Delete,
    DropIndex,
    DropTable,
    Explain,
    Insert,
    RestoreView,
    Select,
    ServeView,
    Statement,
    StopServing,
    Update,
)
from repro.db.sql.planner import Planner, SelectPlan
from repro.db.types import DataType
from repro.exceptions import SQLExecutionError, SQLPlanningError
from repro.obs import current_trace

__all__ = ["ResultSet", "SQLExecutor"]


#: Statement types handled by the serving extension (the Hazy engine).
_SERVING_STATEMENTS = (ServeView, StopServing, CheckpointView, RestoreView)


@dataclass
class ResultSet:
    """The result of executing one SQL statement.

    ``rows`` holds the result rows for SELECT (a single ``{"count": n}`` row
    for COUNT queries); ``rowcount`` is the number of rows affected for DML
    and the number of rows returned for queries.
    """

    rows: list[dict[str, object]] = field(default_factory=list)
    rowcount: int = 0
    statement_type: str = ""

    def scalar(self) -> object:
        """First column of the first row (e.g. the COUNT(*) value)."""
        if not self.rows:
            raise SQLExecutionError("result set is empty")
        first = self.rows[0]
        return next(iter(first.values()))


#: Handler invoked for CREATE CLASSIFICATION VIEW; installed by the Hazy engine.
ClassificationViewHandler = Callable[[CreateClassificationView], None]
#: Handler for SERVE VIEW / STOP SERVING / CHECKPOINT VIEW / RESTORE VIEW.
ServingStatementHandler = Callable[[Statement], "ResultSet"]


class SQLExecutor:
    """Evaluates AST statements against a :class:`~repro.db.database.Database`."""

    def __init__(self, database) -> None:  # Database; untyped to avoid an import cycle
        self._database = database
        self._planner = Planner(database)
        self._classification_view_handler: ClassificationViewHandler | None = None
        self._serving_handler: ServingStatementHandler | None = None

    # -- extension hooks (the Hazy engine registers these) -----------------------------

    def set_classification_view_handler(self, handler: ClassificationViewHandler) -> None:
        """Install the callback that materializes ``CREATE CLASSIFICATION VIEW``."""
        self._classification_view_handler = handler

    def set_serving_handler(self, handler: ServingStatementHandler) -> None:
        """Install the callback executing the serving lifecycle statements."""
        self._serving_handler = handler

    # -- planning ------------------------------------------------------------------------

    def plan_select(self, statement: Select) -> SelectPlan:
        """Compile one SELECT into its plan."""
        return self._planner.plan_select(statement)

    def plan(self, statement: Statement) -> SelectPlan | None:
        """The cacheable plan of one statement (the prepared-statement cache hook).

        SELECTs compile to their read plan; UPDATE and DELETE to the plan
        that finds their target keys; ``EXPLAIN`` to its inner statement's
        plan.  Every other statement runs unplanned (None).
        """
        if isinstance(statement, Explain):
            statement = statement.statement
        if isinstance(statement, Select):
            return self.plan_select(statement)
        if isinstance(statement, (Update, Delete)):
            return self._planner.plan_dml(statement)
        return None

    def _current_plan(self, statement: Statement, plan: SelectPlan | None) -> SelectPlan:
        """``plan`` while the catalog it was built against is unchanged, else
        a fresh one: DDL on *any* connection sharing this database bumps the
        version, and a stale plan holding a dropped or replaced table, view
        or index must be rebuilt, not walked."""
        if plan is None or plan.catalog_version != self._database.catalog.version:
            plan = self.plan(statement)
        return plan

    # -- entry point ---------------------------------------------------------------------

    def execute(
        self,
        statement: Statement,
        parameters: tuple | list | None = None,
        context: object = None,
        plan: SelectPlan | None = None,
    ) -> ResultSet:
        """Execute one parsed statement, binding ``?`` placeholders from ``parameters``.

        ``context`` is an opaque per-connection object (see
        :class:`repro.connection.Connection`) threaded through to served-view
        plan nodes so that reads against served views get that connection's
        monotonic read-your-writes session.  ``plan`` short-circuits planning
        for SELECT, UPDATE, DELETE and their EXPLAIN (the prepared-statement
        cache passes the plan :meth:`plan` built; parameters are re-bound
        without re-planning, under the catalog-version guard).
        """
        parameters = list(parameters or [])
        if isinstance(statement, CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, DropTable):
            return self._execute_drop_table(statement)
        if isinstance(statement, CreateIndex):
            return self._execute_create_index(statement)
        if isinstance(statement, DropIndex):
            return self._execute_drop_index(statement)
        if isinstance(statement, CreateClassificationView):
            return self._execute_create_classification_view(statement)
        if isinstance(statement, Insert):
            return self._execute_insert(statement, parameters)
        if isinstance(statement, Select):
            return self._execute_select(statement, parameters, context, plan)
        if isinstance(statement, Update):
            return self._execute_update(statement, parameters, plan)
        if isinstance(statement, Delete):
            return self._execute_delete(statement, parameters, plan)
        if isinstance(statement, _SERVING_STATEMENTS):
            return self._execute_serving_statement(statement)
        if isinstance(statement, Explain):
            return self._execute_explain(statement, parameters, context, plan)
        raise SQLExecutionError(f"unsupported statement type {type(statement).__name__}")

    def execute_many(
        self,
        statement: Statement,
        parameter_rows,
        context: object = None,
        plan: SelectPlan | None = None,
    ) -> int:
        """Execute one statement per parameter row; returns the total rowcount.

        The shared prepared-execution loop behind ``Database.executemany`` and
        ``Connection.executemany``: the statement is parsed and planned once
        (SELECT, UPDATE, DELETE) — each iteration only re-binds ``?``.
        """
        if plan is None:
            plan = self.plan(statement)
        total = 0
        for parameters in parameter_rows:
            total += self.execute(statement, parameters, context, plan=plan).rowcount
        return total

    # -- DDL ----------------------------------------------------------------------------

    def _execute_create_table(self, statement: CreateTable) -> ResultSet:
        columns = [
            Column(defn.name, DataType.from_name(defn.type_name), nullable=defn.nullable)
            for defn in statement.columns
        ]
        primary_keys = [defn.name for defn in statement.columns if defn.primary_key]
        if len(primary_keys) > 1:
            raise SQLExecutionError("composite primary keys are not supported")
        schema = TableSchema(
            statement.table, columns, primary_key=primary_keys[0] if primary_keys else None
        )
        self._database.create_table(schema)
        return ResultSet(statement_type="CREATE TABLE")

    def _execute_drop_table(self, statement: DropTable) -> ResultSet:
        self._database.drop_table(statement.table)
        return ResultSet(statement_type="DROP TABLE")

    def _execute_create_index(self, statement: CreateIndex) -> ResultSet:
        """``CREATE INDEX``: build + backfill the tree, then bump the catalog
        version so every cached plan re-costs its access paths."""
        catalog = self._database.catalog
        if catalog.has_index(statement.name):
            raise SQLExecutionError(f"index {statement.name!r} already exists")
        if catalog.object_kind(statement.table) != "table":
            raise SQLPlanningError(
                f"CREATE INDEX target {statement.table!r} is not a base table",
                position=statement.table_position,
                token=statement.table,
            )
        table = catalog.table(statement.table)
        positions = statement.column_positions or (None,) * len(statement.columns)
        seen: set[str] = set()
        for column, position in zip(statement.columns, positions):
            if not table.schema.has_column(column):
                raise SQLPlanningError(
                    f"table {table.name!r} has no column {column!r}",
                    position=position,
                    token=column,
                )
            if column.lower() in seen:
                raise SQLPlanningError(
                    f"index {statement.name!r} lists column {column!r} more than once",
                    position=position,
                    token=column,
                )
            seen.add(column.lower())
        table.create_secondary_index(statement.name, statement.columns)
        catalog.register_index(statement.name, table.name)
        return ResultSet(statement_type="CREATE INDEX")

    def _execute_drop_index(self, statement: DropIndex) -> ResultSet:
        """``DROP INDEX``: detach the tree (maintenance stops) and bump the
        catalog version so cached ``SecondaryIndexRange`` plans re-plan rather
        than read through a no-longer-maintained index."""
        table = self._database.catalog.index_table(statement.name)
        table.drop_secondary_index(statement.name)
        self._database.catalog.unregister_index(statement.name)
        return ResultSet(statement_type="DROP INDEX")

    def _execute_create_classification_view(
        self, statement: CreateClassificationView
    ) -> ResultSet:
        if self._classification_view_handler is None:
            raise SQLExecutionError(
                "CREATE CLASSIFICATION VIEW requires a Hazy engine; "
                "construct repro.core.HazyEngine over this database first"
            )
        self._classification_view_handler(statement)
        return ResultSet(statement_type="CREATE CLASSIFICATION VIEW")

    # -- DML ----------------------------------------------------------------------------

    def _execute_insert(self, statement: Insert, parameters: list) -> ResultSet:
        table = self._database.catalog.table(statement.table)
        columns = list(statement.columns) or table.schema.column_names()
        inserted = 0
        cursor = 0
        for literal_row in statement.rows:
            if len(literal_row) != len(columns):
                raise SQLExecutionError(
                    f"INSERT expects {len(columns)} values per row, got {len(literal_row)}"
                )
            bound_row: dict[str, object] = {}
            for column, literal in zip(columns, literal_row):
                value = literal
                if literal is PLACEHOLDER:
                    if cursor >= len(parameters):
                        raise SQLExecutionError("not enough parameters for placeholders")
                    value = parameters[cursor]
                    cursor += 1
                bound_row[column] = value
            table.insert(bound_row)
            inserted += 1
        return ResultSet(rowcount=inserted, statement_type="INSERT")

    # -- SELECT (plan-first) -------------------------------------------------------------

    def _execute_select(
        self,
        statement: Select,
        parameters: list,
        context: object = None,
        plan: SelectPlan | None = None,
    ) -> ResultSet:
        rows = self._run_plan(statement, parameters, context, plan)
        return ResultSet(rows=rows, rowcount=len(rows), statement_type="SELECT")

    def _run_plan(
        self,
        statement: Statement,
        parameters: list,
        context: object,
        plan: SelectPlan | None,
    ) -> list[dict]:
        """Walk the statement's current plan and return its rows."""
        plan = self._current_plan(statement, plan)
        rows, runtime = plan.run(self._database, parameters, context)
        trace = current_trace()
        if trace is not None:
            # Mirror the executed tree's per-node actuals as spans; the same
            # numbers EXPLAIN ANALYZE would report for this statement.
            trace.add_plan_tree(plan, runtime, trace.cross_thread_parent_id)
        return rows

    def _execute_update(
        self, statement: Update, parameters: list, plan: SelectPlan | None
    ) -> ResultSet:
        # ``?`` binds positionally: SET placeholders first, the WHERE's after.
        set_count = sum(1 for _, value in statement.assignments if value is PLACEHOLDER)
        if set_count > len(parameters):
            raise SQLExecutionError("not enough parameters for placeholders")
        bound = iter(parameters[:set_count])
        changes = {
            column: next(bound) if value is PLACEHOLDER else value
            for column, value in statement.assignments
        }
        table, keys = self._target_keys(statement, parameters[set_count:], plan)
        for key in keys:
            table.update_by_key(key, changes)
        return ResultSet(rowcount=len(keys), statement_type="UPDATE")

    def _execute_delete(
        self, statement: Delete, parameters: list, plan: SelectPlan | None
    ) -> ResultSet:
        table, keys = self._target_keys(statement, parameters, plan)
        for key in keys:
            table.delete_by_key(key)
        return ResultSet(rowcount=len(keys), statement_type="DELETE")

    def _target_keys(
        self, statement: Update | Delete, parameters: list, plan: SelectPlan | None
    ) -> tuple[object, list]:
        """Run the statement's key-finding plan; every target key, in heap order.

        All keys are collected before the first write, so a write can never
        move a row into (or out of) the rows still being searched.  Writes
        then apply in physical order whichever access path found them, so
        trigger firings and row relocations are the same as under a scan.
        """
        rows = self._run_plan(statement, parameters, None, plan)
        table = self._database.catalog.table(statement.table)
        key = table.schema.primary_key
        keys = [row[key] for row in rows]
        keys.sort(key=table.primary_index.get)
        return table, keys

    # -- serving lifecycle ---------------------------------------------------------------

    def _execute_serving_statement(self, statement: Statement) -> ResultSet:
        if self._serving_handler is None:
            raise SQLExecutionError(
                f"{type(statement).__name__} requires a Hazy engine; "
                "construct repro.core.HazyEngine over this database (or use "
                "repro.connect()) first"
            )
        return self._serving_handler(statement)

    # -- EXPLAIN [ANALYZE] ---------------------------------------------------------------

    def _execute_explain(
        self,
        statement: Explain,
        parameters: list,
        context: object = None,
        plan: SelectPlan | None = None,
    ) -> ResultSet:
        """Print the plan (and, under ANALYZE, execute it and report actuals).

        ``EXPLAIN UPDATE|DELETE`` prints the write node with the plan that
        finds its target keys indented under it, and executes nothing.  A
        cached ``plan`` (the connection layer prepares ``EXPLAIN <stmt>`` like
        the statement itself) is honoured under the same catalog-version
        guard as execution: DDL anywhere — including ``CREATE INDEX``/``DROP INDEX``,
        which change access paths without changing the namespace — must make
        EXPLAIN report the re-planned tree, never a stale one.
        """
        inner = statement.statement
        if isinstance(inner, Select):
            plan = self._current_plan(inner, plan)
            if statement.analyze:
                before = self._database.stats.snapshot()
                _, runtime = plan.run(self._database, parameters, context)
                io_delta = self._database.stats.diff(before)
                rows = plan.explain_rows(runtime, io_delta)
                return ResultSet(
                    rows=rows, rowcount=len(rows), statement_type="EXPLAIN ANALYZE"
                )
            rows = plan.explain_rows()
            return ResultSet(rows=rows, rowcount=len(rows), statement_type="EXPLAIN")
        if statement.analyze:
            # Pricing a write needs its trigger-fired view maintenance, which
            # no per-statement ledger attributes to it yet.
            raise SQLExecutionError(
                "EXPLAIN ANALYZE supports SELECT statements only "
                "(executing DML under EXPLAIN would mutate the database)"
            )
        if isinstance(inner, (Insert, Update, Delete)):
            row = {
                "node": f"{type(inner).__name__.upper()}({inner.table})",
                "estimated_seconds": None,
                "detail": "DML statements run triggers; cost depends on attached views",
            }
        else:
            target = getattr(
                inner, "table", getattr(inner, "view", getattr(inner, "name", None))
            )
            row = {
                "node": f"{type(inner).__name__}({target})",
                "estimated_seconds": None,
                "detail": "no cost estimate for this statement type",
            }
        rows = [row]
        if isinstance(inner, (Update, Delete)):
            # The plan that finds the write's target keys, under the write node.
            rows += [
                {**key_row, "node": "  " + key_row["node"]}
                for key_row in self._current_plan(inner, plan).explain_rows()
            ]
        return ResultSet(rows=rows, rowcount=len(rows), statement_type="EXPLAIN")
