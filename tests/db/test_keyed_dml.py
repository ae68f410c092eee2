"""Keyed DML: UPDATE/DELETE find their rows through the planner's access paths.

The row-finding half of every UPDATE/DELETE is the planned
``SELECT <pk> FROM t WHERE <its WHERE>``; these tests pin what that buys
(a primary-key write reads one heap tuple instead of the whole heap), what
EXPLAIN shows for it, how ``?`` parameters bind, that the prepared-statement
cache holds DML plans under the catalog-version guard, and that an UPDATE
which outgrows its heap page relocates the row instead of failing.
"""

from __future__ import annotations

import pytest

import repro
from repro.db.costmodel import CostModel
from repro.db.database import Database
from repro.db.sql.parser import parse
from repro.db.sql.planner import Planner
from repro.db.triggers import Trigger, TriggerEvent
from repro.exceptions import (
    CatalogError,
    PageError,
    SQLExecutionError,
    SQLPlanningError,
)


def keyed_db(rows: int, cost_model: CostModel | None = None) -> Database:
    db = Database(cost_model=cost_model or CostModel())
    db.execute("CREATE TABLE t (id integer PRIMARY KEY, a integer, tag text)")
    db.executemany(
        "INSERT INTO t (id, a, tag) VALUES (?, ?, ?)",
        [(i, i % 50, "x") for i in range(rows)],
    )
    return db


def heap_state(table) -> list[tuple]:
    """The table's physical contents: every live (rid, row) in heap order."""
    return [(rid, repr(row)) for rid, row in table.heap.scan()]


def node_labels(rows: list[dict]) -> list[str]:
    return [row["node"] for row in rows]


def run_with_seqscan(db: Database, sql: str, parameters=()) -> object:
    """Execute DML through a forced-SeqScan key-finding plan."""
    statement = parse(sql)
    plan = Planner(db, use_index_paths=False).plan_dml(statement)
    return db.executor.execute(statement, parameters, plan=plan)


class TestKeyedDMLCost:
    """Deterministic ledger numbers: no wall clock, no flakiness."""

    ROWS = 5000

    @pytest.mark.parametrize(
        ("sql", "parameters"),
        [
            ("UPDATE t SET a = ? WHERE id = ?", (7, 1234)),
            ("DELETE FROM t WHERE id = ?", (1234,)),
        ],
        ids=["update", "delete"],
    )
    def test_primary_key_write_reads_one_tuple(self, sql, parameters):
        indexed, scanned = keyed_db(self.ROWS), keyed_db(self.ROWS)
        costs = {}
        for name, db in (("indexed", indexed), ("scanned", scanned)):
            stats = db.pool.stats
            reads_before, seconds_before = stats.tuples_read, stats.simulated_seconds
            if name == "indexed":
                result = db.execute(sql, parameters)
            else:
                result = run_with_seqscan(db, sql, parameters)
            assert result.rowcount == 1
            costs[name] = (
                stats.tuples_read - reads_before,
                stats.simulated_seconds - seconds_before,
            )
        assert costs["indexed"][0] == 1
        assert costs["scanned"][0] == self.ROWS + 1
        assert costs["scanned"][1] >= 20 * costs["indexed"][1]
        # Same write, same physical result, whichever path found the row.
        assert heap_state(indexed.table("t")) == heap_state(scanned.table("t"))

    def test_secondary_index_serves_dml(self):
        db = keyed_db(self.ROWS, CostModel.main_memory())
        db.execute("CREATE INDEX idx_a ON t (a)")
        stats = db.pool.stats
        before = stats.tuples_read
        assert db.execute("UPDATE t SET tag = ? WHERE a = ?", ("y", 3)).rowcount == 100
        # 100 heap fetches by the probe + 100 reads by the writes, not 5000.
        assert stats.tuples_read - before == 200
        assert db.execute("SELECT COUNT(*) FROM t WHERE tag = 'y'").scalar() == 100


class TestExplainDML:
    def test_golden_primary_key_update(self):
        db = keyed_db(50)
        before = heap_state(db.table("t"))
        rows = db.execute("EXPLAIN UPDATE t SET a = ? WHERE id = ?").rows
        assert node_labels(rows) == [
            "UPDATE(t)",
            "  Project(id)",
            "    Filter(id = ?)",
            "      IndexRange(t.id = ?, covering)",
        ]
        assert rows[0]["estimated_seconds"] is None
        assert rows[-1]["estimated_seconds"] == db.cost_model.statement_overhead
        assert heap_state(db.table("t")) == before

    def test_delete_through_secondary_index_and_scan(self):
        db = keyed_db(500, CostModel.main_memory())
        db.execute("CREATE INDEX idx_a ON t (a)")
        indexed = node_labels(db.execute("EXPLAIN DELETE FROM t WHERE a = 4").rows)
        assert indexed[0] == "DELETE(t)"
        assert indexed[-1] == "      SecondaryIndexRange(t.idx_a: a = 4)"
        scanned = node_labels(db.execute("EXPLAIN DELETE FROM t WHERE tag = 'x'").rows)
        assert scanned[-1] == "      SeqScan(t)"
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 500

    def test_explain_analyze_dml_is_rejected_and_changes_nothing(self):
        db = keyed_db(20)
        before = heap_state(db.table("t"))
        for sql in ("EXPLAIN ANALYZE UPDATE t SET a = 1 WHERE id = 3",
                    "EXPLAIN ANALYZE DELETE FROM t WHERE id = 3"):
            with pytest.raises(SQLExecutionError, match="EXPLAIN ANALYZE supports SELECT"):
                db.execute(sql)
        assert heap_state(db.table("t")) == before


class TestBindingAndErrors:
    def test_set_placeholders_bind_before_where_placeholders(self):
        db = keyed_db(100)
        changed = db.execute(
            "UPDATE t SET tag = ?, a = ? WHERE a = ? AND id >= ?", ("z", 99, 5, 50)
        ).rowcount
        assert changed == 1  # only id 55 has a = 5 and id >= 50
        assert db.execute("SELECT * FROM t WHERE id = 55").rows == [
            {"id": 55, "a": 99, "tag": "z"}
        ]
        assert db.execute("SELECT COUNT(*) FROM t WHERE a = 5").scalar() == 1

    def test_missing_parameters_raise(self):
        db = keyed_db(10)
        with pytest.raises(SQLExecutionError, match="not enough parameters"):
            db.execute("UPDATE t SET a = ?, tag = ? WHERE id = ?", (1,))
        with pytest.raises(SQLExecutionError, match="not enough parameters"):
            db.execute("UPDATE t SET a = ? WHERE id = ?", (1,))
        # Checked up front, not when a row first reaches the predicate.
        db.execute("DELETE FROM t")
        for sql in ("DELETE FROM t WHERE a = ?", "SELECT * FROM t WHERE a = ?"):
            with pytest.raises(SQLExecutionError, match="not enough parameters"):
                db.execute(sql)

    def test_unknown_where_column_is_a_planning_error(self):
        db = keyed_db(10)
        with pytest.raises(SQLPlanningError) as caught:
            db.execute("DELETE FROM t WHERE nope = 1")
        assert caught.value.token == "nope"
        assert caught.value.position == len("DELETE FROM t WHERE ")

    def test_table_errors(self):
        db = keyed_db(3)
        db.execute("CREATE TABLE nokey (a integer)")
        with pytest.raises(SQLExecutionError, match="UPDATE requires a primary key"):
            db.execute("UPDATE nokey SET a = 1")
        with pytest.raises(SQLExecutionError, match="DELETE requires a primary key"):
            db.execute("DELETE FROM nokey")
        with pytest.raises(CatalogError):
            db.execute("DELETE FROM missing WHERE id = 1")

    def test_non_integer_key_probe_matches_like_a_scan(self):
        db = keyed_db(10)
        assert db.execute("UPDATE t SET a = 0 WHERE id = ?", (4.0,)).rowcount == 1
        assert db.execute("UPDATE t SET a = 0 WHERE id = ?", (4.5,)).rowcount == 0
        assert db.execute("DELETE FROM t WHERE id = ?", ("4",)).rowcount == 0
        assert db.execute("DELETE FROM t WHERE id = ?", (True,)).rowcount == 1
        assert db.execute("SELECT id FROM t WHERE id = ?", (4.0,)).rows == [{"id": 4}]
        assert db.execute("SELECT id FROM t WHERE id = 1").rows == []


class TestPreparedDML:
    def test_executemany_reuses_one_plan(self, monkeypatch):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (id integer PRIMARY KEY, a integer)")
        conn.executemany("INSERT INTO t (id, a) VALUES (?, ?)", [(i, 0) for i in range(30)])
        calls = []
        original = Planner.plan_dml

        def counting(self, statement):
            calls.append(statement)
            return original(self, statement)

        monkeypatch.setattr(Planner, "plan_dml", counting)
        conn.executemany("UPDATE t SET a = ? WHERE id = ?", [(i, i) for i in range(30)])
        conn.execute("UPDATE t SET a = ? WHERE id = ?", (5, 5))
        assert len(calls) == 1
        rows = conn.execute("SELECT id, a FROM t").fetchall()
        assert all(row["a"] == row["id"] for row in rows) and len(rows) == 30
        conn.close()

    def test_cached_dml_plan_replans_after_index_ddl_elsewhere(self):
        owner = repro.connect(cost_model=CostModel.main_memory())
        owner.execute("CREATE TABLE t (id integer PRIMARY KEY, a integer, tag text)")
        owner.executemany(
            "INSERT INTO t (id, a, tag) VALUES (?, ?, ?)",
            [(i, i % 40, "x") for i in range(400)],
        )
        other = repro.connect(engine=owner.engine)
        sql = "UPDATE t SET tag = ? WHERE a = ?"
        explain = "EXPLAIN " + sql
        assert owner.execute(explain).fetchall()[-1]["node"].strip() == "SeqScan(t)"
        assert owner.execute(sql, ("y", 1)).rowcount == 10
        other.execute("CREATE INDEX idx_a ON t (a)")
        assert owner.execute(explain).fetchall()[-1]["node"].strip().startswith(
            "SecondaryIndexRange(t.idx_a"
        )
        assert owner.execute(sql, ("y", 2)).rowcount == 10
        other.execute("DROP INDEX idx_a")
        # The cached index plan must not probe a dropped (unmaintained) index.
        assert owner.execute(sql, ("y", 3)).rowcount == 10
        assert owner.execute("SELECT COUNT(*) FROM t WHERE tag = 'y'").scalar() == 30
        other.close()
        owner.close()


class TestRowRelocation:
    """An UPDATE that lengthens a row on a full page moves the row."""

    LONG = "relocated-" + "y" * 200

    def full_first_page(self):
        db = Database(cost_model=CostModel.main_memory())
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, a integer, tag text)")
        db.execute("CREATE INDEX idx_tag ON t (tag)")
        db.execute("CREATE INDEX idx_a_tag ON t (a, tag)")
        table = db.table("t")
        row_id = 0
        while table.page_count() < 2:
            db.execute(
                "INSERT INTO t (id, a, tag) VALUES (?, ?, ?)", (row_id, row_id % 3, f"t{row_id}")
            )
            row_id += 1
        return db, table, row_id

    def test_lengthened_row_relocates_and_every_path_agrees(self):
        db, table, count = self.full_first_page()
        fired = []
        table.add_trigger(
            Trigger("watch", TriggerEvent.AFTER_UPDATE, lambda name, new, old: fired.append(new))
        )
        old_rid = table.primary_index.get(3)
        assert old_rid.page_id == table.heap.page_ids()[0]
        assert db.execute("UPDATE t SET tag = ? WHERE id = ?", (self.LONG, 3)).rowcount == 1
        new_rid = table.primary_index.get(3)
        assert new_rid != old_rid and new_rid.page_id != old_rid.page_id
        assert [row["id"] for row in fired] == [3]
        expected = {"id": 3, "a": 0, "tag": self.LONG}
        # Point read, secondary-index probes and the full scan all agree.
        assert db.execute("SELECT * FROM t WHERE id = 3").rows == [expected]
        probe = "SELECT * FROM t WHERE tag = ?"
        assert "SecondaryIndexRange" in db.execute("EXPLAIN " + probe).rows[-1]["node"]
        assert db.execute(probe, (self.LONG,)).rows == [expected]
        assert db.execute("SELECT * FROM t WHERE a = 0 AND tag = ?", (self.LONG,)).rows == [
            expected
        ]
        scanned = db.execute("SELECT * FROM t").rows
        assert len(scanned) == count == table.row_count()
        assert [row for row in scanned if row["id"] == 3] == [expected]
        assert sorted(row["tag"] for row in scanned) == sorted(
            [f"t{i}" for i in range(count) if i != 3] + [self.LONG]
        )

    def test_relocation_with_a_key_change(self):
        db, table, count = self.full_first_page()
        db.execute("UPDATE t SET id = ?, tag = ? WHERE id = ?", (10_000, self.LONG, 5))
        assert db.execute("SELECT * FROM t WHERE id = 5").rows == []
        assert db.execute("SELECT * FROM t WHERE id = 10000").rows == [
            {"id": 10_000, "a": 2, "tag": self.LONG}
        ]
        assert db.execute("SELECT id FROM t WHERE tag = ?", (self.LONG,)).rows == [
            {"id": 10_000}
        ]
        assert table.row_count() == count

    def test_row_too_large_for_any_page_changes_nothing(self):
        db, table, _ = self.full_first_page()
        before = heap_state(table)
        with pytest.raises(PageError):
            db.execute("UPDATE t SET tag = ? WHERE id = 3", ("z" * 9000,))
        assert heap_state(table) == before
        assert db.execute("SELECT tag FROM t WHERE id = 3").rows == [{"tag": "t3"}]
