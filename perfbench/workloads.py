"""The three workloads: what they build, the operations of one round, their checks.

Each workload is a closed loop with one client.  A run is ``EPISODES``
episodes; each sets the workload up from its own share of the seed and runs
whole rounds until its share of the requested seconds has passed.  A round is
a fixed mix of operations whose entities and texts come from the seed, so
every run attempts whole rounds of the same operations.
"""

from __future__ import annotations

import gc
import shutil
import time
from pathlib import Path

import repro
import repro.net
from repro import SGDTrainer
from repro.db.costmodel import CostModel
from repro.exceptions import HazyError

from calibrate import Clock
from corpus import (
    NEGATIVE,
    POSITIVE,
    BenchmarkError,
    Corpus,
    CorpusShape,
    check_labels,
    check_majority,
    round_rng,
)

__all__ = ["WORKLOADS", "Workload", "run_loop"]

VIEW = "labeled_papers"

TABLES = (
    "CREATE TABLE papers (id integer PRIMARY KEY, title text)",
    "CREATE TABLE paper_area (label text PRIMARY KEY)",
    "CREATE TABLE example_papers (ex integer PRIMARY KEY, id integer, label text)",
    f"INSERT INTO paper_area (label) VALUES ('{POSITIVE}'), ('{NEGATIVE}')",
)
CREATE_VIEW = (
    f"CREATE CLASSIFICATION VIEW {VIEW} KEY id "
    "ENTITIES FROM papers KEY id "
    "LABELS FROM paper_area LABEL label "
    "EXAMPLES FROM example_papers KEY id LABEL label "
    "FEATURE FUNCTION tf_bag_of_words USING SVM"
)
INSERT_PAPER = "INSERT INTO papers (id, title) VALUES (?, ?)"
INSERT_EXAMPLE = "INSERT INTO example_papers (ex, id, label) VALUES (?, ?, ?)"
POINT_READ = f"SELECT class FROM {VIEW} WHERE id = ?"
MEMBERS_READ = f"SELECT id FROM {VIEW} WHERE class = 'database'"
ALL_LABELS = f"SELECT id, class FROM {VIEW}"
EDIT = "UPDATE papers SET title = ? WHERE id = ?"

#: Episodes per run.  Each episode sets the workload up afresh from its own
#: share of the seed and runs for an equal share of the run time, so one run
#: averages over several corpora; setup_s is the median of their set-ups.
EPISODES = 8
#: Rows per set-up load step (the kernel is sampled between steps).
LOAD_CHUNK = 250
#: Rounds every run completes, and after which the work counts are compared.
COUNT_ROUNDS = 3

#: Operation kinds whose intervals make up the loop's busy time.  A feedback's
#: read-your-writes read is filed apart from point reads: it comes right after
#: the INSERT's SGD step and reclassification, and with it pooled in, the
#: eager point-read median's spread over 10 seeds ranged from 0.045 to 0.126.
OP_KINDS = ("feedback", "ryw_read", "point_read", "members_read", "edit", "checkpoint")


def trainer_factory(loss: str) -> SGDTrainer:
    """SGD without a bias term: with the default trainer every text entity is labelled negative."""
    return SGDTrainer(loss=loss, fit_bias=False)


class Workload:
    """Set-up, one round of operations and the checks shared by all workloads."""

    name = ""
    shape: CorpusShape
    #: Training examples present before CREATE CLASSIFICATION VIEW, and
    #: feedback INSERTs made after it, during set-up.
    preloaded_examples = 200
    warmup_feedback = 10
    #: Every ``noise_every``-th loop feedback carries the wrong label.
    noise_every = 10
    #: Rounds between sampled checks, and entities per sampled check.
    check_every = 10
    check_sample = 64
    #: Operations of one round by kind (feedback counts its read-your-writes read).
    mix: dict[str, int] = {}
    #: Interval kinds made of thread hand-offs, calibrated by the whole kernel.
    handoff_kinds: tuple[str, ...] = ()

    def __init__(self, seed: str, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.corpus = Corpus(seed, self.shape)
        self.texts = dict(self.corpus.texts)
        #: Loop feedback visits every entity once, in a seeded order, before any twice.
        self.feedback_order = list(self.corpus.ids)
        round_rng(seed, "feedback", 0).shuffle(self.feedback_order)
        self.examples: list[tuple[int, int, str]] = []
        self.conn = None
        self.client = None
        #: Set by a traced run: edits then record heap tuples read per row changed.
        self.update_probe = None

    # -- set-up ---------------------------------------------------------------------------

    def connect(self):
        raise NotImplementedError

    def extra_rows(self) -> list[tuple[int, str]]:
        """Rows loaded before the corpus."""
        return []

    def step(self, clock: Clock, kind: str, action, *args) -> None:
        clock.sample()
        started = time.perf_counter()
        action(*args)
        clock.record(kind, started, time.perf_counter())

    def build(self, clock: Clock, kind: str = "setup") -> None:
        """Build the state: tables, corpus, view, warm-up feedback (timed step by step)."""
        self.step(clock, kind, self._open)
        rows = self.extra_rows() + [(i, self.corpus.texts[i]) for i in self.corpus.ids]
        for start in range(0, len(rows), LOAD_CHUNK):
            self.step(clock, kind, self.conn.executemany, INSERT_PAPER, rows[start : start + LOAD_CHUNK])
        preload = [self._new_example(i) for i in self.corpus.ids[: self.preloaded_examples]]
        self.step(clock, kind, self.conn.executemany, INSERT_EXAMPLE, preload)
        self.step(clock, kind, self.conn.execute, CREATE_VIEW)
        for entity_id in self.corpus.ids[: self.warmup_feedback]:
            self.step(clock, kind, self.conn.execute, INSERT_EXAMPLE, self._new_example(entity_id))
        self.after_build(clock, kind)
        if self.client is None:
            self.client = self.conn

    def _open(self) -> None:
        self.conn = self.connect()
        for sql in TABLES:
            self.conn.execute(sql)

    def after_build(self, clock: Clock, kind: str) -> None:
        """Workload-specific set-up steps after the warm-up feedback."""

    def _new_example(self, entity_id: int, label: str | None = None) -> tuple[int, int, str]:
        if label is None:
            label = self.corpus.label_name(entity_id)
        example = (len(self.examples) + 1, entity_id, label)
        self.examples.append(example)
        return example

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
        self.conn = self.client = None

    # -- one round ------------------------------------------------------------------------

    def round_ops(self, index: int) -> list[tuple]:
        """The round's operations in order: ``(kind, *arguments)`` tuples."""
        rng = round_rng(self.seed, self.name, index)
        ops: list[tuple] = []
        feedback = self.mix.get("feedback", 0)
        for number in range(index * feedback, (index + 1) * feedback):
            entity_id = self.feedback_order[number % len(self.feedback_order)]
            label = self.corpus.truth[entity_id]
            if number % self.noise_every == self.noise_every - 1:
                label = -label
            ops.append(("feedback", entity_id, POSITIVE if label == 1 else NEGATIVE))
        for _ in range(self.mix.get("point_read", 0)):
            ops.append(("point_read", rng.choice(self.corpus.ids)))
        for _ in range(self.mix.get("members_read", 0)):
            ops.append(("members_read",))
        for _ in range(self.mix.get("edit", 0)):
            entity_id = rng.choice(self.corpus.ids)
            text = self.corpus.text(
                rng, self.corpus.truth[entity_id], max_chars=self.corpus.loaded_chars[entity_id]
            )
            ops.append(("edit", entity_id, text))
        rng.shuffle(ops)
        return ops

    def run_round(self, clock: Clock, index: int) -> tuple[int, int]:
        """Run one round; returns (operations attempted, operations failed)."""
        attempted = failed = 0
        for op in self.round_ops(index):
            clock.tick()
            kind = op[0]
            if kind == "feedback":
                self.feedback(clock, op[1], op[2])
                attempted += 2
                continue
            attempted += 1
            if kind == "point_read":
                self.point_read(clock, op[1])
            elif kind == "members_read":
                self.members_read(clock)
            elif kind == "edit":
                failed += 0 if self.edit(clock, op[1], op[2]) else 1
            elif kind == "checkpoint":
                self.checkpoint(clock, index)
        return attempted, failed

    def feedback(self, clock: Clock, entity_id: int, label: str) -> None:
        example = self._new_example(entity_id, label)
        started = time.perf_counter()
        self.client.execute(INSERT_EXAMPLE, example)
        inserted = time.perf_counter()
        self.client.execute(POINT_READ, (entity_id,)).scalar()
        ended = time.perf_counter()
        clock.record("feedback", started, inserted)
        clock.record("ryw_read", inserted, ended)
        clock.record("visible", started, ended)

    def point_read(self, clock: Clock, entity_id: int) -> None:
        started = time.perf_counter()
        self.client.execute(POINT_READ, (entity_id,)).scalar()
        clock.record("point_read", started, time.perf_counter())

    def members_read(self, clock: Clock) -> None:
        started = time.perf_counter()
        self.client.execute(MEMBERS_READ).fetchall()
        clock.record("members_read", started, time.perf_counter())

    def edit(self, clock: Clock, entity_id: int, text: str) -> bool:
        """One text edit; False when the program refused it as the named page-overflow fault."""
        probe = self.update_probe
        before = probe.before() if probe is not None else None
        started = time.perf_counter()
        try:
            changed = self.client.execute(EDIT, (text, entity_id)).rowcount
        except HazyError as error:
            clock.record("edit", started, time.perf_counter())
            if "would overflow" not in str(error):
                raise
            if probe is not None:
                probe.after(before, 0)
            return False
        clock.record("edit", started, time.perf_counter())
        if probe is not None:
            probe.after(before, changed)
        if changed != 1:
            raise BenchmarkError(f"UPDATE of entity {entity_id} changed {changed} rows")
        self.texts[entity_id] = text
        return True

    def checkpoint(self, clock: Clock, index: int) -> None:
        raise NotImplementedError

    # -- checks ---------------------------------------------------------------------------

    def view(self):
        return self.conn.engine.view(VIEW)

    def model_snapshot(self) -> tuple[dict[int, float], float]:
        _, model = self.view().model_snapshot()
        return model.weights.to_dict(), model.bias

    def labels(self, connection, entity_ids=None) -> dict[int, str]:
        """The view's answers through ``connection``: every entity, or the given ones."""
        if entity_ids is None:
            return {row["id"]: row["class"] for row in connection.execute(ALL_LABELS).fetchall()}
        return {i: connection.execute(POINT_READ, (i,)).scalar() for i in entity_ids}

    def check(self, index: int, final: bool = False) -> dict[str, object]:
        """Labels against sign(w.f - b); at the end also the base table and accuracy."""
        if final:
            entity_ids = None
        else:
            rng = round_rng(self.seed, "check", index)
            entity_ids = rng.sample(sorted(self.texts), self.check_sample)
        labels = self.labels(self.conn, entity_ids)
        self.compare_channels(labels, entity_ids)
        weights, bias = self.model_snapshot()
        checked, exempt = check_labels(
            labels, self.texts, weights, bias, self.view().feature_function.vocabulary
        )
        report: dict[str, object] = {"labels_checked": checked, "labels_exempt": exempt}
        if final:
            if len(labels) != len(self.texts):
                raise BenchmarkError(f"view holds {len(labels)} entities, expected {len(self.texts)}")
            table = {row["id"]: row["title"] for row in self.conn.execute("SELECT id, title FROM papers").fetchall()}
            if table != self.texts:
                wrong = sorted(i for i in self.texts if table.get(i) != self.texts[i])[:5]
                raise BenchmarkError(f"base table differs from the replay of edits at ids {wrong}")
            agree, majority = check_majority(labels, self.corpus.truth)
            report.update(agreement=round(agree, 4), majority_rate=round(majority, 4))
        return report

    def compare_channels(self, labels: dict[int, str], entity_ids) -> None:
        """Served workloads compare wire answers with in-process ones."""

    # -- work counts ----------------------------------------------------------------------

    def maintainers(self) -> list:
        return [self.view().maintainer]

    def ledgers(self) -> list:
        """Every simulated-cost ledger the view touches (deduplicated)."""
        seen: dict[int, object] = {id(self.conn.database.pool.stats): self.conn.database.pool.stats}
        for maintainer in self.maintainers():
            seen.setdefault(id(maintainer.store.stats), maintainer.store.stats)
        return list(seen.values())

    def work_counts(self) -> dict[str, float]:
        """Deterministic counters of the in-process work done so far."""
        counts: dict[str, float] = {}
        for maintainer in self.maintainers():
            stats = maintainer.stats
            for key in ("tuples_reclassified", "labels_changed", "reorganizations", "tuples_scanned_for_reads"):
                counts[key] = counts.get(key, 0) + getattr(stats, key)
            counts["maintainer_sim_s"] = counts.get("maintainer_sim_s", 0.0) + stats.total_simulated_seconds()
        counts["ledger_sim_s"] = sum(ledger.simulated_seconds for ledger in self.ledgers())
        return counts


class EagerTextFeedback(Workload):
    """Unserved main-memory view, eager, over text; feedback, edits and reads in-process."""

    name = "eager_text_feedback"
    shape = CorpusShape(
        entities=3000, vocabulary=2000, topic_words=150, words_per_entity=20,
        words_spread=8, topic_share=0.3, positive_share=0.35, first_id=101,
    )
    preloaded_examples = 3000
    mix = {"feedback": 30, "point_read": 10, "members_read": 1, "edit": 1}

    #: The named fault: rows loaded first fill heap page 0, and an edit that
    #: lengthens one of them cannot be applied in place.  Ids and texts are
    #: fixed, so the same edit fails on every seed.
    CANARIES = tuple(range(1, 22))
    CANARY_TEXT = " ".join(f"canary{i:02d}" for i in range(40))
    CANARY_TAIL = " " + " ".join(f"longer{i:02d}" for i in range(50))

    def connect(self):
        return repro.connect(cost_model=CostModel.main_memory(), trainer_factory=trainer_factory)

    def extra_rows(self) -> list[tuple[int, str]]:
        return [(i, self.CANARY_TEXT) for i in self.CANARIES]

    def build(self, clock: Clock, kind: str = "setup") -> None:
        for i in self.CANARIES:
            self.texts[i] = self.CANARY_TEXT
        super().build(clock, kind)

    def round_ops(self, index: int) -> list[tuple]:
        ops = super().round_ops(index)
        canary = self.CANARIES[index % len(self.CANARIES)]
        ops.insert(len(ops) // 2, ("edit", canary, self.CANARY_TEXT + self.CANARY_TAIL))
        return ops


class LazyHybridMembers(Workload):
    """Hybrid store, lazy, buffer pool smaller than the entity file; All-Members heavy."""

    name = "lazy_hybrid_members"
    shape = CorpusShape(
        entities=3000, vocabulary=2000, topic_words=150, words_per_entity=20,
        words_spread=8, topic_share=0.25, positive_share=0.35, first_id=101,
    )
    preloaded_examples = 1000
    mix = {"feedback": 4, "point_read": 24, "members_read": 3}
    #: Buffer-pool pages; the hybrid store's entity file alone is larger.
    POOL_PAGES = 24

    def connect(self):
        return repro.connect(
            architecture="hybrid", approach="lazy",
            buffer_pool_pages=self.POOL_PAGES, trainer_factory=trainer_factory,
        )


class ServedWire(Workload):
    """The eager view behind SERVE VIEW (2 shards, WAL) and a loopback SQLServer."""

    name = "served_wire"
    shape = CorpusShape(
        entities=1500, vocabulary=2000, topic_words=150, words_per_entity=20,
        words_spread=8, topic_share=0.3, positive_share=0.35, first_id=101,
    )
    preloaded_examples = 1500
    mix = {"feedback": 20, "point_read": 400, "members_read": 10}
    #: A wire point read or feedback is mostly socket waits and thread wake-ups;
    #: an All-Members read is mostly scanning and encoding rows, set-up,
    #: checkpoints and restores mostly work in one thread.
    handoff_kinds = ("feedback", "visible", "ryw_read", "point_read")
    check_every = 4
    check_sample = 32
    RECOVERIES = 2

    def __init__(self, seed: str, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.sql_server = None
        self.last_checkpoint = None
        self.checkpoints: list[dict] = []

    def connect(self):
        return repro.connect(cost_model=CostModel.main_memory(), trainer_factory=trainer_factory)

    def _path(self, *parts: str) -> str:
        return str(self.workdir.joinpath(*parts))

    def after_build(self, clock: Clock, kind: str) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        wal = self._path("wal")
        full = self._path("ckpt", "full")
        self.step(clock, kind, self.conn.execute, f"SERVE VIEW {VIEW} WITH (shards = 2, wal = '{wal}')")
        self.step(clock, kind, self.conn.execute, f"CHECKPOINT VIEW {VIEW} TO '{full}'")
        self.last_checkpoint = full
        self.step(clock, kind, self._start_server)

    def _start_server(self) -> None:
        self.sql_server = repro.net.SQLServer(self.conn.engine).start()
        self.client = repro.net.connect(self.sql_server.host, self.sql_server.port)

    def round_ops(self, index: int) -> list[tuple]:
        ops = super().round_ops(index)
        ops.insert(len(ops) // 2, ("checkpoint",))
        return ops

    def checkpoint(self, clock: Clock, index: int) -> None:
        path = self._path("ckpt", f"r{index:05d}")
        started = time.perf_counter()
        row = self.client.execute(
            f"CHECKPOINT VIEW {VIEW} TO '{path}' WITH (incremental = true)"
        ).fetchall()[0]
        clock.record("checkpoint", started, time.perf_counter())
        self.last_checkpoint = path
        self.checkpoints.append(row)

    def compare_channels(self, labels: dict[int, str], entity_ids) -> None:
        wire = self.labels(self.client, entity_ids)
        if wire != labels:
            wrong = sorted(i for i in labels if wire.get(i) != labels[i])[:5]
            raise BenchmarkError(f"wire answers differ from in-process answers at ids {wrong}")
        members_wire = self.client.execute(MEMBERS_READ).fetchall()
        members_here = self.conn.execute(MEMBERS_READ).fetchall()
        if sorted(r["id"] for r in members_wire) != sorted(r["id"] for r in members_here):
            raise BenchmarkError("All-Members answer over the wire differs from in-process")

    def maintainers(self) -> list:
        server = self.view().server
        shards = [shard.maintainer for shard in server.shards.shards] if server is not None else []
        return [self.view().maintainer] + shards

    def close(self) -> None:
        if self.client is not None and self.client is not self.conn:
            self.client.close()
        if self.sql_server is not None:
            self.sql_server.close()
        self.sql_server = None
        super().close()

    def recover(self, clock: Clock) -> dict[str, object]:
        """Crash, then RESTORE from the last checkpoint plus the WAL, ``RECOVERIES`` times.

        The crash state is the disk as it is now: the WAL directory is copied
        before the live server is touched, and each restore gets its own copy.
        """
        reference = self.labels(self.conn)
        weights, bias = self.model_snapshot()
        crash_wal = self.workdir / "crash-wal"
        shutil.copytree(self.workdir / "wal", crash_wal)
        checkpoint = self.last_checkpoint
        self.close()
        gc.collect()
        for attempt in range(self.RECOVERIES):
            conn = self.connect()
            try:
                for sql in TABLES:
                    conn.execute(sql)
                conn.executemany(INSERT_PAPER, sorted(self.texts.items()))
                conn.executemany(INSERT_EXAMPLE, self.examples)
                wal = self.workdir / f"wal-restore-{attempt}"
                shutil.copytree(crash_wal, wal)
                clock.sample()
                started = time.perf_counter()
                conn.execute(f"RESTORE VIEW {VIEW} FROM '{checkpoint}' WITH (wal = '{wal}')")
                clock.record("recovery", started, time.perf_counter())
                restored = {row["id"]: row["class"] for row in conn.execute(ALL_LABELS).fetchall()}
                _, model = conn.engine.view(VIEW).model_snapshot()
                if restored != reference:
                    raise BenchmarkError(f"restore {attempt} answers differ from the pre-crash view")
                if model.weights.to_dict() != weights or model.bias != bias:
                    raise BenchmarkError(f"restore {attempt} model differs from the pre-crash model")
            finally:
                conn.close()
        return {"restores_identical": self.RECOVERIES}


def run_loop(workload: Workload, clock: Clock, seconds: float, rounds: int | None = None,
             checks: bool = True) -> dict:
    """Whole rounds until ``seconds`` have passed (at least ``COUNT_ROUNDS``), or exactly ``rounds``.

    Work counts are taken after ``COUNT_ROUNDS`` rounds; with ``checks`` the
    labels are checked every ``check_every`` rounds.
    """
    attempted = failed = index = 0
    reports: list[dict] = []
    counts = None
    started = time.perf_counter()
    try:
        while True:
            if rounds is not None:
                if index >= rounds:
                    break
            elif index >= COUNT_ROUNDS and time.perf_counter() - started >= seconds:
                break
            done, lost = workload.run_round(clock, index)
            attempted += done
            failed += lost
            index += 1
            if index == COUNT_ROUNDS:
                counts = workload.work_counts()
            if checks and index % workload.check_every == 0:
                clock.sample()
                reports.append(workload.check(index))
    except BenchmarkError as error:
        error.attempted, error.failed = attempted, failed
        raise
    return {
        "rounds": index,
        "attempted": attempted,
        "failed": failed,
        "counts": counts,
        "checks": reports,
    }


WORKLOADS = {
    workload.name: workload for workload in (EagerTextFeedback, LazyHybridMembers, ServedWire)
}
