"""Exception hierarchy shared by all of the Hazy reproduction packages.

Every error raised by this library derives from :class:`HazyError`, so callers
can catch one base class when they want to treat "anything Hazy did wrong" as a
single failure mode while still being able to distinguish the database
substrate, the learning substrate, and the view-maintenance core.
"""

from __future__ import annotations


class HazyError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(HazyError):
    """An invalid option or parameter was supplied to a public API."""


# ---------------------------------------------------------------------------
# Database substrate
# ---------------------------------------------------------------------------


class DatabaseError(HazyError):
    """Base class for errors raised by the relational substrate ``repro.db``."""


class SchemaError(DatabaseError):
    """A table/column definition is invalid or a value violates the schema."""


class CatalogError(DatabaseError):
    """A named object (table, view, index, trigger) is missing or duplicated."""


class DuplicateKeyError(DatabaseError):
    """An insert or index update violated a primary-key/unique constraint."""


class KeyNotFoundError(DatabaseError):
    """A lookup by primary key found no matching tuple."""


class PageError(DatabaseError):
    """Low-level page/heap file corruption or capacity violation."""


class PageOverflowError(PageError):
    """An in-place update would lengthen a row past its page's free space."""


class SQLError(DatabaseError):
    """Base class for SQL front-end problems."""


class SQLSyntaxError(SQLError):
    """The SQL text could not be tokenized or parsed.

    Carries machine-readable diagnostics alongside the message: ``position``
    is the 0-based character offset of the offending token in the input and
    ``token`` is its text (both None when the error is not anchored to one
    token, e.g. an unterminated string reported at its opening quote).
    """

    def __init__(
        self, message: str, position: int | None = None, token: str | None = None
    ) -> None:
        super().__init__(message)
        self.position = position
        self.token = token


class SQLExecutionError(SQLError):
    """The SQL statement parsed but could not be executed."""


class SQLPlanningError(SQLExecutionError):
    """The statement parsed but the planner rejected it (unknown column,
    ambiguous reference, unsupported read shape).

    Like :class:`SQLSyntaxError` it carries machine-readable diagnostics:
    ``position`` is the character offset of the offending token in the input
    and ``token`` its text (both None when the error is not anchored to one
    token).
    """

    def __init__(
        self, message: str, position: int | None = None, token: str | None = None
    ) -> None:
        super().__init__(message)
        self.position = position
        self.token = token


# ---------------------------------------------------------------------------
# Learning substrate
# ---------------------------------------------------------------------------


class LearningError(HazyError):
    """Base class for errors raised by ``repro.learn``."""


class NotFittedError(LearningError):
    """A model was used for prediction before it was trained."""


class FeatureError(HazyError):
    """A feature function was misused (e.g. stats not computed first)."""


# ---------------------------------------------------------------------------
# View maintenance core
# ---------------------------------------------------------------------------


class ViewError(HazyError):
    """Base class for errors raised by the classification-view core."""


class ViewDefinitionError(ViewError):
    """A ``CREATE CLASSIFICATION VIEW`` definition is invalid."""


class MaintenanceError(ViewError):
    """The incremental maintenance machinery reached an inconsistent state."""


# ---------------------------------------------------------------------------
# Network serving tier
# ---------------------------------------------------------------------------


class NetworkError(HazyError):
    """Base class for errors raised by the wire front door ``repro.net``."""


class ProtocolError(NetworkError):
    """A wire frame was malformed (bad length prefix, truncated payload,
    not valid JSON, or an unknown operation)."""


class ConnectionClosedError(NetworkError):
    """The peer went away: the socket reported EOF or reset mid-exchange."""


class NetworkTimeoutError(NetworkError):
    """A socket operation exceeded its deadline.

    The connection that raised this is *poisoned* — the response may still
    arrive later and desynchronize the framing — so callers must close it
    (the pool's health check replaces poisoned members automatically).
    """


class PoolExhaustedError(NetworkError):
    """``ConnectionPool.acquire`` found no free connection within its timeout."""


class AdmissionError(NetworkError):
    """Base class for admission-control refusals (server-side backpressure)."""


class AdmissionRejectedError(AdmissionError):
    """The statement's admission lane was at capacity; retry later."""


class AdmissionTimeoutError(AdmissionError):
    """The statement waited in its admission lane past its deadline."""


# ---------------------------------------------------------------------------
# Checkpoint / recovery subsystem
# ---------------------------------------------------------------------------


class SnapshotError(HazyError):
    """Base class for errors raised by the checkpoint/recovery subsystem."""


class SnapshotCorruptionError(SnapshotError):
    """A snapshot file is truncated, has a bad magic, or fails its CRC check."""


class SnapshotVersionError(SnapshotError):
    """A snapshot was written by an incompatible format version."""


class SnapshotMismatchError(SnapshotError):
    """A snapshot does not match the view/server it is being restored into."""
