"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ParseError(ReproError):
    """Raised when RDF, SPARQL or SQL input text cannot be parsed.

    Attributes
    ----------
    message:
        Human readable description of the problem.
    line:
        1-based line number of the offending input, when known.
    column:
        1-based column number of the offending input, when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" (line {line}"
            if column is not None:
                location += f", column {column}"
            location += ")"
        super().__init__(f"{message}{location}")


class DictionaryError(ReproError):
    """Raised when an OID or term cannot be resolved by the dictionary."""


class StorageError(ReproError):
    """Raised for invalid operations on triple / clustered storage."""


class PendingUpdatesError(StorageError):
    """Raised when an operation would silently drop uncompacted writes.

    ``RDFStore.load()`` and ``RDFStore.cluster()`` re-encode OIDs; doing
    either while the delta overlay holds acknowledged writes would lose
    them.  Call ``compact()`` (or ``checkpoint()``) first.
    """


class PersistenceError(StorageError):
    """Raised when an on-disk snapshot or WAL is missing, corrupt or
    incompatible (bad magic, unsupported format version, checksum
    mismatch, or a target directory that is not a repro database)."""


class SchemaError(ReproError):
    """Raised when schema discovery or the relational catalog is misused."""


class PlanError(ReproError):
    """Raised when a logical query cannot be lowered to a physical plan."""


class ExecutionError(ReproError):
    """Raised when a physical plan fails during execution."""


class QueryCancelledError(ExecutionError):
    """Raised inside an executing query after a cancellation request.

    Cancellation is cooperative: ``store.cancel(query_id)`` sets a flag on
    the query's registry handle, and the executing thread raises this at
    its next batch boundary.  The error unwinds through the operator
    tree's ``close()`` cascade and the MVCC snapshot context managers, so
    no pins or plan locks are leaked.

    Attributes
    ----------
    query_id:
        The registry id of the cancelled query, when known.
    """

    def __init__(self, message: str, query_id: int | None = None):
        self.query_id = query_id
        super().__init__(message)


class BenchmarkError(ReproError):
    """Raised by the benchmark harness for invalid configurations."""
