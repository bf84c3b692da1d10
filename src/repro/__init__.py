"""repro — Self-organizing structured RDF.

A reproduction of *"Self-organizing Structured RDF in MonetDB"* (Pham,
ICDE 2013): characteristic-set schema discovery, subject-clustered columnar
storage, RDFscan/RDFjoin star-pattern operators, and SPARQL + SQL frontends
over the same data — all on a pure-Python/NumPy columnar substrate with a
buffer-pool simulator for hardware-independent cost accounting.

Typical use::

    from repro import RDFStore

    store = RDFStore.build(open("data.nt").read())
    print(store.schema_summary())
    result = store.sparql("SELECT ?a WHERE { ?b <http://ex/has_author> ?a }")
    print(store.decode_rows(result))
"""

from .core import CheckpointReport, RDFStore, StoreConfig
from .cs import DiscoveryConfig, EmergentSchema, GeneralizationConfig
from .errors import (
    BenchmarkError,
    DictionaryError,
    ExecutionError,
    ParseError,
    PendingUpdatesError,
    PersistenceError,
    PlanError,
    QueryCancelledError,
    ReproError,
    SchemaError,
    StorageError,
)
from .model import BNode, Graph, IRI, Literal, Triple
from .obs import (
    ActiveQueryRegistry,
    EventLog,
    MetricsRegistry,
    QueryTrace,
    SlowQueryLog,
    default_registry,
    render_prometheus,
)
from .sparql import (
    DEFAULT_SCHEME,
    OPTIMIZED_SCHEME,
    RDFSCAN_SCHEME,
    PlanCache,
    PlannerOptions,
)
from .persist import SnapshotInfo, WriteAheadLog
from .server import QueryServer, ReadSnapshot
from .updates import CompactionReport, DeltaStore, UpdateJournal, UpdateResult

__version__ = "0.1.0"

__all__ = [
    "ActiveQueryRegistry",
    "BNode",
    "BenchmarkError",
    "CheckpointReport",
    "CompactionReport",
    "DEFAULT_SCHEME",
    "DeltaStore",
    "DictionaryError",
    "DiscoveryConfig",
    "EmergentSchema",
    "EventLog",
    "ExecutionError",
    "GeneralizationConfig",
    "Graph",
    "IRI",
    "Literal",
    "MetricsRegistry",
    "OPTIMIZED_SCHEME",
    "ParseError",
    "PendingUpdatesError",
    "PersistenceError",
    "PlanCache",
    "PlanError",
    "PlannerOptions",
    "QueryCancelledError",
    "QueryServer",
    "QueryTrace",
    "RDFSCAN_SCHEME",
    "RDFStore",
    "ReadSnapshot",
    "ReproError",
    "SchemaError",
    "SlowQueryLog",
    "SnapshotInfo",
    "StorageError",
    "StoreConfig",
    "Triple",
    "UpdateJournal",
    "UpdateResult",
    "WriteAheadLog",
    "__version__",
    "default_registry",
    "render_prometheus",
]
