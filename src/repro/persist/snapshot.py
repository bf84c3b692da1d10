"""Snapshot writer and reader: the versioned on-disk database format.

A *database directory* holds a manifest pointing at the current snapshot
**generation** — a subdirectory named after the snapshot epoch::

    <db>/
      MANIFEST.json          -- format version, config, checksums, metadata,
                             -- and the name of the live generation
      gen-<epoch>/
        dictionary.nt        -- one Term.n3() line per OID, in OID order; the
                             -- previous generation's file plus appended lines
                             -- while no OID moved
        schema.json          -- emergent schema (tables, FKs, coverage)
        membership.bin       -- (2, n) array: regular subjects / their table ids
        matrix.bin           -- base (n, 3) triple matrix, storage order
        wal.log              -- write-ahead log (see repro.persist.wal)
        columns/             -- one checksummed array file per column
          clustered.cs<I>.subject.bin
          clustered.cs<I>.p<P>.bin
          clustered.irregular.bin
        zonemaps/
          cs<I>.p<P>.bin     -- (zones, 4) start/end/min/max tables

A save writes the complete new generation first (every file fsynced),
publishes it by atomically rewriting the manifest, and only then removes
superseded generations.  The previous snapshot — including its WAL and
every acknowledged update in it — therefore survives intact until the new
one is fully durable: a crash at any point leaves either the old
generation or the new one openable, never a torn mixture.  Every array
file additionally embeds a CRC that is verified when the file is read —
eagerly at open for small metadata, lazily at first scan for columns.

Nothing that is a sort of the matrix is stored: the permutation
projections are made from ``matrix.bin`` when a query first reads one, on a
reopened store exactly as on a built one.  Everything else the reader
rebuilds **without recomputation**: the dictionary is re-enumerated (not
re-encoded), the schema is decoded (not re-discovered), clustered columns
are registered as lazy loaders (not re-clustered), and per-column
statistics, zone maps and predicate counts come straight from the manifest
so plans are annotated with the same estimates as before the save.
"""

from __future__ import annotations

import dataclasses
import shutil
import uuid
from datetime import datetime, timezone
from json import dumps as json_dumps, loads as json_loads
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional

import numpy as np

from ..columnar import BufferPool, Column, ZoneMap
from ..columnar.stats import ColumnStats
from ..cs import EmergentSchema
from ..errors import PersistenceError
from ..model import Term, TermDictionary
from ..rio import parse_term
from ..storage import ClusteredStore, ExhaustiveIndexStore, TripleTable
from ..storage.clustered import CSBlock
from .io import (
    copy_append_text,
    fsync_dir,
    read_array,
    read_json,
    read_text,
    write_array,
    write_json_atomic,
    write_text,
)
from .schema_codec import membership_to_array, schema_from_dict, schema_to_dict
from .wal import WriteAheadLog

FORMAT_NAME = "repro-db"
FORMAT_VERSION = 3
"""What this build writes.  It also reads v2, which stored the six sorted
projections as ``columns/hsp.<order>.bin`` (ignored), and v1, which besides
kept table members in the schema (:func:`.schema_codec.schema_from_dict`)."""
MANIFEST_FILE = "MANIFEST.json"
DICTIONARY_FILE = "dictionary.nt"
SCHEMA_FILE = "schema.json"
MEMBERSHIP_FILE = "membership.bin"
MATRIX_FILE = "matrix.bin"
WAL_FILE = "wal.log"
COLUMNS_DIR = "columns"
ZONEMAPS_DIR = "zonemaps"
GENERATION_PREFIX = "gen-"


def generation_dir(root: Path | str, manifest: dict) -> Path:
    """The live generation directory named by a manifest."""
    name = manifest.get("generation")
    if not isinstance(name, str) or not name.startswith(GENERATION_PREFIX):
        raise PersistenceError(f"manifest of {root} names no valid generation")
    return Path(root) / name


def wal_path(root: Path | str) -> Path:
    """The live WAL file of a database directory (reads the manifest)."""
    root = Path(root)
    manifest = read_json(root / MANIFEST_FILE)
    return generation_dir(root, manifest) / manifest["wal_file"]


@dataclasses.dataclass(frozen=True)
class SnapshotInfo:
    """What one save produced: location, identity and rough size."""

    path: str
    epoch: str
    generation: str
    triples: int
    terms: int
    files: int
    data_bytes: int
    pending_updates_logged: int

    def wal_path(self) -> Path:
        """The WAL file belonging to this snapshot generation."""
        return Path(self.path) / self.generation / WAL_FILE


# -- writing ------------------------------------------------------------------


def write_snapshot(store, path: Path | str, attach: bool = False) -> SnapshotInfo:
    """Serialize a store's base state (and journal) into a database directory.

    The delta overlay is *not* serialized as data: pending update requests
    are appended to the fresh WAL instead, and replay at open reproduces
    the delta exactly.  See :mod:`repro.updates.journal`.

    The new generation is written completely before the manifest publishes
    it; superseded generations are removed only afterwards, so a crash at
    any point leaves an openable database.

    With ``attach=True`` the freshly created WAL handle is attached to the
    store's journal (what ``RDFStore.save`` wants); the default leaves the
    store untouched, which is what tests snapshotting shared fixtures rely
    on.
    """
    dictionary = store.dictionary
    terms = len(dictionary)
    known = store.dictionary_file
    if known is not None and known.dictionary is not dictionary:
        known = None  # a remapped or reloaded dictionary: every line may differ
    appended = _term_lines(islice(dictionary.terms(), known.terms if known else 0, terms))
    root = Path(path)
    _prepare_directory(root)
    previous_generation = None
    if (root / MANIFEST_FILE).exists():
        try:
            previous_generation = read_json(root / MANIFEST_FILE).get("generation")
        except PersistenceError:
            previous_generation = None
    epoch = uuid.uuid4().hex
    generation = f"{GENERATION_PREFIX}{epoch[:12]}"
    gen_dir = root / generation
    columns_dir = gen_dir / COLUMNS_DIR
    zonemaps_dir = gen_dir / ZONEMAPS_DIR
    columns_dir.mkdir(parents=True)
    zonemaps_dir.mkdir()

    files = 0
    data_bytes = 0

    def _note(file_path: Path) -> None:
        nonlocal files, data_bytes
        files += 1
        data_bytes += file_path.stat().st_size

    # the file the last save or open of this dictionary wrote or read holds
    # its first lines already: OIDs never move in a dictionary, so only the
    # terms appended since are serialized
    dict_crc = None
    if known is not None:
        dict_crc = copy_append_text(known.path, gen_dir / DICTIONARY_FILE, appended, known.crc)
    if dict_crc is None:
        if known is not None:
            appended = _term_lines(islice(dictionary.terms(), terms))
        dict_crc = write_text(gen_dir / DICTIONARY_FILE, appended)
    _note(gen_dir / DICTIONARY_FILE)

    # base matrix
    matrix = np.asarray(store.matrix, dtype=np.int64).reshape(-1, 3)
    matrix_crc = write_array(gen_dir / MATRIX_FILE, matrix)
    _note(gen_dir / MATRIX_FILE)

    # schema
    schema_entry = None
    if store.schema is not None:
        schema_text = json_dumps(schema_to_dict(store.schema), indent=2, sort_keys=True)
        schema_crc = write_text(gen_dir / SCHEMA_FILE, schema_text)
        _note(gen_dir / SCHEMA_FILE)
        membership_crc = write_array(gen_dir / MEMBERSHIP_FILE,
                                     membership_to_array(store.schema))
        _note(gen_dir / MEMBERSHIP_FILE)
        schema_entry = {"file": SCHEMA_FILE, "crc": schema_crc,
                        "membership": {"file": MEMBERSHIP_FILE, "crc": membership_crc}}

    clustered_entry = _write_clustered_store(store.clustered_store, columns_dir,
                                             zonemaps_dir, _note)

    # a fresh WAL for this snapshot generation, seeded with any updates that
    # are still pending (so a save with an uncompacted delta loses nothing)
    wal = WriteAheadLog.create(gen_dir / WAL_FILE, epoch)
    pending_texts = store.journal.texts() if store.has_pending_updates() else []
    for text in pending_texts:
        wal.append(text)
    _note(gen_dir / WAL_FILE)

    # make the generation's directory entries durable before publishing it
    for directory in (columns_dir, zonemaps_dir, gen_dir):
        fsync_dir(directory)

    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "epoch": epoch,
        "generation": generation,
        "wal_file": WAL_FILE,
        "config": config_to_dict(store.config),
        "triples": int(matrix.shape[0]),
        "terms": terms,
        "value_order_watermark": dictionary.value_order_watermark,
        "clustered": bool(store.is_clustered),
        "dictionary": {"file": DICTIONARY_FILE, "crc": dict_crc, "terms": terms},
        "matrix": {"file": MATRIX_FILE, "crc": matrix_crc,
                   "rows": int(matrix.shape[0])},
        "schema": schema_entry,
        "reduced_schemas": (store.catalog.reduced_schemas_state()
                            if store.catalog is not None else {}),
        "index": {
            "name": store.index_store.name,
            "predicate_counts": {str(p): int(c) for p, c
                                 in store.index_store.predicate_counts().items()},
        },
        "clustered_store": clustered_entry,
    }
    write_json_atomic(root / MANIFEST_FILE, manifest)  # the publish point
    _note(root / MANIFEST_FILE)

    _remove_superseded_generations(
        root, keep={generation, previous_generation} - {None})

    if attach:
        store.journal.attach_wal(wal)
        store.dictionary_file = DictionaryFile(dictionary, terms,
                                               gen_dir / DICTIONARY_FILE, dict_crc)

    return SnapshotInfo(
        path=str(root),
        epoch=epoch,
        generation=generation,
        triples=int(matrix.shape[0]),
        terms=terms,
        files=files,
        data_bytes=data_bytes,
        pending_updates_logged=len(pending_texts),
    )


def _term_lines(terms: Iterable[Term]) -> str:
    """One ``n3()`` line per term, which ``parse_term`` reads back whatever
    the term — unless a line break (``n3()`` escapes the string only) would
    split it, which is refused before anything is written."""
    terms = list(terms)
    lines = "".join(term.n3() + "\n" for term in terms)
    if lines.count("\n") != len(terms):
        broken = next(term for term in terms if "\n" in term.n3())
        raise PersistenceError(f"cannot save {broken!r}: a line break outside a literal's string")
    return lines


def _prepare_directory(root: Path) -> None:
    """Create the target directory, refusing to clobber foreign content.

    A directory is writable when it is empty, is a published database
    (has a manifest), or holds nothing but this format's own debris —
    generation directories and a leftover manifest temp file, which is
    what an interrupted first ``save()`` leaves behind.  Anything else is
    someone else's data and is never touched.
    """
    if root.exists():
        if not root.is_dir():
            raise PersistenceError(f"{root} exists and is not a directory")
        foreign = [entry.name for entry in root.iterdir()
                   if not _is_own_entry(entry)]
        if foreign:
            raise PersistenceError(
                f"{root} holds non-database content ({', '.join(sorted(foreign)[:5])}); "
                "refusing to overwrite a directory that is not a repro database")
    else:
        root.mkdir(parents=True)


def _is_own_entry(entry: Path) -> bool:
    if entry.name in (MANIFEST_FILE, MANIFEST_FILE + ".tmp"):
        return True
    return entry.is_dir() and entry.name.startswith(GENERATION_PREFIX)


def _remove_superseded_generations(root: Path, keep: set) -> None:
    """Delete generation directories not in ``keep`` (the newly published
    generation and the one the previous manifest named).

    Runs only *after* the manifest publish, so a crash at any earlier
    point leaves the previous generation (snapshot + WAL) fully intact.
    The immediately preceding *published* generation is kept on disk one
    cycle longer: another store handle opened against it may still hold
    unmaterialized lazy loaders into its files, and deleting it under that
    handle would turn its next scan into a ``PersistenceError``.  (A
    database is still meant to have one writer; retention just bounds the
    blast radius of a concurrent reader to *two* checkpoints instead of
    one.)  Debris from interrupted saves — generation directories no
    manifest ever named — is removed outright.  Removal failures are
    ignored: an orphaned generation is garbage, not corruption, and the
    next save retries.
    """
    for entry in root.iterdir():
        if entry.is_dir() and entry.name.startswith(GENERATION_PREFIX) \
                and entry.name not in keep:
            shutil.rmtree(entry, ignore_errors=True)
    fsync_dir(root)


def _write_clustered_store(clustered, columns_dir: Path, zonemaps_dir: Path,
                           note) -> Optional[dict]:
    if clustered is None:
        return None
    blocks: List[dict] = []
    for block in clustered.blocks:
        subject_file = f"clustered.cs{block.cs_id}.subject.bin"
        subject_crc = write_array(columns_dir / subject_file, block.subject_column.data)
        note(columns_dir / subject_file)
        columns: Dict[str, dict] = {}
        for predicate_oid, column in block.property_columns.items():
            file_name = f"clustered.cs{block.cs_id}.p{predicate_oid}.bin"
            crc = write_array(columns_dir / file_name, column.data)
            note(columns_dir / file_name)
            columns[str(predicate_oid)] = {
                "file": file_name,
                "crc": crc,
                "stats": column.statistics().to_dict(),
            }
        zone_maps: Dict[str, dict] = {}
        for predicate_oid, zone_map in block.zone_maps.items():
            file_name = f"cs{block.cs_id}.p{predicate_oid}.bin"
            crc = write_array(zonemaps_dir / file_name, zone_map.to_array())
            note(zonemaps_dir / file_name)
            zone_maps[str(predicate_oid)] = {
                "file": file_name,
                "crc": crc,
                "zone_size": zone_map.zone_size,
                "total_rows": zone_map.total_rows,
            }
        blocks.append({
            "cs_id": block.cs_id,
            "label": block.label,
            "rows": len(block),
            "subject": {
                "file": subject_file,
                "crc": subject_crc,
                "stats": block.subject_column.statistics().to_dict(),
            },
            "columns": columns,
            "zone_maps": zone_maps,
            "sorted_properties": sorted(int(p) for p in block.sorted_properties),
            "head_rows": block.head_rows,
        })
    irregular_file = "clustered.irregular.bin"
    irregular_crc = write_array(columns_dir / irregular_file, clustered.irregular.raw())
    note(columns_dir / irregular_file)
    return {
        "name": "clustered",
        "blocks": blocks,
        "irregular": {"file": irregular_file,
                      "rows": len(clustered.irregular),
                      "crc": irregular_crc},
    }


_CONFIG_FIELDS = ("page_size", "zone_size")
"""The integer :class:`~repro.core.StoreConfig` fields a manifest carries;
runtime knobs (batch size, logs, profiling) and discovery thresholds are
not part of a database."""


def config_to_dict(config) -> dict:
    """A store configuration as the manifest's ``config`` entry."""
    return {name: getattr(config, name) for name in _CONFIG_FIELDS}


def config_from_dict(saved: dict) -> dict:
    """The inverse of :func:`config_to_dict`: ``StoreConfig`` keyword
    arguments (this package cannot import :mod:`repro.core`).  Keys of
    retired knobs an older manifest still carries are ignored."""
    return {name: int(saved[name]) for name in _CONFIG_FIELDS}


# -- reading ------------------------------------------------------------------


class DictionaryFile(NamedTuple):
    """A dictionary file and the dictionary whose first ``terms`` lines it
    holds: what the last save or open of a store wrote or read.  The next
    save of that same dictionary copies the file and appends the rest."""

    dictionary: TermDictionary
    terms: int
    path: Path
    crc: int


class SnapshotParts(NamedTuple):
    """What one database directory decodes to (see :meth:`SnapshotReader.read`)."""

    dictionary: TermDictionary
    dictionary_file: DictionaryFile
    matrix: Column
    """The base triple matrix as one flat lazy column of ``3 * rows`` values
    (``base.matrix``), still on disk."""
    schema: Optional[EmergentSchema]
    reduced_schemas: Dict[str, List[str]]
    """The user-registered reduced schemas of the schema's catalog."""
    index_store: ExhaustiveIndexStore
    clustered_store: Optional[ClusteredStore]
    wal: WriteAheadLog


class SnapshotReader:
    """Decode one database directory into live (lazily loading) structures.

    The reader is the only code that knows the manifest's layout; it is
    deliberately store-agnostic: :meth:`config` and :meth:`read` return
    plain components and ``RDFStore.open`` assembles them.  That keeps this
    package importable from the storage layer without a cycle through
    :mod:`repro.core`.
    """

    def __init__(self, path: Path | str) -> None:
        self.root = Path(path)
        manifest_path = self.root / MANIFEST_FILE
        if not manifest_path.exists():
            raise PersistenceError(
                f"{self.root} is not a repro database (no {MANIFEST_FILE})")
        self.manifest = read_json(manifest_path)
        if self.manifest.get("format") != FORMAT_NAME:
            raise PersistenceError(f"{manifest_path} is not a {FORMAT_NAME} manifest")
        version = self.manifest.get("format_version")
        if version not in (1, 2, FORMAT_VERSION):
            raise PersistenceError(
                f"database format v{version} is not supported by this build "
                f"(expected v{FORMAT_VERSION}, v2 or v1)")
        self.base = generation_dir(self.root, self.manifest)
        if not self.base.is_dir():
            raise PersistenceError(
                f"database {self.root} names generation {self.base.name} but the "
                "directory is missing; the database is incomplete")

    # -- components -----------------------------------------------------------

    def config(self) -> dict:
        """The saved store configuration, as ``StoreConfig`` keyword arguments."""
        return config_from_dict(self.manifest["config"])

    def read(self, pool: Optional[BufferPool]) -> SnapshotParts:
        """Every component of the database, wired to ``pool``.

        Metadata-sized I/O only: the dictionary, the schema and the zone
        maps are read (and CRC-checked) now, every column stays on disk
        behind a lazy loader.
        """
        dictionary = self.read_dictionary()
        entry = self.manifest["dictionary"]
        matrix = self.matrix_column(pool)
        schema = self.read_schema()
        return SnapshotParts(
            dictionary=dictionary,
            dictionary_file=DictionaryFile(dictionary, len(dictionary),
                                           self.base / entry["file"], int(entry["crc"])),
            matrix=matrix,
            schema=schema,
            reduced_schemas=self.manifest.get("reduced_schemas", {}),
            index_store=self.build_index_store(pool, matrix),
            clustered_store=self.build_clustered_store(pool, schema),
            wal=self.wal(),
        )

    def read_dictionary(self) -> TermDictionary:
        entry = self.manifest["dictionary"]
        text = read_text(self.base / entry["file"], expect_crc=entry["crc"])
        terms = [parse_term(line, lineno=lineno)
                 for lineno, line in enumerate(text.split("\n"), start=1)
                 if line.strip()]
        if len(terms) != entry["terms"]:
            raise PersistenceError(
                f"dictionary file holds {len(terms)} terms, manifest promises "
                f"{entry['terms']}")
        return TermDictionary.restore(
            terms, value_order_watermark=int(self.manifest["value_order_watermark"]))

    def matrix_column(self, pool: Optional[BufferPool]) -> Column:
        """The base matrix, deferred: a flat column of ``3 * rows`` values.

        Queries never hold it — they go through the clustered store and the
        projections sorted from its file — so it materializes only when
        compaction / re-clustering / re-discovery first asks for it.
        """
        entry = self.manifest["matrix"]
        read = self._array_loader("", entry)
        return Column("base.matrix", pool=pool, length=3 * int(entry["rows"]),
                      loader=lambda: read().reshape(-1))

    def read_schema(self) -> Optional[EmergentSchema]:
        entry = self.manifest.get("schema")
        if entry is None:
            return None
        text = read_text(self.base / entry["file"], expect_crc=entry["crc"])
        membership = None  # what a format v1 schema entry leaves it at
        if "membership" in entry:
            membership = read_array(self.base / entry["membership"]["file"],
                                    expect_crc=entry["membership"]["crc"])
        return schema_from_dict(json_loads(text), membership)

    def build_index_store(self, pool: Optional[BufferPool],
                          matrix: Column) -> ExhaustiveIndexStore:
        """The projections over ``matrix.bin``: the first read of one
        reads the file (CRC-checked) and sorts it, leaving ``matrix`` (the
        store's base-matrix column) on disk — or sorts that column's data
        once something else holds it resident (two saves later the file is
        gone).  Projection entries of a v1 / v2 manifest are ignored."""
        entry = self.manifest.get("index") or {}
        matrix_entry = self.manifest["matrix"]
        read = self._array_loader("", matrix_entry)
        store = ExhaustiveIndexStore(
            lambda: matrix.data.reshape(-1, 3) if matrix.is_materialized else read(),
            pool=pool, name=entry.get("name", "hsp"), length=int(matrix_entry["rows"]))
        if "predicate_counts" in entry:
            store.set_predicate_counts(entry["predicate_counts"])
        return store

    def build_clustered_store(self, pool: Optional[BufferPool],
                              schema: Optional[EmergentSchema]) -> Optional[ClusteredStore]:
        entry = self.manifest.get("clustered_store")
        if entry is None:
            return None
        if schema is None:
            raise PersistenceError("manifest has a clustered store but no schema")
        name = entry.get("name", "clustered")
        blocks: List[CSBlock] = []
        for block_entry in entry["blocks"]:
            blocks.append(self._build_block(block_entry, name, pool))
        irregular_entry = entry["irregular"]
        irregular = TripleTable(
            self._accounted(self._array_loader(COLUMNS_DIR, irregular_entry), pool,
                            f"{name}.irregular.pso", 3 * int(irregular_entry["rows"])),
            length=int(irregular_entry["rows"]),
            order="pso",
            pool=pool,
            name=f"{name}.irregular",
        )
        return ClusteredStore(blocks=blocks, irregular=irregular,
                              schema=schema, pool=pool)

    def _build_block(self, entry: dict, name: str, pool: Optional[BufferPool]) -> CSBlock:
        cs_id = int(entry["cs_id"])
        rows = int(entry["rows"])
        head_rows = int(entry.get("head_rows", rows))  # older databases: all head
        subject_entry = entry["subject"]
        subject_column = Column(
            segment_id=f"{name}.cs{cs_id}.subject",
            loader=self._array_loader(COLUMNS_DIR, subject_entry),
            length=rows,
            sorted_ascending=head_rows == rows,
            pool=pool,
        )
        subject_column.stats = ColumnStats.from_dict(subject_entry["stats"])
        property_columns: Dict[int, Column] = {}
        for predicate_text, column_entry in entry["columns"].items():
            predicate_oid = int(predicate_text)
            column = Column(
                segment_id=f"{name}.cs{cs_id}.p{predicate_oid}",
                loader=self._array_loader(COLUMNS_DIR, column_entry),
                length=rows,
                sorted_ascending=False,
                pool=pool,
            )
            column.stats = ColumnStats.from_dict(column_entry["stats"])
            property_columns[predicate_oid] = column
        zone_maps = {}
        for predicate_text, zm_entry in entry["zone_maps"].items():
            zone_rows = read_array(self.base / ZONEMAPS_DIR / zm_entry["file"],
                                   expect_crc=zm_entry["crc"])
            zone_maps[int(predicate_text)] = ZoneMap.from_array(
                zone_rows, zone_size=int(zm_entry["zone_size"]),
                total_rows=int(zm_entry["total_rows"]))
        return CSBlock(
            cs_id=cs_id,
            label=str(entry["label"]),
            subject_column=subject_column,
            property_columns=property_columns,
            zone_maps=zone_maps,
            sorted_properties=frozenset(int(p) for p in entry["sorted_properties"]),
            head_rows=head_rows,
        )

    def _array_loader(self, subdir: str, entry: dict):
        path = self.base / subdir / entry["file"]
        expect_crc = entry["crc"]
        return lambda: read_array(path, expect_crc=expect_crc)

    @staticmethod
    def _accounted(load, pool: Optional[BufferPool], segment_id: str, num_values: int):
        """``load`` as a lazy segment of the pool, the way a lazy
        :class:`Column` is one: registered now, noted when first read."""
        if pool is None:
            return load
        pool.register_lazy_segment(segment_id, num_values)

        def read() -> np.ndarray:
            values = load()
            pool.note_materialized(segment_id, int(values.size))
            return values
        return read

    # -- the WAL --------------------------------------------------------------

    def wal(self) -> WriteAheadLog:
        """The database's write-ahead log, epoch-checked against the manifest.

        An epoch mismatch means the snapshot and the log belong to
        different generations (e.g. a checkpoint crashed between truncating
        the log and publishing the manifest); replaying would corrupt the
        store, so it is refused outright.
        """
        wal_path = self.base / self.manifest["wal_file"]
        if not wal_path.exists():
            raise PersistenceError(
                f"database {self.root} has no WAL ({self.manifest['wal_file']}); "
                "the directory is incomplete")
        wal = WriteAheadLog.open(wal_path)
        if wal.epoch != self.manifest["epoch"]:
            raise PersistenceError(
                f"WAL epoch {wal.epoch} does not match snapshot epoch "
                f"{self.manifest['epoch']}: the database is torn between two "
                "generations; restore from a consistent snapshot")
        return wal
