"""The persistent, content-addressed lineage store.

:class:`LineageStore` maps a cache key (see :mod:`repro.store.keys`) to a
serialized :class:`~repro.core.lineage.TableLineage` record in one SQLite
file, ``<cache_dir>/lineage.sqlite``, behind an in-memory LRU front.  It is
what makes extraction results survive the process: a fresh session over an
unchanged corpus splices every entry straight from disk instead of
re-parsing and re-extracting it.

Design points:

* **cache, not database** — every failure mode (missing file, corrupted
  database, malformed JSON, record-version skew) degrades to a cold miss
  or a dropped write, never an exception on the extraction path.  The
  degradation is not *silent*: I/O failures are retried with jittered
  backoff, counted (``error_misses`` / ``dropped_writes`` in
  :meth:`LineageStore.stats`), logged at WARNING on first occurrence, and
  repeated failures trip a circuit breaker — further I/O short-circuits to
  the degraded path for a cooldown instead of paying timeouts, and
  :meth:`LineageStore.health` reports the store ``degraded`` with its
  breaker state (the serving daemon's ``/health`` surfaces this);
* **LRU front** — hot records are served from memory as decoded record
  dicts; each hit still constructs a fresh ``TableLineage``, so callers
  can mutate what they are given without poisoning the cache;
* **batched I/O** — the warm-start prefetch (``prime()`` /
  ``get_sources()``) reads in chunked ``IN (...)`` queries, bulk writes
  (``put_many()``) commit in one transaction, and usage tracking is
  written once per run by ``flush()`` (``close()`` flushes too);
* **one decode per record** — ``prime()`` buffers the undecoded rows of a
  run and remembers which content hashes have none, so ``get()`` decodes
  each primed record once and the caller can skip lookups that cannot hit
  (``may_contain()``); ``unprime()`` releases both at the end of the run.

A directory left behind by older releases that sharded the store
(``shards.json`` plus ``lineage-<i>-of-<n>.sqlite`` files) opens as a fresh
single-file store: one warning names the ignored manifest, every lookup is
a cold miss, and the shard files are left untouched.
"""

import json
import logging
import os
import random
import sqlite3
import threading
import time

from ..core.errors import LineageRecordError
from ..core.lineage import TableLineage
from ..testing import faults

_LOGGER = logging.getLogger("repro.store")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS lineage_records (
    cache_key          TEXT PRIMARY KEY,
    content_hash       TEXT NOT NULL,
    dialect            TEXT NOT NULL,
    extractor_version  TEXT NOT NULL,
    schema_fingerprint TEXT NOT NULL,
    record             TEXT NOT NULL,
    created_at         REAL NOT NULL,
    last_used_at       REAL NOT NULL,
    use_count          INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_lineage_last_used
    ON lineage_records (last_used_at);
CREATE INDEX IF NOT EXISTS idx_lineage_content_hash
    ON lineage_records (content_hash);
CREATE TABLE IF NOT EXISTS source_records (
    source_key   TEXT PRIMARY KEY,
    record       TEXT NOT NULL,
    created_at   REAL NOT NULL,
    last_used_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_source_last_used
    ON source_records (last_used_at);
CREATE TABLE IF NOT EXISTS superseded_marks (
    content_hash TEXT PRIMARY KEY,
    marked_at    REAL NOT NULL
);
"""

#: filename of the SQLite database inside a cache directory.
STORE_FILENAME = "lineage.sqlite"

#: the manifest of a sharded store written by older releases; its presence
#: is reported once and otherwise ignored.
_LEGACY_MANIFEST = "shards.json"

#: concurrent readers/writers on the file wait this long for a lock before
#: giving up (and degrading to a cold miss / dropped write) instead of
#: failing instantly with "database is locked".
BUSY_TIMEOUT_MS = 10_000

#: batch width of ``IN (...)`` reads (SQLite's default variable limit is
#: 999; 400 leaves comfortable headroom).
_CHUNK = 400

#: I/O retries after the first failure (transient lock contention /
#: injected faults get a second and third chance before degrading).
RETRY_ATTEMPTS = 2

#: jittered backoff window per retry, milliseconds (scaled by attempt).
RETRY_BACKOFF_MS = (5.0, 25.0)

#: consecutive failures (after retries) that trip the breaker.
BREAKER_THRESHOLD = 5

#: seconds a tripped breaker short-circuits I/O before allowing a probe.
BREAKER_COOLDOWN_S = 30.0

#: backoff jitter source — timing only, never outcome, so it is fine for
#: this to be nondeterministic even under a seeded fault plan.
_BACKOFF_RNG = random.Random()


class _LRU:
    """A tiny size-capped LRU over decoded record dicts."""

    def __init__(self, capacity):
        self.capacity = max(int(capacity), 0)
        self._entries = {}

    def get(self, key):
        value = self._entries.pop(key, None)
        if value is not None:
            self._entries[key] = value  # re-insert = most recent
        return value

    def put(self, key, value):
        if self.capacity <= 0:
            return
        self._entries.pop(key, None)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.pop(next(iter(self._entries)))

    def clear(self):
        self._entries.clear()

    def __len__(self):
        return len(self._entries)



class LineageStore:
    """Persistent ``cache_key -> TableLineage`` mapping (SQLite + LRU).

    Parameters
    ----------
    cache_dir:
        Directory holding the store (created if missing).
    lru_size:
        Capacity of the in-memory front (record count); ``0`` disables it.
    """

    def __init__(self, cache_dir, lru_size=2048):
        self.cache_dir = os.fspath(cache_dir)
        self._lru = _LRU(lru_size)
        # the current run's prime() window: cache key -> undecoded record
        # text (consumed by get()), and the primed content hashes that have
        # no record at all
        self._primed = {}
        self._absent = frozenset()
        #: the SQLite file holding every record
        self.path = os.path.join(self.cache_dir, STORE_FILENAME)
        # one connection, guarded by one lock, plus the fault-accounting
        # state the circuit breaker runs on
        self._lock = threading.Lock()
        self._connection = None
        self._broken = False
        self._dirty = False
        self._failures = 0          # consecutive failed operations
        self._open_until = 0.0      # monotonic deadline while breaker is open
        self._trips = 0             # closed -> open breaker transitions
        self._warned = False        # first-failure WARNING emitted
        self._closed = False
        # usage tracking is batched: reads only mark keys here and flush()
        # writes last_used_at/use_count in one executemany
        self._meta_lock = threading.Lock()
        self._used_keys = set()
        self._used_source_keys = set()
        # session counters (not persisted)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0
        self.error_misses = 0     # cold misses caused by I/O errors
        self.dropped_writes = 0   # writes lost to I/O errors
        manifest = os.path.join(self.cache_dir, _LEGACY_MANIFEST)
        if os.path.exists(manifest):
            _LOGGER.warning(
                "ignoring %s: the sharded layout is no longer read (records "
                "go to %s; the shard files are left untouched)",
                manifest, self.path,
            )

    def _connect(self):
        """The live connection, opened on first use (``None`` = unusable).

        Callers must hold ``self._lock``.  The connection gets WAL journal
        mode (readers never block the writer) and a busy timeout, so
        concurrent access from several processes — parallel sessions over
        one cache directory — waits for locks instead of erroring out.
        """
        if self._closed:
            return None
        if self._connection is not None or self._broken:
            return self._connection
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            connection = sqlite3.connect(self.path, check_same_thread=False)
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            connection.executescript(_SCHEMA)
            connection.commit()
            self._connection = connection
        except (sqlite3.Error, OSError):
            # an unusable backing file turns the store into a pass-through
            self._broken = True
            self._connection = None
        return self._connection

    # ------------------------------------------------------------------
    # Fault-hardened I/O
    # ------------------------------------------------------------------
    def _io(self, kind, operation):
        """Run ``operation()`` (``self._lock`` held by the caller) with
        fault injection, bounded jittered retry, and circuit-breaker
        accounting.

        ``kind`` is ``"read"`` or ``"write"`` — it picks which degraded
        counter a failure lands in.  Returns ``(ok, result)``; ``ok``
        False means the caller must degrade (cold miss / dropped write),
        and the failure has already been counted and, if it crossed the
        threshold, has tripped the breaker.  While the breaker is open the
        operation is not attempted at all: a file that is timing out
        repeatedly must not make every request pay its busy timeout.  After
        the cooldown one probe is allowed through; its success closes the
        breaker, its failure re-arms the cooldown.

        Every failed attempt rolls the connection back (a failed commit
        can leave the write transaction open, pinning the file's write
        lock and staging half-applied statements for whatever commits
        next) and the backoff sleep happens with ``self._lock``
        *released* — during a fault storm the other readers/writers must
        not queue behind a sleeping thread.  The lock is re-held when
        ``operation`` runs and when this method returns.
        """
        now = time.monotonic()
        if self._open_until > now:
            self._count_degraded(kind)
            return False, None
        error = None
        for attempt in range(1 + RETRY_ATTEMPTS):
            if attempt:
                low, high = RETRY_BACKOFF_MS
                delay = (
                    (low + _BACKOFF_RNG.random() * (high - low))
                    * attempt / 1000.0
                )
                self._lock.release()
                try:
                    time.sleep(delay)
                finally:
                    self._lock.acquire()
            try:
                faults.fire(f"store.{kind}")
                result = operation()
            except (sqlite3.Error, OSError, faults.InjectedFault) as caught:
                error = caught
                self._rollback_quietly()
                continue
            self._failures = 0
            if self._open_until:
                self._open_until = 0.0
                _LOGGER.warning(
                    "lineage store %s recovered; circuit closed", self.path
                )
            return True, result
        self._count_degraded(kind)
        was_closed = self._open_until == 0.0
        self._failures += 1
        if not self._warned:
            self._warned = True
            _LOGGER.warning(
                "lineage store %s %s failed (degrading to %s): %s",
                self.path, kind,
                "cold miss" if kind == "read" else "dropped write", error,
            )
        if self._failures >= BREAKER_THRESHOLD:
            self._open_until = time.monotonic() + BREAKER_COOLDOWN_S
            if was_closed:
                self._trips += 1
                _LOGGER.warning(
                    "lineage store %s circuit breaker OPEN for %.0fs "
                    "after %d consecutive failures",
                    self.path, BREAKER_COOLDOWN_S, self._failures,
                )
        return False, None

    def _rollback_quietly(self):
        """Abandon any transaction a failed operation left open (the
        connection may already be gone — every error is suppressed)."""
        if self._connection is None:
            return
        try:
            self._connection.rollback()
        except (sqlite3.Error, OSError):
            pass

    def _count_degraded(self, kind):
        if kind == "write":
            self.dropped_writes += 1
        else:
            self.error_misses += 1

    def _breaker_open(self):
        return self._open_until > time.monotonic() or self._broken

    def health(self):
        """Cheap (no I/O, no locks) breaker state for ``/health``.

        ``status`` is ``degraded`` while the breaker is open — extraction
        still works (cold path), but the cache is blind.
        """
        degraded = self._breaker_open()
        return {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "breaker": "open" if degraded else "closed",
            "broken": self._broken,
            "consecutive_failures": self._failures,
            "error_misses": self.error_misses,
            "dropped_writes": self.dropped_writes,
            "trips": self._trips,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self):
        """Flush pending writes and release the database handle.

        Idempotent, and terminal: a closed store never reopens its
        connection — reads degrade to cold misses and writes are dropped
        (cache semantics).  This is what makes a store handle shared by
        many consumers (the serving daemon's batcher, concurrent reader
        threads) safe to tear down: a racing read that arrives after
        ``close()`` cannot resurrect a connection the shutdown path just
        released.
        """
        if self._closed:
            return
        self._closed = True
        self.flush()
        with self._lock:
            if self._connection is not None:
                try:
                    self._connection.close()
                except sqlite3.Error:
                    pass
                self._connection = None
                self._dirty = False
        self._lru.clear()
        self.unprime()

    @property
    def closed(self):
        """True once :meth:`close` has run (the store serves only misses)."""
        return self._closed

    def flush(self):
        """Write batched usage updates and commit (once per run)."""
        with self._meta_lock:
            keys = self._used_keys
            source_keys = self._used_source_keys
            self._used_keys = set()
            self._used_source_keys = set()
        now = time.time()
        with self._lock:
            connection = self._connection
            if connection is None:
                return
            try:
                if keys:
                    connection.executemany(
                        "UPDATE lineage_records SET last_used_at = ?, "
                        "use_count = use_count + 1 WHERE cache_key = ?",
                        [(now, key) for key in keys],
                    )
                    self._dirty = True
                if source_keys:
                    connection.executemany(
                        "UPDATE source_records SET last_used_at = ? "
                        "WHERE source_key = ?",
                        [(now, key) for key in source_keys],
                    )
                    self._dirty = True
                if self._dirty:
                    connection.commit()
                    self._dirty = False
            except sqlite3.Error:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()

    # ------------------------------------------------------------------
    # The cache surface
    # ------------------------------------------------------------------
    def get(self, key):
        """The stored :class:`TableLineage` for ``key``, or ``None``.

        A key :meth:`prime` buffered is decoded from the buffer (and leaves
        it) without a read.  Every failure — no
        database, corrupted row, malformed JSON, record version mismatch —
        is a silent cold miss.
        """
        record = self._lru.get(key)
        if record is None:
            text = self._primed.pop(key, None)
            record = self._fetch(key) if text is None else self._decode(text)
            if record is None:
                self.misses += 1
                return None
            self._lru.put(key, record)
        try:
            lineage = TableLineage.from_record(record)
        except LineageRecordError:
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        with self._meta_lock:
            self._used_keys.add(key)
        return lineage

    def _read_chunked(self, query, values):
        """Rows of ``query`` (one ``IN ({})`` slot) over ``values`` in
        chunks of :data:`_CHUNK`; ``None`` when the read degrades."""
        with self._lock:
            connection = self._connect()
            if connection is None:
                return None

            def _read():
                rows = []
                for start in range(0, len(values), _CHUNK):
                    batch = values[start:start + _CHUNK]
                    placeholders = ",".join("?" for _ in batch)
                    rows.extend(
                        connection.execute(query.format(placeholders), batch).fetchall()
                    )
                return rows

            ok, rows = self._io("read", _read)
        return rows if ok else None

    def prime(self, content_hashes):
        """Buffer every record matching ``content_hashes`` for this run.

        A warm run resolves keys one entry at a time (each key needs its
        upstream results' schemas), but the *content hashes* of the whole
        corpus are known up front — one batched SELECT per chunk replaces
        a point lookup per entry.  The rows are kept undecoded until
        :meth:`get` consumes them, and the primed hashes without any record
        become known misses (see :meth:`may_contain`).  Each call replaces
        the previous window; :meth:`unprime` releases it.  Returns the
        number of records buffered.

        When the read degrades, or the LRU front is disabled, nothing is
        buffered and no hash is known to be absent: every lookup then goes
        through :meth:`get`.
        """
        self.unprime()
        if self._lru.capacity <= 0:
            return 0
        hashes = {str(value) for value in content_hashes}
        if not hashes:
            return 0
        rows = self._read_chunked(
            "SELECT cache_key, content_hash, record FROM lineage_records "
            "WHERE content_hash IN ({})",
            list(hashes),
        )
        if rows is None:
            return 0
        self._primed = {key: text for key, _, text in rows}
        self._absent = frozenset(hashes.difference(value for _, value, _ in rows))
        return len(self._primed)

    def may_contain(self, content_hash):
        """False only for a hash the current :meth:`prime` window read and
        found no record for; an unknown hash may always be stored."""
        return content_hash not in self._absent

    def unprime(self):
        """Release the :meth:`prime` window (buffered rows and known misses)."""
        self._primed = {}
        self._absent = frozenset()

    def _decode(self, text):
        """A record dict from its stored JSON text, or ``None`` (corrupt)."""
        try:
            record = json.loads(text)
        except (TypeError, ValueError):
            self.corrupt += 1
            return None
        return record if isinstance(record, dict) else None

    def _fetch(self, key):
        """The decoded record for one cache key, or ``None``."""
        with self._lock:
            connection = self._connect()
            if connection is None:
                return None
            ok, row = self._io(
                "read",
                lambda: connection.execute(
                    "SELECT record FROM lineage_records WHERE cache_key = ?",
                    (key,),
                ).fetchone(),
            )
        if not ok or row is None:
            return None
        return self._decode(row[0])

    def put(self, key, lineage, *, content_hash="", dialect="",
            extractor_version="", schema_fingerprint=""):
        """Store ``lineage`` under ``key`` (best-effort; committed per write).

        The individual key components are persisted alongside the record
        for observability (``cache stats``) and targeted invalidation;
        they do not participate in lookups — the combined ``key`` does.
        """
        try:
            record = lineage.to_record()
            # no sort_keys: JSON objects preserve insertion order in Python,
            # and the record's dict order (e.g. column -> sources) is part of
            # the loss-free round trip — reordering it would make warm-spliced
            # graphs render differently from cold ones
            text = json.dumps(record)
        except (TypeError, ValueError):
            return False
        now = time.time()
        with self._lock:
            connection = self._connect()
            if connection is None:
                return False

            def _write():
                connection.execute(
                    "INSERT OR REPLACE INTO lineage_records "
                    "(cache_key, content_hash, dialect, extractor_version, "
                    " schema_fingerprint, record, created_at, last_used_at, use_count) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, 0)",
                    (
                        key,
                        str(content_hash),
                        str(dialect),
                        str(extractor_version),
                        str(schema_fingerprint),
                        text,
                        now,
                        now,
                    ),
                )
                if content_hash:
                    # a re-put definition is live again: clear any pending
                    # superseded mark so compaction cannot evict it early
                    connection.execute(
                        "DELETE FROM superseded_marks WHERE content_hash = ?",
                        (str(content_hash),),
                    )
                # commit per write: under WAL + synchronous=NORMAL a commit
                # is lock release without an fsync, and holding an open
                # write transaction across puts deadlocks two handles
                # writing the same file (each stuck behind the other's
                # uncommitted transaction until the busy timeout drops the
                # write)
                connection.commit()

            ok, _ = self._io("write", _write)
            if not ok:
                return False
        self._lru.put(key, record)
        self.puts += 1
        return True

    def put_many(self, rows):
        """Store many records in one transaction; returns #written.

        ``rows`` is an iterable of ``(key, lineage, meta)`` where ``meta``
        is the keyword mapping :meth:`put` takes (``content_hash``,
        ``dialect``, ``extractor_version``, ``schema_fingerprint``).  This
        is the bulk-write path of a large cold run: serialisation happens
        up front, then a single ``executemany`` under one lock acquisition
        replaces a round trip per record.  Rows that fail to serialise are
        skipped (dropped-write semantics, like :meth:`put`).
        """
        now = time.time()
        batch = []
        decoded = []
        for key, lineage, meta in rows:
            try:
                record = lineage.to_record()
                text = json.dumps(record)
            except (TypeError, ValueError):
                continue
            batch.append(
                (
                    key,
                    str(meta.get("content_hash", "")),
                    str(meta.get("dialect", "")),
                    str(meta.get("extractor_version", "")),
                    str(meta.get("schema_fingerprint", "")),
                    text,
                    now,
                    now,
                )
            )
            decoded.append((key, record))
        if not batch:
            return 0
        with self._lock:
            connection = self._connect()
            if connection is None:
                return 0

            def _write():
                connection.executemany(
                    "INSERT OR REPLACE INTO lineage_records "
                    "(cache_key, content_hash, dialect, extractor_version, "
                    " schema_fingerprint, record, created_at, last_used_at, use_count) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, 0)",
                    batch,
                )
                # re-put definitions are live again — drop their marks
                connection.executemany(
                    "DELETE FROM superseded_marks WHERE content_hash = ?",
                    [(row[1],) for row in batch if row[1]],
                )
                # one transaction, released here — see the per-write commit
                # rationale in put()
                connection.commit()

            ok, _ = self._io("write", _write)
            if not ok:
                return 0
        for key, record in decoded:
            self._lru.put(key, record)
        self.puts += len(batch)
        return len(batch)

    # ------------------------------------------------------------------
    # The parse cache (per-source preprocessing records)
    # ------------------------------------------------------------------
    def get_source(self, key):
        """The statement records of one source fragment, or ``None``."""
        with self._lock:
            connection = self._connect()
            if connection is None:
                return None
            ok, row = self._io(
                "read",
                lambda: connection.execute(
                    "SELECT record FROM source_records WHERE source_key = ?",
                    (key,),
                ).fetchone(),
            )
            if not ok or row is None:
                return None
        try:
            records = json.loads(row[0])
        except (TypeError, ValueError):
            self.corrupt += 1
            return None
        with self._meta_lock:
            self._used_source_keys.add(key)
        return records

    def get_sources(self, keys):
        """Batch-fetch parse-cache records: ``{key: records}`` for hits.

        One chunked ``IN (...)`` SELECT per 400 keys replaces per-fragment
        point lookups.  Missing keys are simply absent from the result;
        decode failures count as corrupt and are dropped (cold miss
        semantics).
        """
        found = {}
        keys = [str(key) for key in keys]
        if not keys:
            return found
        rows = self._read_chunked(
            "SELECT source_key, record FROM source_records "
            "WHERE source_key IN ({})",
            keys,
        )
        for key, text in rows or ():
            try:
                records = json.loads(text)
            except (TypeError, ValueError):
                self.corrupt += 1
                continue
            found[key] = records
        with self._meta_lock:
            self._used_source_keys.update(found)
        return found

    def put_source(self, key, records):
        """Store one source fragment's statement records (best-effort)."""
        try:
            text = json.dumps(records, sort_keys=True)
        except (TypeError, ValueError):
            return False
        now = time.time()
        with self._lock:
            connection = self._connect()
            if connection is None:
                return False

            def _write():
                connection.execute(
                    "INSERT OR REPLACE INTO source_records "
                    "(source_key, record, created_at, last_used_at) VALUES (?, ?, ?, ?)",
                    (key, text, now, now),
                )
                connection.commit()  # see the per-write commit rationale in put()

            ok, _ = self._io("write", _write)
        return bool(ok)

    def parse_cache(self, dialect):
        """The ``get(sql)/put(sql, records)`` adapter ``preprocess`` consumes."""
        return _ParseCache(self, dialect)

    # ------------------------------------------------------------------
    # Compaction: superseded-definition marks
    # ------------------------------------------------------------------
    def mark_superseded(self, content_hashes):
        """Flag canonical content hashes whose definitions were replaced.

        The streaming ingest calls this when a name's latest content hash
        changes: the records cached under the *prior* hashes are still
        valid (the cache key is content-addressed) but no longer describe
        any live definition, so ``gc(max_entries=…)`` evicts them ahead of
        the global LRU cutoff.  Marks are purely advisory — a marked hash
        that gets re-put (the definition flipped back) is unmarked by the
        write, so live hashes never regress to cold.  Returns the number
        of marks written (best-effort, dropped-write semantics).
        """
        now = time.time()
        hashes = sorted({str(value) for value in content_hashes if str(value)})
        if not hashes:
            return 0
        with self._lock:
            connection = self._connect()
            if connection is None:
                return 0

            def _write():
                connection.executemany(
                    "INSERT OR REPLACE INTO superseded_marks "
                    "(content_hash, marked_at) VALUES (?, ?)",
                    [(value, now) for value in hashes],
                )
                connection.commit()

            ok, _ = self._io("write", _write)
        return len(hashes) if ok else 0

    def superseded_count(self):
        """How many content hashes are currently marked superseded."""
        return self._scalar("SELECT COUNT(*) FROM superseded_marks")

    def _scalar(self, query):
        """One integer from ``query`` (``0`` when the read fails)."""
        with self._lock:
            connection = self._connect()
            if connection is None:
                return 0
            try:
                return connection.execute(query).fetchone()[0]
            except sqlite3.Error:
                return 0

    # ------------------------------------------------------------------
    # Maintenance (the CLI ``cache`` subcommand)
    # ------------------------------------------------------------------
    def stats(self):
        """Counters for ``cache stats``, ``/stats`` and the benchmark reports.

        On-disk state (row counts, bytes, the cumulative recorded hit
        count), this handle's session counters, and the breaker state.
        """
        self.flush()
        entries = source_entries = superseded_entries = hit_count = 0
        extractor_versions = {}
        with self._lock:
            connection = self._connect()
            if connection is not None:
                try:
                    entries, hit_count = connection.execute(
                        "SELECT COUNT(*), COALESCE(SUM(use_count), 0) "
                        "FROM lineage_records"
                    ).fetchone()
                    source_entries = connection.execute(
                        "SELECT COUNT(*) FROM source_records"
                    ).fetchone()[0]
                    superseded_entries = connection.execute(
                        "SELECT COUNT(*) FROM superseded_marks"
                    ).fetchone()[0]
                    extractor_versions = dict(
                        connection.execute(
                            "SELECT extractor_version, COUNT(*) FROM lineage_records "
                            "GROUP BY extractor_version"
                        )
                    )
                except sqlite3.Error:
                    pass
        try:
            size_bytes = os.path.getsize(self.path)
        except OSError:
            size_bytes = 0
        degraded = self._breaker_open()
        return {
            "path": self.path,
            "entries": entries,
            "source_entries": source_entries,
            "superseded_entries": superseded_entries,
            "size_bytes": size_bytes,
            "hit_count": hit_count,
            "extractor_versions": extractor_versions,
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_puts": self.puts,
            "session_corrupt": self.corrupt,
            "session_error_misses": self.error_misses,
            "session_dropped_writes": self.dropped_writes,
            "breaker": "open" if degraded else "closed",
            "breaker_trips": self._trips,
            "degraded": degraded,
            "lru_entries": len(self._lru),
        }

    def _execute(self, *statements):
        """Run ``(sql, params)`` statements in one transaction; returns the
        summed row counts, or ``None`` when the database is unusable."""
        with self._lock:
            connection = self._connect()
            if connection is None:
                return None
            try:
                removed = sum(
                    connection.execute(sql, params).rowcount
                    for sql, params in statements
                )
                connection.commit()
                self._dirty = False
            except sqlite3.Error:
                self._rollback_quietly()
                return None
        return removed

    def clear(self):
        """Delete every record (lineage and parse); returns the number removed."""
        removed = self._execute(
            ("DELETE FROM lineage_records", ()),
            ("DELETE FROM source_records", ()),
        )
        self._execute(("DELETE FROM superseded_marks", ()))
        self._lru.clear()
        self.unprime()
        return removed or 0

    def gc(self, max_age_days=None, max_entries=None):
        """Evict stale records; returns the number removed.

        ``max_age_days`` drops records (lineage and parse) not used within
        the window; ``max_entries`` then keeps only the most recently used
        N lineage records.  When the store is over the entry cap,
        **superseded-definition** records (see :meth:`mark_superseded`)
        are evicted first, ahead of the LRU cutoff — a redefinition-heavy
        streaming workload compacts to its live set before any live record
        is touched.  Parse records whose every lineage-bearing statement
        was evicted are deleted in the same pass (and counted), so
        ``max_entries`` does not strand orphaned ``source_records``.
        """
        removed = 0
        lineage_evicted = False
        if max_age_days is not None:
            cutoff = time.time() - float(max_age_days) * 86400.0
            lineage = self._execute(
                ("DELETE FROM lineage_records WHERE last_used_at < ?", (cutoff,))
            ) or 0
            removed += lineage + (self._execute(
                ("DELETE FROM source_records WHERE last_used_at < ?", (cutoff,))
            ) or 0)
            lineage_evicted = lineage > 0
        if max_entries is not None:
            keep = max(int(max_entries), 0)
            if self._scalar("SELECT COUNT(*) FROM lineage_records") > keep:
                # over the cap: superseded definitions go first — their
                # records describe no live statement, so evicting them
                # can never cost a warm splice
                superseded = self._execute(
                    ("DELETE FROM lineage_records WHERE content_hash "
                     "IN (SELECT content_hash FROM superseded_marks)", ()),
                ) or 0
                self._execute(("DELETE FROM superseded_marks", ()))
                # then the least recently used beyond the newest `keep`
                recency = self._execute(
                    ("DELETE FROM lineage_records WHERE cache_key NOT IN ("
                     "  SELECT cache_key FROM lineage_records"
                     "  ORDER BY last_used_at DESC LIMIT ?)", (keep,)),
                ) or 0
                removed += superseded + recency
                lineage_evicted = lineage_evicted or bool(superseded + recency)
        if lineage_evicted:
            removed += self._prune_orphan_sources()
        self._lru.clear()
        self.unprime()
        return removed

    def _prune_orphan_sources(self):
        """Delete parse records whose lineage records are all gone.

        A ``source_records`` row caches the statement records of one
        source fragment; once every lineage-bearing statement hash it
        mentions has been evicted, re-using it would only feed extractions
        whose results are cold anyway — it is dead weight.  Fragments that
        never produced lineage (pure DDL/skip records, or legacy records
        without content hashes) are kept.  Returns the number deleted.
        If the survivor scan fails, pruning is skipped entirely — guessing
        at liveness would delete parse records for hashes we simply could
        not see.
        """
        with self._lock:
            connection = self._connect()
            if connection is None:
                return 0
            try:
                survivors = {
                    row[0]
                    for row in connection.execute(
                        "SELECT DISTINCT content_hash FROM lineage_records"
                    )
                }
                rows = connection.execute(
                    "SELECT source_key, record FROM source_records"
                ).fetchall()
            except sqlite3.Error:
                return 0
        doomed = [
            (key,) for key, text in rows if self._source_orphaned(text, survivors)
        ]
        if not doomed:
            return 0
        with self._lock:
            connection = self._connect()
            if connection is None:
                return 0
            try:
                connection.executemany(
                    "DELETE FROM source_records WHERE source_key = ?", doomed
                )
                connection.commit()
                self._dirty = False
            except sqlite3.Error:
                return 0
        return len(doomed)

    @staticmethod
    def _source_orphaned(text, survivors):
        """True when a parse record references lineage hashes, none alive."""
        try:
            records = json.loads(text)
        except (TypeError, ValueError):
            return False
        if not isinstance(records, list):
            return False
        hashes = [
            record["content_hash"]
            for record in records
            if isinstance(record, dict)
            and isinstance(record.get("content_hash"), str)
            and record.get("kind") not in ("ddl", "skip")
        ]
        return bool(hashes) and not any(value in survivors for value in hashes)

    def __repr__(self):
        return f"LineageStore({self.cache_dir!r})"


class _ParseCache:
    """Adapter binding a store + dialect to ``preprocess(parse_cache=...)``.

    ``preprocess`` announces fragment windows up front via
    :meth:`prefetch`, which resolves every key in one batched read; the
    subsequent per-fragment :meth:`get` calls are then
    pure dictionary lookups (a key absent after a prefetch is a definitive
    miss — no point query is issued for it).
    """

    def __init__(self, store, dialect):
        from ..core.preprocess import PARSE_RECORD_VERSION
        from .keys import source_key

        self._store = store
        self._dialect = dialect
        self._version = PARSE_RECORD_VERSION
        self._key = source_key
        self._prefetched = None

    def prefetch(self, sqls):
        """Bulk-resolve the parse records of every fragment in ``sqls``.

        Each call *replaces* the previous prefetch window — streaming
        preprocessing announces fragments chunk by chunk, consuming one
        window fully before announcing the next.
        """
        keys = {self._key(sql, self._dialect, self._version) for sql in sqls}
        self._prefetched = self._store.get_sources(keys)
        return len(self._prefetched)

    def get(self, sql):
        key = self._key(sql, self._dialect, self._version)
        if self._prefetched is not None:
            return self._prefetched.get(key)
        return self._store.get_source(key)

    def put(self, sql, records):
        return self._store.put_source(self._key(sql, self._dialect, self._version), records)
