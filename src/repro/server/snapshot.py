"""Copy-on-write graph snapshots — the daemon's lock-free read side.

Reads and writes in the serving daemon never share a mutable graph.
The ingest loop owns the only :class:`~repro.session.LineageSession`;
after every successful extraction batch it freezes the session's graph
(:meth:`LineageSession.snapshot`) and hands the frozen view to the
:class:`SnapshotManager`, which publishes it by a single attribute
assignment.  Under CPython that assignment is an atomic reference swap,
so a reader either sees the old snapshot or the new one — never a
half-built graph — and holds whichever it grabbed for as long as it
likes: a slow ``/render/html`` over snapshot N cannot block (or be
corrupted by) the ingest loop publishing N+1.

This works because the extraction stack never mutates a published
graph: every run and refresh assembles a *new* ``LineageGraph`` (reused
view entries are spliced in by reference, not edited), so freezing it
pins a consistent generation forever.
"""

import time


class Snapshot:
    """One immutable published generation of the lineage graph."""

    __slots__ = ("version", "graph", "stats", "published_at", "statement_names")

    def __init__(self, version, graph, statement_names=()):
        self.version = version
        self.graph = graph
        self.stats = graph.stats()
        self.published_at = time.time()
        self.statement_names = tuple(statement_names)

    def describe(self):
        """A JSON-friendly summary (served by ``/stats`` and ``/health``)."""
        return {
            "version": self.version,
            "published_at": self.published_at,
            "statements": len(self.statement_names),
            "graph": dict(self.stats),
        }


class SnapshotManager:
    """Publishes immutable snapshots; readers take them without locking.

    Only the ingest loop calls :meth:`publish`; any number of reader
    tasks/threads call :meth:`current`.  No synchronisation is needed on
    the read path — ``self._current`` is replaced wholesale, never
    mutated.
    """

    def __init__(self, initial_graph):
        self._current = Snapshot(0, initial_graph.freeze())

    def prepare(self, graph, statement_names=()):
        """Freeze ``graph`` into the next generation WITHOUT publishing.

        The freeze copies the relation map and eagerly builds the
        adjacency index — real CPU work on a large graph — so the ingest
        loop calls this from its worker thread and only does the cheap
        :meth:`install` swap on the event loop.  Safe off-thread because
        the single ingest loop is the only generation producer: nobody
        else can move ``version`` between prepare and install.  The
        snapshot carries no reachability index: ``/impact`` and
        ``/ordering`` answer by BFS and Kahn over the pinned adjacency.
        """
        frozen = graph.freeze()
        return Snapshot(self._current.version + 1, frozen, statement_names)

    def install(self, snapshot):
        """Make a prepared snapshot the current generation."""
        self._current = snapshot  # atomic reference swap: the publish point
        return snapshot

    def publish(self, graph, statement_names=()):
        """Freeze ``graph`` and make it the current generation."""
        return self.install(self.prepare(graph, statement_names))

    def current(self):
        """The latest published :class:`Snapshot` (never ``None``)."""
        return self._current

    @property
    def version(self):
        return self._current.version
