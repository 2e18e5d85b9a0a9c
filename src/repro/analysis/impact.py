"""Impact analysis over a column lineage graph.

This module implements the demonstration workflow of Section IV:

* *explore* (Step 3): reveal a table's direct upstream and downstream
  tables;
* *impact analysis* (Step 4): starting from a column (``web.page`` in the
  paper), find every downstream column that is *contributed to* or
  *referenced by* the change, transitively.  The closure distinguishes how
  each affected column is reached, matching the red / blue / orange
  highlighting of the UI.

All traversals run directly over the graph's cached adjacency index
(:meth:`LineageGraph.column_adjacency <repro.core.lineage.LineageGraph>`);
no intermediate networkx graph is constructed, which keeps repeated
interactive queries cheap.  Use :mod:`repro.output.graph_ops` when an
actual networkx object is needed for export.
"""

from collections import deque
from dataclasses import dataclass, field

from ..core.column_refs import ColumnName
from ..core.errors import UnknownColumnError
from ..core.lineage import EDGE_BOTH, EDGE_CONTRIBUTE, EDGE_REFERENCE
from .reach import NameSet

_METHODS = ("auto", "index", "bfs")
_MISSING = ("empty", "raise")


@dataclass
class ImpactResult:
    """The outcome of an impact analysis starting from one column.

    The three partitions are plain ``set`` on the BFS path and (shared,
    immutable) :class:`~repro.analysis.reach.NameSet` views on the
    indexed path — treat them as read-only either way.  A ``NameSet``
    iterates and counts without hashing; membership tests and set
    algebra materialise a real ``frozenset`` once, lazily.
    """

    start: ColumnName
    direction: str
    contributed: set = field(default_factory=set)   # reached via contribute edges only
    referenced: set = field(default_factory=set)     # reached via reference edges only
    both: set = field(default_factory=set)           # reached via both kinds

    @property
    def all_columns(self):
        """Every impacted column regardless of how it is reached.

        Computed once and cached: the partitions are disjoint and
        read-only, so the union can never change after construction.  On
        the indexed path the disjointness lets the union stay a lazy
        concatenation — no hashing until a consumer needs membership.
        """
        cached = self.__dict__.get("_all_columns")
        if cached is None:
            parts = (self.contributed, self.referenced, self.both)
            if all(isinstance(part, NameSet) for part in parts):
                cached = NameSet([name for part in parts for name in part])
            else:
                cached = self.contributed | self.referenced | self.both
            self.__dict__["_all_columns"] = cached
        return cached

    def impacted_tables(self):
        """The distinct tables containing impacted columns."""
        return sorted({column.table for column in self.all_columns})

    def kind_of(self, column):
        """How ``column`` is impacted: contribute / reference / both / None."""
        if column in self.both:
            return EDGE_BOTH
        if column in self.contributed:
            return EDGE_CONTRIBUTE
        if column in self.referenced:
            return EDGE_REFERENCE
        return None

    def to_rows(self):
        """Sorted (table, column, kind) rows for display."""
        rows = []
        for column in sorted(self.all_columns):
            rows.append((column.table, column.column, self.kind_of(column)))
        return rows


def _as_column_name(column):
    if isinstance(column, ColumnName):
        return column
    return ColumnName.parse(column)


def column_known(graph, column):
    """Whether ``column`` is a column the graph has ever seen.

    True when the column has lineage edges in either direction *or* is a
    recorded output column of a known relation (an edgeless leaf — a real
    column whose impact closure is legitimately empty).
    """
    start = _as_column_name(column)
    if start in graph.column_adjacency("downstream"):
        return True
    if start in graph.column_adjacency("upstream"):
        return True
    entry = graph.get(start.table)
    return entry is not None and start.column in entry.output_columns


def nearest_column(graph, column, cutoff=0.6):
    """The closest known name to ``column`` for "did you mean" hints.

    When the table is known, candidates are that table's columns; when it
    is not, candidates are relation names (the typo is most likely in the
    table part).  Candidate lists are capped so a 404 on a 100k-relation
    graph stays cheap.  Returns a dotted string or ``None``.
    """
    import difflib

    start = _as_column_name(column)
    entry = graph.get(start.table)
    if entry is not None:
        matches = difflib.get_close_matches(
            start.column, list(entry.output_columns)[:5000], n=1, cutoff=cutoff
        )
        return f"{start.table}.{matches[0]}" if matches else None
    names = list(graph.relations)
    if len(names) > 10000:
        prefix = start.table[:1]
        preferred = [name for name in names if name.startswith(prefix)]
        names = (preferred or names)[:10000]
    matches = difflib.get_close_matches(start.table, names, n=1, cutoff=cutoff)
    return f"{matches[0]}.{start.column}" if matches else None


def _bfs_partition(adjacency, start, max_depth=None):
    """The kind-tracking BFS (reference semantics for every other path).

    Tracks the kinds of edges on the paths used to reach a column; a
    column is re-expanded whenever its kind set grows, or — under a depth
    limit — whenever it is re-reached strictly closer to the start.
    """
    reached_kinds = {}
    if max_depth is None:
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for target, kind in (adjacency.get(current) or {}).items():
                kinds = reached_kinds.get(target)
                if kinds is None:
                    kinds = reached_kinds[target] = set()
                before = len(kinds)
                if kind == EDGE_BOTH:
                    kinds.add(EDGE_CONTRIBUTE)
                    kinds.add(EDGE_REFERENCE)
                else:
                    kinds.add(kind)
                if len(kinds) != before:
                    queue.append(target)
        return reached_kinds

    best_depth = {}
    queue = deque([(start, 0)])
    while queue:
        current, depth = queue.popleft()
        if depth >= max_depth:
            continue
        for target, kind in (adjacency.get(current) or {}).items():
            kinds = reached_kinds.get(target)
            if kinds is None:
                kinds = reached_kinds[target] = set()
            before = len(kinds)
            if kind == EDGE_BOTH:
                kinds.add(EDGE_CONTRIBUTE)
                kinds.add(EDGE_REFERENCE)
            else:
                kinds.add(kind)
            next_depth = depth + 1
            if len(kinds) != before or next_depth < best_depth.get(
                target, max_depth
            ):
                previous = best_depth.get(target)
                if previous is None or next_depth < previous:
                    best_depth[target] = next_depth
                queue.append((target, next_depth))
    return reached_kinds


def impact_analysis(graph, column, direction="downstream", *, max_depth=None,
                    method="auto", missing="empty"):
    """Compute the transitive impact closure of ``column``.

    Parameters
    ----------
    graph:
        A :class:`~repro.core.lineage.LineageGraph`.
    column:
        The starting column, as a :class:`ColumnName` or ``"table.column"``.
    direction:
        ``"downstream"`` (default; what breaks if this column changes) or
        ``"upstream"`` (where this column's values come from).
    max_depth:
        Optional hop limit; forces the BFS path (the reachability index
        stores unbounded closures only).
    method:
        ``"auto"`` (default) answers from the graph's reachability index
        when one is current and by BFS otherwise — published snapshots
        carry none, so served reads take the BFS; ``"index"`` builds (and
        on a snapshot pins) an index first, for many queries against one
        graph version; ``"bfs"`` forces the traversal (the differential
        reference).
    missing:
        ``"empty"`` (default) keeps the historical behaviour: an unknown
        start column yields an empty result, indistinguishable from a
        true leaf.  ``"raise"`` raises
        :class:`~repro.core.errors.UnknownColumnError` (a ``KeyError``)
        with a nearest-name hint instead.

    Returns
    -------
    ImpactResult
        The affected columns, partitioned by how they are reached.  A column
        reached through at least one contribution edge *and* at least one
        reference edge (on possibly different paths) is classified as
        ``both`` — matching the orange highlighting of the paper's UI.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if missing not in _MISSING:
        raise ValueError(f"missing must be one of {_MISSING}, got {missing!r}")
    start = _as_column_name(column)
    adjacency = graph.column_adjacency(direction)  # also validates direction
    if missing == "raise" and not column_known(graph, start):
        raise UnknownColumnError(start, hint=nearest_column(graph, start))

    if method != "bfs" and max_depth is None:
        index = graph.reachability(build=(method == "index"))
        if index is not None:
            contributed, referenced, both = index.partition(start, direction)
            # the partition's NameSet views are shared with the index
            # memo and immutable, so they are handed out directly —
            # copying them would re-hash the whole answer on every query
            return ImpactResult(
                start=start,
                direction=direction,
                contributed=contributed,
                referenced=referenced,
                both=both,
            )

    reached_kinds = _bfs_partition(adjacency, start, max_depth=max_depth)
    result = ImpactResult(start=start, direction=direction)
    for name, kinds in reached_kinds.items():
        if kinds >= {EDGE_CONTRIBUTE, EDGE_REFERENCE}:
            result.both.add(name)
        elif EDGE_CONTRIBUTE in kinds:
            result.contributed.add(name)
        else:
            result.referenced.add(name)
    return result


def merge_impacts(results):
    """Merge per-start :class:`ImpactResult` objects into one partition.

    Used by multi-start selector queries (``schema.table.*``): a column
    contributed to from one start and referenced from another is ``both``,
    mirroring how the per-column kind sets would union in a single BFS.
    """
    results = list(results)
    if not results:
        raise ValueError("merge_impacts needs at least one result")
    contributed = set()
    referenced = set()
    both = set()
    for result in results:
        contributed |= result.contributed
        referenced |= result.referenced
        both |= result.both
    both |= contributed & referenced
    contributed -= both
    referenced -= both
    return ImpactResult(
        start=results[0].start,
        direction=results[0].direction,
        contributed=contributed,
        referenced=referenced,
        both=both,
    )


def downstream_columns(graph, column, **kwargs):
    """All columns transitively affected by a change to ``column``."""
    return impact_analysis(graph, column, direction="downstream", **kwargs).all_columns


def upstream_columns(graph, column, **kwargs):
    """All columns that transitively feed ``column``."""
    return impact_analysis(graph, column, direction="upstream", **kwargs).all_columns


def _tables_within(adjacency, table, hops):
    """Tables reachable from ``table`` within ``hops`` steps (excl. itself)."""
    reached = set()
    frontier = [table]
    iterations = range(hops) if hops is not None else iter(int, 1)
    for _ in iterations:
        next_frontier = []
        for current in frontier:
            for neighbor in adjacency.get(current, ()):
                if neighbor != table and neighbor not in reached:
                    reached.add(neighbor)
                    next_frontier.append(neighbor)
        if not next_frontier:
            break
        frontier = next_frontier
    return reached


def explore(graph, table, hops=1):
    """The *explore* action of the UI: tables within ``hops`` of ``table``.

    Returns ``(upstream_tables, downstream_tables)`` — each a set of table
    names reachable within the requested number of hops over table-level
    edges, excluding ``table`` itself.  ``hops=None`` means the full
    transitive closure.  Both walk the table-level adjacency on every
    call, on live and frozen graphs alike.
    """
    downstream = _tables_within(graph.table_successors(), table, hops)
    upstream = _tables_within(graph.table_predecessors(), table, hops)
    return upstream, downstream


def impact_report(graph, column, direction="downstream", max_depth=None):
    """A printable multi-line report of an impact analysis."""
    result = impact_analysis(graph, column, direction=direction, max_depth=max_depth)
    lines = [
        f"Impact analysis for {result.start} ({direction}):",
        f"  impacted tables:  {', '.join(result.impacted_tables()) or '(none)'}",
        f"  impacted columns: {len(result.all_columns)}",
    ]
    for table, column_name, kind in result.to_rows():
        lines.append(f"    {table}.{column_name:<20s} [{kind}]")
    return "\n".join(lines)
