"""Dependency ordering and warehouse hygiene reports.

The paper's introduction motivates column lineage with "storage refactoring
and workflow migration": both need to know in which order views can be
(re)created and which objects nothing depends on.  These helpers answer that
from a :class:`~repro.core.lineage.LineageGraph`, traversing its cached
table-level adjacency index directly (no networkx graph is built).  Live
and frozen graphs answer alike and nothing is memoised: each call runs
one pass over the adjacency, so a snapshot's ``/ordering`` read pays one
Kahn pass.

* :func:`creation_order` — a topological order of the views (dependencies
  first), i.e. the order a migration script must replay them in;
* :func:`drop_order` — the reverse (dependents first), for teardown;
* :func:`terminal_views` — views with no downstream consumers (candidates
  for deprecation review);
* :func:`unused_base_columns` — base-table columns no view reads (given a
  catalog), candidates for storage cleanup.
"""

from ..core.errors import CyclicDependencyError


def _topological_tables(graph):
    """All relations in dependency order (Kahn's algorithm, deterministic).

    Ties are broken by the graph's relation insertion order.  Raises
    :class:`~repro.core.errors.CyclicDependencyError` if the table-level
    dependencies are cyclic (which the extractor itself would normally have
    rejected).  A relation that reads what it writes (an upsert, a
    self-reading ``UPDATE`` or ``MERGE``) is not its own dependency, as in
    :mod:`repro.core.dag`: its self-edge counts neither here nor in
    :func:`terminal_views` and :func:`root_tables`.
    """
    names = list(graph.relations)
    successors = graph.table_successors()
    predecessors = graph.table_predecessors()
    known = set(names)
    # a source table may be referenced without ever being materialised as a
    # relation node (e.g. no column reference hits it); such phantom edges
    # must not count towards the indegree or everything downstream of them
    # would be reported as cyclic
    indegree = {
        name: sum(
            1 for source in predecessors.get(name, ())
            if source in known and source != name
        )
        for name in names
    }
    queue = [name for name in names if indegree[name] == 0]
    order = []
    cursor = 0
    while cursor < len(queue):
        name = queue[cursor]
        cursor += 1
        order.append(name)
        for dependent in successors.get(name, ()):
            if dependent == name:
                continue
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                queue.append(dependent)
    if len(order) != len(names):
        raise CyclicDependencyError(
            sorted(name for name in names if indegree[name] > 0)
        )
    return order


def _read_by_others(name, successors):
    return any(dependent != name for dependent in successors.get(name, ()))


def creation_order(graph):
    """Views in dependency order (every view appears after its sources).

    Raises :class:`~repro.core.errors.CyclicDependencyError` if the view
    dependencies are cyclic (which the extractor itself would normally have
    rejected).
    """
    view_names = {entry.name for entry in graph.views}
    return [name for name in _topological_tables(graph) if name in view_names]


def drop_order(graph):
    """Views in reverse dependency order (safe DROP sequence)."""
    return list(reversed(creation_order(graph)))


def terminal_views(graph):
    """Views that no other relation reads (the "leaves" of the warehouse)."""
    successors = graph.table_successors()
    return sorted(
        entry.name for entry in graph.views
        if not _read_by_others(entry.name, successors)
    )


def root_tables(graph):
    """Base tables that at least one view reads directly."""
    successors = graph.table_successors()
    return sorted(
        entry.name for entry in graph.base_tables
        if _read_by_others(entry.name, successors)
    )


def unused_base_columns(graph, catalog):
    """Catalog columns of base tables that no view contributes from or references.

    Returns a mapping ``{table: [unused columns...]}`` with empty-free entries.
    """
    used = set()
    for view in graph.views:
        for sources in view.contributions.values():
            used |= {str(source) for source in sources}
        used |= {str(source) for source in view.referenced}

    report = {}
    for table in catalog.base_tables():
        unused = [
            column
            for column in table.column_names()
            if f"{table.name}.{column}" not in used
        ]
        if unused:
            report[table.name] = unused
    return report


def migration_script(graph):
    """Regenerate a CREATE-statement script in a replayable order.

    Uses the SQL text captured for each view during preprocessing; views with
    no recorded SQL are skipped (e.g. graphs rebuilt from JSON).
    """
    statements = []
    for name in creation_order(graph):
        entry = graph[name]
        if entry.sql:
            statements.append(entry.sql.strip().rstrip(";") + ";")
    return "\n\n".join(statements) + ("\n" if statements else "")
