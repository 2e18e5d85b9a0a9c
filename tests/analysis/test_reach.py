"""The precomputed reachability index: equivalence with BFS and staleness.

The load-bearing property: for EVERY column and direction, the indexed
partition (contributed/referenced/both) must be byte-identical to the
kind-tracking BFS — on hypothesis-generated graphs including cycles,
self-reads and mixed edge kinds, and across full builds, incremental
refreshes, and frozen snapshots.  Secondary properties: a stale index is
never served (the state-token machinery), and freezing pins results
against later mutation of the source graph.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.impact import explore, impact_analysis
from repro.analysis.ordering import (
    creation_order,
    drop_order,
    root_tables,
    terminal_views,
)
from repro.analysis.reach import ReachabilityIndex
from repro.core.column_refs import ColumnName
from repro.core.errors import UnknownColumnError
from repro.core.lineage import LineageGraph, TableLineage
from repro.core.runner import lineagex


# ----------------------------------------------------------------------
# graph generation
# ----------------------------------------------------------------------
def _build_graph(recipe):
    """Materialise a generated recipe into a LineageGraph.

    ``recipe`` is a list of per-relation edge plans; table ``ti`` may read
    from any table (later, earlier, or itself), so cycles and self-reads
    arise naturally.
    """
    n_tables, plans = recipe
    graph = LineageGraph()
    for i in range(n_tables):
        entry = TableLineage(name=f"t{i}", is_base_table=(i == 0))
        for c in range(3):
            entry.add_output_column(f"c{c}")
        graph.add(entry)
    for table_index, edges in plans:
        entry = graph[f"t{table_index % n_tables}"]
        for source_table, source_column, target_column, is_reference in edges:
            source = ColumnName.of(
                f"t{source_table % n_tables}", f"c{source_column}"
            )
            if is_reference:
                entry.add_reference(source)
            else:
                entry.add_contribution(f"c{target_column}", source)
    return graph


_edge = st.tuples(
    st.integers(0, 7),      # source table (mod n -> cycles/self-reads)
    st.integers(0, 2),      # source column
    st.integers(0, 2),      # target column
    st.booleans(),          # reference vs contribution
)
_recipe = st.tuples(
    st.integers(2, 8),
    st.lists(
        st.tuples(st.integers(0, 7), st.lists(_edge, max_size=6)),
        max_size=8,
    ),
)


def _partition(result):
    return (
        frozenset(result.contributed),
        frozenset(result.referenced),
        frozenset(result.both),
    )


def _assert_index_matches_bfs(graph, index_graph=None):
    """Index results on ``index_graph`` must equal BFS on ``graph``."""
    if index_graph is None:
        index_graph = graph
    columns = set(graph.column_adjacency("downstream"))
    columns |= set(graph.column_adjacency("upstream"))
    columns.add(ColumnName.of("t0", "c0"))
    for column in sorted(columns):
        for direction in ("downstream", "upstream"):
            bfs = impact_analysis(graph, column, direction=direction, method="bfs")
            indexed = impact_analysis(
                index_graph, column, direction=direction, method="index"
            )
            assert _partition(indexed) == _partition(bfs), (
                f"{column} {direction}: index != BFS"
            )
            assert indexed.to_rows() == bfs.to_rows()


prop_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestIndexEqualsBfs:
    @prop_settings
    @given(recipe=_recipe)
    def test_frozen_index_matches_bfs(self, recipe):
        graph = _build_graph(recipe)
        _assert_index_matches_bfs(graph, graph.freeze())

    @prop_settings
    @given(recipe=_recipe)
    def test_forced_live_index_matches_bfs(self, recipe):
        graph = _build_graph(recipe)
        graph.reachability()  # force a build; auto method must then use it
        assert graph.reachability(build=False) is not None
        _assert_index_matches_bfs(graph, graph)

    @prop_settings
    @given(recipe=_recipe, extra=st.lists(_edge, min_size=1, max_size=5))
    def test_index_after_mutation_matches_bfs(self, recipe, extra):
        """Mutating after a build must never serve stale closures."""
        graph = _build_graph(recipe)
        graph.reachability()
        entry = graph["t1"]
        for source_table, source_column, target_column, is_reference in extra:
            source = ColumnName.of(
                f"t{source_table % len(graph)}", f"c{source_column}"
            )
            if is_reference:
                entry.add_reference(source)
            else:
                entry.add_contribution(f"c{target_column}", source)
        # the old index is stale and must not be returned
        assert graph.reachability(build=False) is None
        _assert_index_matches_bfs(graph, graph.freeze())


class TestIncrementalRefresh:
    def _chain_graph(self):
        graph = LineageGraph()
        base = TableLineage(name="base", is_base_table=True)
        for c in ("a", "b"):
            base.add_output_column(c)
        graph.add(base)
        previous = "base"
        for i in range(4):
            view = TableLineage(name=f"v{i}")
            view.add_output_column("a")
            view.add_contribution("a", ColumnName.of(previous, "a"))
            view.add_reference(ColumnName.of(previous, "b" if previous == "base" else "a"))
            graph.add(view)
            previous = f"v{i}"
        return graph

    def test_append_only_growth_refreshes_incrementally(self):
        graph = self._chain_graph()
        first = graph.reachability()
        assert first.revision == 0
        # append new views reading existing relations (+ a new self-read)
        for i in (10, 11):
            view = TableLineage(name=f"w{i}")
            view.add_output_column("a")
            view.add_contribution("a", ColumnName.of("v3", "a"))
            view.add_reference(ColumnName.of(f"w{i}", "a"))
            graph.add(view)
        second = graph.reachability()
        assert second.revision == 1, "append-only growth should patch, not rebuild"
        _assert_index_matches_bfs(graph, graph)
        # and must agree with a from-scratch build
        fresh = ReachabilityIndex.build(graph.freeze())
        for column in sorted(graph.column_adjacency("downstream")):
            for direction in ("downstream", "upstream"):
                assert second.partition(column, direction) == fresh.partition(
                    column, direction
                )

    def test_non_append_mutation_forces_full_rebuild(self):
        graph = self._chain_graph()
        graph.reachability()
        # a new edge between two OLD nodes is not an append
        graph["v2"].add_reference(ColumnName.of("base", "b"))
        rebuilt = graph.reachability()
        assert rebuilt.revision == 0, "old->old edge must force a full rebuild"
        _assert_index_matches_bfs(graph, graph)


class TestFrozenPinning:
    def test_frozen_results_survive_source_mutation(self):
        graph = LineageGraph()
        base = TableLineage(name="base", is_base_table=True)
        base.add_output_column("a")
        graph.add(base)
        view = TableLineage(name="view")
        view.add_output_column("a")
        view.add_contribution("a", ColumnName.of("base", "a"))
        graph.add(view)
        frozen = graph.freeze()
        before = impact_analysis(frozen, "base.a").to_rows()
        # mutate the live graph through a shared entry
        view.add_reference(ColumnName.of("base", "a"))
        assert impact_analysis(frozen, "base.a").to_rows() == before
        assert impact_analysis(graph, "base.a").to_rows() != before

    def test_freeze_reuses_current_live_index(self):
        graph = LineageGraph()
        base = TableLineage(name="base", is_base_table=True)
        base.add_output_column("a")
        graph.add(base)
        live = graph.reachability()
        frozen = graph.freeze()
        assert frozen.reachability() is live

    def test_freeze_of_unindexed_graph_builds_no_index(self, example1_graph):
        frozen = example1_graph.freeze()
        assert frozen.reachability(build=False) is None
        first = frozen.reachability()
        assert first is not None
        assert frozen.reachability() is first
        assert frozen.reachability(build=False) is first
        # the live graph is left without one
        assert example1_graph.reachability(build=False) is None

    def test_published_snapshot_carries_no_index(self, example1_graph):
        from repro.server.snapshot import SnapshotManager

        manager = SnapshotManager(LineageGraph())
        snapshot = manager.install(manager.prepare(example1_graph))
        assert snapshot.graph.reachability(build=False) is None
        index = snapshot.graph.reachability()
        assert index is not None
        # the next generation does not inherit the previous one's index
        following = manager.prepare(example1_graph)
        assert following.graph.reachability(build=False) is None


class TestOrderingFromIndex:
    """Ordering and ``explore`` on frozen graphs and published snapshots
    answer from the pinned adjacency, exactly as on the live graph."""

    def test_frozen_ordering_matches_live(self, example1_graph):
        from repro.server.snapshot import SnapshotManager

        snapshot = SnapshotManager(LineageGraph()).prepare(example1_graph)
        for frozen in (example1_graph.freeze(), snapshot.graph):
            assert creation_order(frozen) == creation_order(example1_graph)
            assert drop_order(frozen) == drop_order(example1_graph)
            assert terminal_views(frozen) == terminal_views(example1_graph)
            assert root_tables(frozen) == root_tables(example1_graph)
            for table in example1_graph.relations:
                assert explore(frozen, table, hops=None) == explore(
                    example1_graph, table, hops=None
                )

    def test_cyclic_table_order_raises_consistently(self):
        from repro.core.errors import CyclicDependencyError

        graph = LineageGraph()
        for name, other in (("a", "b"), ("b", "a")):
            entry = TableLineage(name=name)
            entry.add_output_column("x")
            entry.add_contribution("x", ColumnName.of(other, "x"))
            graph.add(entry)
        with pytest.raises(CyclicDependencyError):
            creation_order(graph)
        frozen = graph.freeze()
        with pytest.raises(CyclicDependencyError):
            creation_order(frozen)
        with pytest.raises(CyclicDependencyError):
            creation_order(frozen)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_self_reading_relation_is_not_a_cycle(self, frozen):
        """An upsert reads the table it writes; the self-edge is not a
        dependency, so everything downstream still orders."""
        graph = lineagex({
            "src": "CREATE TABLE src (id INT, v INT)",
            "stage": (
                "INSERT INTO stage (id, v) SELECT id, v FROM src "
                "ON CONFLICT (id) DO UPDATE SET v = stage.v + EXCLUDED.v"
            ),
            "report": "CREATE VIEW report AS SELECT id, v FROM stage",
        }).graph
        assert "stage" in graph.table_successors()["stage"]
        if frozen:
            graph = graph.freeze()
        assert creation_order(graph) == ["stage", "report"]
        assert drop_order(graph) == ["report", "stage"]
        assert terminal_views(graph) == ["report"]
        assert root_tables(graph) == ["src"]

    @pytest.mark.parametrize("frozen", [False, True])
    def test_view_read_only_by_itself_is_terminal(self, frozen):
        graph = LineageGraph()
        base = TableLineage(name="base", is_base_table=True)
        base.add_output_column("a")
        graph.add(base)
        solo = TableLineage(name="solo")
        solo.add_output_column("a")
        solo.add_contribution("a", ColumnName.of("base", "a"))
        solo.add_reference(ColumnName.of("solo", "a"))
        graph.add(solo)
        if frozen:
            graph = graph.freeze()
        assert terminal_views(graph) == ["solo"]
        assert root_tables(graph) == ["base"]
        assert creation_order(graph) == ["solo"]


class TestQuerySurface:
    def test_max_depth_limits_hops(self, example1_graph):
        full = impact_analysis(example1_graph, "web.page")
        one = impact_analysis(example1_graph, "web.page", max_depth=1)
        assert one.all_columns < full.all_columns
        assert {column.table for column in one.all_columns} == {
            "webact", "webinfo",
        }
        deep = impact_analysis(example1_graph, "web.page", max_depth=99)
        assert _partition(deep) == _partition(full)

    def test_missing_raise_flags_unknown_column(self, example1_graph):
        with pytest.raises(UnknownColumnError):
            impact_analysis(example1_graph, "nowhere.nothing", missing="raise")
        with pytest.raises(KeyError):  # KeyError-derived for library callers
            impact_analysis(example1_graph, "nowhere.nothing", missing="raise")
        # default keeps the historical empty-result behaviour
        empty = impact_analysis(example1_graph, "nowhere.nothing")
        assert not empty.all_columns

    def test_missing_raise_hint_names_nearest_column(self, example1_graph):
        with pytest.raises(UnknownColumnError) as caught:
            impact_analysis(example1_graph, "web.pagee", missing="raise")
        assert caught.value.hint == "web.page"

    def test_edgeless_known_column_is_not_missing(self, example1_graph):
        # a real column with no lineage edges must NOT raise
        frozen = example1_graph.freeze()
        index = frozen.reachability()
        stats = index.stats()
        assert stats["nodes"] > 0 and stats["components"] > 0

    def test_index_stats_shape(self, example1_graph):
        stats = example1_graph.freeze().reachability().stats()
        assert set(stats) >= {
            "nodes", "components", "cyclic_components",
            "exceptions_downstream", "exceptions_upstream", "revision",
        }


class TestWithoutNumpy:
    """With numpy absent (``reach._np = None``) no index is built, and
    every query answers from the BFS and direct-ordering paths exactly as
    the numpy-built index does."""

    _RECIPE = (
        6,
        [
            (0, [(1, 0, 0, False), (2, 1, 1, True)]),
            (1, [(2, 0, 0, False), (1, 1, 2, False)]),   # self-read
            (2, [(0, 2, 1, True), (3, 0, 0, False)]),
            (3, [(4, 1, 1, False), (0, 0, 0, True)]),
            (4, [(5, 2, 2, False), (3, 1, 0, False)]),   # 3 <-> 4 cycle
            (5, [(0, 0, 1, True), (2, 2, 2, False)]),
        ],
    )

    @staticmethod
    def _answers(graph):
        columns = set(graph.column_adjacency("downstream"))
        columns |= set(graph.column_adjacency("upstream"))
        return {
            (column, direction, method): _partition(
                impact_analysis(graph, column, direction=direction, method=method)
            )
            for column in sorted(columns)
            for direction in ("downstream", "upstream")
            for method in ("auto", "index")
        }

    @staticmethod
    def _table_answers(graph):
        return {
            "creation_order": creation_order(graph),
            "drop_order": drop_order(graph),
            "terminal_views": terminal_views(graph),
            "root_tables": root_tables(graph),
            "explore": {
                table: explore(graph, table, hops=None) for table in graph.relations
            },
        }

    def test_no_index_and_same_answers(self, monkeypatch):
        import repro.analysis.reach as reach_module
        from repro.datasets import example1

        with_numpy = _build_graph(self._RECIPE).freeze()
        assert with_numpy.reachability() is not None
        example_with_numpy = lineagex(example1.QUERY_LOG).graph.freeze()
        expected = self._answers(with_numpy)
        expected_tables = self._table_answers(example_with_numpy)

        monkeypatch.setattr(reach_module, "_np", None)
        graph = _build_graph(self._RECIPE)
        assert graph.reachability() is None
        frozen = graph.freeze()
        assert frozen.reachability() is None
        assert self._answers(graph) == expected
        assert self._answers(frozen) == expected

        example = lineagex(example1.QUERY_LOG).graph
        assert example.reachability() is None
        assert self._table_answers(example) == expected_tables
        assert self._table_answers(example.freeze()) == expected_tables
