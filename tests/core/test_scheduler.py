"""Tests for the Table/View Auto-Inference scheduler (the stack mechanism).

These tests exercise the reactive ``mode="stack"`` scheduler — the paper's
LIFO-deferral behaviour, which also serves as the fallback of the plan-first
DAG mode.  The DAG mode itself is covered in ``test_dag.py``.
"""

import pickle

import pytest

from repro.catalog import Catalog
from repro.core.errors import (
    AmbiguousColumnError,
    CyclicDependencyError,
    DeferralLimitExceededError,
    UnknownRelationError,
)
from repro.core.preprocess import preprocess
from repro.core.runner import LineageXRunner
from repro.core.scheduler import AutoInferenceScheduler
from repro.datasets import example1


def run_scheduler(sql, catalog=None, use_stack=True, collect_traces=False,
                  mode="stack", **kwargs):
    scheduler = AutoInferenceScheduler(
        preprocess(sql),
        catalog=catalog,
        use_stack=use_stack,
        collect_traces=collect_traces,
        mode=mode,
        **kwargs,
    )
    return scheduler.run()


class TestStackDeferral:
    def test_example1_defers_to_dependencies_first(self):
        graph, report = run_scheduler(example1.QUERY_LOG)
        assert report.order == ["webinfo", "webact", "info"]
        assert report.deferral_count == 2
        assert not report.unresolved

    def test_dependency_order_input_needs_no_deferrals(self):
        graph, report = run_scheduler(example1.QUERY_LOG_ORDERED)
        assert report.order == ["webinfo", "webact", "info"]
        assert report.deferral_count == 0

    def test_deferral_events_recorded(self):
        _, report = run_scheduler(example1.QUERY_LOG)
        defer_events = [event for event in report.events if event.kind == "defer"]
        assert {(event.identifier, event.missing) for event in defer_events} == {
            ("info", "webact"),
            ("webact", "webinfo"),
        }
        resume_events = [event for event in report.events if event.kind == "resume"]
        assert resume_events, "deferred queries must be resumed"

    def test_result_graph_contains_all_views(self):
        graph, _ = run_scheduler(example1.QUERY_LOG)
        assert {lineage.name for lineage in graph} == {"info", "webact", "webinfo"}

    def test_star_resolved_through_deferral(self):
        graph, _ = run_scheduler(example1.QUERY_LOG)
        assert graph["info"].output_columns == [
            "name", "age", "oid", "wcid", "wdate", "wpage", "wreg",
        ]

    def test_chain_of_stars(self):
        sql = """
        CREATE VIEW c AS SELECT b.* FROM b;
        CREATE VIEW b AS SELECT a.* FROM a;
        CREATE VIEW a AS SELECT t.x, t.y FROM t;
        """
        graph, report = run_scheduler(sql)
        assert report.order == ["a", "b", "c"]
        assert graph["c"].output_columns == ["x", "y"]
        assert graph["c"].contributions["x"] == {
            __import__("repro").ColumnName.of("b", "x")
        }

    def test_unknown_external_table_does_not_defer(self):
        sql = "CREATE VIEW v AS SELECT t.a FROM external_table t"
        graph, report = run_scheduler(sql)
        assert report.deferral_count == 0
        assert not report.unresolved

    def test_catalog_satisfies_dependency_without_deferral(self):
        catalog = Catalog()
        catalog.create_table("webact", ["wcid", "wdate", "wpage", "wreg"])
        sql = "CREATE VIEW v AS SELECT w.* FROM webact w"
        graph, report = run_scheduler(sql, catalog=catalog)
        assert report.deferral_count == 0
        assert graph["v"].output_columns == ["wcid", "wdate", "wpage", "wreg"]

    def test_traces_collected_when_requested(self):
        _, report = run_scheduler(example1.QUERY_LOG, collect_traces=True)
        assert set(report.traces) == {"info", "webact", "webinfo"}


class TestPlanFallback:
    def test_select_star_over_later_defined_view(self):
        sources = {
            "late": "CREATE VIEW late AS SELECT * FROM early",
            "early": "CREATE VIEW early AS SELECT a, b FROM base",
        }
        result = LineageXRunner().run(sources)
        assert not result.report.unresolved
        assert result.graph["late"].output_columns == ["a", "b"]


class TestErrorPickling:
    def test_unknown_relation_error_survives_pickling(self):
        error = pickle.loads(pickle.dumps(UnknownRelationError("t", reason="why")))
        assert error.relation == "t"
        assert error.reason == "why"

    def test_ambiguous_column_error_survives_pickling(self):
        error = pickle.loads(pickle.dumps(AmbiguousColumnError("c", ["a", "b"])))
        assert error.column == "c"
        assert error.candidates == ["a", "b"]


class TestCyclesAndFailures:
    def test_mutual_recursion_raises_cycle_error(self):
        sql = """
        CREATE VIEW a AS SELECT b.* FROM b;
        CREATE VIEW b AS SELECT a.* FROM a;
        """
        with pytest.raises(CyclicDependencyError):
            run_scheduler(sql)

    def test_direct_self_reference_degrades_gracefully(self):
        # A view reading the relation it defines (invalid as a view, but the
        # same shape as UPDATE ... FROM on the target) must not deadlock the
        # stack: it is processed with its own columns treated as unknown.
        graph, report = run_scheduler("CREATE VIEW a AS SELECT a.* FROM a")
        assert "a" in graph
        assert not report.unresolved

    def test_cycle_error_lists_participants(self):
        sql = """
        CREATE VIEW a AS SELECT b.* FROM b;
        CREATE VIEW b AS SELECT a.* FROM a;
        """
        with pytest.raises(CyclicDependencyError) as excinfo:
            run_scheduler(sql)
        assert set(excinfo.value.cycle) >= {"a", "b"}

    def test_deferral_limit_raises_dedicated_error(self):
        # A two-deep dependency chain needs two deferrals when processed in
        # reverse order; max_deferrals=1 must trip the dedicated error (not
        # a plain cycle report) and carry the stack at the moment of failure.
        sql = """
        CREATE VIEW c AS SELECT b.* FROM b;
        CREATE VIEW b AS SELECT a.* FROM a;
        CREATE VIEW a AS SELECT t.x FROM t;
        """
        with pytest.raises(DeferralLimitExceededError) as excinfo:
            run_scheduler(sql, max_deferrals=1)
        assert excinfo.value.limit == 1
        assert excinfo.value.stack == ["c", "b"]
        # it still subclasses CyclicDependencyError for existing handlers
        assert isinstance(excinfo.value, CyclicDependencyError)

    def test_deferral_limit_not_hit_when_budget_suffices(self):
        sql = """
        CREATE VIEW c AS SELECT b.* FROM b;
        CREATE VIEW b AS SELECT a.* FROM a;
        CREATE VIEW a AS SELECT t.x FROM t;
        """
        graph, report = run_scheduler(sql, max_deferrals=2)
        assert report.order == ["a", "b", "c"]
        assert report.deferral_count == 2


class TestStackAblation:
    def test_without_stack_star_over_later_view_degrades(self):
        graph, report = run_scheduler(example1.QUERY_LOG, use_stack=False)
        # info is processed before webact is known -> wildcard output
        assert graph["info"].output_columns[-1] == "*"
        assert report.deferral_count == 0

    def test_without_stack_dependency_order_still_works(self):
        graph, report = run_scheduler(example1.QUERY_LOG_ORDERED, use_stack=False)
        assert graph["info"].output_columns == [
            "name", "age", "oid", "wcid", "wdate", "wpage", "wreg",
        ]

    def test_stack_makes_processing_order_irrelevant(self):
        from repro.datasets import workload

        warehouse = workload.generate_warehouse(num_base_tables=4, num_views=15, seed=9)
        ordered_graph, _ = run_scheduler(warehouse.script, catalog=warehouse.catalog())
        shuffled_graph, _ = run_scheduler(
            warehouse.shuffled_script(), catalog=warehouse.catalog()
        )
        for name in warehouse.views:
            assert ordered_graph[name].output_columns == shuffled_graph[name].output_columns
            assert ordered_graph[name].contributions == shuffled_graph[name].contributions
