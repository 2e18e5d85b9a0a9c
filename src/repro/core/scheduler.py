"""Table/View Auto-Inference: planned and stack-based query scheduling.

Section III of the paper: the extraction module "gives priority to SQL
statements identified by keys in QD"; when a traversal encounters a table or
view that has not been processed yet, the current traversal is deferred onto
a stack, the missing dependency is processed first, and the deferred work is
resumed in LIFO order.  This is what makes ``SELECT *`` over a later-defined
view and unprefixed column references resolvable without DBMS metadata.

This module supports two scheduling modes:

* ``mode="dag"`` (the default) — *plan-first*: a cheap pre-pass
  (:class:`~repro.core.dag.DependencyDAG`) reads each statement's
  ``FROM``/``JOIN``/set-operation sources, topologically sorts the Query
  Dictionary into waves, and extracts them one entry at a time in
  dependency order.  The LIFO deferral stack is retained only as a
  fallback for references the pre-pass cannot see; on well-formed input
  it never fires.
* ``mode="stack"`` — the paper's reactive behaviour: process entries in
  Query Dictionary order and discover dependencies via thrown
  :class:`UnknownRelationError`.

The scheduler also supports ``use_stack=False`` for the ablation benchmark
(ABL-STACK in DESIGN.md): queries are then processed strictly in Query
Dictionary order and any not-yet-known relation is treated as an external
table of unknown schema, reproducing the failure modes of single-pass tools.
(``use_stack=False`` forces the reactive mode — planning would mask exactly
the failure modes the ablation measures.)

``seed_results`` pre-populates extraction results (keyed by identifier) and
is the substrate of incremental re-extraction: seeded entries are treated as
already processed and spliced into the output graph unchanged.

``store_lookup`` is the warm-start hook: when an entry comes due and every
Query Dictionary relation it reads already has a result, the scheduler asks
``store_lookup(entry, results)`` for a stored lineage before extracting it.
A hit is spliced like a seed.  Because the lookup waits for the upstream
*results*, not for upstream hits, a re-extracted entry whose output columns
did not change leaves its dependents' keys intact and they still hit
("early cutoff").  Entries on or downstream of a dependency cycle are never
looked up: the cold path raises for them, and a warm hit must not change
which runs fail.
"""

from dataclasses import dataclass, field

from .dag import DependencyDAG
from .errors import (
    CyclicDependencyError,
    DeferralLimitExceededError,
    UnknownRelationError,
)
from .extractor import LineageExtractor, SchemaProvider
from .lineage import LineageGraph
from ..sqlparser.dialect import normalize_name


@dataclass
class DeferralEvent:
    """One stack operation, recorded for tests and the ablation bench."""

    kind: str            # "defer" | "resume" | "done"
    identifier: str
    missing: str = ""


@dataclass
class ScheduleReport:
    """What the scheduler did: plan, processing order, and deferral events."""

    order: list = field(default_factory=list)
    events: list = field(default_factory=list)
    unresolved: dict = field(default_factory=dict)   # identifier -> error message
    traces: dict = field(default_factory=dict)       # identifier -> ExtractionTrace
    mode: str = "stack"
    waves: list = field(default_factory=list)        # the topological plan (dag mode)
    reused: list = field(default_factory=list)       # identifiers spliced from a cache
    #: where each reused identifier was spliced from: ``"memory"`` (the
    #: previous result's graph, i.e. the incremental layer) or ``"store"``
    #: (the persistent content-addressed lineage store, via ``store_lookup``).
    reused_from: dict = field(default_factory=dict)

    @property
    def deferral_count(self):
        return sum(1 for event in self.events if event.kind == "defer")


class _SchedulerProvider(SchemaProvider):
    """Schema provider that reflects the scheduler's progress.

    Column lookups consult, in order: lineage already extracted for a Query
    Dictionary entry, the optional catalog, and finally — when the relation
    is a *pending* Query Dictionary entry and the stack is enabled — raise
    :class:`UnknownRelationError` so the scheduler defers to it.

    ``current`` is the identifier being extracted through this provider; a
    query reading the relation it also writes (``UPDATE ... FROM``,
    self-referencing ``INSERT``) must not be treated as a missing dependency
    on itself.
    """

    def __init__(self, scheduler, current=None):
        self.scheduler = scheduler
        self.current = current

    def get_columns(self, name):
        name = normalize_name(name)
        scheduler = self.scheduler
        lineage = scheduler.results.get(name)
        if lineage is not None:
            # memoized across statements within the run; the cached list is
            # stamped with the TableLineage version token so a (never
            # expected) post-record mutation invalidates instead of serving
            # stale columns.  Wide schemas referenced by many statements
            # stop rebuilding their column list per reference.
            cached = scheduler.schema_cache.get(name)
            if cached is not None and cached[0] == lineage._version:
                return list(cached[1])
            columns = list(lineage.output_columns)
            scheduler.schema_cache[name] = (lineage._version, columns)
            return list(columns)
        if (
            scheduler.use_stack
            and name in scheduler.pending
            and name != self.current
        ):
            # A pending Query Dictionary entry shadows any same-named
            # catalog table: a relation that is both a catalog table and a
            # write target (MERGE/UPDATE/INSERT into a base table) must
            # resolve to the entry's extracted output columns regardless of
            # processing order — falling back to the catalog here would
            # make stack-mode results depend on statement order.
            raise UnknownRelationError(
                name, reason="defined by a not-yet-processed query"
            )
        if scheduler.catalog is not None:
            # the catalog is frozen for the duration of a run (it is built
            # before scheduling and only merged/extended between runs), so
            # its column lists memoize under a version-less token
            cached = scheduler.schema_cache.get(name)
            if cached is not None and cached[0] is None:
                return list(cached[1])
            table = scheduler.catalog.get(name)
            if table is not None:
                columns = table.column_names()
                scheduler.schema_cache[name] = (None, list(columns))
                return columns
        return None


class AutoInferenceScheduler:
    """Drive lineage extraction over a whole Query Dictionary."""

    def __init__(
        self,
        query_dictionary,
        catalog=None,
        strict=False,
        use_stack=True,
        collect_traces=False,
        max_deferrals=None,
        mode="dag",
        seed_results=None,
        store_lookup=None,
        dag=None,
        release_asts=False,
    ):
        if mode not in ("dag", "stack"):
            raise ValueError(f"mode must be 'dag' or 'stack', got {mode!r}")
        self.query_dictionary = query_dictionary
        self.catalog = catalog
        self.strict = strict
        self.use_stack = use_stack
        self.collect_traces = collect_traces
        self.max_deferrals = max_deferrals
        self.mode = mode if use_stack else "stack"
        #: streaming mode: drop each entry's AST as soon as its lineage is
        #: recorded, so a run holds at most one wave's ASTs at a time.
        self.release_asts = release_asts
        self.results = {}
        #: name -> (TableLineage._version, [columns]); the provider's
        #: per-relation resolved-column memo (see _SchedulerProvider).
        self.schema_cache = {}
        self.pending = set(query_dictionary.identifiers())
        self.seeded = []
        if seed_results:
            for identifier in query_dictionary.identifiers():
                lineage = seed_results.get(identifier)
                if lineage is not None:
                    self.results[identifier] = lineage
                    self.pending.discard(identifier)
                    self.seeded.append(identifier)
        self.store_lookup = store_lookup
        #: entries never looked up in the store (the plan's cyclic leftovers)
        self.cyclic = frozenset()
        #: a pre-built DependencyDAG for this Query Dictionary may be passed
        #: in (the incremental runner already computed one for its dirty
        #: set); otherwise the plan-first mode builds it on demand.
        self.dag = dag
        self.provider = _SchedulerProvider(self)
        self.extractor = LineageExtractor(
            provider=self.provider,
            strict=strict,
            collect_trace=collect_traces,
        )

    # ------------------------------------------------------------------
    def run(self):
        """Process every Query Dictionary entry; return (graph, report)."""
        report = ScheduleReport(
            mode=self.mode,
            reused=list(self.seeded),
            reused_from=dict.fromkeys(self.seeded, "memory"),
        )
        if self.mode == "dag":
            self._run_planned(report)
        else:
            for identifier in self.query_dictionary.identifiers():
                if identifier not in self.pending:
                    continue
                self._process_with_stack(identifier, report)

        graph = LineageGraph()
        for identifier in self.seeded:
            graph.add(self.results[identifier])
        for identifier in report.order:
            lineage = self.results.get(identifier)
            if lineage is not None:
                graph.add(lineage)
        return graph, report

    # ------------------------------------------------------------------
    # Plan-first (DAG) mode
    # ------------------------------------------------------------------
    def _run_planned(self, report):
        if self.dag is None:
            self.dag = DependencyDAG.from_query_dictionary(self.query_dictionary)
        waves, deferred = self.dag.waves()
        report.waves = [list(wave) for wave in waves]
        self.cyclic = frozenset(deferred)
        # Entries the plan could not order (dependency cycles) go last: the
        # stack reports genuine cycles with the participant list.
        for identifier in [name for wave in waves for name in wave] + list(deferred):
            if identifier in self.pending:
                self._process_with_stack(identifier, report)

    def _splice_from_store(self, identifier, entry, report):
        """Splice ``identifier`` from the store if it is due and stored.

        The key of a stored record fingerprints the schemas of everything
        the entry reads, so it can only be built once every Query
        Dictionary relation among them has a result.
        """
        if self.store_lookup is None or identifier in self.cyclic:
            return False
        results = self.results
        entries = self.query_dictionary.entries
        for name in entry.table_refs():
            if name != identifier and name not in results and name in entries:
                return False
        lineage = self.store_lookup(entry, results)
        if lineage is None:
            return False
        results[identifier] = lineage
        self.pending.discard(identifier)
        self.seeded.append(identifier)
        report.reused.append(identifier)
        report.reused_from[identifier] = "store"
        return True

    def _record(self, identifier, lineage, trace, report):
        self.results[identifier] = lineage
        self.pending.discard(identifier)
        report.order.append(identifier)
        if self.collect_traces:
            report.traces[identifier] = trace
        report.events.append(DeferralEvent(kind="done", identifier=identifier))
        if self.release_asts:
            # streaming: the entry's lineage is recorded and its derived
            # facts (table_refs, content_hash) are cached, so the AST —
            # the dominant per-entry allocation — can go now instead of
            # living until the end of the run
            entry = self.query_dictionary.get(identifier)
            if entry is not None:
                entry.release()

    # ------------------------------------------------------------------
    # Reactive (stack) mode — also the fallback for pre-pass misses
    # ------------------------------------------------------------------
    def _process_with_stack(self, identifier, report):
        stack = [identifier]
        deferrals = 0
        limit = self.max_deferrals or (10 * max(len(self.query_dictionary), 1))
        while stack:
            current = stack[-1]
            if current not in self.pending:
                stack.pop()
                continue
            entry = self.query_dictionary.get(current)
            if not self._splice_from_store(current, entry, report):
                self.provider.current = current
                try:
                    lineage, trace = self.extractor.extract_statement(entry)
                except UnknownRelationError as error:
                    missing = normalize_name(error.relation)
                    if not self.use_stack:
                        # Without the stack we cannot recover; record and move on.
                        report.unresolved[current] = str(error)
                        self.pending.discard(current)
                        stack.pop()
                        continue
                    if missing in stack:
                        raise CyclicDependencyError(
                            stack[stack.index(missing):] + [missing]
                        )
                    if missing not in self.pending:
                        # The dependency failed previously; give up on this entry.
                        report.unresolved[current] = str(error)
                        self.pending.discard(current)
                        stack.pop()
                        continue
                    deferrals += 1
                    if deferrals > limit:
                        raise DeferralLimitExceededError(stack, limit)
                    report.events.append(
                        DeferralEvent(kind="defer", identifier=current, missing=missing)
                    )
                    stack.append(missing)
                    continue
                finally:
                    self.provider.current = None
                self._record(current, lineage, trace, report)
            # Success (extracted or spliced): resume whatever was deferred.
            stack.pop()
            if stack:
                report.events.append(
                    DeferralEvent(kind="resume", identifier=stack[-1], missing=current)
                )
        return report
