"""Per-layer spans for the traced run, recorded from outside the program.

The traced run times calls into each module's public entry points.  It
does so by replacing the name where the caller looks it up (a module
global such as ``repro.core.runner.preprocess`` or a class attribute
such as ``LineageStore.put_many``) with a wrapper that records a span:
name, start, end, parent span and request id.  Spans stay in memory and
are written out once, when the run ends.  Nothing under ``src/`` changes.

Only per-statement or coarser entry points are wrapped, so the cost of
tracing stays small next to the work it measures (``trace.overhead``).
"""

import contextvars
import functools
import importlib
import itertools
import json
import threading
from time import perf_counter


class Tracer:
    """In-memory span and counter recorder.

    A span is ``(id, name, start, end, parent, request, tag)``.  The parent
    is the span open in the same context when this one started: nested
    calls on one thread, or on one asyncio task, chain up; work handed to
    an executor thread starts a new root.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.notes = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._request = contextvars.ContextVar("perfbench_request", default=None)
        self._patched = []

    # -- recording -------------------------------------------------------
    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def note(self, key, value):
        """Keep the latest ``value`` under ``key`` (per-object gauges)."""
        self.notes[key] = value

    def span(self, name, tag=None):
        """A context manager recording one span around a block."""
        return _SpanBlock(self, name, tag)

    def wrap(self, name, function, observe=None):
        """``function`` with a span named ``name`` around every call."""
        current = self._current
        request = self._request
        ids = self._ids
        spans = self.spans
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                current.reset(token)
                spans.append((span_id, name, start, end, parent, request.get(), None))
                raise
            end = perf_counter()
            current.reset(token)
            tag = observe(tracer, result, args) if observe is not None else None
            spans.append((span_id, name, start, end, parent, request.get(), tag))
            return result

        return traced

    def wrap_counter(self, function, observe):
        """``function`` with ``observe`` called on every result, no span."""
        tracer = self

        @functools.wraps(function)
        def counted(*args, **kwargs):
            result = function(*args, **kwargs)
            observe(tracer, result, args)
            return result

        return counted

    def wrap_request(self, name, function):
        """An ``async (app, request)`` handler as a root request span.

        The request id is the client's ``X-Request-Id`` header, so spans
        on both sides of the socket share it.
        """
        current = self._current
        request_var = self._request
        ids = self._ids
        spans = self.spans

        @functools.wraps(function)
        async def traced(app, request, *args, **kwargs):
            span_id = next(ids)
            request_id = request.headers.get("x-request-id") or f"d{span_id}"
            request_token = request_var.set(request_id)
            token = current.set(span_id)
            start = perf_counter()
            try:
                return await function(app, request, *args, **kwargs)
            finally:
                end = perf_counter()
                current.reset(token)
                request_var.reset(request_token)
                spans.append(
                    (span_id, name, start, end, None, request_id, request.path)
                )

        return traced

    def clear(self):
        """Drop everything recorded so far (the start of a timed window).

        Called from a signal handler, so it takes no lock: each clear is
        one atomic operation on the list or dict.
        """
        self.spans.clear()
        self.counters.clear()
        self.notes.clear()

    # -- installation ----------------------------------------------------
    def patch(self, target, attribute, make):
        """Replace ``target.attribute`` by ``make(original function)``.

        ``target`` is ``"module"`` or ``"module:Class"``; class and static
        methods keep their descriptor type.
        """
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        raw = vars(owner)[attribute]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attribute, replacement)
        self._patched.append((owner, attribute, raw))

    def install(self):
        """Wrap every entry point in ``LAYERS``, ``COUNTERS`` and ``REQUESTS``."""
        for target, attribute, name, observe in LAYERS:
            self.patch(
                target, attribute,
                lambda function, name=name, observe=observe:
                    self.wrap(name, function, observe),
            )
        for target, attribute, observe in COUNTERS:
            self.patch(
                target, attribute,
                lambda function, observe=observe: self.wrap_counter(function, observe),
            )
        for target, attribute, name in REQUESTS:
            self.patch(
                target, attribute,
                lambda function, name=name: self.wrap_request(name, function),
            )

    def uninstall(self):
        """Restore every patched name (reverse order)."""
        while self._patched:
            owner, attribute, raw = self._patched.pop()
            setattr(owner, attribute, raw)

    # -- output ------------------------------------------------------------
    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "counters": self.counters, "notes": self.notes},
                handle,
            )


class _SpanBlock:
    __slots__ = ("_tracer", "_name", "_tag", "_id", "_parent", "_token", "_start")

    def __init__(self, tracer, name, tag):
        self._tracer = tracer
        self._name = name
        self._tag = tag

    def __enter__(self):
        tracer = self._tracer
        self._id = next(tracer._ids)
        self._parent = tracer._current.get()
        self._token = tracer._current.set(self._id)
        self._start = perf_counter()
        return self

    def __exit__(self, *_exc):
        end = perf_counter()
        tracer = self._tracer
        tracer._current.reset(self._token)
        tracer.spans.append(
            (self._id, self._name, self._start, end, self._parent,
             tracer._request.get(), self._tag)
        )


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------
def _on_get_sources(tracer, result, args):
    tracer.count("parse_cache.lookups", len(args[1]))
    tracer.count("parse_cache.hits", len(result))


def _on_store_get(tracer, result, _args):
    tracer.count("store.get.lookups")
    tracer.count("store.get.hits", result is not None)


def _on_put_many(tracer, result, _args):
    tracer.count("store.put_many.rows", result)


def _on_runner(tracer, result, _args):
    report = result.report
    tracer.count("runner.spliced", len(report.reused))
    tracer.count("runner.reextracted", len(report.order))


def _on_step(tracer, result, _args):
    tracer.count("streaming.consumed", result["consumed"])
    tracer.count("streaming.applied", result["applied"])


def _on_waves(tracer, result, _args):
    tracer.count("dag.waves", len(result[0]))


def _on_impact(tracer, result, _args):
    tracer.count("impact.answers")
    tracer.count(
        "impact.answer_columns",
        len(result.contributed) + len(result.referenced) + len(result.both),
    )


def _on_prepare(_tracer, result, _args):
    # tag the span with the snapshot generation it produced: the load
    # generator matches it to the acknowledgements that carry it
    return result.version


def _on_store_close(tracer, _result, args):
    store = args[0]
    tracer.note(
        f"store.errors.{id(store)}",
        store.error_misses + store.dropped_writes + store.corrupt,
    )


#: (owner, attribute, layer, observe): one span per call
LAYERS = (
    ("repro.sqlparser.parser", "tokenize", "sqlparser.tokenize", None),
    ("repro.core.preprocess", "parse", "sqlparser.parse", None),
    ("repro.core.preprocess", "canonical_sql_and_hash", "sqlparser.canonical_hash", None),
    ("repro.core.preprocess", "content_hash_of", "sqlparser.canonical_hash", None),
    ("repro.core.runner", "preprocess", "preprocess", None),
    ("repro.core.dag:DependencyDAG", "from_query_dictionary", "dag.build", None),
    ("repro.core.scheduler:AutoInferenceScheduler", "run", "scheduler.run", None),
    ("repro.core.extractor:LineageExtractor", "extract_statement",
     "extractor.extract_statement", None),
    ("repro.core.runner:LineageXRunner", "run", "runner.run", _on_runner),
    ("repro.core.runner:LineageXRunner", "run_incremental", "runner.run", _on_runner),
    ("repro.store.store:LineageStore", "prime", "store.prime", None),
    ("repro.store.store:LineageStore", "get", "store.get", _on_store_get),
    ("repro.store.store:LineageStore", "get_sources", "store.get_sources", _on_get_sources),
    ("repro.store.store:LineageStore", "put_source", "store.put_source", None),
    ("repro.store.store:LineageStore", "put_many", "store.put_many", _on_put_many),
    ("repro.store.store:LineageStore", "flush", "store.flush", None),
    ("repro.core.lineage:TableLineage", "from_record", "lineage.from_record", None),
    ("repro.core.lineage:TableLineage", "to_record", "lineage.to_record", None),
    ("repro.session:LineageSession", "extract", "session.extract", None),
    ("repro.session:LineageSession", "refresh", "session.refresh", None),
    ("repro.sources.query_log:LogTailer", "read", "query_log.read", None),
    ("repro.streaming:QueryLogStreamer", "step", "streaming.step", _on_step),
    ("repro.analysis.reach:ReachabilityIndex", "build", "reach.build", None),
    ("repro.analysis.reach:ReachabilityIndex", "refreshed", "reach.refreshed", None),
    ("repro.analysis.reach:ReachabilityIndex", "partition", "reach.partition", None),
    ("repro.server.snapshot:SnapshotManager", "prepare", "snapshot.prepare", _on_prepare),
    ("repro.server.routes", "handle_impact", "routes.handle_impact", None),
    ("repro.server.journal:IngestJournal", "append_batch", "journal.append_batch", None),
)

#: (owner, attribute, observe): counted, not timed
COUNTERS = (
    ("repro.core.dag:DependencyDAG", "waves", _on_waves),
    ("repro.analysis.impact", "impact_analysis", _on_impact),
    ("repro.server.routes", "impact_analysis", _on_impact),
    ("repro.store.store:LineageStore", "close", _on_store_close),
)

#: (owner, attribute, span name): asyncio request handlers (root spans)
REQUESTS = (
    ("repro.server.app", "dispatch", "server.request"),
)

#: layers reported with calls / busy_s / self_s, in report order
SPAN_LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in LAYERS))


# ----------------------------------------------------------------------
# summarising a trace
# ----------------------------------------------------------------------
def _covered(intervals, start, end):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for left, right in sorted(intervals):
        left = max(left, reach)
        right = min(right, end)
        if right > left:
            total += right - left
            reach = right
    return total


def self_times(spans):
    """``{span id: duration minus the part its child spans cover}``."""
    children = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    result = {}
    for span in spans:
        duration = span[3] - span[2]
        kids = children.get(span[0])
        result[span[0]] = duration - _covered(kids, span[2], span[3]) if kids else duration
    return result


def layer_metrics(spans, selves=None):
    """``{layer.calls, layer.busy_s, layer.self_s}`` for every span layer."""
    if selves is None:
        selves = self_times(spans)
    metrics = {}
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.calls"] = 0
        metrics[f"{layer}.busy_s"] = 0.0
        metrics[f"{layer}.self_s"] = 0.0
    for span in spans:
        layer = span[1]
        if f"{layer}.calls" not in metrics:
            continue
        metrics[f"{layer}.calls"] += 1
        metrics[f"{layer}.busy_s"] += span[3] - span[2]
        metrics[f"{layer}.self_s"] += selves[span[0]]
    return metrics


def coverage(spans, roots, selves=None):
    """Share of the root spans' time that their child spans account for."""
    if selves is None:
        selves = self_times(spans)
    total = uncovered = 0.0
    for span in spans:
        if roots(span):
            total += span[3] - span[2]
            uncovered += selves[span[0]]
    return (total - uncovered) / total if total > 0 else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def counter_metrics(counters, notes, edited=0):
    """The counter-derived per-layer metrics."""
    spliced = counters.get("runner.spliced", 0)
    reextracted = counters.get("runner.reextracted", 0)
    return {
        "store.parse_cache_hit_ratio": ratio(
            counters.get("parse_cache.hits", 0), counters.get("parse_cache.lookups", 0)
        ),
        "dag.waves": counters.get("dag.waves", 0),
        "runner.spliced": spliced,
        "runner.reextracted": reextracted,
        "runner.splice_ratio": ratio(spliced, spliced + reextracted - edited),
        "store.hit_ratio": ratio(
            counters.get("store.get.hits", 0), counters.get("store.get.lookups", 0)
        ),
        "store.put_many.rows": counters.get("store.put_many.rows", 0),
        "store.errors": sum(
            value for key, value in notes.items() if key.startswith("store.errors.")
        ),
        "streaming.absorb_ratio": ratio(
            counters.get("streaming.consumed", 0) - counters.get("streaming.applied", 0),
            counters.get("streaming.consumed", 0),
        ),
        "impact.answer_columns": ratio(
            counters.get("impact.answer_columns", 0), counters.get("impact.answers", 0)
        ),
    }


#: every per-layer metric, ``(name, unit)``, in report order
PER_LAYER = tuple(
    (f"{layer}.{kind}", unit)
    for layer in SPAN_LAYERS
    for kind, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
) + (
    ("store.parse_cache_hit_ratio", "ratio"),
    ("dag.waves", "count"),
    ("runner.spliced", "count"),
    ("runner.reextracted", "count"),
    ("runner.splice_ratio", "ratio"),
    ("store.hit_ratio", "ratio"),
    ("store.put_many.rows", "count"),
    ("store.errors", "count"),
    ("streaming.absorb_ratio", "ratio"),
    ("impact.answer_columns", "count"),
    ("server.dedupe_ratio", "ratio"),
    ("server.rejected", "count"),
    ("server.queue_wait_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("ingest_p50_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)
