"""LineageX benchmark: one command, four seeded workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload cold_build --seed 1 --seconds 10 --trace 0

Workloads (inputs come from :mod:`inputs`, built from ``--seed``):

* ``cold_build`` — 10 000 generated statements with their catalog,
  extracted by a session over an empty store;
* ``warm_restart`` — the same corpus, a store primed by a cold build in
  an earlier process, 2% of the views redefined, then a fresh process
  extracts;
* ``serve_mixed`` — the serving daemon under an open-loop read/write mix
  (:mod:`serve`);
* ``stream_replay`` — a 300 000-line JSONL query log replayed into an
  empty store by ``session.stream_log(log).run()``.

The program runs with its default configuration.  Each run checks its
end state against a storeless one-shot extraction of the final corpus
(``cold_build``: against the paper's reference engine, ``mode="stack"``),
outside the timed phase and outside ``setup_s``.

End-to-end metrics (``--trace 0``), every one on every workload:

* ``setup_s`` — the program's set-up before the timed phase.
  ``cold_build`` and ``stream_replay``: the median of three fresh
  processes, spread over the run, that import the program, open a
  session and its store, and exit.  ``warm_restart``: the priming cold
  build, an earlier process, start to exit.  ``serve_mixed``: the median
  of three daemon starts, process start to the readiness line, preload
  included;
* ``stmt_per_s`` — statements (log lines for ``stream_replay``) over the
  wall time of a timed pass, median over the passes that fit in
  ``--seconds``; ``serve_mixed``: statements the daemon accepted per
  second of the traffic window;
* ``peak_rss_mb`` — peak RSS of the process running the program (the
  daemon for ``serve_mixed``); ``store_mb`` — the store's size on disk
  after the run;
* ``read_p50_ms`` — ``serve_mixed``: ``/impact`` latency from when each
  read was due; the others: ``session.impact`` against the end state,
  paced over five seconds after the timed phase, call to return.

Also printed, without a bound, because their spread between runs on a
shared 2-vCPU host is wider than any bound a metric may have: ``fail_ratio``
(the JSON's ``failed`` over ``attempted``), ``read_p99_ms``, and
``ingest_p50_ms`` — ``cold_build``/``warm_restart``: one extraction;
``stream_replay``: one micro-batch step; ``serve_mixed``: the
``POST /extract`` acknowledgement, from when it was due.  The traced run
reports the last two among the per-layer metrics.

``--trace 1`` runs the workload with spans recorded from the benchmark's
own wrappers (:mod:`tracing`) and prints the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files live under ``.perfbench_work/``
in the checkout; the traced run leaves its spans there as
``trace-<workload>.json``.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT = 150

END_TO_END = {
    "setup_s": "s",
    "stmt_per_s": "stmt/s",
    "peak_rss_mb": "MB",
    "store_mb": "MB",
    "read_p50_ms": "ms",
}
#: measured and printed on every run, but too noisy on a shared host for a
#: bound: the traced run reports them among the per-layer metrics
UNBOUNDED = {"read_p99_ms": "ms", "ingest_p50_ms": "ms"}


class Context:
    def __init__(self, args, work):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=SRC)


def percentile(values, fraction):
    """Nearest-rank percentile (p99 of 1000 samples leaves 10 beyond);
    medians use :func:`statistics.median`."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def mismatches(actual, expected):
    """How many relations of two end-state documents differ (0 = identical)."""
    if actual == expected:
        return 0
    try:
        left, right = json.loads(actual), json.loads(expected)
    except ValueError:
        return 1
    relations_l, relations_r = left.get("relations", {}), right.get("relations", {})
    differing = sum(
        relations_l.get(name) != relations_r.get(name)
        for name in set(relations_l) | set(relations_r)
    )
    return max(differing, 1)


def spawn_worker(ctx, config):
    """Run :mod:`worker` on ``config``; its measurements and the wall time
    of the whole process (interpreter start included)."""
    config = dict(config, work=ctx.work, seed=ctx.seed, seconds=ctx.seconds, trace=ctx.trace)
    name = config["mode"]
    path = os.path.join(ctx.work, f"{name}.config.json")
    config["out"] = os.path.join(ctx.work, f"{name}.out.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), path],
        env=ctx.env, check=True, timeout=CHILD_TIMEOUT,
    )
    wall = time.perf_counter() - started
    with open(config["out"], encoding="utf-8") as handle:
        return json.load(handle), wall


def setup_probe(ctx, index):
    """Program set-up, timed from outside: start an interpreter, import the
    program, open a session and its store, exit."""
    return spawn_worker(ctx, {
        "mode": "probe", "input": os.path.join(ctx.work, "corpus.json"),
        "cache_dir": os.path.join(ctx.work, f"probe-{index}"),
    })[1]


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
def run_batch(ctx):
    import inputs
    from repro.session import LineageSession
    from worker import end_state

    corpus = os.path.join(ctx.work, "corpus.json")
    config = {
        "mode": ctx.workload,
        "input": corpus,
        "state_out": os.path.join(ctx.work, "state.json"),
        "trace_out": os.path.join(ctx.work, "worker-trace.json"),
    }
    edited = 0
    setups = []
    if ctx.workload == "stream_replay":
        log = os.path.join(ctx.work, "replay.jsonl")
        final = inputs.write_log(log, ctx.seed)
        catalog = None
        with open(corpus, "w", encoding="utf-8") as handle:
            json.dump({"log": log}, handle)
    else:
        views, base_tables = inputs.warehouse(ctx.seed, inputs.COLD_SHAPE)
        catalog = inputs.catalog_of(base_tables)
        final = views
        if ctx.workload == "warm_restart":
            primed = os.path.join(ctx.work, "primed")
            with open(corpus, "w", encoding="utf-8") as handle:
                json.dump({"views": views, "base_tables": base_tables}, handle)
            # the priming cold build (an earlier process) is the set-up
            setups = [spawn_worker(ctx, dict(config, mode="prime", cache_dir=primed))[1]]
            edits = inputs.warm_edits(views, ctx.seed)
            edited = len(edits)
            final = dict(views, **edits)
            config["primed"] = primed
        with open(corpus, "w", encoding="utf-8") as handle:
            json.dump({"views": final, "base_tables": base_tables}, handle)

    # without a priming build, set-up is a probe process, sampled before
    # the timed phase, after it and after the check: the host's speed
    # drifts over minutes, and one burst of samples would catch one speed
    probing = not setups
    if probing:
        setups.append(setup_probe(ctx, 0))
    raw = spawn_worker(ctx, config)[0]
    if probing:
        setups.append(setup_probe(ctx, 1))

    # the reference: the paper's engine for the cold build, a storeless
    # one-shot extraction of the final corpus otherwise
    mode = "stack" if ctx.workload == "cold_build" else "dag"
    reference = LineageSession(dict(final), catalog=catalog, mode=mode).extract().graph
    with open(config["state_out"], "rb") as handle:
        differing = mismatches(handle.read(), end_state(reference))
    if probing:
        setups.append(setup_probe(ctx, 2))

    rates = [raw["statements"] / wall for wall in raw["walls"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "stmt_per_s": statistics.median(rates),
        "peak_rss_mb": raw["peak_rss_mb"],
        "store_mb": raw["store_mb"],
        "read_p50_ms": statistics.median(raw["reads_ms"]),
    }
    unbounded = {
        "read_p99_ms": percentile(raw["reads_ms"], 0.99),
        "ingest_p50_ms": statistics.median(raw["ingest_ms"]),
    }
    outcome = {
        "metrics": metrics,
        "attempted": raw["statements"] + len(raw["reads_ms"]),
        "failed": raw["unresolved"] + raw["reads_failed"] + differing,
        "mismatches": differing,
        "unbounded": unbounded,
        "notes": [
            f"timed passes: {len(raw['walls'])}, reads: {len(raw['reads_ms'])}",
            f"unresolved statements: {raw['unresolved']}, failed reads: "
            f"{raw['reads_failed']}, end-state mismatches: {differing}",
        ],
    }
    if ctx.trace:
        outcome["layers"] = batch_layers(
            config["trace_out"], raw["walls"][-1] / raw["untraced_wall"], edited, unbounded
        )
    return outcome


def batch_layers(trace_path, overhead, edited, unbounded):
    trace = load_trace(trace_path)
    spans = trace["spans"]
    selves = tracing.self_times(spans)
    layers = tracing.layer_metrics(spans, selves)
    layers.update(tracing.counter_metrics(trace["counters"], trace["notes"], edited))
    layers.update({
        "server.dedupe_ratio": 0.0,
        "server.rejected": 0,
        "server.queue_wait_ms": 0.0,
        "loadgen.lag_p99_ms": 0.0,
        "trace.coverage": tracing.coverage(
            spans, lambda span: span[1] == "bench.ingest", selves
        ),
        "trace.overhead": overhead,
        **unbounded,
    })
    return layers


def load_trace(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
def run_serve(ctx):
    import serve
    from worker import dir_mb

    raw = serve.run(ctx)
    differing = mismatches(raw["state"], raw["expected"])
    reads = raw["reads_ms"]
    acks = [ack for ack, _version in raw["acks"]]
    setups = raw["untraced_setups"] + ([] if ctx.trace else [raw["setup_s"]])
    metrics = {
        "setup_s": statistics.median(setups),
        "stmt_per_s": raw["statements"] / raw["window_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "store_mb": dir_mb(raw["store_dir"]),
        "read_p50_ms": statistics.median(reads),
    }
    unbounded = {
        "read_p99_ms": percentile(reads, 0.99),
        "ingest_p50_ms": statistics.median(acks),
    }
    attempted = len(reads) + raw["statements"] + raw["writes_failed"]
    failed = raw["reads_failed"] + raw["writes_failed"] + differing
    lag_p99 = percentile(raw["lateness"], 0.99) * 1e3
    outcome = {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "mismatches": differing,
        "unbounded": unbounded,
        "notes": [
            f"reads: {len(reads)} at {serve.READ_RATE:g}/s, writes: {len(acks)} "
            f"({raw['statements']} statements accepted), window {raw['window_s']:.2f} s",
            f"generator lateness p99: {lag_p99:.3f} ms; dedupe ratio "
            f"{raw['stats']['dedupe_ratio']:.3f}; rejected {raw['stats']['rejected']}",
            f"failed reads: {raw['reads_failed']}, failed statements: "
            f"{raw['writes_failed']}, end-state mismatches: {differing}",
        ],
    }
    if ctx.trace:
        trace = load_trace(raw["trace_out"])
        spans = trace["spans"]
        selves = tracing.self_times(spans)
        layers = tracing.layer_metrics(spans, selves)
        layers.update(tracing.counter_metrics(trace["counters"], trace["notes"]))
        layers.update({
            "server.dedupe_ratio": raw["stats"]["dedupe_ratio"],
            "server.rejected": raw["stats"]["rejected"],
            "server.queue_wait_ms": queue_wait_ms(spans, raw["acks"]),
            "loadgen.lag_p99_ms": lag_p99,
            **unbounded,
            "trace.coverage": tracing.coverage(
                spans,
                lambda span: span[1] == "server.request" and span[6] == "/impact",
                selves,
            ),
            "trace.overhead": raw["setup_s"] / statistics.median(raw["untraced_setups"]),
        })
        outcome["layers"] = layers
    return outcome


def queue_wait_ms(spans, acks):
    """Median ack latency minus its batch's refresh + snapshot prepare."""
    refreshes = sorted(
        (span[3], span[3] - span[2]) for span in spans if span[1] == "session.refresh"
    )
    batch_ms = {}
    for span in spans:
        if span[1] != "snapshot.prepare":
            continue
        before = [duration for end, duration in refreshes if end <= span[2]]
        refresh = before[-1] if before else 0.0
        batch_ms[span[6]] = (refresh + span[3] - span[2]) * 1e3
    waits = [ack - batch_ms[version] for ack, version in acks if version in batch_ms]
    return statistics.median(waits) if waits else 0.0


# ----------------------------------------------------------------------
WORKLOADS = {
    "cold_build": run_batch,
    "warm_restart": run_batch,
    "serve_mixed": run_serve,
    "stream_replay": run_batch,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    ctx = Context(args, work)
    try:
        outcome = WORKLOADS[args.workload](ctx)
        if ctx.trace:
            for name in ("worker-trace.json", "daemon-trace.json"):
                if os.path.exists(os.path.join(work, name)):
                    shutil.copy(
                        os.path.join(work, name),
                        os.path.join(WORK, f"trace-{args.workload}.json"),
                    )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  nproc {os.cpu_count()}  python {platform.python_version()}")
    for note in outcome["notes"]:
        print(f"  {note}")
    fail_ratio = outcome["failed"] / outcome["attempted"]
    print(f"  fail_ratio {fail_ratio:.6f} ratio  ({outcome['failed']}/{outcome['attempted']})")
    for name, unit in UNBOUNDED.items():
        print(f"  {name} {outcome['unbounded'][name]:.6g} {unit}  (unbounded)")
    if ctx.trace:
        metrics = {
            name: {"value": outcome["layers"][name], "unit": unit}
            for name, unit in tracing.PER_LAYER
        }
    else:
        metrics = {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": outcome["mismatches"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
