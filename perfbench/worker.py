"""The measured process of the batch workloads.

``python perfbench/worker.py CONFIG.json`` runs one workload's program
side in a fresh interpreter and writes its raw measurements to
``config["out"]``.  Keeping the program in its own process makes its peak
RSS the program's alone, and makes a warm restart a real restart: a new
process over a store that an earlier process wrote.

Modes:

* ``probe`` — open a session and its store in ``config["cache_dir"]``
  and exit (the program's set-up, timed from outside the process);
* ``prime`` — one cold build into ``config["cache_dir"]`` (the warm
  restart's set-up);
* ``cold_build``, ``warm_restart``, ``stream_replay`` — repeat the timed
  phase until ``config["seconds"]`` have passed (at least once), then
  answer the read mix against the end state and write the end state out.
  The reads are paced at ``READ_RATE`` per second, so that they sample
  the machine over seconds rather than one short burst, and each is
  timed from call to return.

With ``config["trace"]`` the worker instead runs the timed phase twice
untraced and then once traced, and dumps the spans of the traced pass;
the second untraced pass is the baseline of ``trace.overhead``.
"""

import contextlib
import gc
import json
import os
import resource
import shutil
import sys
import time
from time import perf_counter

from repro.session import LineageSession

import inputs
import tracing

#: paced impact reads against each batch workload's end state: a
#: thousand in five seconds, so a p99 has ten samples beyond it
READ_RATE = 200.0
READS = 1000
#: untraced passes before the traced one (the first warms the process up)
UNTRACED_PASSES = 2


def dir_mb(path):
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total / (1024.0 * 1024.0)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical(document):
    """An end-state document (what ``/render/json`` holds) as compact bytes:
    the indented form is several times slower to write for 10 000 views."""
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def end_state(graph):
    """The canonical end state of ``graph``."""
    document = graph.to_dict()
    document["stats"] = graph.stats()
    return canonical(document)


class Worker:
    def __init__(self, config):
        self.config = config
        self.work = config["work"]
        self.seconds = config["seconds"]
        self.tracer = None
        self._dirs = 0
        with open(config["input"], encoding="utf-8") as handle:
            payload = json.load(handle)
        self.views = payload.get("views")
        self.catalog = (
            inputs.catalog_of(payload["base_tables"]) if "base_tables" in payload else None
        )
        self.log = payload.get("log")

    def fresh_dir(self, prefix):
        self._dirs += 1
        return os.path.join(self.work, f"{prefix}-{self._dirs}")

    # -- one timed phase per workload -----------------------------------
    def open_session(self, cache_dir, source=None):
        return LineageSession(
            dict(source) if source is not None else None,
            catalog=self.catalog, cache_dir=cache_dir,
        )

    def build(self, cache_dir):
        """cold_build, prime and warm_restart: one extraction."""
        session = self.open_session(cache_dir, self.views)
        started = perf_counter()
        result = session.extract()
        wall = perf_counter() - started
        return session, result, wall, [wall * 1e3], len(self.views)

    def warm(self, cache_dir):
        """warm_restart: a build over a copy of the primed store."""
        shutil.copytree(self.config["primed"], cache_dir)
        return self.build(cache_dir)

    def stream(self, cache_dir):
        session = self.open_session(cache_dir)
        streamer = session.stream_log(
            self.log, offset_path=cache_dir + ".offset.json", resume=False
        )
        marks = []
        started = perf_counter()
        streamer.run(on_batch=lambda _report: marks.append(perf_counter()))
        wall = perf_counter() - started
        steps = [(b - a) * 1e3 for a, b in zip([started] + marks, marks)]
        return session, session.result, wall, steps, streamer.stats["statements"]

    # -- the run --------------------------------------------------------
    def run(self):
        mode = self.config["mode"]
        if mode == "probe":
            session = self.open_session(self.config["cache_dir"])
            session.cache_stats()  # the store connects on first use
            session.close()
            return {}
        if mode == "prime":
            session = self.build(self.config["cache_dir"])[0]
            session.close()
            return {}
        phase = {
            "cold_build": self.build,
            "warm_restart": self.warm,
            "stream_replay": self.stream,
        }[mode]

        walls, ingest_ms = [], []
        untraced_wall = None
        session = None
        passes = 0
        deadline = perf_counter() + self.seconds
        while True:
            if session is not None:
                session.close()
                shutil.rmtree(session.config.cache_dir, ignore_errors=True)
            session = result = None
            gc.collect()
            traced = self.config["trace"] and passes == UNTRACED_PASSES
            if traced:
                self.tracer = tracing.Tracer()
                self.tracer.install()
            with self.tracer.span("bench.ingest") if traced else contextlib.nullcontext():
                session, result, wall, steps, count = phase(self.fresh_dir("store"))
            walls.append(wall)
            ingest_ms.extend(steps)
            passes += 1
            if self.config["trace"]:
                if traced:
                    break
                untraced_wall = wall
            elif perf_counter() >= deadline:
                break

        gc.collect()
        reads_ms, reads_failed = self.reads(session, result)
        peak = peak_rss_mb()
        unresolved = len(result.report.unresolved)
        store_dir = session.config.cache_dir
        session.close()
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer.dump(self.config["trace_out"])
        with open(self.config["state_out"], "wb") as handle:
            handle.write(end_state(result.graph))
        return {
            "walls": walls,
            "untraced_wall": untraced_wall,
            "ingest_ms": ingest_ms,
            "reads_ms": reads_ms,
            "reads_failed": reads_failed,
            "statements": count,
            "unresolved": unresolved,
            "peak_rss_mb": peak,
            "store_mb": dir_mb(store_dir),
        }

    def reads(self, session, result):
        """Impact reads through the library (``session.impact``)."""
        plan = inputs.read_plan(result.graph, self.config["seed"], READS)
        latencies = []
        failed = 0
        traced = self.tracer is not None
        with self.tracer.span("bench.reads") if traced else contextlib.nullcontext():
            start = perf_counter()
            for index, (column, direction) in enumerate(plan):
                delay = start + index / READ_RATE - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                started = perf_counter()
                try:
                    session.impact(column, direction=direction)
                except Exception:  # noqa: BLE001 - a failed read is counted, not fatal
                    failed += 1
                latencies.append((perf_counter() - started) * 1e3)
        return latencies, failed


def main(path):
    with open(path, encoding="utf-8") as handle:
        config = json.load(handle)
    outcome = Worker(config).run()
    with open(config["out"], "w", encoding="utf-8") as handle:
        json.dump(outcome, handle)


if __name__ == "__main__":
    main(sys.argv[1])
