"""Daemon launcher for the ``serve_mixed`` workload.

``python perfbench/daemon.py CONFIG.json`` starts the serving daemon the
way ``python -m repro serve`` does — a :class:`repro.server.LineageApp`
with its defaults, a store and a fsync'd ingest journal — preloads the
corpus in ``config["input"]`` and prints the daemon's readiness line.  It
serves until SIGTERM, then writes its own peak RSS (and, when
``config["trace_out"]`` is set, its spans) next to the config.  SIGUSR1
marks the start of the timed window: the spans and counters recorded
so far (start-up and preload) are dropped.

Tracing is installed here, in the benchmark's process wrapper, before
the daemon starts: the program itself is unchanged.
"""

import json
import resource
import signal
import sys

import inputs
import tracing


def main(path):
    with open(path, encoding="utf-8") as handle:
        config = json.load(handle)
    tracer = None
    if config.get("trace_out"):
        tracer = tracing.Tracer()
        tracer.install()
        signal.signal(signal.SIGUSR1, lambda *_: tracer.clear())

    from repro.server import LineageApp

    with open(config["input"], encoding="utf-8") as handle:
        corpus = json.load(handle)
    app = LineageApp(
        catalog=inputs.catalog_of(corpus["base_tables"]),
        cache_dir=config["cache_dir"],
        journal_dir=config["journal_dir"],
    )
    code = app.run(host="127.0.0.1", port=0, preload=corpus["views"])
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(config["trace_out"])
    with open(config["out"], "w", encoding="utf-8") as handle:
        json.dump(
            {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
