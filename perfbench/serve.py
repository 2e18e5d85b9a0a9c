"""The ``serve_mixed`` workload: one daemon process, one load generator.

The daemon runs in its own process (:mod:`daemon`).  This process drives
it over two keep-alive connections with two open loops:

* reads at ``READ_RATE`` per second on one connection, alternating a
  downstream ``/impact`` from a base-table column (large answers) and an
  upstream one from a view column (small answers);
* every ``WRITE_EVERY`` seconds on the other connection, a
  ``POST /extract`` of five schema-preserving redefinitions and five
  verbatim repeats (the dedupe path).

Every request is timed from the moment it was due, so a stall counts
against every request it delays.  How late the generator itself ran is
reported separately: the time from when a request could have gone out
(due, and its connection free) to when it did.  Non-2xx answers,
quarantined statements and timeouts count as failures.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
from time import perf_counter
from urllib.parse import quote

from repro.session import LineageSession

import inputs
from worker import canonical, end_state

READ_RATE = 100.0
#: one write every two seconds: each costs the daemon 0.3-0.5 s of
#: GIL-bound refresh and snapshot work on a 2-vCPU host, and once it is
#: busy with writes for much more than a quarter of the time, the median
#: read moves onto the boundary between reads that wait behind a batch and
#: reads that do not, and jumps between the two from run to run
WRITE_EVERY = 2.0
#: a p99 needs at least ten samples beyond it
MIN_READS = 1000
#: daemon starts per run; the median start is ``setup_s``
SETUP_STARTS = 3
READ_TIMEOUT = 2.0
WRITE_TIMEOUT = 10.0
START_TIMEOUT = 90.0
STOP_TIMEOUT = 60.0

HERE = os.path.dirname(os.path.abspath(__file__))


class Daemon:
    """One daemon process over fresh store and journal directories."""

    def __init__(self, ctx, name, corpus_path, trace_out=None):
        self.traced = trace_out is not None
        self.work = os.path.join(ctx.work, name)
        os.makedirs(self.work)
        self.cache_dir = os.path.join(self.work, "store")
        self.report = os.path.join(self.work, "report.json")
        config = os.path.join(self.work, "config.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump({
                "input": corpus_path,
                "cache_dir": self.cache_dir,
                "journal_dir": os.path.join(self.work, "journal"),
                "out": self.report,
                "trace_out": trace_out,
            }, handle)
        started = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "daemon.py"), config],
            stdout=subprocess.PIPE, env=ctx.env, text=True,
        )
        self.host = self.port = None
        # the readiness line is the daemon's own: "serving on http://h:p"
        watchdog = threading.Timer(START_TIMEOUT, self.process.kill)
        watchdog.start()
        try:
            for line in self.process.stdout:
                if line.startswith("serving on http://"):
                    address = line.strip()[len("serving on http://"):]
                    self.host, port = address.rsplit(":", 1)
                    self.port = int(port)
                    break
        finally:
            watchdog.cancel()
        self.setup_s = perf_counter() - started
        if self.port is None:
            self.kill()
            raise RuntimeError("daemon did not become ready")

    def start_window(self):
        """Tell a traced daemon that the timed window starts now."""
        if self.traced:
            self.process.send_signal(signal.SIGUSR1)

    def stop(self):
        """SIGTERM, wait for the clean exit; returns the daemon's report."""
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("daemon did not stop on SIGTERM") from None
        self.process.stdout.close()
        if self.process.returncode != 0:
            raise RuntimeError(f"daemon exited with {self.process.returncode}")
        with open(self.report, encoding="utf-8") as handle:
            return json.load(handle)

    def kill(self):
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()


class Connection:
    """A minimal keep-alive HTTP/1.1 client connection."""

    def __init__(self, host, port):
        self.host = host
        self.port = port
        self.reader = self.writer = None

    async def open(self):
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def close(self):
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = None

    async def request(self, method, path, request_id, body=b""):
        head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\nX-Request-Id: {request_id}\r\n"
        if body:
            head += f"Content-Length: {len(body)}\r\n"
        self.writer.write(head.encode("latin-1") + b"\r\n" + body)
        await self.writer.drain()
        header = await self.reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in header.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        payload = await self.reader.readexactly(length) if length else b""
        return int(header.split(b" ", 2)[1]), payload

    async def timed(self, method, path, request_id, timeout, body=b""):
        """``(status, payload)``; status ``None`` on a timeout or a broken
        connection, after which the connection is re-opened."""
        try:
            return await asyncio.wait_for(
                self.request(method, path, request_id, body), timeout
            )
        except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError):
            await self.close()
            await self.open()
            return None, b""


async def _open_loop(due_times, send, lateness):
    """Issue ``send(index, due)`` at each due time, one at a time."""
    free_at = perf_counter()
    for index, due in enumerate(due_times):
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = perf_counter()
        lateness.append(sent - max(due, free_at))
        await send(index, due)
        free_at = perf_counter()


async def _drive(daemon, read_plan, traffic, duration):
    reads = Connection(daemon.host, daemon.port)
    writes = Connection(daemon.host, daemon.port)
    daemon.start_window()
    await asyncio.sleep(0.1)
    await reads.open()
    await writes.open()
    stats_before = await _get_json(writes, "/stats")
    outcome = {
        "reads_ms": [], "reads_failed": 0, "acks": [], "writes_failed": 0,
        "statements": 0, "lateness": [],
    }
    start = perf_counter() + 0.05
    read_due = [start + index / READ_RATE for index in range(len(read_plan))]
    write_due = [
        start + index * WRITE_EVERY for index in range(int(duration / WRITE_EVERY))
    ]

    async def read(index, due):
        status, _ = await reads.timed("GET", read_plan[index], f"r{index}", READ_TIMEOUT)
        outcome["reads_ms"].append((perf_counter() - due) * 1e3)
        if status != 200:
            outcome["reads_failed"] += 1

    async def write(index, due):
        statements = traffic.next_request()
        body = json.dumps({"statements": statements}).encode("utf-8")
        status, payload = await writes.timed(
            "POST", "/extract", f"w{index}", WRITE_TIMEOUT, body
        )
        ack_ms = (perf_counter() - due) * 1e3
        if status != 200:
            # a refused or timed-out write still counts in the latency
            outcome["writes_failed"] += len(statements)
            outcome["acks"].append((ack_ms, None))
            return
        answer = json.loads(payload)
        accepted = {}
        for row in answer["statements"]:
            if row["status"] == "quarantined":
                outcome["writes_failed"] += 1
            else:
                accepted[row["name"]] = statements[row["name"]]
        traffic.acknowledged(accepted)
        outcome["statements"] += len(accepted)
        outcome["acks"].append((ack_ms, answer["snapshot_version"]))

    await asyncio.gather(
        _open_loop(read_due, read, outcome["lateness"]),
        _open_loop(write_due, write, outcome["lateness"]),
    )
    outcome["window_s"] = perf_counter() - start
    outcome["stats"] = _stats_delta(stats_before, await _get_json(writes, "/stats"))
    outcome["state"] = canonical(await _get_json(writes, "/render/json"))
    await reads.close()
    await writes.close()
    return outcome


async def _get_json(connection, path):
    status, payload = await connection.timed("GET", path, path, 60.0)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(payload)


def _stats_delta(before, after):
    old, new = before["ingest"], after["ingest"]

    def delta(key):
        return new[key] - old[key]

    statements = delta("statements")
    return {
        "dedupe_ratio": (delta("duplicate") + delta("coalesced")) / statements
        if statements else 0.0,
        "rejected": delta("shed") + delta("deadline_exceeded")
        + delta("quarantine_blocked") + delta("quarantined"),
    }


def run(ctx):
    """Set up, drive and check one ``serve_mixed`` run; raw measurements."""
    views, base_tables = inputs.warehouse(ctx.seed, inputs.SERVE_SHAPE)
    corpus_path = os.path.join(ctx.work, "corpus.json")
    with open(corpus_path, "w", encoding="utf-8") as handle:
        json.dump({"views": views, "base_tables": base_tables}, handle)
    catalog = inputs.catalog_of(base_tables)
    preload_graph = LineageSession(dict(views), catalog=catalog).extract().graph
    duration = max(float(ctx.seconds), MIN_READS / READ_RATE)
    read_plan = [
        f"/impact?column={quote(column)}&direction={direction}"
        for column, direction in inputs.read_plan(
            preload_graph, ctx.seed, int(duration * READ_RATE)
        )
    ]
    traffic = inputs.ServeTraffic(views, ctx.seed)

    setups = []
    trace_out = os.path.join(ctx.work, "daemon-trace.json") if ctx.trace else None
    daemon = None
    try:
        for attempt in range(SETUP_STARTS - 1):
            daemon = Daemon(ctx, f"start-{attempt}", corpus_path)
            setups.append(daemon.setup_s)
            daemon.stop()
        daemon = Daemon(ctx, "serve", corpus_path, trace_out=trace_out)
        outcome = asyncio.run(_drive(daemon, read_plan, traffic, duration))
        report = daemon.stop()
    finally:
        if daemon is not None:
            daemon.kill()  # a no-op once the daemon has stopped

    reference = LineageSession(dict(traffic.current), catalog=catalog).extract().graph
    outcome.update(
        untraced_setups=setups,
        setup_s=daemon.setup_s,
        peak_rss_mb=report["peak_rss_mb"],
        store_dir=daemon.cache_dir,
        expected=end_state(reference),
        trace_out=trace_out,
    )
    return outcome
