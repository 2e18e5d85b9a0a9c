"""Seeded inputs for the four workloads.

Everything the program sees is built here from ``--seed``: the same seed
gives byte-identical corpora, edit sets, logs and serving traffic.  The
generator is the repository's own :mod:`repro.datasets.workload`, so the
statements are the warehouse shapes the rest of the test suite uses.

Each warehouse's topology is drawn once, from ``TOPOLOGY_SEED``; the run's
seed renames every relation in it (so statement texts, content hashes,
store keys and shards all change with the seed) and picks the edits, the
log's redefinitions, the serving traffic and the reads.  Closure sizes in
these generated warehouses vary by a quarter or more from one topology
draw to the next, and every read's cost follows its answer size, so a
seeded topology would make the read metrics measure the draw rather than
the program.
"""

import json
import random
import re
import statistics
import string
from datetime import datetime, timezone

from repro.catalog import Catalog
from repro.datasets import workload

#: the paper's "build the lineage graph" path at store scale
COLD_SHAPE = dict(
    num_base_tables=100,
    num_views=10_000,
    extended_probability=0.1,
    deep_chain_probability=0.3,
    mesh_probability=0.05,
    num_schemas=4,
)
#: share of views the warm restart redefines before restarting
WARM_EDIT_FRACTION = 0.02
#: the warm restart's cascade may differ from the topology's median draw
#: by this share (see :func:`warm_edits`)
CASCADE_TOLERANCE = 0.05
CASCADE_DRAWS = 31

#: the daemon's preloaded corpus (same template mix, a fifth of the size)
SERVE_SHAPE = dict(num_base_tables=2_000 // 12, num_views=2_000)

#: the replayed query log
STREAM_VIEWS = 2_000
STREAM_LINES = 300_000
STREAM_REDEF_EVERY = 5_000


#: the seed of every warehouse topology (see the module docstring)
TOPOLOGY_SEED = 1

_RELATION = re.compile(r"\b(view|base|stage)_(\d+)\b")
#: a relation name in a renamed warehouse, schema-qualified or not
_REFERENCE = re.compile(r"\b(?:sch_\d+\.)?(?:view|base|stage)_[a-z]+_\d+\b")


def warehouse(seed, shape):
    """``(views, base_tables)`` of the generated warehouse, its relations
    renamed ``<kind>_<tag>_<n>`` with a tag drawn from ``seed``."""
    generated = workload.generate_warehouse(seed=TOPOLOGY_SEED, **shape)
    tag = "".join(random.Random(f"names-{seed}").choices(string.ascii_lowercase, k=5))

    def rename(text):
        return _RELATION.sub(lambda match: f"{match[1]}_{tag}_{match[2]}", text)

    views = {rename(name): rename(sql) for name, sql in generated.views.items()}
    base_tables = {rename(name): columns for name, columns in generated.base_tables.items()}
    return views, base_tables


def catalog_of(base_tables):
    """The base-table catalog, built the way the generator builds it."""
    catalog = Catalog()
    for name, columns in base_tables.items():
        catalog.create_table(name, [(column, "text") for column in columns])
    return catalog


def view_names(views):
    """Names of the ``CREATE VIEW`` statements (the redefinable ones)."""
    return [name for name, sql in views.items() if sql.startswith("CREATE VIEW ")]


def redefine(sql, alias):
    """A schema-preserving redefinition: same name and columns, new text."""
    head, body = sql.split(" AS ", 1)
    return f"{head} AS SELECT {alias}.* FROM ({body}) {alias}"


def _readers(views):
    """``{relation: {statements naming it}}``, read off the statement texts."""
    readers = {}
    for name, sql in views.items():
        for reference in set(_REFERENCE.findall(sql)) - {name}:
            readers.setdefault(reference, set()).add(name)
    return readers


def _cascade(readers, edited):
    """How many statements read an edited one, transitively (edits included)."""
    reached = set(edited)
    pending = list(edited)
    while pending:
        for reader in readers.get(pending.pop(), ()):
            if reader not in reached:
                reached.add(reader)
                pending.append(reader)
    return len(reached)


def warm_edits(views, seed):
    """``{name: new_sql}`` for a seeded 2% of the views.

    Which views change decides most of a warm restart's work: every view
    that reads an edited one, transitively, misses the store and is
    extracted again, and over this topology that cascade ranges from about
    2 300 to 6 800 statements between draws of 200 views.  So the edit set
    is drawn again until its cascade is within ``CASCADE_TOLERANCE`` of the
    median of ``CASCADE_DRAWS`` draws that depend on the topology alone:
    the seed changes which views are edited, not how much the restart
    redoes.
    """
    names = view_names(views)
    count = max(1, int(len(views) * WARM_EDIT_FRACTION))
    readers = _readers(views)
    reference = random.Random("warm-edits")
    target = statistics.median(
        _cascade(readers, reference.sample(names, count)) for _ in range(CASCADE_DRAWS)
    )
    rng = random.Random(f"warm-edits-{seed}")
    while True:
        edited = rng.sample(names, count)
        if abs(_cascade(readers, edited) - target) <= CASCADE_TOLERANCE * target:
            return {name: redefine(views[name], "v") for name in edited}


def _timestamp(index):
    """Strictly increasing, cycling through epoch-int, epoch-float,
    ISO-8601 and Z-suffixed ISO styles."""
    base = 1_700_000_000 + index
    style = index % 4
    if style == 0:
        return base
    if style == 1:
        return float(base) + 0.5
    stamp = datetime.fromtimestamp(base, tz=timezone.utc)
    if style == 2:
        return stamp.isoformat()
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def write_log(path, seed):
    """Write the replayed JSONL log; returns the final ``{name: sql}``.

    ``STREAM_LINES`` lines cycle through ``STREAM_VIEWS`` views; every
    ``STREAM_REDEF_EVERY``-th line redefines the next view in a seeded
    order instead of repeating one.
    """
    views, _ = warehouse(
        seed, dict(num_base_tables=STREAM_VIEWS // 50, num_views=STREAM_VIEWS)
    )
    names = list(views)
    order = list(names)
    random.Random(f"stream-redefs-{seed}").shuffle(order)
    current = dict(views)
    redefined = 0
    with open(path, "w", encoding="utf-8") as handle:
        for index in range(STREAM_LINES):
            if index and index % STREAM_REDEF_EVERY == 0:
                name = order[redefined % len(order)]
                current[name] = redefine(views[name], f"r{redefined}")
                redefined += 1
            else:
                name = names[index % len(names)]
            handle.write(json.dumps({
                "name": name,
                "sql": current[name],
                "timestamp": _timestamp(index),
            }) + "\n")
    return current


def read_plan(graph, seed, count):
    """``count`` impact reads ``(column, direction)`` against ``graph``.

    Reads alternate: downstream from a base-table column that feeds
    something (large answers; every such column in turn, in a seeded
    order), then upstream from a seeded choice of view column (small
    answers).
    """
    base = [
        f"{table.name}.{column}"
        for table in graph.base_tables
        for column in table.output_columns
        if graph.neighbors(f"{table.name}.{column}", "downstream")
    ]
    views = [f"{table.name}.{column}" for table in graph.views
             for column in table.output_columns]
    rng = random.Random(f"reads-{seed}")
    rng.shuffle(base)
    plan = []
    for index in range(count):
        if index % 2 == 0:
            plan.append((base[(index // 2) % len(base)], "downstream"))
        else:
            plan.append((rng.choice(views), "upstream"))
    return plan


class ServeTraffic:
    """The serving workload's write stream, one ``POST /extract`` at a time.

    Each request carries ``redefinitions`` schema-preserving
    redefinitions (every one a new text: the alias is a running counter)
    and ``repeats`` verbatim copies of the daemon's current definitions,
    which the daemon answers from its dedupe index.
    """

    def __init__(self, views, seed, redefinitions=5, repeats=5):
        self.original = dict(views)
        self.current = dict(views)
        self._names = view_names(views)
        self._rng = random.Random(f"serve-writes-{seed}")
        self._redefinitions = redefinitions
        self._repeats = repeats
        self._counter = 0

    def next_request(self):
        picked = self._rng.sample(self._names, self._redefinitions + self._repeats)
        body = {}
        for name in picked[:self._redefinitions]:
            self._counter += 1
            body[name] = redefine(self.original[name], f"s{self._counter}")
        for name in picked[self._redefinitions:]:
            body[name] = self.current[name]
        return body

    def acknowledged(self, body):
        """Adopt a request the daemon accepted as the current corpus."""
        self.current.update(body)
