"""``analytics`` and ``ingest``: read-only SQL, and SQL beside appends.

Both run over one seeded star schema of simulation output:

* ``obs`` (fact): ``rid`` int, ``region`` str (8 values), ``cell`` str
  (8000 values), ``scen`` str (200 values, the join key), ``step`` int
  (0..99), ``value`` float;
* ``scenario`` (dimension, 200 rows): ``scen`` str, ``family`` str
  (5 values), ``weight`` float.

One client (this process) sends statements through ``Database.sql`` in
a fixed number of whole rounds of :data:`ROUND` (see :data:`ROUND_S`);
each statement's literals are drawn fresh from the seed, so no two
statements repeat.  ``ingest`` precedes
each statement with an ``insert_many`` of :data:`INGEST_BATCH` new rows
and a refresh of an ``IncrementalAggregate`` view.

Every result is compared with a numpy computation over the generated
columns (see :mod:`checks`).
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

import checks
from harness import Rounds, median_setup, phases, peak_rss_mib

FACT_ROWS = 80_000
REGIONS = 8
CELLS = 8_000
SCENARIOS = 200
FAMILIES = 5
STEPS = 100
INGEST_BATCH = 100

SHAPES = ("filter_agg", "group_low", "group_high", "join_group", "in_subquery", "topk")
#: One round: the six shapes, ``topk`` twice.  On the reference host topk is
#: the middle of the latency order, so the median operation falls inside
#: one shape's latencies rather than on the edge between two.
ROUND = SHAPES + ("topk",)
#: ``tail_ms`` percentile: the top 10% lies inside the slowest shape
#: (1/7 of the operations), with at least 10 operations beyond it.
TAIL_Q = 0.90
#: Measured seconds of one round on the reference host, per workload: a
#: 20 s run is 22 rounds (154 operations) of ``analytics`` and 19 rounds
#: (133 operations, 13,300 appended rows) of ``ingest``.
ROUND_S = {"analytics": 0.90, "ingest": 1.04}

VIEW_AGGREGATES = (
    ("n", "count", None),
    ("total", "sum", "value"),
    ("lo", "min", "value"),
    ("hi", "max", "value"),
    ("mean", "avg", "value"),
)


def make_fact(rng: np.random.Generator, n: int, first_rid: int) -> Dict[str, np.ndarray]:
    return {
        "rid": np.arange(first_rid, first_rid + n, dtype=np.int64),
        "region": rng.integers(0, REGIONS, n),
        "cell": rng.integers(0, CELLS, n),
        "scen": rng.integers(0, SCENARIOS, n),
        "step": rng.integers(0, STEPS, n),
        "value": np.round(rng.normal(50.0, 10.0, n), 6),
    }


def make_dim(rng: np.random.Generator) -> Dict[str, np.ndarray]:
    return {
        "family": rng.integers(0, FAMILIES, SCENARIOS),
        "weight": np.round(rng.uniform(0.0, 200.0, SCENARIOS), 3),
    }


def fact_rows(cols: Dict[str, np.ndarray]) -> List[dict]:
    return [
        {
            "rid": rid,
            "region": f"r{region}",
            "cell": f"c{cell:05d}",
            "scen": f"s{scen:03d}",
            "step": step,
            "value": value,
        }
        for rid, region, cell, scen, step, value in zip(
            cols["rid"].tolist(), cols["region"].tolist(), cols["cell"].tolist(),
            cols["scen"].tolist(), cols["step"].tolist(), cols["value"].tolist(),
        )
    ]


def dim_rows(dim: Dict[str, np.ndarray]) -> List[dict]:
    return [
        {"scen": f"s{i:03d}", "family": f"f{family}", "weight": weight}
        for i, (family, weight) in enumerate(
            zip(dim["family"].tolist(), dim["weight"].tolist())
        )
    ]


def make_statement(kind: str, rng: np.random.Generator) -> (str, dict):
    """One statement of shape ``kind`` with fresh literals."""
    if kind == "filter_agg":
        p = {"a": round(float(rng.uniform(45.0, 55.0)), 4), "b": int(rng.integers(40, 80))}
        sql = (f"SELECT COUNT(*) AS n, SUM(value) AS total, AVG(value) AS mean "
               f"FROM obs WHERE value > {p['a']} AND step < {p['b']}")
    elif kind == "group_low":
        p = {"b": int(rng.integers(0, 20))}
        sql = (f"SELECT region, COUNT(*) AS n, SUM(value) AS total, MAX(value) AS top "
               f"FROM obs WHERE step >= {p['b']} GROUP BY region")
    elif kind == "group_high":
        p = {"b": int(rng.integers(50, 70))}
        sql = (f"SELECT cell, COUNT(*) AS n, SUM(value) AS total "
               f"FROM obs WHERE step < {p['b']} GROUP BY cell")
    elif kind == "join_group":
        p = {"w": round(float(rng.uniform(100.0, 180.0)), 3)}
        sql = (f"SELECT d.family AS family, COUNT(*) AS n, SUM(o.value) AS total "
               f"FROM obs o JOIN scenario d ON o.scen = d.scen "
               f"WHERE d.weight < {p['w']} GROUP BY d.family")
    elif kind == "in_subquery":
        p = {"f": int(rng.integers(0, FAMILIES)), "b": int(rng.integers(60, 90))}
        sql = (f"SELECT COUNT(*) AS n, SUM(value) AS total FROM obs "
               f"WHERE step < {p['b']} AND scen IN "
               f"(SELECT scen FROM scenario WHERE family = 'f{p['f']}')")
    elif kind == "topk":
        p = {"b": int(rng.integers(10, 30))}
        sql = (f"SELECT rid, value FROM obs WHERE step < {p['b']} "
               f"ORDER BY value DESC, rid LIMIT 10")
    else:
        raise ValueError(f"unknown shape {kind!r}")
    return sql, p


class Tables:
    """The generated inputs plus the program's database built from them."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.cols = make_fact(rng, FACT_ROWS, 0)
        self.dim = make_dim(rng)
        self.db = None

    def build(self) -> float:
        """Load both tables and analyze them; returns the seconds taken.

        The row dicts handed to ``insert_many`` are made before the timer
        starts and dropped once loaded, so that they do not stay alive
        through the run and add to its peak RSS.
        """
        from repro.engine import Database, Schema

        self.db = None
        rows, small = fact_rows(self.cols), dim_rows(self.dim)
        start = time.perf_counter()
        db = Database()
        db.create_table("obs", Schema.of(
            rid=int, region=str, cell=str, scen=str, step=int, value=float))
        db.create_table("scenario", Schema.of(scen=str, family=str, weight=float))
        db.table("obs").insert_many(rows)
        db.table("scenario").insert_many(small)
        db.analyze()
        elapsed = time.perf_counter() - start
        self.db = db
        return elapsed

    def append(self, batch: Dict[str, np.ndarray]) -> None:
        for name, values in batch.items():
            self.cols[name] = np.concatenate([self.cols[name], values])


def run(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    """Run ``analytics`` or ``ingest``; returns the raw measurements."""
    phase = phases(tracer)
    tables = Tables(seed)
    setup_s = median_setup(tables.build, phase)
    db = tables.db
    rng = np.random.default_rng([seed, 2])
    view = None
    if workload == "ingest":
        from repro.delta import IncrementalAggregate

        with phase("warmup"):
            view = IncrementalAggregate(db.table("obs"), ["region"], VIEW_AGGREGATES)
            view.refresh()
        checks.check_view(view.snapshot_rows(), tables.cols)
    next_rid = FACT_ROWS

    def one(kind: str) -> float:
        nonlocal next_rid
        sql, params = make_statement(kind, rng)
        batch = rows = None
        if view is not None:
            batch = make_fact(rng, INGEST_BATCH, next_rid)
            rows = fact_rows(batch)
            next_rid += INGEST_BATCH
        start = time.perf_counter()
        if rows is not None:
            db.table("obs").insert_many(rows)
            view.refresh()
        result = db.sql(sql)
        elapsed = time.perf_counter() - start
        if batch is not None:
            tables.append(batch)
            checks.check_view(view.snapshot_rows(), tables.cols)
        checks.check_query(kind, params, result, tables.cols, tables.dim)
        return elapsed

    with phase("warmup"):
        for kind in ROUND:
            one(kind)
    latencies: List[float] = []
    rounds = Rounds(seconds, ROUND_S[workload])
    for _ in rounds:
        for kind in ROUND:
            with phase("op:" + kind):
                elapsed = one(kind)
            rounds.add(elapsed)
            latencies.append(elapsed)
    return {
        "setup_s": setup_s,
        "latencies": latencies,
        "busy_s": rounds.busy,
        "tail_q": TAIL_Q,
        "attempted": len(latencies),
        "peak_rss_mb": peak_rss_mib(),
    }


def per_layer(index, raw) -> Dict[str, float]:
    metrics = {
        "engine.parse_ms": index.median_ms("engine.parse"),
        "engine.optimize_ms": index.median_ms("engine.optimize"),
        "engine.scan_ms": index.median_ms("engine.scan"),
        "engine.insert_ms": index.median_ms("engine.insert"),
        "engine.analyze_ms": index.median_ms("engine.analyze"),
        "delta.agg_refresh_ms": index.median_ms("delta.agg_refresh"),
    }
    for shape in SHAPES:
        metrics[f"engine.execute_ms.{shape}"] = index.per_op_ms("engine.execute", shape)
    return metrics
