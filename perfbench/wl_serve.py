"""``serve``: two closed-loop clients against ``python -m repro serve``.

The server runs as a child process over two seeded CSV tables (the
``obs``/``scenario`` star schema of ``wl_tables`` at :data:`FACT_ROWS`
rows).  Each of :data:`CONNECTIONS` client threads sends a fixed number
of whole rounds of :data:`ROUND` (see :data:`ROUND_S`), one request at
a time:

* ``hit`` — one of that connection's :data:`HIT_STATEMENTS` fixed
  group-by statements; after the warm-up round each is a cache hit;
* ``miss`` — a join + GROUP BY with fresh literals, always a miss;
* ``mcdb`` — a bundled MCDB what-if with a fresh seed and mean, always
  a miss.

Connections never share a statement or a seed, so nothing coalesces and
the request sequence fixes the cache counts.  Responses are checked
after the timed phase: SQL rows against numpy over the CSV columns,
hit bytes against the miss that filled the cache, MCDB expectations
against the VG mean they were asked for.
"""

from __future__ import annotations

import csv
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import checks
import wl_tables
from harness import BenchmarkError, Rounds, check, child_env, median_setup, phases, work_dir

FACT_ROWS = 20_000
CONNECTIONS = 2
HIT_STATEMENTS = 3
#: One round: 10 hits, 1 SQL miss, 1 MCDB what-if.  The median falls
#: inside the hits (83% of requests, at their 60th percentile, below the
#: steep rise of hits that wait for the interpreter lock behind the other
#: connection's miss), the tail inside the SQL misses (the slowest family).
ROUND = ("hit", "hit", "miss", "hit", "hit", "hit", "hit", "mcdb", "hit", "hit", "hit", "hit")
#: ``tail_ms`` percentile: the top 5% lies inside the SQL misses (8.3%).
TAIL_Q = 0.95
#: Wall seconds of one round of one connection on the reference host: a
#: 20 s run is 185 rounds per connection (4,440 requests).
ROUND_S = 0.108
#: Monte Carlo worlds per MCDB request.  Kept small so that the
#: server's peak memory does not depend on whether two requests'
#: sample bundles happen to be alive at once.
N_MC = 1000
MCDB_STD = 2.0
START_TIMEOUT = 60.0
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch_server.py")


def write_inputs(seed: int, directory: str):
    rng = np.random.default_rng([seed, 4])
    cols = wl_tables.make_fact(rng, FACT_ROWS, 0)
    dim = wl_tables.make_dim(rng)
    paths = {"obs": os.path.join(directory, "obs.csv"),
             "scenario": os.path.join(directory, "scenario.csv")}
    for name, rows in (("obs", wl_tables.fact_rows(cols)),
                       ("scenario", wl_tables.dim_rows(dim))):
        with open(paths[name], "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: repr(v) if isinstance(v, float) else v
                                 for k, v in row.items()})
    return cols, dim, paths


class Server:
    """One server child process, started and stopped by the benchmark."""

    def __init__(self, paths: Dict[str, str], spans_out: Optional[str], log_path: str) -> None:
        args = ["serve", "--port", "0"]
        for name, path in paths.items():
            args += ["--csv", f"{name}={path}"]
        if spans_out is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            command = [sys.executable, LAUNCHER, spans_out] + args
        self.log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=self.log,
                                     env=child_env())
        self.rusage = None
        try:
            self.host, self.port = self._address()
        except BaseException:
            self.stop()
            raise

    def _address(self) -> Tuple[str, int]:
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on " not in line:
            raise BenchmarkError(f"server did not start (stderr in {self.log.name}): {line!r}")
        host, _, port = line.split("listening on ", 1)[1].split()[0].rpartition(":")
        return host, int(port)

    def stop(self) -> None:
        """Interrupt the server and wait for it; keeps its resource usage."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                _, status, self.rusage = os.wait4(self.proc.pid, 0)
                self.proc.returncode = os.waitstatus_to_exitcode(status)
            except ChildProcessError:
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def statements(conn: int, seed: int) -> List[Tuple[str, dict]]:
    """The connection's fixed, repeated statements (``group_low`` shape).

    Each connection draws its ``step`` bounds from its own range, so no
    statement is shared between connections.
    """
    rng = np.random.default_rng([seed, 5, conn])
    out = []
    for low in rng.choice(10, HIT_STATEMENTS, replace=False).tolist():
        params = {"b": 10 * conn + low}
        out.append((
            f"SELECT region, COUNT(*) AS n, SUM(value) AS total, MAX(value) AS top "
            f"FROM obs WHERE step >= {params['b']} GROUP BY region", params))
    return out


def miss_statement(rng: np.random.Generator, unique: int) -> Tuple[str, dict]:
    """A ``join_group`` statement; ``rid > -unique`` (always true) keeps it unseen."""
    params = {"w": round(float(rng.uniform(100.0, 180.0)), 3)}
    return (
        f"SELECT d.family AS family, COUNT(*) AS n, SUM(o.value) AS total "
        f"FROM obs o JOIN scenario d ON o.scen = d.scen "
        f"WHERE d.weight < {params['w']} AND o.rid > -{unique} GROUP BY d.family",
        params,
    )


class Connection(threading.Thread):
    """One closed-loop client: ``rounds`` whole rounds, cut short at ``stop_at[0]``."""

    def __init__(self, conn: int, seed: int, address, barrier, rounds: int, stop_at,
                 phase) -> None:
        super().__init__(name=f"client-{conn}")
        self.conn = conn
        self.address = address
        self.barrier = barrier
        self.rounds = rounds
        self.stop_at = stop_at
        self.phase = phase
        self.rng = np.random.default_rng([seed, 6, conn])
        self.hits = statements(conn, seed)
        self.sent = 0
        self.timed: List[Tuple[str, str, float]] = []  # (family, cache, seconds)
        self.responses: List[tuple] = []
        self.error: Optional[BaseException] = None

    def request(self, client, family: str, slot: int):
        self.sent += 1
        unique = CONNECTIONS * self.sent + self.conn
        if family == "hit":
            sql, params = self.hits[slot % HIT_STATEMENTS]
            spec = ("group_low", params, sql)
            call = lambda: client.sql(sql)  # noqa: E731
        elif family == "miss":
            sql, params = miss_statement(self.rng, unique)
            spec = ("join_group", params, sql)
            call = lambda: client.sql(sql)  # noqa: E731
        else:
            mean = round(float(self.rng.uniform(0.0, 10.0)), 6)
            spec = ("mcdb", {"mean": mean}, None)
            tables = [{"name": "u", "vg": "normal", "outer_table": "scenario",
                       "parameters": {"mean": mean, "std": MCDB_STD}}]
            call = lambda: client.mcdb(  # noqa: E731
                tables, aggregate={"table": "u", "column": "value", "func": "avg"},
                n_mc=N_MC, mode="bundled", seed=unique)
        start = time.perf_counter()
        outcome = call()
        return spec, outcome, time.perf_counter() - start

    def run(self) -> None:
        from repro.serve import Client

        try:
            with Client(*self.address) as client:
                for slot, family in enumerate(ROUND):  # warm-up: fills the cache
                    spec, outcome, _ = self.request(client, family, slot)
                    self.responses.append((family, spec, outcome.cache, outcome.result_bytes,
                                           outcome.result))
                self.barrier.wait()
                for _ in range(self.rounds):
                    if time.perf_counter() >= self.stop_at[0]:
                        break
                    for slot, family in enumerate(ROUND):
                        with self.phase("op:" + family):
                            spec, outcome, seconds = self.request(client, family, slot)
                        self.timed.append((family, outcome.cache, seconds))
                        keep = outcome.result if family != "hit" else None
                        self.responses.append((family, spec, outcome.cache,
                                               outcome.result_bytes, keep))
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            self.error = exc
            self.barrier.abort()


def check_responses(responses, cols, dim) -> None:
    filled: Dict[str, bytes] = {}
    for family, (kind, params, sql), cache, raw, result in responses:
        if family == "hit" and cache == "hit":
            check(sql in filled, f"hit before any miss for {sql[:60]!r}")
            checks.check_hit_bytes(sql, raw, filled[sql])
            continue
        check(cache == "miss", f"{family} request answered as {cache!r}, expected a miss")
        if kind == "mcdb":
            checks.check_mcdb(result, params["mean"])
        else:
            checks.check_query(kind, params, result["rows"], cols, dim)
            filled[sql] = raw


def run(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    from repro.serve import Client

    phase = phases(tracer)
    scratch = work_dir("serve")
    cols, dim, paths = write_inputs(seed, scratch)
    spans_out = os.path.join(scratch, "server-spans.json") if tracer is not None else None
    state: Dict[str, Server] = {}

    def setup() -> float:
        previous = state.pop("server", None)
        if previous is not None:
            previous.stop()
        server = Server(paths, spans_out, os.path.join(scratch, "server.log"))
        state["server"] = server
        with Client(server.host, server.port) as client:
            client.ping()
        return time.perf_counter() - server.started

    try:
        setup_s = median_setup(setup, phase)
        server = state["server"]
        address = (server.host, server.port)
        plan = Rounds(seconds, ROUND_S)
        stop_at = [float("inf")]
        barrier = threading.Barrier(CONNECTIONS + 1)
        clients = [Connection(c, seed, address, barrier, plan.count, stop_at, phase)
                   for c in range(CONNECTIONS)]
        for client in clients:
            client.start()
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        start = time.perf_counter()
        stop_at[0] = start + plan.limit
        for client in clients:
            client.join()
        wall = time.perf_counter() - start
        for client in clients:
            if client.error is not None:
                raise client.error
        with Client(*address) as client:
            stats = client.stats()["cache"]
    finally:
        server = state.get("server")
        if server is not None:
            server.stop()
    responses = [r for client in clients for r in client.responses]
    check_responses(responses, cols, dim)
    timed = [t for client in clients for t in client.timed]
    raw = {
        "setup_s": setup_s,
        "latencies": [t[2] for t in timed],
        "busy_s": wall,
        "tail_q": TAIL_Q,
        "attempted": len(timed),
        "peak_rss_mb": server.rusage.ru_maxrss / 1024.0,
        "timed": timed,
        "cache": stats,
    }
    if spans_out is not None:
        with open(spans_out, encoding="utf-8") as handle:
            dumped = json.load(handle)
        raw["server_spans"] = [tuple(s) for s in dumped["spans"]]
        raw["absent"] = dumped["absent"]
    shutil.rmtree(scratch)
    return raw


def per_layer(index, raw) -> Dict[str, float]:
    import statistics

    import spans

    def family_ms(family: str, cache: str) -> float:
        values = [s for f, c, s in raw["timed"] if f == family and c == cache]
        return 1000.0 * statistics.median(values) if values else 0.0

    server = spans.SpanIndex(raw.get("server_spans", []))
    return {
        "serve.sql_hit_ms": family_ms("hit", "hit"),
        "serve.sql_miss_ms": family_ms("miss", "miss"),
        "serve.mcdb_ms": family_ms("mcdb", "miss"),
        "serve.cache_hits": raw["cache"]["hits"],
        "serve.cache_misses": raw["cache"]["misses"],
        "serve.coalesced": raw["cache"]["coalesced"],
        "serve.encode_ms": server.median_ms("serve.encode"),
        "serve.decode_ms": index.median_ms("serve.decode"),
        "engine.parse_ms": server.median_ms("engine.parse"),
        "mcdb.instantiate_ms": server.median_ms("mcdb.instantiate"),
        "mcdb.run_bundled_ms": server.median_ms("mcdb.run_bundled"),
    }
