"""Self-test of the output checks: each must reject a deliberately wrong answer.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Every check is first given a right answer, taken from the program on a
small input where the check covers program output, and must accept it;
then one value of that answer is corrupted and the check must raise
``CheckFailed``.  Exits non-zero if any check accepts a wrong answer or
rejects a right one.
"""

from __future__ import annotations

import copy
import json
import sys

import numpy as np

import harness
from harness import CheckFailed


def cases():
    """Yield (label, accept, reject): two thunks that call one check."""
    import checks
    import wl_tables

    harness.clear_program_env()
    harness.import_program()
    from repro.delta import IncrementalAggregate
    from repro.engine import Database, Schema

    rng = np.random.default_rng([0, 9])
    cols = wl_tables.make_fact(rng, 3000, 0)
    dim = wl_tables.make_dim(rng)
    db = Database()
    db.create_table("obs", Schema.of(rid=int, region=str, cell=str, scen=str, step=int, value=float))
    db.create_table("scenario", Schema.of(scen=str, family=str, weight=float))
    db.table("obs").insert_many(wl_tables.fact_rows(cols))
    db.table("scenario").insert_many(wl_tables.dim_rows(dim))

    for kind in wl_tables.SHAPES:
        sql, params = wl_tables.make_statement(kind, rng)
        rows = db.sql(sql)
        wrong = copy.deepcopy(rows)
        column = "value" if kind == "topk" else "total"
        wrong[-1][column] += 1.0
        yield (f"query {kind}",
               lambda k=kind, p=params, r=rows: checks.check_query(k, p, r, cols, dim),
               lambda k=kind, p=params, r=wrong: checks.check_query(k, p, r, cols, dim))

    view = IncrementalAggregate(db.table("obs"), ["region"], wl_tables.VIEW_AGGREGATES)
    view.refresh()
    snapshot = view.snapshot_rows()
    wrong = copy.deepcopy(snapshot)
    wrong[0]["n"] += 1
    yield ("view", lambda: checks.check_view(snapshot, cols),
           lambda: checks.check_view(wrong, cols))

    import repro.ensemble.scenarios as scenarios

    factors = {"x1": 0.3, "x2": -0.7, "x3": 1.1}
    y = scenarios.response_surface(dict(factors, noise=0.0), 0, {})
    yield ("surface", lambda: checks.check_surface("n", y, factors),
           lambda: checks.check_surface("n", {"y": y["y"] * (1 + 1e-6)}, factors))

    prefix = scenarios.epidemic_chain_prefix({"population": 40, "days": 3}, 1, {})
    broken = dict(prefix, recovered=prefix["recovered"] + 1)
    yield ("compartments", lambda: checks.check_compartments("p", prefix, 40),
           lambda: checks.check_compartments("p", broken, 40))

    reasons = {"a": "changed", "b": "upstream", "c": "hit", "d": "missing"}
    yield ("plan", lambda: checks.check_plan(reasons, {"a", "b"}, {"d"}),
           lambda: checks.check_plan(dict(reasons, c="changed"), {"a", "b"}, {"d"}))
    yield ("plan: unevicted missing", lambda: checks.check_plan(reasons, {"a", "b"}, {"d"}),
           lambda: checks.check_plan(reasons, {"a", "b"}, set()))

    statuses = {"a": "changed", "b": "unstored", "c": "same"}
    yield ("diff", lambda: checks.check_diff(statuses, {"a", "b"}, {"b"}),
           lambda: checks.check_diff(dict(statuses, c="changed"), {"a", "b"}, {"b"}))

    yield ("fingerprint", lambda: checks.check_fingerprint("n", "ab12", "ab12"),
           lambda: checks.check_fingerprint("n", "ab12", "ab13"))
    yield ("gc budget", lambda: checks.check_budget(1000, 1000),
           lambda: checks.check_budget(1001, 1000))

    samples = np.random.default_rng(1).normal(5.0, 2.0, 4000)
    good = {"n": 4000, "expectation": float(samples.mean()), "samples": samples}
    yield ("mcdb", lambda: checks.check_mcdb(good, 5.0),
           lambda: checks.check_mcdb(good, 5.0 + 10 * 2.0 / np.sqrt(4000)))
    raw = json.dumps({"rows": [{"n": 1}]}).encode()
    yield ("hit bytes", lambda: checks.check_hit_bytes("q", raw, raw),
           lambda: checks.check_hit_bytes("q", raw, raw.replace(b"1", b"2")))


def main() -> int:
    ok = True
    for label, accept, reject in cases():
        try:
            accept()
        except CheckFailed as exc:
            print(f"FAIL  {label}: rejected a right answer: {exc}")
            ok = False
            continue
        try:
            reject()
        except CheckFailed as exc:
            print(f"ok    {label}: rejects a wrong answer ({exc})")
        else:
            print(f"FAIL  {label}: accepted a wrong answer")
            ok = False
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
