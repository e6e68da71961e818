"""The repo's benchmark: one workload, one seed, one measured run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 15 --trace 0

Workloads: ``analytics``, ``ingest``, ``sweep``, ``serve`` (see README.md).
The program runs on its defaults: every ``REPRO_*`` variable is cleared
first.  ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` wraps the layers' entry points and prints the per-layer
metrics instead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; every run
also appends a record to ``.perfbench/records.jsonl``; a traced run also
writes its spans to ``.perfbench/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import harness

WORKLOADS = ("analytics", "ingest", "sweep", "serve")


def load_spec() -> dict:
    path = os.path.join(harness.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, tracer):
    """Returns (raw measurements, per-layer metrics or None)."""
    if name in ("analytics", "ingest"):
        import wl_tables as module
    elif name == "sweep":
        import wl_sweep as module
    else:
        import wl_serve as module
    raw = module.run(name, seed, seconds, tracer)
    layers = None
    if tracer is not None:
        import spans

        layers = module.per_layer(spans.SpanIndex(tracer.spans), raw)
    return raw, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cleared = harness.clear_program_env()
    try:
        harness.import_program()
        spec = load_spec()
    except (harness.BenchmarkError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    started = time.time()
    steal_before = harness.steal_seconds()
    correct = True
    error = None
    raw = layers = None
    try:
        raw, layers = run_workload(args.workload, args.seed, args.seconds, tracer)
    except harness.CheckFailed as exc:
        correct = False
        error = f"check failed: {exc}"
    if not correct:
        print(f"perfbench: {error}", file=sys.stderr)
        harness.append_record({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "correct": False, "error": error, "commit": harness.git_commit(),
        })
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    e2e = harness.latency_metrics(raw["latencies"], raw["busy_s"], raw["tail_q"])
    e2e["setup_s"] = raw["setup_s"]
    e2e["peak_rss_mb"] = raw["peak_rss_mb"]
    attempted = raw["attempted"]
    failed = raw.get("failed", 0)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = dict(layers or {}) if args.trace else e2e
    unexercised = sorted(m["name"] for m in wanted if m["name"] not in source)
    metrics = {
        m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "commit": harness.git_commit(),
        "cleared_env": cleared,
        "attempted": attempted,
        "failed": failed,
        "correct": True,
        "tail_quantile": raw["tail_q"],
        "beyond_tail": harness.beyond_tail(raw["latencies"], raw["tail_q"]),
        "end_to_end": e2e,
        **harness.host_facts(),
    }
    steal_after = harness.steal_seconds()
    if steal_before is not None and steal_after is not None:
        record["steal_s"] = steal_after - steal_before
    if args.trace:
        record["per_layer"] = {name: m["value"] for name, m in metrics.items()}
        record["unexercised"] = unexercised
        record["absent_entry_points"] = list(tracer.absent) + raw.get("absent", [])
        tracer.dump(os.path.join(harness.STATE_DIR, f"spans-{args.workload}-{args.seed}.json"),
                    server_spans=raw.get("server_spans", []))
    harness.append_record(record)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
        sys.exit(1)
