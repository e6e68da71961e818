"""``sweep``: what-if perturbations of an ensemble kept in an on-disk run store.

Set-up materializes the base ensemble cold (``run_ensemble``) into a
fresh ``RunStore``: :data:`LH_RUNS` Latin-hypercube ``response.surface``
nodes (noise 0) plus one ``epidemic.chain_prefix`` with three
``epidemic.chain_branch`` timelines.

Each operation is one what-if: ``perturb`` :data:`PERTURBED_ROWS` LH
rows and the vaccinate branch's ``coverage`` to fresh values, then
``plan_delta``, ``execute_plan`` and ``diff_timelines`` against the
base.  The first operation of every round of :data:`ROUND_OPS` runs
``RunStore.gc`` down to the store's size at the end of set-up before
its what-if.  ``gc`` evicts the oldest entries first, and those are the
base's, so the what-if that follows recomputes the evicted base nodes
as ``missing``.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List, Set

import numpy as np

import checks
from harness import Rounds, check, peak_rss_mib, phases, work_dir

LH_RUNS = 1000
FACTORS = {"x1": (-1.0, 1.0), "x2": (-1.0, 1.0), "x3": (0.0, 2.0)}
POPULATION = 120
PERTURBED_ROWS = 10
#: Operations per round; the first one of each round runs ``gc``.
ROUND_OPS = 20
#: ``tail_ms`` percentile.  The 12 operations beyond it in a 20 s run
#: are the 6 gc operations and the 6 slowest of the other 114, so the
#: tail lies inside the plain what-ifs, as the median does.  The gc
#: operations, whose file-system work varies most from run to run on the
#: reference host, show in ``ops_per_s``.
TAIL_Q = 0.90
#: Measured seconds of one round on the reference host: a 20 s run is
#: 6 rounds (120 operations).
ROUND_S = 3.3
#: Rounds of warm-up (the first gc finds nothing to evict).  The timed
#: gc operations then evict about 390, 690, 750, 690, 750 and 690
#: entries.
WARMUP_ROUNDS = 1
#: Cold materializations per run, each into a fresh store (about 1,000
#: entries).  The what-ifs use the first; the others run before the
#: first rounds, untimed as operations, so that ``setup_s`` (their
#: median) samples the file system's speed, which on the reference host
#: swings by up to 3x over tens of seconds, across the run rather than
#: in one moment.
SETUP_REPEATS = 5
#: Reused nodes whose stored results are re-fingerprinted per operation.
SAMPLED_REUSE = 16


def build_base(seed: int):
    from repro.ensemble import Ensemble, ScenarioSpec

    base = Ensemble.latin_hypercube(
        "response.surface", FACTORS, runs=LH_RUNS, seed=seed,
        design_seed=seed, base_params={"noise": 0.0}, name="lh",
    )
    base.add("prefix", ScenarioSpec(
        "epidemic.chain_prefix",
        {"population": POPULATION, "days": 8, "seed_infections": 3,
         "beta": 0.5, "gamma": 0.1},
        seed,
    ))
    for label, params in (
        ("baseline", {"intervention": "none"}),
        ("distancing", {"intervention": "distancing", "beta_factor": 0.4}),
        ("vaccinate", {"intervention": "vaccinate", "coverage": 0.6}),
    ):
        base.branch("prefix", f"timeline/{label}",
                    ScenarioSpec("epidemic.chain_branch", {"days": 8, **params}, seed))
    return base


def disk_bytes(root: str) -> int:
    """Bytes of every file under ``root`` (independent of the store's API)."""
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            total += os.stat(os.path.join(directory, name)).st_size
    return total


def descendants(ensemble, names: Set[str]) -> Set[str]:
    """``names`` plus every node that depends on them, transitively."""
    children: Dict[str, List[str]] = {}
    for node in ensemble.nodes():
        for dep in node.deps:
            children.setdefault(dep, []).append(node.name)
    cone, frontier = set(names), list(names)
    while frontier:
        for child in children.get(frontier.pop(), ()):
            if child not in cone:
                cone.add(child)
                frontier.append(child)
    return cone


def check_node(name: str, spec, result) -> None:
    if spec.scenario == "response.surface":
        factors = {k: v for k, v in spec.params.items() if k != "noise"}
        checks.check_surface(name, result, factors)
    else:
        checks.check_compartments(name, result, POPULATION)


def run(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    import repro.ensemble.scenarios  # noqa: F401 - registers the scenario families
    from repro.delta import diff_timelines, execute_plan, perturb, plan_delta
    from repro.ensemble import RunStore, compute_run_keys, result_fingerprint, run_ensemble

    phase = phases(tracer)
    scratch = work_dir("sweep")
    base = build_base(seed)
    setup_times: List[float] = []

    def setup():
        """One cold materialization into a fresh store; its time is kept."""
        with phase("setup"):
            root = os.path.join(scratch, f"store{len(setup_times) + 1}")
            start = time.perf_counter()
            store = RunStore(root)
            cold = run_ensemble(base, store=store)
            setup_times.append(time.perf_counter() - start)
        return store, cold

    store, cold = setup()
    check(cold.nodes_failed == 0, f"cold run: {cold.nodes_failed} nodes failed")
    for node in base.nodes():
        check_node(node.name, node.spec, cold.results[node.name])
    cold_fp = {name: result_fingerprint(value) for name, value in cold.results.items()}
    base_keys = compute_run_keys(base)
    name_of_key = {key: name for name, key in base_keys.items()}
    objects = os.path.join(store.root, "objects")
    budget = disk_bytes(objects)
    lh_names = [n.name for n in base.nodes() if n.spec.scenario == "response.surface"]
    reused_cycle = 0
    evicted: Set[str] = set()  # base nodes whose stored entry gc removed
    rng = np.random.default_rng([seed, 3])
    recomputed: List[int] = []
    gc_evicted: List[int] = []

    def one(with_gc: bool) -> float:
        nonlocal reused_cycle
        rows = rng.choice(len(lh_names), PERTURBED_ROWS, replace=False)
        updates = {}
        for i in rows:
            factor = str(rng.choice(sorted(FACTORS)))
            low, high = FACTORS[factor]
            updates[lh_names[i]] = {factor: float(rng.uniform(low, high))}
        updates["timeline/vaccinate"] = {"coverage": float(rng.uniform(0.3, 0.9))}
        elapsed = 0.0
        if with_gc:
            start = time.perf_counter()
            removed = store.gc(max_total_bytes=budget)
            elapsed = time.perf_counter() - start
            checks.check_budget(disk_bytes(objects), budget)
            evicted.update(name_of_key[k] for k in removed if k in name_of_key)
            gc_evicted.append(len(removed))
        start = time.perf_counter()
        target = perturb(base, params=updates, name="whatif")
        plan = plan_delta(target, store, base=base)
        result = execute_plan(plan, store)
        diff = diff_timelines(store, base, target)
        elapsed += time.perf_counter() - start

        cone = descendants(base, set(updates))
        reasons = {name: p.reason for name, p in plan.nodes.items()}
        checks.check_plan(reasons, cone, evicted)
        check(result.nodes_failed == 0 and result.nodes_skipped == 0,
              f"what-if: {result.nodes_failed} failed, {result.nodes_skipped} skipped")
        for name in plan.cone:
            check_node(name, target.node(name).spec, result.results[name])
        checks.check_diff({node.name: node.status for node in diff.nodes}, cone, evicted)
        evicted.difference_update(n for n, r in reasons.items() if r == "missing")
        reused = [n for n, r in reasons.items() if r == "hit"]
        for k in range(SAMPLED_REUSE):
            name = reused[(reused_cycle + k) % len(reused)]
            checks.check_fingerprint(name, result_fingerprint(result.result(name)), cold_fp[name])
        reused_cycle += SAMPLED_REUSE
        recomputed.append(plan.nodes_recomputed)
        return elapsed

    with phase("warmup"):
        for _ in range(WARMUP_ROUNDS):
            for i in range(ROUND_OPS):
                one(i == 0)
    del recomputed[:], gc_evicted[:]
    latencies: List[float] = []
    rounds = Rounds(seconds, ROUND_S)
    for _ in rounds:
        if len(setup_times) < SETUP_REPEATS:
            setup()
        for i in range(ROUND_OPS):
            kind = "gc" if i == 0 else "whatif"
            with phase("op:" + kind):
                elapsed = one(kind == "gc")
            rounds.add(elapsed)
            latencies.append(elapsed)
    for name in base_keys:
        if name not in evicted:
            value = store.get(base_keys[name])
            check(value is not None, f"base node {name}: entry missing but never evicted")
            checks.check_fingerprint(name, result_fingerprint(value), cold_fp[name])
    store_mb = disk_bytes(store.root) / 2**20
    # The stores stay on disk: deleting thousands of entries slows file
    # creation on the reference host for minutes after, which made every
    # following run slower than the one before (see README.md, Noise).
    return {
        "setup_s": statistics.median(setup_times),
        "latencies": latencies,
        "busy_s": rounds.busy,
        "tail_q": TAIL_Q,
        "attempted": len(latencies),
        "peak_rss_mb": peak_rss_mib(),
        "store_mb": store_mb,
        "nodes": len(base),
        "recomputed": recomputed,
        "gc_evicted": gc_evicted,
    }


def per_layer(index, raw) -> Dict[str, float]:
    cold = index.inclusive_s("ensemble.run", root="setup")
    metrics = {
        "delta.plan_ms": index.median_ms("delta.plan"),
        "delta.execute_ms": index.median_ms("delta.execute"),
        "delta.diff_ms": index.median_ms("delta.diff"),
        "delta.nodes_recomputed": statistics.median(raw["recomputed"]),
        "ensemble.keys_ms": index.median_ms("ensemble.keys"),
        "ensemble.keys_calls": index.calls_per_op("ensemble.keys"),
        "store.put_ms": index.median_ms("store.put"),
        "store.get_ms": index.median_ms("store.get"),
        "store.contains_ms": index.median_ms("store.contains"),
        "store.put_calls": index.calls_per_op("store.put"),
        "store.get_calls": index.calls_per_op("store.get"),
        "store.contains_calls": index.calls_per_op("store.contains"),
        "store.gc_ms": index.median_ms("store.gc"),
        "store.gc_evicted": statistics.median(raw["gc_evicted"]),
        "store.disk_mb": raw["store_mb"],
        "exec.dispatch_ms": index.median_ms("exec.dispatch"),
        "mapreduce.chain_ms": index.median_ms("mapreduce.chain"),
    }
    if cold:
        metrics["ensemble.cold_nodes_per_s"] = raw["nodes"] / statistics.median(cold)
    return metrics
