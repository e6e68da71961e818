"""Independent output checks: the program's answers against numpy.

Each check recomputes the expected answer from the generated inputs
with numpy (never through the program) and raises
:class:`harness.CheckFailed` on any mismatch.  Counts, minima, maxima
and top-k rows must match exactly; float sums and means are summed in
another order than the engine's, so they must agree within
:data:`REL_TOL`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Set

import numpy as np

from harness import CheckFailed, check, rel_close

#: Relative tolerance for float sums and means (summation order differs).
REL_TOL = 1e-9


def _grouped(codes: np.ndarray, values: np.ndarray, mask: np.ndarray, size: int):
    """Per-code count, sum, max and min of ``values`` where ``mask``."""
    codes = codes[mask]
    values = values[mask]
    n = np.bincount(codes, minlength=size)
    total = np.bincount(codes, weights=values, minlength=size)
    top = np.full(size, -np.inf)
    np.maximum.at(top, codes, values)
    low = np.full(size, np.inf)
    np.minimum.at(low, codes, values)
    return n, total, top, low


def _check_groups(label: str, rows: List[dict], key: str, expected: Dict[str, dict]) -> None:
    got = {}
    for row in rows:
        check(row[key] not in got, f"{label}: group {row[key]!r} repeated")
        got[row[key]] = row
    check(set(got) == set(expected),
          f"{label}: groups differ: {sorted(set(got) ^ set(expected))[:5]}")
    for name, want in expected.items():
        row = got[name]
        for column, value in want.items():
            if isinstance(value, float):
                ok = rel_close(row[column], value, REL_TOL)
            else:
                ok = row[column] == value
            check(ok, f"{label}: group {name!r} {column}={row[column]!r}, expected {value!r}")


def check_query(kind: str, p: Mapping, rows: List[dict],
                cols: Mapping[str, np.ndarray], dim: Mapping[str, np.ndarray]) -> None:
    """The rows of one statement of shape ``kind`` (see ``wl_tables``)."""
    value, step = cols["value"], cols["step"]
    if kind in ("filter_agg", "in_subquery"):
        if kind == "filter_agg":
            mask = (value > p["a"]) & (step < p["b"])
        else:
            members = np.flatnonzero(dim["family"] == p["f"])
            mask = (step < p["b"]) & np.isin(cols["scen"], members)
        n = int(mask.sum())
        total = float(value[mask].sum())
        check(len(rows) == 1, f"{kind}: {len(rows)} rows, expected 1")
        row = rows[0]
        check(row["n"] == n, f"{kind}: n={row['n']}, expected {n}")
        check(rel_close(row["total"], total, REL_TOL), f"{kind}: total={row['total']}, expected {total}")
        if kind == "filter_agg":
            check(rel_close(row["mean"], total / n, REL_TOL),
                  f"{kind}: mean={row['mean']}, expected {total / n}")
        return
    if kind == "group_low":
        n, total, top, _ = _grouped(cols["region"], value, step >= p["b"], int(cols["region"].max()) + 1)
        expected = {f"r{g}": {"n": int(n[g]), "total": float(total[g]), "top": float(top[g])}
                    for g in np.flatnonzero(n)}
        _check_groups(kind, rows, "region", expected)
        return
    if kind == "group_high":
        n, total, _, _ = _grouped(cols["cell"], value, step < p["b"], int(cols["cell"].max()) + 1)
        expected = {f"c{g:05d}": {"n": int(n[g]), "total": float(total[g])}
                    for g in np.flatnonzero(n)}
        _check_groups(kind, rows, "cell", expected)
        return
    if kind == "join_group":
        keep = dim["weight"] < p["w"]
        mask = keep[cols["scen"]]
        family = dim["family"][cols["scen"]]
        n, total, _, _ = _grouped(family, value, mask, int(dim["family"].max()) + 1)
        expected = {f"f{g}": {"n": int(n[g]), "total": float(total[g])}
                    for g in np.flatnonzero(n)}
        _check_groups(kind, rows, "family", expected)
        return
    if kind == "topk":
        idx = np.flatnonzero(step < p["b"])
        order = np.lexsort((cols["rid"][idx], -value[idx]))[:10]
        expected = [{"rid": int(cols["rid"][idx[i]]), "value": float(value[idx[i]])} for i in order]
        got = [{"rid": row["rid"], "value": row["value"]} for row in rows]
        check(got == expected, f"topk: rows {got[:3]}..., expected {expected[:3]}...")
        return
    raise CheckFailed(f"unknown shape {kind!r}")


def check_view(snapshot: List[dict], cols: Mapping[str, np.ndarray]) -> None:
    """An ``IncrementalAggregate`` over ``region`` equals a numpy group-by."""
    region, value = cols["region"], cols["value"]
    n, total, hi, lo = _grouped(region, value, np.ones(len(region), bool), int(region.max()) + 1)
    present = np.flatnonzero(n)
    first_seen = np.array([np.argmax(region == g) for g in present])
    order = [f"r{g}" for g in present[np.argsort(first_seen)]]
    check([row["region"] for row in snapshot] == order,
          f"view: group order {[row['region'] for row in snapshot]}, expected {order}")
    expected = {
        f"r{g}": {"n": int(n[g]), "total": float(total[g]), "lo": float(lo[g]),
                  "hi": float(hi[g]), "mean": float(total[g] / n[g])}
        for g in present
    }
    _check_groups("view", snapshot, "region", expected)


# -- sweep ---------------------------------------------------------------------

def surface(factors: Mapping[str, float]) -> float:
    """The closed-form ``response.surface`` value at noise 0."""
    names = sorted(factors)
    x = [float(factors[name]) for name in names]
    y = 10.0
    for i, xi in enumerate(x):
        y += (i + 1.0) * xi + 0.5 * xi * xi
    if len(x) > 1:
        y += 0.25 * x[0] * x[1]
    return y


def check_surface(name: str, result: Mapping, factors: Mapping[str, float]) -> None:
    want = surface(factors)
    check(rel_close(result["y"], want, REL_TOL), f"{name}: y={result['y']!r}, expected {want!r}")


def check_compartments(name: str, result: Mapping, population: int) -> None:
    counts = sum(result[c] for c in ("susceptible", "infectious", "recovered", "vaccinated"))
    check(counts == population,
          f"{name}: compartments sum to {counts}, expected {population}")
    check(len(result["population"]) == population,
          f"{name}: {len(result['population'])} people, expected {population}")


def check_same_set(label: str, got: Iterable[str], want: Iterable[str]) -> None:
    got, want = set(got), set(want)
    check(got == want, f"{label}: extra {sorted(got - want)[:5]}, missing {sorted(want - got)[:5]}")


def check_plan(reasons: Mapping[str, str], cone: Set[str], evicted: Set[str]) -> None:
    """A delta plan recomputes exactly the perturbed cone plus evicted nodes.

    ``reasons`` maps every node to its plan reason (``hit`` for reuse);
    ``cone`` is the perturbed nodes and their descendants; ``evicted``
    the base nodes whose stored entries ``gc`` removed.
    """
    check_same_set("cone", [n for n, r in reasons.items() if r in ("changed", "upstream")], cone)
    missing = {n for n, r in reasons.items() if r == "missing"}
    check(missing <= evicted, f"plan recomputes unevicted nodes {sorted(missing - evicted)[:5]}")
    check_same_set("recomputed", [n for n, r in reasons.items() if r != "hit"],
                   cone | (missing & evicted))


def check_diff(statuses: Mapping[str, str], cone: Set[str], evicted: Set[str]) -> None:
    """``diff_timelines`` flags exactly the cone (unstored where gc evicted the base)."""
    for name, status in statuses.items():
        if name in cone:
            want = "unstored" if name in evicted else "changed"
        else:
            want = "same"
        check(status == want, f"diff: {name} is {status!r}, expected {want!r}")


def check_fingerprint(name: str, got: str, want: str) -> None:
    check(got == want, f"{name}: stored result's fingerprint differs from the cold run's")


def check_budget(size: int, budget: int) -> None:
    check(size <= budget, f"gc left {size} bytes in the store, budget {budget}")


# -- serve ---------------------------------------------------------------------

def check_mcdb(result: Mapping, mean: float) -> None:
    """The expectation is the samples' mean and lies within 6 SE of ``mean``."""
    samples = np.asarray(result["samples"], dtype=float)
    check(samples.size == result["n"], f"mcdb: {samples.size} samples, n={result['n']}")
    check(rel_close(result["expectation"], float(samples.mean()), REL_TOL),
          f"mcdb: expectation {result['expectation']} != sample mean {samples.mean()}")
    se = float(samples.std(ddof=1)) / np.sqrt(samples.size)
    check(abs(result["expectation"] - mean) <= 6.0 * se,
          f"mcdb: expectation {result['expectation']} is more than 6 SE ({se:.3g}) from {mean}")


def check_hit_bytes(statement: str, hit: bytes, filled: bytes) -> None:
    check(hit == filled, f"serve: hit bytes differ from the miss that filled the cache for {statement[:60]!r}")

