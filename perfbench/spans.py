"""In-memory span tracing around the program's public entry points.

The benchmark wraps each layer's entry point from outside the program:
:func:`install` replaces the function (or method) with a wrapper that
records ``(id, parent, name, start, end)`` per call, per thread.  Spans
stay in memory; :meth:`Tracer.dump` writes them once, at the end.

A layer's *self time* is its span's duration minus its direct child
spans (which run inside it, on the same thread).  An entry point that no
longer exists is reported absent rather than crashing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

#: (span name, module, attribute path) for every timed entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("engine.parse", "repro.engine.sqlparser", "parse_select"),
    ("engine.parse", "repro.engine.sqlparser", "parse_statement"),
    ("engine.optimize", "repro.engine.catalog", "Database.optimize_plan"),
    ("engine.execute", "repro.engine.catalog", "Database.execute_plan"),
    ("engine.scan", "repro.engine.columnar", "ColumnBatch.from_table"),
    ("engine.insert", "repro.engine.table", "Table.insert_many"),
    ("engine.analyze", "repro.engine.catalog", "Database.analyze"),
    ("delta.agg_refresh", "repro.delta.aggregates", "IncrementalAggregate.refresh"),
    ("delta.plan", "repro.delta.plan", "plan_delta"),
    ("delta.execute", "repro.delta.plan", "execute_plan"),
    ("delta.diff", "repro.delta.diff", "diff_timelines"),
    ("ensemble.keys", "repro.ensemble.scheduler", "compute_run_keys"),
    ("ensemble.run", "repro.ensemble.scheduler", "run_ensemble"),
    ("store.put", "repro.ensemble.store", "RunStore.put"),
    ("store.get", "repro.ensemble.store", "RunStore.get"),
    ("store.contains", "repro.ensemble.store", "RunStore.contains"),
    ("store.gc", "repro.ensemble.store", "RunStore.gc"),
    ("exec.dispatch", "repro.exec.substrate", "Substrate.dispatch_isolated"),
    ("mapreduce.chain", "repro.mapreduce.runtime", "Cluster.run_chain"),
    ("serve.encode", "repro.serve.protocol", "encode_payload"),
    ("serve.decode", "repro.serve.protocol", "decode_payload"),
    ("mcdb.instantiate", "repro.mcdb.executor", "MonteCarloDatabase.instantiate_bundles"),
    ("mcdb.run_bundled", "repro.mcdb.executor", "MonteCarloDatabase.run_bundled"),
)

#: Packages imported before wrapping, so that every ``from x import f``
#: binding that exists at run time is already there to be replaced.
_PRELOAD = (
    "repro.engine",
    "repro.delta",
    "repro.ensemble",
    "repro.ensemble.scenarios",
    "repro.exec",
    "repro.mapreduce",
    "repro.mcdb",
    "repro.serve",
    "repro.serve.server",
    "repro.serve.client",
)

Span = Tuple[int, Optional[int], str, float, float]


class Tracer:
    """Collects spans from any thread, each with its parent on the same thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        span_id = next(self._ids)
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, name, start, end))

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span; a recursive call joins its caller's span."""
        stack = self._stack()
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def dump(self, path: str, **extra) -> None:
        """Write the spans (and ``extra`` lists) as JSON, once, at the end."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "absent": self.absent, **extra}, handle)


def _wrap_function(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` that exists."""
    for package in _PRELOAD:
        try:
            importlib.import_module(package)
        except ImportError:
            pass
    for name, module_name, path in ENTRY_POINTS:
        label = f"{module_name}.{path}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            tracer.absent.append(label)
            continue
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = inspect.getattr_static(owner, attr, None) if owner else None
            if raw is None:
                tracer.absent.append(label)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap_function(tracer, name, raw.__func__))
            else:
                wrapped = _wrap_function(tracer, name, raw)
            setattr(owner, attr, wrapped)
            continue
        original = getattr(module, attr, None)
        if original is None:
            tracer.absent.append(label)
            continue
        wrapped = _wrap_function(tracer, name, original)
        # Rebind every module-level alias (``from x import f``) as well.
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)


# -- analysis ----------------------------------------------------------------

def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    spans = list(spans)
    own = {span_id: end - start for span_id, _, _, start, end in spans}
    for span_id, parent, _, start, end in spans:
        if parent is not None and parent in own:
            own[parent] -= end - start
    return own


class SpanIndex:
    """Self times of entry-point spans, grouped by the operation they ran in.

    Root spans named ``op:<kind>`` mark timed operations; everything else
    at the root (set-up, warm-up, or a server's own threads) is grouped
    under its root span's name.
    """

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        own = self_times(spans)
        parent_of = {span_id: parent for span_id, parent, _, _, _ in spans}
        names = {span_id: name for span_id, _, name, _, _ in spans}
        top = {}
        for span_id in parent_of:
            root = span_id
            while parent_of[root] is not None:
                root = parent_of[root]
            top[span_id] = root
        self.root_name = {span_id: names[top[span_id]] for span_id in names}
        #: entry name -> list of (root name, root id, self seconds)
        self.calls: Dict[str, List[Tuple[str, int, float]]] = defaultdict(list)
        self.op_ids: Dict[int, str] = {}
        for span_id, parent, name, start, end in spans:
            if parent is None and name.startswith("op:"):
                self.op_ids[span_id] = name[3:]
        for span_id, parent, name, start, end in spans:
            if name.startswith("op:") and parent is None:
                continue
            root_id = top[span_id]
            self.calls[name].append((names[root_id], root_id, own[span_id]))

    def in_ops(self, name: str) -> List[Tuple[str, int, float]]:
        return [c for c in self.calls.get(name, []) if c[1] in self.op_ids]

    def median_ms(self, name: str) -> float:
        """Median self time per call of ``name`` inside timed operations.

        An entry point called only during set-up gets the median over
        set-up repetitions of its summed self time per set-up; in a
        process with no phases at all (the server), the median per call.
        """
        calls = self.in_ops(name)
        if calls:
            return 1000.0 * statistics.median(c[2] for c in calls)
        per_setup: Dict[int, float] = defaultdict(float)
        for root_name, root_id, seconds in self.calls.get(name, []):
            if root_name == "setup":
                per_setup[root_id] += seconds
        if per_setup:
            return 1000.0 * statistics.median(per_setup.values())
        everywhere = [c[2] for c in self.calls.get(name, [])]
        return 1000.0 * statistics.median(everywhere) if everywhere else 0.0

    def per_op_ms(self, name: str, kind: str) -> float:
        """Median over ``kind`` operations of the summed self time of ``name``."""
        totals = {op_id: 0.0 for op_id, k in self.op_ids.items() if k == kind}
        if not totals:
            return 0.0
        for _, op_id, seconds in self.in_ops(name):
            if op_id in totals:
                totals[op_id] += seconds
        return 1000.0 * statistics.median(totals.values())

    def calls_per_op(self, name: str) -> float:
        if not self.op_ids:
            return 0.0
        return len(self.in_ops(name)) / len(self.op_ids)

    def inclusive_s(self, name: str, root: str) -> List[float]:
        """Durations of ``name`` spans under root spans named ``root``."""
        return [end - start for span_id, _, n, start, end in self.spans
                if n == name and self.root_name[span_id] == root]
