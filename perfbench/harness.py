"""Shared plumbing: the program under test, timing loops, statistics, records.

The benchmark measures the program built from the ``src/`` tree of the
checkout it runs in, never an installed copy: :func:`import_program`
puts that tree first on ``sys.path`` and refuses to run when it is
missing.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import statistics
import sys
import tempfile
from typing import Callable, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space and per-run records, inside the checkout (git-ignored).
STATE_DIR = os.path.join(ROOT, ".perfbench")
RECORDS = os.path.join(STATE_DIR, "records.jsonl")

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


class BenchmarkError(Exception):
    """The benchmark cannot run here (e.g. the program's sources are missing)."""


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent reference."""


def clear_program_env() -> List[str]:
    """Remove every ``REPRO_*`` knob so the program runs on its defaults.

    Returns the names removed; child processes inherit the cleared
    environment.
    """
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    return cleared


def import_program() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/repro``."""
    package = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(package):
        raise BenchmarkError(f"program sources not found at {package}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import repro

    located = os.path.realpath(os.path.dirname(repro.__file__))
    if located != os.path.realpath(os.path.join(SRC, "repro")):
        raise BenchmarkError(f"imported repro from {located}, not {SRC}")


def child_env() -> Dict[str, str]:
    """Environment for program child processes (cleared knobs, our src)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def work_dir(label: str) -> str:
    """A new, empty scratch directory for one run, under the checkout."""
    parent = os.path.join(STATE_DIR, "work")
    os.makedirs(parent, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{label}-", dir=parent)


def peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def phases(tracer) -> Callable[[str], object]:
    """``phase(name)``: a span of ``tracer``, or nothing when not tracing."""
    if tracer is None:
        return lambda name: contextlib.nullcontext()
    return tracer.span


def median_setup(setup: Callable[[], float], phase, repeats: int = SETUP_REPEATS) -> float:
    """Median of ``repeats`` set-up timings; ``setup`` returns its own time.

    Each repetition is its own ``setup`` phase, so per-layer set-up
    figures are per set-up.
    """
    times = []
    for _ in range(repeats):
        with phase("setup"):
            times.append(setup())
    return statistics.median(times)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile (0 < q <= 1) of ``values``."""
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


def latency_metrics(
    latencies: Sequence[float], busy_seconds: float, tail_q: float
) -> Dict[str, float]:
    """``ops_per_s``, ``p50_ms`` and ``tail_ms`` of one timed phase."""
    return {
        "ops_per_s": len(latencies) / busy_seconds,
        "p50_ms": 1000.0 * statistics.median(latencies),
        "tail_ms": 1000.0 * nearest_rank(latencies, tail_q),
    }


def beyond_tail(latencies: Sequence[float], tail_q: float) -> int:
    """How many operations lie beyond the tail quantile."""
    return len(latencies) - math.ceil(tail_q * len(latencies))


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(ROOT, ".git", ref), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def append_record(record: Dict[str, object]) -> None:
    """Append one run's record to the JSON-lines trajectory."""
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(RECORDS, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def host_facts() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


def steal_seconds() -> Optional[float]:
    """CPU time the hypervisor gave to others, summed over CPUs (Linux).

    The difference across a run, kept in its record, tells a slow run on
    a busy host from a slow program.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


class Rounds:
    """A fixed number of whole rounds; time only caps it.

    The count is ``seconds / round_s`` rounded, where ``round_s`` is the
    measured time of one round on the reference host, so a run does the
    same work however fast the program is, and lasts about ``seconds``
    there.  Iteration stops early, after a whole round, only once the
    measured time passes :data:`CAP` times ``seconds``, so that a much
    slower program still ends in time.  Measured time is the sum of the
    timed operations (see :meth:`add`); untimed checks between
    operations do not count.
    """

    CAP = 3.0

    def __init__(self, seconds: float, round_s: float) -> None:
        self.count = max(1, round(seconds / round_s))
        self.limit = self.CAP * seconds
        self.busy = 0.0

    def add(self, seconds: float) -> None:
        self.busy += seconds

    def __iter__(self):
        for index in range(self.count):
            if self.busy >= self.limit:
                return
            yield index


def rel_close(a: float, b: float, rel: float) -> bool:
    """``a`` and ``b`` agree within relative tolerance ``rel``."""
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)
