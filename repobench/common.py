"""Shared pieces of the repository benchmark: locating the program, checking
tours, counting attempts, percentiles, processes, host facts and span dumps."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: where span dumps of traced runs are written (inside the checkout)
OUT_DIR = BENCH_DIR / "out"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, fleet did not start)."""


def import_repro():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parents[1] != SRC:
        raise BenchError(f"repro imported from {repro.__file__}, not {SRC}")
    return repro


def child_env() -> dict:
    """Environment for program subprocesses: this checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


# ---------------------------------------------------------------- tour checks


def euc2d_length(tour, coords) -> int:
    """TSPLIB EUC_2D length, ``nint(sqrt(dx^2 + dy^2))`` per edge, computed
    here independently of the program."""
    total = 0
    for a, b in zip(tour[:-1], tour[1:]):
        dx = coords[a][0] - coords[b][0]
        dy = coords[a][1] - coords[b][1]
        total += int(math.sqrt(dx * dx + dy * dy) + 0.5)
    return total


def tour_defect(tour, coords, reported_length) -> str | None:
    """Why ``tour`` is not a valid answer for ``coords``, or ``None``.

    A valid tour is a closed Hamiltonian cycle (``n + 1`` entries, first
    equal to last, every city exactly once) whose recomputed length equals
    the reported one.
    """
    n = len(coords)
    tour = [int(c) for c in tour]
    if len(tour) != n + 1 or tour[0] != tour[-1]:
        return "not-closed"
    if sorted(tour[:-1]) != list(range(n)):
        return "not-hamiltonian"
    if euc2d_length(tour, coords) != int(reported_length):
        return "length-mismatch"
    return None


@dataclass
class Tally:
    """Attempts and failures, by reason.  ``known`` failures come from the
    strata that exercise documented defects; any other failure makes the
    run incorrect."""

    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    reasons: dict = field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str, known: bool = False) -> None:
        self.attempted += 1
        self.failed += 1
        if not known:
            self.unexpected += 1
        key = ("known:" if known else "") + reason
        self.reasons[key] = self.reasons.get(key, 0) + 1

    def demote(self, reason: str) -> None:
        """An attempt already counted as correct failed a later check."""
        self.attempted -= 1
        self.fail(reason)

    @property
    def correct(self) -> int:
        return self.attempted - self.failed


# ---------------------------------------------------------------- statistics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); ``inf`` entries sort
    last, so failed requests miss every limit."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_p95(values) -> tuple[float, float]:
    """``(value, percentile)``: the p95, or, with fewer than ten samples
    beyond it, the highest percentile (not below the median) that has ten
    beyond it."""
    n = len(values)
    q = 95.0 if n >= 200 else max(50.0, 100.0 * (1.0 - 10.0 / max(n, 1)))
    return percentile(values, q), q


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------- processes


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def python_child(code: str, timeout: float = 120.0) -> tuple[float, str]:
    """Run ``code`` in a fresh interpreter.  Returns the seconds from
    process start to its first output line, and that line; the child is
    waited for before returning."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        _, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise BenchError(f"child failed: {err[-2000:]}")
    return wall, line.strip()


def cli_import_seconds(starts: int) -> float:
    """Median seconds of a fresh ``import repro.cli`` (timed in the child)."""
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    return median([float(python_child(code)[1]) for _ in range(starts)])


# ---------------------------------------------------------------- reporting


def host_facts(seed: int) -> dict:
    import numpy
    from repro.backend import resolve_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": resolve_backend(None).name,
        "workload_seed": seed,
    }


def write_spans(name: str, payload) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path
