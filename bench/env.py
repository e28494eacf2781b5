"""Machine-facing helpers: pinning, /proc readers, the spin probe, the stamp.

Everything here exists for the noise discipline in ``bench/README.md``:
the system under test runs alone on the highest allowed CPU, its memory
is ``VmHWM`` from ``/proc`` (``ru_maxrss`` of a child inherits the
parent's peak), its CPU time is read from ``schedstat`` at nanosecond
resolution, and every timed quantity is reduced with :func:`quiet`.
"""

from __future__ import annotations

import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (checkpoint stores, span dumps).
WORK_DIR = ROOT / ".bench_work"

#: :func:`quiet` averages the best sixteenth of its samples, at least 3.
QUIET_SHARE = 16
QUIET_MIN = 3
SPIN_ITERATIONS = 2_000_000   # ~0.1-0.2 s of pure-Python arithmetic


def require_program() -> None:
    """Make ``import repro`` work, or exit before any result is printed."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"bench: the program under test is missing ({SRC}/repro); "
            f"run from a full checkout\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- pinning -------------------------------------------------------------------


def pin_map(allowed: set[int] | None = None) -> dict:
    """Which CPU the system under test and the load generator get.

    The SUT takes the highest allowed CPU, the generator (and the
    orchestrating parent) the lowest; with one allowed CPU they share it
    and every result is stamped ``shared_core``.
    """
    if allowed is None:
        allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    return {
        "allowed": cpus,
        "sut": cpus[-1],
        "loadgen": cpus[0],
        "shared_core": len(cpus) == 1,
    }


def pin(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})


# -- /proc readers -------------------------------------------------------------

_VM_HWM = re.compile(r"^VmHWM:\s+(\d+)\s+kB", re.MULTILINE)


def parse_vm_hwm_mb(status_text: str) -> float:
    """Peak resident set in MB out of a ``/proc/<pid>/status`` body."""
    match = _VM_HWM.search(status_text)
    if match is None:
        raise ValueError("no VmHWM line in /proc status text")
    return int(match.group(1)) / 1024.0


def vm_hwm_mb(pid: int | str = "self") -> float:
    return parse_vm_hwm_mb(Path(f"/proc/{pid}/status").read_text())


def cpu_ns(pid: int | str = "self") -> int:
    """On-CPU nanoseconds of every thread of ``pid`` (schedstat field 1)."""
    total = 0
    for task in os.scandir(f"/proc/{pid}/task"):
        try:
            with open(f"{task.path}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue  # a thread exited between scandir and open
    return total


# -- estimators ----------------------------------------------------------------


def quiet(values: list[float], better: str) -> float:
    """Mean of the best sixteenth of ``values`` (at least three of them).

    The undisturbed-machine estimate.  On a shared 2-vCPU VM the
    disturbance is one-sided (a busy SMT sibling or stolen time only ever
    slows a rep) and comes in bursts of a second or two, so the median of
    a run's reps moves 6-7% between identical runs while the best few
    move about 2% (measured; see the README).  A code change shifts every
    rep, the best ones included.
    """
    if not values:
        raise ValueError("quiet() of no values")
    ranked = sorted(values, reverse=(better == "higher"))
    best = ranked[:max(QUIET_MIN, len(ranked) // QUIET_SHARE)]
    return sum(best) / len(best)


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        raise ValueError("percentile() of no values")
    index = round(q * (len(sorted_values) - 1))
    return sorted_values[min(len(sorted_values) - 1, max(0, index))]


# -- disturbance probe ---------------------------------------------------------


def spin_ms() -> float:
    """Wall milliseconds of a fixed pure-Python loop on the current CPU."""
    started = time.perf_counter()
    total = 0
    for i in range(SPIN_ITERATIONS):
        total += i
    return (time.perf_counter() - started) * 1e3


def spin_on(cpu: int) -> float:
    """Run the spin probe on ``cpu``, then restore this process's CPUs."""
    previous = os.sched_getaffinity(0)
    pin(cpu)
    try:
        return spin_ms()
    finally:
        os.sched_setaffinity(0, previous)


# -- environment stamp ---------------------------------------------------------


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def store_kind(path: Path) -> str:
    """``tmpfs`` or ``disk``: the filesystem type under ``path``."""
    best, kind = "", "disk"
    target = str(path.resolve())
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount_point, fs_type = fields[1], fields[2]
        if target.startswith(mount_point) and len(mount_point) > len(best):
            best = mount_point
            kind = "tmpfs" if fs_type in ("tmpfs", "ramfs") else "disk"
    return kind


def stamp(seed: int, pins: dict) -> dict:
    """The facts a timing number is meaningless without."""
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "allowed_cpus": pins["allowed"],
        "pin": {"sut": pins["sut"], "loadgen": pins["loadgen"]},
        "shared_core": pins["shared_core"],
        "python": platform.python_version(),
        "python_build": " ".join(platform.python_build()),
        "implementation": platform.python_implementation(),
        "loadavg": list(os.getloadavg()),
        "store": store_kind(ROOT),
        "seed": seed,
    }
