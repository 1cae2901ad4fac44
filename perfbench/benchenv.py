"""Process environment of the benchmark: thread pinning, import path, provenance.

:func:`prepare` must run before numpy is imported: it pins every
BLAS/OpenMP pool to one thread (children — the ``chat`` server process
and the executor's forked workers — inherit the environment) and puts
the checkout's ``src/`` on the import path. Without ``src/repro`` the
benchmark refuses to run.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def prepare() -> None:
    """Pin math threads to 1 and make ``import repro`` resolve to ``src/``."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro package under {SRC}; run from a checkout "
            "of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    existing = os.environ.get("PYTHONPATH")
    if not existing or str(SRC) not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            str(SRC) if not existing else str(SRC) + os.pathsep + existing
        )


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    """Provenance recorded with every result."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def cpu_times() -> list[int] | None:
    """Host CPU tick counters (the ``cpu`` line of /proc/stat), if readable."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def host_cpu(before: list[int] | None, after: list[int] | None) -> dict | None:
    """Busy and stolen shares of host CPU time between two ``cpu_times``.

    Steal is time the hypervisor ran someone else while this VM wanted a
    CPU; a run with high steal measured a slower machine.
    """
    if not before or not after:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta) or 1
    user, nice, system, *_ = delta
    steal = delta[7] if len(delta) > 7 else 0
    return {"busy_frac": (user + nice + system) / total, "steal_frac": steal / total}


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except OSError:
            continue
    return kids


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak_rss() -> None:
    """Restart this process's VmHWM, so a pass does not inherit an earlier one's."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def tree_peak_rss_mb(pid: int | None = None) -> float:
    """Summed peak RSS (VmHWM) of ``pid`` and all its live descendants.

    Forked workers share copy-on-write pages with their parent, which
    each process's VmHWM counts again: the sum is an upper bound.
    """
    root = os.getpid() if pid is None else pid
    total, stack, seen = 0, [root], set()
    while stack:
        p = stack.pop()
        if p in seen:
            continue
        seen.add(p)
        total += _peak_rss_kb(p)
        stack.extend(_children(p))
    return total / 1024.0
