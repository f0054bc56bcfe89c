"""Child processes of the benchmark.

Every measured command runs in a fresh interpreter, so no in-process
cache (the ``build_cache()`` LRU, spec memos) carries over from one
repetition to the next.  The child's environment is hermetic: every
``REPRO_*`` variable is removed (the disk store is opted into per
workload), ``PYTHONPATH`` is the checkout's ``src`` only, and BLAS/OpenMP
pools are capped at the core count.  Wall time runs from spawn to reap;
CPU time, minor faults and peak RSS come from the child's own rusage,
read with ``os.wait4`` — no profiler or ``tracemalloc`` runs in it.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def nproc() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def child_env(root: Path, *, cache_root: Path | None = None) -> dict[str, str]:
    """The environment of every child: hermetic, with an optional disk store."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(nproc())
    if cache_root is not None:
        env["REPRO_CACHE_ROOT"] = str(cache_root)
    return env


@dataclass(frozen=True)
class ChildRun:
    """One finished child process."""

    exit_code: int
    wall_s: float
    user_s: float
    sys_s: float
    minflt: int
    peak_rss_mb: float
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


def spawn(argv: list[str], env: dict[str, str], workdir: Path, deadline: float) -> ChildRun:
    """Run ``argv`` to completion; kill it at ``deadline`` (``time.monotonic``)."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:  # interrupted: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildRun(
            exit_code=proc.returncode,
            wall_s=wall,
            user_s=usage.ru_utime,
            sys_s=usage.ru_stime,
            minflt=usage.ru_minflt,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )


def cli_argv(args: list[str], *, spans: Path | None = None) -> list[str]:
    """``repro-facebook ARGS`` as run from a checkout.

    With ``spans``, the command runs under the layer-span recorder
    (``traced_cli.py``), which writes its spans to that file.
    """
    if spans is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(spans), *args]


def _git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        result = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() or None


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(root: Path) -> dict[str, object]:
    """What makes two results comparable: code, cores and toolchain."""
    import numpy

    return {
        "commit": _git_commit(root),
        "src_sha256": _tree_digest(root / "src"),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
