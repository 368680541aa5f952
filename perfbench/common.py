"""Helpers shared by the workloads: statistics, run metadata, results,
and the in-process leak checks every workload runs before it reports.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:
        return os.cpu_count() or 1


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def mean(values) -> float:
    """Mean, used for the times of CPU-bound units.  The host's speed
    switches between two states, so each unit's time falls near one of
    two values.  The median jumps between them with the share of slow
    units, while the mean moves in proportion and varies less from run
    to run."""
    return float(np.mean(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def run_units(seconds: float, unit, between=None) -> tuple[list, list]:
    """Call ``unit()`` until one more call would take the summed unit
    time past ``seconds``.  ``between()`` runs after every call but the
    last and is not counted.  Returns the wall time and the output of
    each call."""
    walls, outs = [], []
    while True:
        t0 = time.perf_counter()
        outs.append(unit())
        walls.append(time.perf_counter() - t0)
        if sum(walls) + walls[-1] > seconds:
            return walls, outs
        if between is not None:
            between()


class Results:
    """End-to-end or per-layer metrics plus operation counts of one run."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        value = float(value)
        if not math.isfinite(value):
            self.fail(f"metric {name} is not finite ({value})")
            value = 0.0
        self.metrics[name] = {"value": value, "unit": unit,
                              "samples": int(samples)}

    def op(self, ok: bool, what: str = "") -> None:
        """Count one attempted operation; a failed one is recorded."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what or "operation failed")

    def fail(self, what: str) -> None:
        """A check that is not an operation (leak, teardown) failed."""
        self.problems.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _blas() -> dict:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError, ValueError):
        return {"name": "unknown"}
    return {k: blas.get(k) for k in ("name", "version",
                                     "openblas configuration")
            if blas.get(k) is not None}


def metadata(workload: str, seed: int, trace: bool) -> dict:
    """Host, code and backend facts recorded with every result."""
    import scipy

    from repro.linalg.kernels import resolve_backend
    from repro.mpi.runtime import resolve_mpi_backend

    cores = nproc()
    return {
        "workload": workload,
        "seed": int(seed),
        "trace": bool(trace),
        "git_sha": _git_sha(),
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "omp_kernel_backend": resolve_backend(None).name,
        "mpi_backend_auto": resolve_mpi_backend(None, size=max(cores, 2)),
        "machine": platform.machine(),
        "started_at": time.time(),
    }


def wait_threads_gone(timeout: float = 5.0) -> list[str]:
    """Names of threads other than the main one still alive after
    ``timeout`` seconds (executor threads exit asynchronously)."""
    deadline = time.monotonic() + timeout
    main = threading.main_thread()
    while True:
        alive = [t for t in threading.enumerate()
                 if t is not main and t.is_alive()]
        if not alive or time.monotonic() >= deadline:
            return [f"{t.name} (daemon={t.daemon})" for t in alive]
        time.sleep(0.05)


def port_is_closed(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=0.5):
            return False
    except OSError:
        return True


def live_children() -> list[int]:
    """Pids of this process's children that have not exited, however
    they were started (multiprocessing, fork or subprocess)."""
    from run import live_processes

    me = os.getpid()
    return [pid for pid, ppid, _pgrp in live_processes() if ppid == me]


def check_teardown(results: Results, ports=()) -> None:
    """Fail the run if a child process, thread or listener survived."""
    for child in multiprocessing.active_children():
        child.join(1)
    children = live_children()
    if children:
        results.fail(f"child processes left running: {children}")
        for pid in children:
            os.kill(pid, signal.SIGKILL)
    threads = wait_threads_gone()
    if threads:
        results.fail(f"threads left running: {threads}")
    for port in ports:
        if not port_is_closed(port):
            results.fail(f"port {port} is still accepting connections")


def emit(results: Results, meta: dict, out_dir: Path, extra: dict) -> int:
    """Print the metrics table and the one-line JSON result; write the
    full record (metadata, metrics, trace summary) under ``out_dir``."""
    if results.attempted == 0:
        results.fail("no operation was attempted")
    for name, m in sorted(results.metrics.items()):
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']:10s} "
              f"(n={m['samples']})")
    for problem in results.problems:
        print(f"problem: {problem}")
    record = {"meta": meta, "correct": results.correct,
              "attempted": results.attempted, "failed": results.failed,
              "problems": results.problems, "metrics": results.metrics}
    record.update(extra)
    name = f"{meta['workload']}-seed{meta['seed']}-trace{int(meta['trace'])}"
    (out_dir / f"{name}.json").write_text(json.dumps(record, indent=1))
    line = {"correct": results.correct,
            "attempted": results.attempted,
            "failed": results.failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in results.metrics.items()}}
    sys.stdout.flush()
    print(json.dumps(line), flush=True)
    return 0 if results.correct else 1
