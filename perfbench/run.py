#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload transform|serve|stream \\
        --seed N --seconds S --trace 0|1

Runs the workload in a child process (``worker.py``) that leads a new
process group, with ``src/`` on its path (and, for transform and
stream, a one-thread BLAS) and its temporary files under
``.perfbench/`` in the checkout.  A child that outlives the hard timeout
is killed with its whole process group; the timeout grows with
``--seconds``.  After the child exits, any
process left in its group and any new ``/dev/shm`` entry fail the run.
The last line of standard output is the result JSON; the exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The whole run, set-ups and teardown included, must end within
#: ``TIMEOUT_FACTOR * --seconds + TIMEOUT_MARGIN_S``: set-ups are timed
#: once per few seconds of measurement, plus imports and one set-up.
TIMEOUT_FACTOR, TIMEOUT_MARGIN_S = 1.3, 120.0
SHM = Path("/dev/shm")
#: Workloads whose timings are scaled by a yardstick (``yardstick.py``)
#: run the BLAS with one thread per process.  Their planes that use
#: every CPU do it through processes (the fork pool, SPMD ranks), where
#: a BLAS pool in each would put more threads than CPUs on the host, and
#: a serial unit's BLAS threads would run on CPUs its yardstick does not
#: time.  Serve keeps the default pool: its latencies are not scaled and
#: its batched encodes are faster with it.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
ONE_BLAS_THREAD_WORKLOADS = ("transform", "stream")


def shm_entries() -> set[str]:
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def live_processes() -> list[tuple[int, int, int]]:
    """``(pid, parent pid, process group)`` of every process that has
    not exited (zombies excluded), from ``/proc``."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        state, ppid, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if state != "Z":
            out.append((int(entry.name), int(ppid), int(pgrp)))
    return out


def group_members(pgid: int) -> list[int]:
    return [pid for pid, _ppid, pgrp in live_processes() if pgrp == pgid]


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``), so
    processes the worker leaves behind stay visible and get reaped here
    rather than lingering as zombies of an init that does not reap."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
    except OSError:
        return
    prctl = getattr(libc, "prctl", None)
    if prctl is None:
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)


def reap() -> None:
    """Collect every exited child (including adopted orphans)."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               TMPDIR=str(workdir))
    if args.workload in ONE_BLAS_THREAD_WORKLOADS:
        env.update(ONE_BLAS_THREAD)
    shm_before = shm_entries()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    problems = []
    timeout = TIMEOUT_FACTOR * args.seconds + TIMEOUT_MARGIN_S
    become_subreaper()
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(child.pid)
        out, _ = child.communicate()
        problems.append(f"killed after the {timeout:.0f} s hard timeout")
    finally:
        if child.poll() is None:
            kill_group(child.pid)
            child.wait()

    deadline = time.monotonic() + 3.0
    while group_members(child.pid) and time.monotonic() < deadline:
        reap()
        time.sleep(0.1)
    left = group_members(child.pid)
    if left:
        problems.append(f"processes left running: {left}")
        kill_group(child.pid)
        time.sleep(0.2)
    reap()
    new_shm = sorted(shm_entries() - shm_before)
    if new_shm:
        problems.append(f"/dev/shm entries left behind: {new_shm}")
        prefix = f"repro-mpi-{child.pid}-"
        for name in new_shm:
            if name.startswith(prefix):
                (SHM / name).unlink(missing_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)

    lines = out.decode("utf-8", "replace").rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stdout.write("\n".join(lines) + "\n")
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        print(f"worker exited with {child.returncode} without a result",
              file=sys.stderr)
        return child.returncode or 3
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    for problem in problems:
        print(f"problem: {problem}")
    if problems:
        result["correct"] = False
    print(json.dumps(result), flush=True)
    if problems or child.returncode or not result["correct"]:
        return child.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
