"""Host-speed yardsticks for the CPU- and disk-bound timings.

The shared VMs this benchmark is meant for change speed under it: a
single-threaded numpy loop ran at two speeds about 1.7x apart, switching
every few seconds, the two vCPUs were often in different states, and
the average speed drifted by up to 40% over minutes.  A run's mean then
depends on when it ran more than on the code.

So each CPU- or disk-bound timing is taken next to a fixed piece of
reference work of the same kind, run just before it (and, where units
do not follow each other, just after it too), and reported at the
reference work's nominal time::

    reported = measured * NOMINAL / yardstick

that is, as it would read on a host where the reference work takes its
nominal time.  The reference work is part of the benchmark, not of the
program, so a change to the program moves the reported figure as much
as it moves the measured one.  The measured figures are printed too.

The workloads timed here run the BLAS with one thread per process
(``run.py``).  Serial units run pinned to the first CPU (``pinned()``)
and are timed next to ``cpu()`` on that CPU.  Units that use every CPU
(the fork pool, SPMD ranks) are timed next to ``pair()``, which runs
the reference work on the first two CPUs at once, since the vCPUs slow
each other down when both are busy.  Set-ups are not pinned and are
timed next to ``cpu()``, which does not fork: the serve workload sets
up while its daemon's threads run.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import time
from pathlib import Path

import numpy as np

#: Nominal times of the reference work: about its median on a 2-vCPU
#: x86-64 VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31).
CPU_NOMINAL_S = 0.040
DISK_NOMINAL_S = 0.001

_CPUS = sorted(os.sched_getaffinity(0))
#: The traced run turns the yardsticks off (they then return NaN): its
#: figures are not scaled, and the reference work would only add time
#: that no layer accounts for.
enabled = True

_rng = np.random.default_rng(0)
_D = _rng.standard_normal((256, 512))
_G = _D.T @ _D + 10.0 * np.eye(512)
_A = _rng.standard_normal((256, 1024))


def _reference_work() -> float:
    """A Batch-OMP-like greedy loop on arrays of the encode's size
    (5 MB, so it feels the host's cache and memory contention as the
    program does): correlations, argmax picks, Gram-column updates,
    small solves and interpreter work.  Returns its wall time."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(400):
        alpha = _D.T @ _A[:, (i * 37) % 1024]
        idx = np.argsort(np.abs(alpha))[-(2 + i % 6):]
        coef = np.linalg.solve(_G[np.ix_(idx, idx)], alpha[idx])
        alpha = alpha - _G[:, idx] @ coef
        acc += float(coef @ alpha[idx]) + int(np.argmax(np.abs(alpha)))
        acc += sum(range(100))
    return time.perf_counter() - t0


@contextlib.contextmanager
def pinned():
    """Run the calling thread on the first CPU, then restore its
    affinity.  Threads started inside inherit the pin."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {_CPUS[0]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def cpu() -> float:
    """Reference work wherever the scheduler puts it; its wall time."""
    return _reference_work() if enabled else math.nan


def pair() -> float:
    """Reference work on the first two CPUs at once, one copy in a
    forked child; the mean of the two wall times.  On one CPU, ``cpu()``.
    Call it only while no other thread runs."""
    if not enabled:
        return math.nan
    if len(_CPUS) < 2:
        return cpu()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            os.sched_setaffinity(0, {_CPUS[1]})
            os.write(write_end, struct.pack("d", _reference_work()))
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        with pinned():
            mine = _reference_work()
        data = os.read(read_end, 8)
    finally:
        os.close(read_end)
        os.waitpid(pid, 0)
    if len(data) != 8:
        raise RuntimeError("the pair yardstick's child reported nothing")
    return (mine + struct.unpack("d", data)[0]) / 2


def _durable_write(path: Path, payload: bytes) -> None:
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def disk(directory: Path, nbytes: int) -> float:
    """What a durable store append does to the disk, without the store:
    ``nbytes`` and then a small manifest, each written to a temporary
    file, fsynced, renamed into place and made durable with a directory
    fsync.  Returns its wall time; the files are removed afterwards."""
    if not enabled:
        return math.nan
    directory.mkdir(parents=True, exist_ok=True)
    data, manifest = directory / "yard.bin", directory / "yard.json"
    t0 = time.perf_counter()
    _durable_write(data, bytes(nbytes))
    _durable_write(manifest, b"{}" * 256)
    took = time.perf_counter() - t0
    data.unlink()
    manifest.unlink()
    return took


def bracketed(stick, fn):
    """Run ``fn()`` between two runs of the yardstick ``stick`` (the
    host's speed changes within a second, so one run before is a poor
    estimate of it); returns ``fn``'s result, its wall time and the mean
    of the two yardstick times."""
    before = stick()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    return out, wall, (before + stick()) / 2


def scaled(measured: float, yardstick: float,
           nominal: float = CPU_NOMINAL_S) -> float:
    """``measured`` as it would read where the yardstick takes its
    nominal time."""
    return measured * nominal / yardstick
