"""``transform``: one in-memory ExD transform through all three planes.

A dense cancer-cell surrogate (M=256, N=2048, L=512, ε=0.05; about 5
atoms per column) is transformed serially, with ``workers=nproc`` (the
fork pool) and with ``exd_transform_distributed`` on an nproc-rank
cluster (the SPMD world; ``auto`` resolves its backend).  The greedy
loop and Cholesky dominate, and N is a multiple of the panel width on
every rank, so no panel is padded.  The three outputs must be
bit-identical and every column must converge.  The serial plane runs
with its calling thread pinned to one CPU; each plane is timed next to
a yardstick (``yardstick.py``).
"""

from __future__ import annotations

import numpy as np

import yardstick
from common import Results, mean, median, nproc, run_units
from tracer import self_times, total

M, N, L, EPS = 256, 2048, 512, 0.05


def setup(seed: int, _workdir):
    """Generate the input and warm the encode path; returns the state
    one round needs."""
    from repro.core import exd_transform
    from repro.data.cancer import cancer_cells_like
    from repro.platform import ClusterConfig, xeon_x5660_like
    from repro.utils.rng import derive_seed

    a, _ = cancer_cells_like(m=M, n=N, seed=derive_seed(seed, 1))
    cluster = ClusterConfig(machine=xeon_x5660_like(), nodes=1,
                            cores_per_node=nproc())
    # The warm-up input is the same for every seed: on a slice of the
    # seeded input some columns fail to converge, so its cost would vary
    # with the seed.
    warm, _ = cancer_cells_like(m=M, n=256, seed=0)
    exd_transform(warm, 128, EPS, seed=0)
    return {"a": a, "cluster": cluster, "dict_seed": derive_seed(seed, 2)}


def _same_csc(x, y) -> bool:
    return all(np.array_equal(getattr(x.coefficients, k),
                              getattr(y.coefficients, k))
               for k in ("data", "indices", "indptr"))


def unit(state, results: Results) -> dict:
    """One round: transform the input on each plane; returns wall
    seconds per plane and the SPMD result."""
    from repro.core import exd_transform, exd_transform_distributed

    a, seed = state["a"], state["dict_seed"]
    walls, yards = {}, {}
    with yardstick.pinned():
        (serial, s_stats), walls["serial"], yards["serial"] = \
            yardstick.bracketed(yardstick.cpu,
                                lambda: exd_transform(a, L, EPS, seed=seed))
    results.op(s_stats.all_converged, "serial: a column did not converge")

    (pooled, w_stats), walls["workers"], yards["workers"] = \
        yardstick.bracketed(yardstick.pair, lambda: exd_transform(
            a, L, EPS, seed=seed, workers=nproc()))
    results.op(w_stats.all_converged and _same_csc(serial, pooled),
               "workers: output differs from serial or did not converge")

    (spmd, d_stats, spmd_result), walls["spmd"], yards["spmd"] = \
        yardstick.bracketed(yardstick.pair, lambda: exd_transform_distributed(
            a, L, EPS, state["cluster"], seed=seed))
    results.op(d_stats.all_converged and _same_csc(serial, spmd),
               "spmd: output differs from serial or did not converge")
    return {"walls": walls, "yards": yards, "spmd": spmd_result}


def measure(state, seconds: float, results: Results, between) -> dict:
    _walls, rounds = run_units(seconds, lambda: unit(state, results),
                               between)
    n = len(rounds)
    planes = ("serial", "workers", "spmd")
    # A plane's time: its mean wall over the run, scaled by its mean
    # yardstick (see yardstick.py).
    measured = {p: mean([r["walls"][p] for r in rounds]) for p in planes}
    scaled = {p: yardstick.scaled(measured[p],
                                  mean([r["yards"][p] for r in rounds]))
              for p in planes}
    backends = sorted({r["spmd"].backend for r in rounds})
    results.add("rate", N / scaled["serial"], "1/s", n)
    results.add("time_a_ms", scaled["workers"] * 1e3, "ms", n)
    results.add("time_b_ms", scaled["spmd"] * 1e3, "ms", n)
    notes = {"serial": "", "workers": f", workers={nproc()}",
             "spmd": f", ranks={nproc()}, backend={','.join(backends)}"}
    for p in planes:
        print(f"transform.{p}.cols_per_s{' ' * (8 - len(p))}"
              f"{N / scaled[p]:10.1f} columns/s "
              f"(n={n}{notes[p]}; measured {N / measured[p]:.1f})")
    return {"rounds": [{"walls": r["walls"], "yards": r["yards"]}
                       for r in rounds], "mpi_backend": backends}


def trace_figures(rounds, spans) -> dict:
    """The fork pool's speedup and the SPMD traffic ledger totals."""
    n = len(rounds)
    ledgers = [r["spmd"] for r in rounds]
    return {
        "pool.speedup": (_pool_speedup(spans), n),
        "spmd.virtual_s": (sum(x.simulated_time for x in ledgers), n),
        "spmd.words": (sum(x.traffic.total_wire_words() for x in ledgers), n),
        "spmd.messages": (sum(t.calls for x in ledgers
                              for t in x.traffic.snapshot().values()), n),
    }


def _pool_speedup(spans) -> float:
    """Median over rounds of the serial plane's greedy-loop + CSC time
    over the fork pool's wall time on the workers plane.  The top-level
    ``exd_transform`` spans come in pairs, serial then workers."""
    planes = [s for s in spans
              if s.name == "exd.exd_transform" and s.parent == 0]
    ratios = []
    for serial, pooled in zip(planes[::2], planes[1::2]):
        inside = [s for s in spans if serial.t0 <= s.t0 <= serial.t1]
        layers = self_times(inside)
        work = layers.get("linalg.kernels", 0.0) + layers.get("sparse", 0.0)
        fork = total([s for s in spans if pooled.t0 <= s.t0 <= pooled.t1],
                     "pool.fork_map")
        if fork:
            ratios.append(work / fork)
    return median(ratios) if ratios else 0.0
