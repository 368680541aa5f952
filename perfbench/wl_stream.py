"""``stream``: store-backed evolving data with online maintenance.

Each iteration builds a ``ColumnStore`` from a new initial
salina-surrogate block (M=203, 2048 columns; drawn from the seed and
the iteration's number), runs a streamed, checkpointed transform
from it (L=512, ε=0.05, 512-column blocks, as ``repro transform --store
--checkpoint`` does), then handles waves of 256 new columns from a
seeded drifting union-of-subspaces source: append (with fsync), one
``OnlineMaintainer.step``, ``build_generation`` and a publish into a
``DictionaryRegistry``, which warms the new Gram.  This is the only
workload that reads and writes the store, writes checkpoints and
invalidates and recomputes the Gram on every step.

The streamed transform must be bit-identical to ``exd_transform`` of
the same store contents, and every step's encode must converge.  An
iteration runs with its calling thread pinned to one CPU.  The streamed
transform and the steps are timed next to the CPU yardstick and the
appends next to the disk yardstick (``yardstick.py``).
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np

import yardstick
from common import Results, mean, median, run_units

M, N0, L, EPS = 203, 2048, 512, 0.05
WAVES, WAVE_COLS = 8, 256
BLOCK, CHUNK = 512, 256
#: How far (mixing weight) the last wave has rotated towards the new
#: subspaces; encodes need about 2 atoms per column at no drift and
#: about 15 at 0.05 against the unmaintained dictionary.
DRIFT = 0.06


def _drifting_waves(model, seed: int) -> list[np.ndarray]:
    """Waves whose subspaces rotate from the initial block's towards
    random ones, a little further each wave."""
    rng = np.random.default_rng(seed)
    start = model.bases
    target = [np.linalg.qr(rng.standard_normal(b.shape))[0] for b in start]
    waves = []
    for t in range(1, WAVES + 1):
        tau = DRIFT * t / WAVES
        bases = [np.linalg.qr((1 - tau) * u0 + tau * u1)[0]
                 for u0, u1 in zip(start, target)]
        labels = rng.integers(0, len(bases), size=WAVE_COLS)
        x = np.empty((M, WAVE_COLS))
        for j, k in enumerate(labels):
            x[:, j] = bases[k] @ (np.abs(rng.standard_normal(
                bases[k].shape[1])) + 0.05)
        x += 0.01 * np.linalg.norm(x, axis=0) / np.sqrt(M) \
            * rng.standard_normal(x.shape)
        waves.append(x)
    return waves


def _scene(seed: int, dict_seed: int, iteration: int) -> dict:
    """Iteration ``iteration``'s initial block, its drifting waves and
    the in-memory reference transform of the block.  Every iteration
    draws a new scene: the maintenance steps' cost depends on the
    block's subspaces (by up to 1.3x between draws), and a run's figures
    should not hang on one draw."""
    from repro.core import exd_transform
    from repro.data.hyperspectral import salina_like
    from repro.utils.rng import derive_seed

    init, model = salina_like(m=M, n=N0,
                              seed=derive_seed(seed, 1, iteration))
    reference, _ = exd_transform(init, L, EPS, seed=dict_seed)
    return {"init": init, "reference": reference,
            "waves": _drifting_waves(model, derive_seed(seed, 3, iteration))}


def setup(seed: int, workdir: Path):
    from repro.utils.rng import derive_seed

    dict_seed = derive_seed(seed, 2)
    return {"seed": seed, "dict_seed": dict_seed, "workdir": workdir,
            "iterations": 0, "scene": _scene(seed, dict_seed, 0)}


def _same_transform(x, y) -> bool:
    return (np.array_equal(x.dictionary.atoms, y.dictionary.atoms)
            and all(np.array_equal(getattr(x.coefficients, k),
                                   getattr(y.coefficients, k))
                    for k in ("data", "indices", "indptr")))


def run_iteration(state, name: str, results: Results) -> dict:
    """Store build, streamed transform, then the maintenance waves."""
    from repro.online import MaintenanceConfig, OnlineMaintainer
    from repro.serve.registry import DictionaryRegistry
    from repro.store import ColumnStore, StreamingEncoder

    root, scene = state["workdir"] / name, state["scene"]
    out = {"ingest_s": 0.0, "ingest_bytes": 0, "appends": [], "steps": [],
           "disk_yards": [], "step_yards": []}
    try:
        t0 = time.perf_counter()
        store = ColumnStore.from_matrix(root / "store", scene["init"],
                                        chunk_width=CHUNK)
        out["ingest_s"] += time.perf_counter() - t0
        out["ingest_bytes"] += scene["init"].nbytes

        (transform, stats, _), out["transform_s"], out["transform_yard"] = \
            yardstick.bracketed(yardstick.cpu, StreamingEncoder(
                store, L, EPS, seed=state["dict_seed"], block_width=BLOCK,
                checkpoint_dir=root / "checkpoint").run)
        results.op(stats.all_converged
                   and _same_transform(transform, scene["reference"]),
                   "streamed transform differs from exd_transform")

        maintainer = OnlineMaintainer(
            store, transform, seed=state["dict_seed"],
            config=MaintenanceConfig(batch=WAVE_COLS))
        registry = DictionaryRegistry()
        # A CPU yardstick before the first step and after every step, so
        # each step sits between two (the append between is short).
        cpu_yards = [yardstick.cpu()]
        try:
            for wave in scene["waves"]:
                out["disk_yards"].append(yardstick.disk(root / "yard",
                                                        wave.nbytes))
                t0 = time.perf_counter()
                store.append_columns(wave)
                out["appends"].append(time.perf_counter() - t0)
                out["ingest_bytes"] += wave.nbytes

                t0 = time.perf_counter()
                report = maintainer.step()
                registry.add_transform("stream",
                                       maintainer.build_generation())
                out["steps"].append(time.perf_counter() - t0)
                cpu_yards.append(yardstick.cpu())
                out["step_yards"].append((cpu_yards[-2] + cpu_yards[-1]) / 2)
                results.op(report["converged"],
                           f"maintenance step {report['step']} did not "
                           f"converge")
        finally:
            maintainer.close()
        out["ingest_s"] += sum(out["appends"])
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


def unit(state, results: Results) -> dict:
    """One iteration on the next scene (drawn here, untimed)."""
    if state["iterations"]:
        state["scene"] = _scene(state["seed"], state["dict_seed"],
                                state["iterations"])
    state["iterations"] += 1
    with yardstick.pinned():
        return run_iteration(state, f"iteration-{state['iterations']}",
                             results)


def measure(state, seconds: float, results: Results, between) -> dict:
    _walls, runs = run_units(seconds, lambda: unit(state, results), between)
    n = len(runs)

    def flat(key):
        return [x for r in runs for x in r[key]]

    transform_s = [r["transform_s"] for r in runs]
    appends, steps = flat("appends"), flat("steps")
    # Streamed transforms and steps: mean wall scaled by the mean CPU
    # yardstick.  Appends: the median of each append scaled by the disk
    # yardstick just before it (see yardstick.py).
    transform = yardstick.scaled(mean(transform_s),
                                 mean([r["transform_yard"] for r in runs]))
    step = yardstick.scaled(mean(steps), mean(flat("step_yards")))
    append = median([yardstick.scaled(a, y, yardstick.DISK_NOMINAL_S)
                     for a, y in zip(appends, flat("disk_yards"))])
    ingest = (sum(r["ingest_bytes"] for r in runs) / 2**20
              / sum(r["ingest_s"] for r in runs))
    results.add("rate", N0 / transform, "1/s", n)
    results.add("time_a_ms", append * 1e3, "ms", len(appends))
    results.add("time_b_ms", step * 1e3, "ms", len(steps))
    print(f"stream.ingest_mb_per_s        {ingest:10.2f} MB/s "
          f"(n={n} store builds + {len(appends)} appends, measured; "
          f"append p50 {append * 1e3:.3f} ms, measured "
          f"{median(appends) * 1e3:.3f} ms)")
    print(f"stream.transform.cols_per_s   {N0 / transform:10.1f} columns/s "
          f"(n={n}; measured {N0 / mean(transform_s):.1f})")
    print(f"stream.step.mean_ms           {step * 1e3:10.2f} ms "
          f"(n={len(steps)}; measured {mean(steps) * 1e3:.2f})")
    return {key: flat(key) for key in ("appends", "disk_yards", "steps",
                                       "step_yards")} | {
        "transform_s": transform_s,
        "transform_yards": [r["transform_yard"] for r in runs]}


def trace_figures(_runs, _spans) -> dict:
    return {}
