"""Run one workload in this process and print its result.

Started by ``run.py``, which owns the hard timeout and the process-group
and ``/dev/shm`` checks; see ``README.md`` for the arguments.

A workload module provides ``setup(seed, workdir) -> state``,
``teardown(state) -> ports`` (optional), ``measure(state, seconds,
results, between)``, which fills the end-to-end metrics and calls
``between()`` between its timed units, and for the traced run
``unit(state, results)`` and ``trace_figures(outs, spans)``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import threading
import time
from pathlib import Path

import yardstick
from common import (ROOT, Results, check_teardown, emit, median, metadata,
                    run_units)

WORKLOADS = {"transform": "wl_transform", "serve": "wl_serve",
             "stream": "wl_stream"}
#: An untraced run times one set-up before the measurement and one more
#: between timed units every time this much wall time has passed, so
#: ``setup_s`` (the median of their yardstick-scaled times, see
#: ``yardstick.py``) samples the host across the whole run, as the
#: measurement does.  Set-up time does not count towards --seconds.
SETUP_EVERY_S = 3.0


def measure_traced(module, state, seconds: float, results: Results) -> dict:
    """One untraced unit (the overhead baseline), then traced units until
    ``seconds`` of them have run; adds every per-layer metric."""
    from layers import install, report_layers, unattributed
    from tracer import Tracer

    def cost(out: dict, wall: float) -> float:
        """A unit's cost is its wall time unless the workload says."""
        return out.get("cost", wall)

    t0 = time.perf_counter()
    base = module.unit(state, results)
    base_wall = time.perf_counter() - t0
    tracer = Tracer()
    probe = install(tracer)
    try:
        walls, outs = run_units(seconds - base_wall,
                                lambda: module.unit(state, results))
    finally:
        tracer.restore()
    n = len(outs)
    traced = median([cost(o, w) for o, w in zip(outs, walls)])
    extra = {
        "trace.unattributed_share": (unattributed(
            tracer.spans, threading.get_ident(), sum(walls)), n),
        "trace.overhead_share": (traced / cost(base, base_wall) - 1.0, n),
    }
    extra.update(module.trace_figures(outs, tracer.spans))
    report_layers(results, tracer, probe, extra)
    return {"spans": tracer.spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    module = importlib.import_module(WORKLOADS[args.workload])
    teardown = getattr(module, "teardown", lambda _state: [])
    meta = metadata(args.workload, args.seed, bool(args.trace))
    results = Results()
    setups, yards, ports = [], [], []
    last_setup = [0.0]

    def set_up():
        """One set-up, timed next to the CPU yardstick."""
        yards.append(yardstick.cpu())
        t0 = time.perf_counter()
        state = module.setup(args.seed, args.workdir)
        last_setup[0] = time.perf_counter()
        setups.append(last_setup[0] - t0)
        return state

    def between():
        """Time one more set-up (torn down at once) if it is due."""
        if time.perf_counter() - last_setup[0] >= SETUP_EVERY_S:
            ports.extend(teardown(set_up()))

    if args.trace:
        yardstick.enabled = False
    state = set_up()
    try:
        if args.trace:
            out = measure_traced(module, state, args.seconds, results)
        else:
            out = module.measure(state, args.seconds, results, between)
    finally:
        ports.extend(teardown(state))
    if not args.trace:
        results.add("setup_s", median([yardstick.scaled(t, y) for t, y
                                       in zip(setups, yards)]),
                    "s", len(setups))
        print(f"setup (measured)                 {median(setups):10.4f} s "
              f"(n={len(setups)}, CPU yardstick median "
              f"{median(yards) * 1e3:.2f} ms)")
    check_teardown(results, ports)

    extra = {"setup_runs_s": setups, "setup_yardstick_s": yards,
             "samples": {k: v for k, v in out.items() if k != "spans"}}
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = out.get("spans")
    if spans is not None:
        from tracer import summary

        extra["trace"] = summary(spans)
        path = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps([s.sid, s.parent, s.name, s.layer, s.t0,
                                     s.t1, s.thread, s.rid]) + "\n")
    return emit(results, meta, out_dir, extra)


if __name__ == "__main__":
    sys.exit(main())
