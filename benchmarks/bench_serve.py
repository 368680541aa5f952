"""Serving latency — continuously batched vs. unbatched encode.

The encode service's claim is that coalescing concurrent single-column
requests into one shared-``G`` Batch-OMP call recovers the amortisation
the paper gets from offline batch encodes, at no cost to a lone
request: the batcher dispatches at once when the encode thread is idle
and only coalesces what queued behind an in-flight encode.  This bench
drives the real ``ServeApp`` over HTTP with both configurations
(``max_batch=64`` vs. ``max_batch=1``) at several client concurrencies
and tables client-side p50/p99.

Two gates: batched p50 is within 10% of unbatched p50 at *every*
concurrency, one client included (batching never costs latency), and
strictly below it at concurrency ≥ 16, where every unbatched request
pays a full fixed-width panel encode alone *and* queues serially behind
its neighbours while the batched path shares one panel across the
burst.
"""

import asyncio
import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core import exd_transform
from repro.data import union_of_subspaces
from repro.serve import ServeApp
from repro.utils import format_table

REPO_ROOT = Path(__file__).resolve().parent.parent

M, N, L, EPS = 64, 400, 48, 0.1
CONCURRENCIES = (1, 4, 16, 32)
REQUESTS_PER_LEVEL = 96


@pytest.fixture(scope="module")
def problem(bench_seed):
    a, _ = union_of_subspaces(M, N, n_subspaces=6, dim=4, noise=0.01,
                              seed=bench_seed)
    t, _ = exd_transform(a, size=L, eps=EPS, seed=bench_seed)
    return a, t


class _Daemon:
    """ServeApp on a dedicated event-loop thread."""

    def __init__(self, transform, **knobs):
        self.app = ServeApp(observe=False, **knobs)
        self.app.registry.add_transform("default", transform)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.addr = self.loop.run_until_complete(self.app.start())
        self._ready.set()
        self.loop.run_forever()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10)
        return self

    def __exit__(self, *exc):
        asyncio.run_coroutine_threadsafe(
            self.app.stop(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)
        self.loop.close()


def _drive(daemon, data, concurrency, n_requests):
    """Fire ``n_requests`` encodes from ``concurrency`` client threads;
    returns per-request latencies in milliseconds."""
    host, port = daemon.addr
    latencies = []
    lock = threading.Lock()

    def one(j):
        body = json.dumps(
            {"column": [float(v) for v in data[:, j % data.shape[1]]]})
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            t0 = time.perf_counter()
            conn.request("POST", "/v1/encode", body=body)
            resp = conn.getresponse()
            payload = resp.read()
            dt = (time.perf_counter() - t0) * 1e3
            assert resp.status == 200, payload
        finally:
            conn.close()
        with lock:
            latencies.append(dt)

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        list(pool.map(one, range(n_requests)))
    return np.asarray(latencies)


def _percentiles(lat):
    return (float(np.percentile(lat, 50)), float(np.percentile(lat, 99)))


def test_batched_vs_unbatched_latency(problem, report):
    a, transform = problem
    rows = []
    summary = {}
    for label, knobs in (
        ("batched", dict(max_batch=64)),
        ("unbatched", dict(max_batch=1)),
    ):
        with _Daemon(transform, max_queue=4096, timeout_ms=60000.0,
                     **knobs) as daemon:
            for conc in CONCURRENCIES:
                _drive(daemon, a, conc, 2 * conc)  # warm-up
                lat = _drive(daemon, a, conc, REQUESTS_PER_LEVEL)
                p50, p99 = _percentiles(lat)
                summary[(label, conc)] = p50
                rows.append([label, conc, f"{p50:.2f}", f"{p99:.2f}",
                             daemon.app.batcher.coalesced_batches])

    # Machine-readable record: one row per (config, concurrency); wall_s
    # is the measured client-side p50 per request.
    records = [
        {
            "workload": f"serve_encode_c{conc}",
            "shape": [M, N, L],
            "backend": label,
            "wall_s": p50 / 1e3,
        }
        for (label, conc), p50 in sorted(summary.items())
    ]
    (REPO_ROOT / "BENCH_serve.json").write_text(
        json.dumps(records, indent=2) + "\n")

    table = format_table(
        ["config", "clients", "p50 ms", "p99 ms", "coalesced"], rows,
        title=f"encode service latency (M={M}, L={L}, "
              f"{REQUESTS_PER_LEVEL} requests/level)")
    report("serve latency", table + "\nwrote BENCH_serve.json")

    # batching never costs a request latency, not even a lone one ...
    for conc in CONCURRENCIES:
        batched, unbatched = (summary[("batched", conc)],
                              summary[("unbatched", conc)])
        assert batched <= 1.10 * unbatched, (
            f"batched p50 {batched:.2f} ms exceeds 1.10x unbatched "
            f"{unbatched:.2f} ms at concurrency {conc}")
    # ... and wins outright at concurrency >= 16
    for conc in (16, 32):
        assert summary[("batched", conc)] < summary[("unbatched", conc)], (
            f"batched p50 {summary[('batched', conc)]:.2f} ms is not "
            f"below unbatched {summary[('unbatched', conc)]:.2f} ms "
            f"at concurrency {conc}")
