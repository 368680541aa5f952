"""``serve``: the HTTP encode daemon under an open-loop arrival schedule.

An in-process ``ServeApp`` at the ``repro serve`` defaults (max_batch
64, max_wait_ms 2, serial encode, observability on) runs on its own
event-loop thread, so there is no child server to leak.  It serves a
salina-surrogate transform (M=203, L=512, ε=0.05, about 2 atoms per
column) and is asked to encode held-out columns, never dictionary atoms.

One asyncio client thread sends pre-serialised ``POST /v1/encode``
requests over at most ``nproc`` keep-alive connections on a fixed
schedule (open loop: a stall delays later requests, and that wait is
counted because latency runs from each request's scheduled send time).
Phases: ``light`` at 100 req/s, ``heavy`` at 125 req/s and a rising
rate ladder that finds the highest rate with p99 <= 50 ms and no
growing backlog.  The run cycles through short segments of the three,
so each phase's figures span the whole run rather than one stretch of
it.  A request carries one column, so its cost is the batching hold,
the executor hop, a zero-padded 256-wide DᵀA panel, the Gram lookup and
HTTP/JSON; the greedy loop is a small share.

Every response must be 200 and equal, support and coefficients, the
offline ``encode_columns`` reference computed during set-up.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from common import Results, median, nproc, percentile

M, N_TRAIN, N_HELD, L, EPS = 203, 2048, 1024, 512, 0.05
#: Heavy is 125 req/s, not 150.  On a shared 2-vCPU VM two keep-alive
#: connections served about 280 req/s, and less while the host ran
#: slow; at 150 req/s requests then queued for a free connection, so
#: the heavy p50 read about 6.6 or 9.3 ms by host state (IQR over
#: median 0.39 across ten runs).  See README.md, "Noise".
LIGHT_RPS, HEAVY_RPS = 100.0, 125.0
P99_LIMIT_MS = 50.0
#: Ladder: first rung (req/s), growth factor until a rung fails, and
#: requests per rung (so faster rungs are shorter and the ladder reaches
#: high rates within its time budget).
LADDER_START, LADDER_GROWTH, RUNG_REQUESTS = 175.0, 1.25, 400
PAUSE_S = 0.2
#: Cycles of an untraced run: each runs a light segment, a heavy
#: segment and its share of the ladder.  The host's speed changes every
#: few seconds; spreading every phase over the whole run lets all of
#: them sample the same host states.
CYCLES = 6
#: Length of each phase of one traced unit (light, then heavy).
TRACE_PHASE_S = 4.0


class ServerThread:
    """A ``ServeApp`` listening on 127.0.0.1 from its own event loop."""

    def __init__(self, app) -> None:
        self.app = app
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="perfbench-server")
        self.thread.start()
        self.port = asyncio.run_coroutine_threadsafe(
            app.start("127.0.0.1", 0), self.loop).result(30)[1]

    def stop(self) -> None:
        """Stop the app, cancel what is left on the loop, end the thread."""
        async def shutdown():
            try:
                await self.app.stop()
            finally:
                rest = [t for t in asyncio.all_tasks()
                        if t is not asyncio.current_task()]
                for task in rest:
                    task.cancel()
                await asyncio.gather(*rest, return_exceptions=True)
                await self.loop.shutdown_default_executor()

        try:
            asyncio.run_coroutine_threadsafe(shutdown(), self.loop).result(30)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(30)
            if not self.thread.is_alive():
                self.loop.close()


def setup(seed: int, _workdir):
    from repro.core import exd_transform
    from repro.data.hyperspectral import salina_like
    from repro.linalg.parallel_omp import encode_columns
    from repro.serve import ServeApp
    from repro.utils.rng import derive_seed

    data, _ = salina_like(m=M, n=N_TRAIN + N_HELD, seed=derive_seed(seed, 1))
    train, held = data[:, :N_TRAIN], data[:, N_TRAIN:]
    transform, _ = exd_transform(train, L, EPS, seed=derive_seed(seed, 2))
    reference, _ = encode_columns(transform.dictionary, held, EPS)
    expected = [([int(i) for i in s], [float(v) for v in c])
                for s, c, _ok in reference]
    columns = [json.dumps([float(v) for v in held[:, j]]).encode()
               for j in range(N_HELD)]
    app = ServeApp(max_batch=64, max_wait_ms=2.0, max_queue=512,
                   timeout_ms=1000.0)
    app.registry.add_transform("default", transform)
    return {"server": ServerThread(app), "expected": expected,
            "columns": columns, "next_rid": 0}


def teardown(state) -> list[int]:
    state["server"].stop()
    return [state["server"].port]


def _request(rid: int, column: bytes) -> bytes:
    body = b'{"rid": %d, "column": %s}' % (rid, column)
    return (b"POST /v1/encode HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
            % len(body)) + body


@dataclass
class Phase:
    """What one scheduled phase sent and got back."""

    name: str
    rate: float
    rid0: int
    late: list = field(default_factory=list)
    # (rid, scheduled, sent, done, status, body)
    replies: list = field(default_factory=list)
    backlog: int = 0

    @classmethod
    def merge(cls, parts: list["Phase"]) -> "Phase":
        """One phase from segments of it; the backlog is the largest."""
        out = cls(parts[0].name, parts[0].rate, parts[0].rid0)
        for part in parts:
            out.late += part.late
            out.replies += part.replies
            out.backlog = max(out.backlog, part.backlog)
        return out

    @property
    def latencies(self) -> list[float]:
        return [done - due for _r, due, _s, done, _st, _b in self.replies]

    def p(self, q: float) -> float:
        return percentile(self.latencies, q) * 1e3

    def passes(self) -> bool:
        """p99 within the limit and no backlog beyond 50 ms of
        arrivals at the end of the schedule."""
        return (self.p(99) <= P99_LIMIT_MS
                and self.backlog <= max(2, self.rate * P99_LIMIT_MS / 1e3))


class Client:
    """Open-loop load generator over a few keep-alive connections."""

    def __init__(self, port: int, columns: list[bytes],
                 first_rid: int) -> None:
        self.port = port
        self.columns = columns
        self.conns = []
        self.next_rid = first_rid

    async def open(self) -> None:
        for _ in range(nproc()):
            self.conns.append(await asyncio.open_connection("127.0.0.1",
                                                            self.port))

    async def close(self) -> None:
        for _reader, writer in self.conns:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
        self.conns = []

    async def run(self, name: str, rate: float, duration: float) -> Phase:
        loop = asyncio.get_running_loop()
        count = max(1, int(rate * duration))
        phase = Phase(name, rate, self.next_rid)
        self.next_rid += count
        payloads = [_request(phase.rid0 + k,
                             self.columns[(phase.rid0 + k) % len(self.columns)])
                    for k in range(count)]
        queue: asyncio.Queue = asyncio.Queue()
        busy = [0]
        start = loop.time() + 0.01

        async def generate():
            for k in range(count):
                due = start + k / rate
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                phase.late.append(max(loop.time() - due, 0.0))
                queue.put_nowait((k, due))
            phase.backlog = queue.qsize() + busy[0]
            for _ in self.conns:
                queue.put_nowait(None)

        async def send(reader, writer):
            while True:
                item = await queue.get()
                if item is None:
                    return
                k, due = item
                busy[0] += 1
                sent = loop.time()
                writer.write(payloads[k])
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":", 1)[1])
                body = await reader.readexactly(length)
                done = loop.time()
                busy[0] -= 1
                phase.replies.append((phase.rid0 + k, due, sent, done,
                                      int(head[9:12]), body))

        await asyncio.gather(generate(),
                             *(send(r, w) for r, w in self.conns))
        await asyncio.sleep(PAUSE_S)
        return phase


def _check(phase: Phase, expected, results: Results) -> None:
    """Every reply must be 200 and equal the offline reference."""
    for rid, _due, _sent, _done, status, body in phase.replies:
        ok = status == 200
        if ok:
            reply = json.loads(body)
            support, coef = expected[rid % len(expected)]
            ok = (reply["converged"] and reply["support"] == support
                  and reply["coefficients"] == coef)
        results.op(ok, f"{phase.name}: request {rid} got status {status} "
                       f"or a wrong code")


class Ladder:
    """Rate search: grow the rate geometrically until a rung fails, then
    bisect (in log rate) between the best passing and the lowest failing
    rung.  A rate counts as failing only when its rung fails twice in a
    row: a stall of a shared host can fail one rung at any rate, and the
    search never returns above a failing rate."""

    def __init__(self) -> None:
        self.rungs: list[Phase] = []
        self.best = self.worst = None
        self.rate = LADDER_START
        self.spent = 0.0
        self.failed_once = False

    async def climb(self, client: Client, budget: float, between) -> None:
        """Run rungs while the next one fits in ``budget`` seconds of
        rung time in all; the first rung always runs."""
        while (not self.rungs or self.spent + RUNG_REQUESTS / self.rate
               + PAUSE_S <= budget):
            t0 = time.perf_counter()
            rung = await client.run(
                f"ladder{len(self.rungs)}@{self.rate:.0f}", self.rate,
                RUNG_REQUESTS / self.rate)
            self.spent += time.perf_counter() - t0
            self.rungs.append(rung)
            if rung.passes():
                self.best = max(self.best or 0.0, self.rate)
            elif not self.failed_once:
                self.failed_once = True
                between()
                continue
            else:
                self.worst = min(self.worst or np.inf, self.rate)
            self.failed_once = False
            if self.worst is None:
                self.rate *= LADDER_GROWTH
            elif self.best is None:
                self.rate /= LADDER_GROWTH
            else:
                self.rate = float(np.sqrt(self.best * self.worst))
            between()


def _max_rps(rungs: list[Phase]) -> float:
    """The highest rate of a passing rung.  If none passed, the lowest
    rung's rate stands in; if none failed, the result is a lower bound.
    Either way the run says so."""
    passing = [p.rate for p in rungs if p.passes()]
    if not passing:
        print(f"warning: no ladder rung met p99 <= {P99_LIMIT_MS:.0f} ms")
        return min(p.rate for p in rungs)
    best = max(passing)
    if not any(p.rate > best for p in rungs):
        print("warning: the ladder ended before a rung failed; max_rps "
              "is a lower bound")
    return best


def _client_thread(state, plan):
    """Run ``plan`` (an async function of the client) on a new thread
    with its own event loop; returns what it returned."""
    out = {}

    def main():
        async def go():
            client = Client(state["server"].port, state["columns"],
                            state["next_rid"])
            await client.open()
            try:
                out["value"] = await plan(client)
            finally:
                state["next_rid"] = client.next_rid
                await client.close()
        try:
            asyncio.run(go())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            out["error"] = exc

    thread = threading.Thread(target=main, name="perfbench-client")
    thread.start()
    thread.join()
    if "error" in out:
        raise out["error"]
    return out["value"]


def measure(state, seconds: float, results: Results, between) -> dict:
    light_s = heavy_s = 0.3 * seconds
    ladder_s = seconds - light_s - heavy_s

    async def plan(client: Client):
        parts = {"light": [], "heavy": []}
        ladder = Ladder()
        for k in range(CYCLES):
            for name, rate, span in (("light", LIGHT_RPS, light_s),
                                     ("heavy", HEAVY_RPS, heavy_s)):
                parts[name].append(await client.run(name, rate,
                                                    span / CYCLES))
                between()
            await ladder.climb(client, ladder_s * (k + 1) / CYCLES, between)
        return (Phase.merge(parts["light"]), Phase.merge(parts["heavy"]),
                ladder.rungs)

    light, heavy, rungs = _client_thread(state, plan)
    for phase in (light, heavy, *rungs):
        _check(phase, state["expected"], results)
    max_rps = _max_rps(rungs)
    results.add("rate", max_rps, "1/s", len(rungs))
    results.add("time_a_ms", light.p(50), "ms", len(light.replies))
    results.add("time_b_ms", heavy.p(50), "ms", len(heavy.replies))
    for p in (light, heavy):
        print(f"serve.{p.name}.p50_ms {p.p(50):8.2f} ms  p99_ms "
              f"{p.p(99):8.2f} ms  (n={len(p.replies)}, {p.rate:.0f} req/s, "
              f"generator late p99 {percentile(p.late, 99) * 1e3:.2f} ms, "
              f"backlog {p.backlog})")
    for p in rungs:
        print(f"  ladder {p.rate:7.1f} req/s: p99 {p.p(99):8.2f} ms, "
              f"backlog {p.backlog:4d}, {'pass' if p.passes() else 'FAIL'}")
    print(f"serve.max_rps {max_rps:8.1f} req/s (n={len(rungs)} rungs, "
          f"p99 <= {P99_LIMIT_MS:.0f} ms, {nproc()} connections)")
    return {p.name: {"rate": p.rate, "latency_s": p.latencies,
                     "backlog": p.backlog} for p in (light, heavy, *rungs)}


def unit(state, results: Results) -> dict:
    """A light then a heavy phase of the traced run; its cost is the
    light phase's p50 latency, since a phase's wall time is fixed by its
    schedule."""
    async def plan(client: Client):
        return (await client.run("light", LIGHT_RPS, TRACE_PHASE_S),
                await client.run("heavy", HEAVY_RPS, TRACE_PHASE_S))

    light, heavy = _client_thread(state, plan)
    for phase in (light, heavy):
        _check(phase, state["expected"], results)
    return {"light": light, "heavy": heavy, "cost": light.p(50)}


def trace_figures(units, spans) -> dict:
    """Client-side serve figures; time outside ``submit`` (HTTP, JSON,
    event-loop scheduling) is the unattributed share."""
    submit = {s.rid: s.duration for s in spans if s.name == "serve.submit"}
    phases = [u[k] for u in units for k in ("light", "heavy")]
    service = [(rid, done - sent) for phase in phases
               for rid, _due, sent, done, _st, _b in phase.replies]
    overhead = [t - submit[rid] for rid, t in service if rid in submit]
    attributed = sum(submit[rid] for rid, _t in service if rid in submit)
    late = [x for phase in phases for x in phase.late]
    n = len(service)
    return {
        "http.overhead_ms": (median(overhead) * 1e3 if overhead else 0.0,
                             len(overhead)),
        "client.late_ms": (percentile(late, 99) * 1e3, len(late)),
        "serve.backlog": (max(u["heavy"].backlog for u in units), len(units)),
        "trace.unattributed_share": (
            1.0 - attributed / sum(t for _rid, t in service), n),
    }
