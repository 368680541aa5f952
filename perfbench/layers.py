"""Which functions the traced run wraps, and the per-layer metrics.

Layers are named after the program's modules.  Every workload reports
every metric below; a layer the workload bypasses reads 0, which is the
point: each layer should do most of its work in one workload and little
or none in another.  Timings are totals over the traced window unless
the name says otherwise (``*_ms`` are medians per request or batch).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from repro.linalg.omp import ENCODE_BLOCK_COLS

from common import median
from tracer import REQUEST_ID, Tracer, children_of, self_times, subtree, total

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("kernels.busy_s", "s"), ("kernels.columns", "count"),
    ("kernels.atoms", "count"), ("kernels.us_per_atom", "us"),
    ("cholesky.calls", "count"),
    ("dta.busy_s", "s"), ("dta.panels", "count"),
    ("dta.padding_share", "ratio"),
    ("gram.lookups", "count"), ("gram.misses", "count"),
    ("gram.busy_s", "s"),
    ("pool.calls", "count"), ("pool.busy_s", "s"),
    ("pool.speedup", "ratio"),
    ("csc.busy_s", "s"), ("csc.columns", "count"),
    ("spmd.wall_s", "s"), ("spmd.virtual_s", "s"),
    ("spmd.words", "count"), ("spmd.messages", "count"),
    ("batcher.queue_wait_ms", "ms"), ("batcher.encode_ms", "ms"),
    ("batcher.batch_size", "count"), ("http.overhead_ms", "ms"),
    ("client.late_ms", "ms"), ("serve.backlog", "count"),
    ("store.append_s", "s"), ("store.append_bytes", "bytes"),
    ("store.read_s", "s"), ("store.read_bytes", "bytes"),
    ("stream.encoder_self_s", "s"),
    ("online.encode_s", "s"), ("online.observe_s", "s"),
    ("online.refresh_s", "s"), ("online.reseed_s", "s"),
    ("online.publish_s", "s"),
    ("exd.normalize_s", "s"), ("exd.sample_s", "s"),
    ("model.eq2_s", "s"), ("model.flops", "count"),
    ("model.measured_over_eq2", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
]


@dataclass
class Probe:
    """Facts the wrappers collect beside the spans."""

    encodes: dict = field(default_factory=dict)   # sid -> (m, l, nnz, flops)
    queue_waits: list = field(default_factory=list)   # seconds
    batch_sizes: list = field(default_factory=list)


def install(tracer: Tracer) -> Probe:
    """Wrap the public functions of every layer; undo with
    ``tracer.restore()``."""
    from repro.core import exd
    from repro.linalg import cholesky, omp, parallel_omp
    from repro.linalg.kernels import resolve_backend
    from repro.mpi import runtime
    from repro.online import maintainer as maintainer_mod
    from repro.online.update import OnlineUpdater
    from repro.serve import batcher as batcher_mod
    from repro.serve import protocol
    from repro.serve.registry import DictionaryRegistry
    from repro.sparse.builder import ColumnBuilder
    from repro.store import column_store, streaming

    probe = Probe()
    values, counts = tracer.values, tracer.counts

    def fn(func, name, layer, after=None):
        tracer.patch_function(func, tracer.wrap(func, name, layer, after))

    def method(cls, attr, name, layer, after=None):
        tracer.patch_attr(cls, attr, tracer.wrap(cls.__dict__[attr], name,
                                                 layer, after))

    # linalg.kernels: one call per 256-column panel.
    def kernel_done(args, _kw, results, _span):
        values["kernels.columns"] += args[2].shape[1]
        values["kernels.atoms"] += sum(r[3] for r in results)
    method(type(resolve_backend(None)), "batch_omp_columns",
           "kernels.batch_omp_columns", "linalg.kernels", kernel_done)

    # linalg.cholesky: called per selected atom, so counted, not timed.
    for attr in ("append", "solve"):
        tracer.patch_attr(cholesky.IncrementalCholesky, attr,
                          tracer.wrap_count(
                              cholesky.IncrementalCholesky.__dict__[attr],
                              "cholesky.calls"))

    # linalg.omp: the encode entry point and the DᵀA panel products.
    def encode_done(args, _kw, result, span):
        c, stats = result
        m = np.shape(args[1])[0]
        probe.encodes[span.sid] = (m, c.shape[0], c.nnz, stats.flops)
    fn(omp.batch_omp_matrix, "omp.batch_omp_matrix", "linalg.omp",
       encode_done)

    def panel_done(_args, _kw, item, _span):
        lo, hi, _dta = item
        values["dta.panels"] += 1
        values["dta.columns"] += hi - lo
    tracer.patch_function(omp.iter_panel_dta, tracer.wrap_generator(
        omp.iter_panel_dta, "dta.panel", "linalg.omp", panel_done))

    def blocked_done(args, _kw, _result, _span):
        n = np.shape(args[1])[1]
        values["dta.panels"] += math.ceil(n / ENCODE_BLOCK_COLS)
        values["dta.columns"] += n
    fn(omp.blocked_dta, "dta.blocked_dta", "linalg.omp", blocked_done)

    # linalg.parallel_omp: Gram cache, fork pool, parallel and serve
    # encode entry points.
    timed_get = tracer.wrap(parallel_omp.GramCache.__dict__["get"],
                            "gram.get", "linalg.parallel_omp")

    def gram_get(cache, d):
        before = cache.misses
        try:
            return timed_get(cache, d)
        finally:
            counts["gram.lookups"] += 1
            counts["gram.misses"] += cache.misses - before
    tracer.patch_attr(parallel_omp.GramCache, "get", gram_get)

    def pool_done(*_):
        counts["pool.calls"] += 1
    fn(parallel_omp.fork_map, "pool.fork_map", "linalg.parallel_omp",
       pool_done)
    fn(parallel_omp.parallel_batch_omp_matrix,
       "parallel_omp.parallel_batch_omp_matrix", "linalg.parallel_omp")
    fn(parallel_omp.encode_columns, "parallel_omp.encode_columns",
       "linalg.parallel_omp")

    # sparse: CSC assembly of the serial encode.
    def column_done(*_):
        values["csc.columns"] += 1
    method(ColumnBuilder, "add_column", "csc.add_column", "sparse",
           column_done)
    method(ColumnBuilder, "finalize", "csc.finalize", "sparse")

    # mpi
    fn(runtime.run_spmd, "mpi.run_spmd", "mpi")

    # serve: request parse (tags the task with the client's request id),
    # submit (queue wait + encode + reply) and batch dispatch.
    def parsed(args, _kw, _result, _span):
        body = args[0]
        REQUEST_ID.set(body.get("rid") if isinstance(body, dict) else None)
    fn(protocol.parse_encode_request, "serve.parse_request", "serve",
       parsed)
    method(batcher_mod.MicroBatcher, "submit", "serve.submit", "serve")
    timed_group = tracer.wrap(
        batcher_mod.MicroBatcher.__dict__["_encode_group"],
        "serve.encode_group", "serve")

    async def encode_group(batcher, group, loop):
        now = loop.time()
        probe.queue_waits.extend(now - p.enqueued for p in group)
        probe.batch_sizes.append(len(group))
        return await timed_group(batcher, group, loop)
    tracer.patch_attr(batcher_mod.MicroBatcher, "_encode_group",
                      encode_group)

    # store
    def appended(args, _kw, _result, _span):
        values["store.append_bytes"] += np.asarray(args[1]).nbytes

    def read(_args, _kw, result, _span):
        values["store.read_bytes"] += result.nbytes
    store_cls = column_store.ColumnStore
    method(store_cls, "append_columns", "store.append_columns", "store",
           appended)
    method(store_cls, "read_range", "store.read_range", "store", read)
    method(store_cls, "read_columns", "store.read_columns", "store", read)
    method(streaming.StreamingEncoder, "run", "store.stream_run", "store")
    fn(streaming.sample_store_dictionary, "exd.sample_store_dictionary",
       "store")

    # online: the step, its encode, surrogate fold, refresh, re-seed and
    # the publish of a new generation.
    method(maintainer_mod.OnlineMaintainer, "step", "online.step",
           "online")
    tracer.patch_attr(maintainer_mod, "batch_omp_matrix", tracer.wrap(
        maintainer_mod.batch_omp_matrix, "online.encode", "online"))
    method(OnlineUpdater, "observe", "online.observe", "online")
    method(OnlineUpdater, "refresh_atoms", "online.refresh", "online")
    method(OnlineUpdater, "evict_dead", "online.reseed", "online")
    method(OnlineUpdater, "rank_reseed_candidates", "online.reseed",
           "online")
    method(maintainer_mod.OnlineMaintainer, "build_generation",
           "online.build_generation", "online")
    method(DictionaryRegistry, "add_transform", "registry.add_transform",
           "serve")

    # core.exd
    fn(exd.exd_transform, "exd.exd_transform", "core.exd")
    fn(exd.exd_transform_distributed, "exd.exd_transform_distributed",
       "core.exd")
    fn(exd.normalize_columns, "exd.normalize_columns", "core.exd")
    fn(exd.sample_dictionary, "exd.sample_dictionary", "core.exd")
    return probe


def _model(spans, probe: Probe) -> dict:
    """Prediction beside measurement, as medians over the encodes whose
    kernel ran in this process: Eq. 2 seconds on the 1x1 preset at the
    encode's M, L and nnz(C), the FLOP ledger's count, and measured
    kernel + DᵀA self time over the Eq. 2 seconds."""
    from repro.core import CostModel
    from repro.platform import platform_by_name

    model = CostModel(platform_by_name("1x1"))
    children = children_of(spans)
    rows = []
    for span in spans:
        if span.sid not in probe.encodes:
            continue
        inner = subtree(children, span.sid)
        if not any(s.layer == "linalg.kernels" for s in inner):
            continue
        m, l, nnz, flops = probe.encodes[span.sid]
        measured = sum(v for k, v in self_times(inner, by="name").items()
                       if k.startswith(("kernels.", "dta.")))
        eq2 = model.time_seconds(m, l, nnz)
        rows.append((eq2, flops, measured / eq2))
    names = ("model.eq2_s", "model.flops", "model.measured_over_eq2")
    if not rows:
        return {name: (0.0, 0) for name in names}
    return {name: (median(col), len(rows))
            for name, col in zip(names, zip(*rows))}


def per_layer_metrics(tracer: Tracer, probe: Probe, extra: dict) -> dict:
    """Every :data:`PER_LAYER` metric as ``name -> (value, samples)``.

    ``extra`` supplies what only the workload knows (SPMD ledger totals,
    client-side serve figures, trace coverage and overhead); missing
    keys read 0.  The sample count of a total is the number of calls in it.
    """
    spans = tracer.spans
    values, counts = tracer.values, tracer.counts
    calls = Counter(s.name for s in spans)
    by_layer = self_times(spans)
    by_name = self_times(spans, by="name")

    def self_of(*names):
        return sum(by_name.get(n, 0.0) for n in names), \
            sum(calls[n] for n in names)

    def incl(*names):
        return total(spans, *names), sum(calls[n] for n in names)

    def med(samples, scale=1.0):
        return (median(samples) * scale if samples else 0.0, len(samples))

    kernel_calls = calls["kernels.batch_omp_columns"]
    kernels_busy = by_layer.get("linalg.kernels", 0.0)
    atoms = values["kernels.atoms"]
    panels = int(values["dta.panels"])
    computed = panels * ENCODE_BLOCK_COLS
    encodes = [s.duration for s in spans
               if s.name == "parallel_omp.encode_columns"]
    out = {
        "kernels.busy_s": (kernels_busy, kernel_calls),
        "kernels.columns": (values["kernels.columns"], kernel_calls),
        "kernels.atoms": (atoms, kernel_calls),
        "kernels.us_per_atom": (kernels_busy / atoms * 1e6 if atoms
                                else 0.0, int(atoms)),
        "cholesky.calls": (counts["cholesky.calls"],
                           counts["cholesky.calls"]),
        "dta.busy_s": self_of("dta.panel", "dta.blocked_dta"),
        "dta.panels": (panels, panels),
        "dta.padding_share": ((computed - values["dta.columns"]) / computed
                              if computed else 0.0, panels),
        "gram.lookups": (counts["gram.lookups"], counts["gram.lookups"]),
        "gram.misses": (counts["gram.misses"], counts["gram.lookups"]),
        "gram.busy_s": self_of("gram.get"),
        "pool.calls": (calls["pool.fork_map"], calls["pool.fork_map"]),
        "pool.busy_s": incl("pool.fork_map"),
        "csc.busy_s": (by_layer.get("sparse", 0.0),
                       calls["csc.add_column"] + calls["csc.finalize"]),
        "csc.columns": (values["csc.columns"], calls["csc.add_column"]),
        "spmd.wall_s": incl("mpi.run_spmd"),
        "batcher.queue_wait_ms": med(probe.queue_waits, 1e3),
        "batcher.encode_ms": med(encodes, 1e3),
        "batcher.batch_size": (
            float(np.mean(probe.batch_sizes)) if probe.batch_sizes else 0.0,
            len(probe.batch_sizes)),
        "store.append_s": incl("store.append_columns"),
        "store.append_bytes": (values["store.append_bytes"],
                               calls["store.append_columns"]),
        "store.read_s": incl("store.read_range", "store.read_columns"),
        "store.read_bytes": (values["store.read_bytes"],
                             calls["store.read_range"]
                             + calls["store.read_columns"]),
        "stream.encoder_self_s": self_of("store.stream_run"),
        "online.encode_s": incl("online.encode"),
        "online.observe_s": incl("online.observe"),
        "online.refresh_s": incl("online.refresh"),
        "online.reseed_s": incl("online.reseed"),
        "online.publish_s": incl("online.build_generation",
                                 "registry.add_transform"),
        "exd.normalize_s": incl("exd.normalize_columns"),
        "exd.sample_s": incl("exd.sample_dictionary",
                             "exd.sample_store_dictionary"),
    }
    out.update(_model(spans, probe))
    for name, _unit in PER_LAYER:
        if name not in out:
            out[name] = extra.get(name, (0.0, 0))
    return out


def report_layers(results, tracer: Tracer, probe: Probe,
                  extra: dict) -> None:
    """Add every per-layer metric to ``results``."""
    units = dict(PER_LAYER)
    for name, (value, samples) in per_layer_metrics(
            tracer, probe, extra).items():
        results.add(name, value, units[name], samples)


def unattributed(spans, thread: int, wall: float) -> float:
    """Share of ``wall`` that no wrapped call on ``thread`` covers."""
    covered = sum(s.duration for s in spans
                  if s.thread == thread and s.parent == 0)
    return 1.0 - covered / wall if wall else 0.0
