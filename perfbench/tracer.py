"""Outside-in span tracer: timing wrappers installed from the benchmark.

The program under test is not edited.  ``layers.install`` replaces the
public functions of each layer (and a few methods whose call marks a
layer boundary) with wrappers that record one span per call: name,
layer, start, end, parent span, thread and, on the serve path, the
request id.  Parents come from a context variable, so spans nest per
thread and per asyncio task.  Spans stay in memory; the workload writes
a summary at the end.  :meth:`Tracer.restore` puts every original back.

A layer's self time is the summed duration of its spans minus the
duration of their direct child spans.  Forked workers and SPMD ranks
inherit the wrappers but their spans die with them: only parent-side
spans are reported for those planes.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

_CURRENT = contextvars.ContextVar("perfbench_span", default=0)
#: Request id of the serve request being handled (``None`` elsewhere).
REQUEST_ID = contextvars.ContextVar("perfbench_rid", default=None)


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    layer: str
    t0: float
    t1: float
    thread: int
    rid: int | None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Span store plus the patch table that installed the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.values: defaultdict = defaultdict(float)
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self):
        sid = next(self._ids)
        return sid, _CURRENT.get(), _CURRENT.set(sid), time.perf_counter()

    def _close(self, name, layer, sid, parent, token, t0) -> Span:
        t1 = time.perf_counter()
        _CURRENT.reset(token)
        span = Span(sid, parent, name, layer, t0, t1,
                    threading.get_ident(), REQUEST_ID.get())
        self.spans.append(span)
        return span

    def wrap(self, fn, name: str, layer: str, after=None):
        """Timing wrapper around ``fn``; ``after(args, kwargs, result,
        span)`` runs once the call returns, to count work."""
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                state = self._open()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    span = self._close(name, layer, *state)
                if after is not None:
                    after(args, kwargs, result, span)
                return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(name, layer, *state)
            if after is not None:
                after(args, kwargs, result, span)
            return result
        return wrapper

    def wrap_generator(self, fn, name: str, layer: str, after=None):
        """One span per item a generator function produces."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                state = self._open()
                try:
                    item = next(it)
                except StopIteration:
                    _CURRENT.reset(state[2])
                    return
                except BaseException:
                    self._close(name, layer, *state)
                    raise
                span = self._close(name, layer, *state)
                if after is not None:
                    after(args, kwargs, item, span)
                yield item
        return wrapper

    def wrap_count(self, fn, counter: str):
        """Count calls without timing them (for per-atom hot calls)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_function(self, fn, wrapper) -> None:
        """Replace ``fn`` in every ``repro`` module that holds it, so
        callers that imported it by name see the wrapper too."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch_attr(module, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ----------------------------------------------------------------------
# analysis over a slice of ``Tracer.spans``
# ----------------------------------------------------------------------
def self_times(spans: list[Span], by: str = "layer") -> dict:
    """Self time per layer (or per span ``name``): each span's duration
    minus the duration of its direct children within ``spans``."""
    child_time: defaultdict = defaultdict(float)
    for span in spans:
        child_time[span.parent] += span.duration
    out: defaultdict = defaultdict(float)
    for span in spans:
        out[getattr(span, by)] += span.duration - child_time[span.sid]
    return dict(out)


def total(spans: list[Span], *names: str) -> float:
    """Summed inclusive duration of the spans with any of ``names``."""
    return sum(s.duration for s in spans if s.name in names)


def children_of(spans: list[Span]) -> dict:
    """Parent sid -> direct child spans."""
    children: defaultdict = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    return children


def subtree(children: dict, root: int) -> list[Span]:
    """``root``'s descendants, given :func:`children_of`'s map."""
    out, stack = [], [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            out.append(child)
            stack.append(child.sid)
    return out


def summary(spans: list[Span]) -> dict:
    """JSON-ready per-name call counts and inclusive/self seconds."""
    calls = Counter(s.name for s in spans)
    selfs = self_times(spans, by="name")
    return {name: {"calls": calls[name],
                   "inclusive_s": total(spans, name),
                   "self_s": selfs.get(name, 0.0)}
            for name in sorted(calls)}
