"""Layer tracing from outside the package.

``Tracer.install`` replaces the names each layer's caller looks up (a module
global such as ``camchain.handover.point_in_polygon`` or a class attribute
such as ``SyncBarrier.ingest``) with timing wrappers, and ``uninstall`` puts
the originals back. Nothing under ``src/`` is edited.

Three kinds of target keep memory bounded on runs with millions of calls:

* ``SPAN`` calls (stages, per-snapshot engine calls, CSV codecs) keep one
  span each: name, start, end and the id of the enclosing span;
* ``AGG`` calls (per-update and per-observation work) fold into per-stage
  totals of calls, time and self time;
* ``COUNT`` calls only count, and their time stays in the caller's self time.

Self time is a call's duration minus the time of the timed calls and garbage
collections nested inside it. Collections are recorded through
``gc.callbacks`` as spans of their own, so GC is a layer beside the others.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

SPAN, AGG, COUNT = "span", "agg", "count"


def _new_stat() -> list:
    return [0, 0.0, 0.0]  # calls, total seconds, self seconds


class Tracer:
    def __init__(self, targets) -> None:
        self.targets = list(targets)  # (owner, attribute, span name, kind)
        self.origin = time.perf_counter()
        self.spans: list = []  # (name, start, end, parent id, stage)
        self.stats: dict[str, defaultdict] = {}
        self.gc_pauses: list = []  # (start, seconds, generation, stage)
        self.missing: list[str] = []
        self._stack: list[float] = []  # child time of each open timed call
        self._open: list[int] = []  # ids of open kept spans
        self._stage = "none"
        self._cur = self._stage_stats("none")
        self._saved: list = []
        self._gc_start = 0.0

    def _stage_stats(self, stage: str) -> defaultdict:
        return self.stats.setdefault(stage, defaultdict(_new_stat))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, kind in self.targets:
            orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if orig is None:
                # A renamed target reads zero instead of failing the run.
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            wrapped = self._count(orig, name) if kind == COUNT else self._timed(orig, name, kind == SPAN)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextmanager
    def stage(self, name: str):
        """Open a top-level span; calls inside it are totalled under ``name``."""
        prev_stage, prev_cur = self._stage, self._cur
        self._stage, self._cur = name, self._stage_stats(name)
        sid = self._enter_span()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._exit_span(sid, "stage." + name, t0, t1)
            self._stack.pop()
            self._stage, self._cur = prev_stage, prev_cur

    # -- wrappers ----------------------------------------------------------

    def _enter_span(self) -> int:
        self._stack.append(0.0)
        sid = len(self.spans)
        self.spans.append(None)
        self._open.append(sid)
        return sid

    def _exit_span(self, sid: int, name: str, t0: float, t1: float) -> None:
        self._open.pop()
        parent = self._open[-1] if self._open else None
        self.spans[sid] = (name, t0, t1, parent, self._stage)

    def _timed(self, fn, name: str, keep_span: bool):
        tracer, stack, perf = self, self._stack, time.perf_counter

        if keep_span:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = tracer._enter_span()
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    tracer._exit_span(sid, name, t0, t1)
                    tracer._close(name, t1 - t0)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(name, perf() - t0)
        return wrapper

    def _close(self, name: str, dur: float) -> None:
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dur
        s = self._cur[name]
        s[0] += 1
        s[1] += dur
        s[2] += dur - child

    def _count(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._cur[name][0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        t1 = time.perf_counter()
        dur = t1 - self._gc_start
        gen = info.get("generation", -1)
        self.gc_pauses.append((self._gc_start, dur, gen, self._stage))
        parent = self._open[-1] if self._open else None
        self.spans.append((f"gc.gen{gen}", self._gc_start, t1, parent, self._stage))
        if self._stack:
            self._stack[-1] += dur

    # -- results -----------------------------------------------------------

    def total(self, name: str, stages) -> tuple[int, float, float]:
        """(calls, seconds, self seconds) of one name summed over stages."""
        calls, tot, own = 0, 0.0, 0.0
        for st in stages:
            s = self.stats.get(st, {}).get(name)
            if s is not None:
                calls += s[0]
                tot += s[1]
                own += s[2]
        return calls, tot, own

    def write(self, path: Path) -> None:
        """Spans and per-stage totals as JSON, times relative to tracer creation."""
        o = self.origin
        doc = {
            "spans": [
                {"id": i, "name": s[0], "start": s[1] - o, "end": s[2] - o, "parent": s[3], "stage": s[4]}
                for i, s in enumerate(self.spans)
                if s is not None
            ],
            "totals": [
                {"stage": st, "name": n, "calls": v[0], "total_s": v[1], "self_s": v[2]}
                for st, names in self.stats.items()
                for n, v in sorted(names.items())
            ],
            "untraced_targets": self.missing,
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
