"""Span tracing from outside the program.

A :class:`Tracer` replaces a function at the name the program calls it
through (a module global such as ``dgquery.sjtree.join`` or a class
attribute such as ``SJTree.insert_and_propagate``) with a wrapper that
records one span per call: name, start, end and the span that was open when
it started.  Garbage-collector pauses are recorded the same way from
``gc.callbacks``.  Spans are kept in flat arrays, written out at the end,
and reduced to per-name self times: a span's duration minus the part of it
covered by its child spans.
"""
from __future__ import annotations

import gc
import json
import time
import zlib
from array import array
from collections import Counter
from pathlib import Path

ARRAYS = ("name_id", "parent", "start", "end", "gc_gen", "gc_parent", "gc_start", "gc_end")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")  # index into names
        self.parent = array("l")  # index of the enclosing span, -1 at top level
        self.start = array("q")  # perf_counter_ns
        self.end = array("q")
        self.gc_gen = array("b")
        self.gc_parent = array("l")
        self.gc_start = array("q")
        self.gc_end = array("q")
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self._undo: list = []  # callables that remove what wrap() and watch_gc() installed

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace every call made through ``owner.attr`` until :meth:`restore`.

        With ``count``, ``count(result)`` is added to ``self.counts[name]``.
        """
        fn = getattr(owner, attr)
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends, stack = self.name_id, self.parent, self.start, self.end, self.stack
        counts = self.counts
        clock = time.perf_counter_ns

        def traced(*args):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                counts[name] += count(result)
            return result

        setattr(owner, attr, traced)
        self._undo.append(lambda: setattr(owner, attr, fn))

    def _on_gc(self, phase: str, info: dict) -> None:
        # Pauses arrive as start/stop callbacks, not calls, so they are kept
        # apart from call spans and attached to the span open at the start.
        if phase == "start":
            self.gc_gen.append(info["generation"])
            self.gc_parent.append(self.stack[-1] if self.stack else -1)
            self.gc_start.append(time.perf_counter_ns())
        else:
            self.gc_end.append(time.perf_counter_ns())

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._undo.append(lambda: gc.callbacks.remove(self._on_gc))

    def restore(self) -> None:
        """Put back every wrapped function and stop watching the collector."""
        while self._undo:
            self._undo.pop()()

    # ----------------------------------------------------------------- analysis

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, ``outer`` calls (not nested in a span of the
        same name), and self, inclusive, top-level and maximum time in ns.

        GC pauses appear as ``gc.gen<N>``.  The self times of all names add up
        to the time covered by top-level spans.
        """
        n = len(self.start)
        dur = array("q", (e - s for s, e in zip(self.start, self.end)))
        child = array("q", bytes(8 * n))
        for p, d in zip(self.parent, dur):
            if p >= 0:
                child[p] += d
        for p, s, e in zip(self.gc_parent, self.gc_start, self.gc_end):
            if p >= 0:
                child[p] += e - s
        out: dict[str, dict[str, int]] = {}

        def add(name: str, outer: bool, self_ns: int, incl_ns: int, top: bool) -> None:
            r = out.get(name)
            if r is None:
                r = out[name] = dict.fromkeys(("calls", "outer", "self_ns", "incl_ns", "top_ns", "max_ns"), 0)
            r["calls"] += 1
            r["outer"] += outer
            r["self_ns"] += self_ns
            r["incl_ns"] += incl_ns
            if top:
                r["top_ns"] += incl_ns
            if incl_ns > r["max_ns"]:
                r["max_ns"] = incl_ns

        names, name_id, parent = self.names, self.name_id, self.parent
        for i in range(n):
            p = parent[i]
            nid = name_id[i]
            add(names[nid], p < 0 or name_id[p] != nid, dur[i] - child[i], dur[i], p < 0)
        for g, p, s, e in zip(self.gc_gen, self.gc_parent, self.gc_start, self.gc_end):
            add(f"gc.gen{g}", True, e - s, e - s, p < 0)
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write every span: one JSON header line, then for each of
        ``ARRAYS`` an 8-byte length and the zlib-compressed array bytes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = dict(meta, names=self.names, spans=len(self.start), gc_spans=len(self.gc_start),
                      arrays=[f"{a}:{getattr(self, a).typecode}" for a in ARRAYS])
        with open(path, "wb") as fp:
            fp.write(json.dumps(header).encode() + b"\n")
            for a in ARRAYS:
                data = zlib.compress(getattr(self, a).tobytes(), 1)
                fp.write(len(data).to_bytes(8, "little"))
                fp.write(data)
