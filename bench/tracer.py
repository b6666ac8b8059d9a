"""In-memory span tracer that wraps functions at the attributes their callers
look up, so the program under test is traced without being edited.

Every call of a wrapped function becomes a span (name, start, end, parent).
Self time is a span's duration minus the time of its child spans. Leaf
functions called millions of times (noise densities inside the quadrature
oracle) are counted and timed in place, keyed by their parent's name, instead
of being stored one by one. The workloads are single-threaded, so one stack
describes the nesting.

Allocation peaks come from tracemalloc, which slows every allocation while it
runs. So a function's peak is taken only on its first call for each input
shape: the peak depends on the shape, and the other calls stay untaxed.
"""
from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_ROOT = "(root)"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.work: Dict[str, float] = defaultdict(float)
        self.peak_bytes: Dict[str, int] = defaultdict(int)
        self.peak_ratio: Dict[str, float] = defaultdict(float)
        self.leaf_calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self._peaked: set = set()
        # Each frame: [name, span index or -1 for a leaf, time in children].
        self._stack: List[list] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, *, leaf: bool = False,
             work: Optional[Callable] = None, peak_matrix: Optional[Callable] = None) -> None:
        """Replace owner.attr by a traced version.

        work(args, result) gives the count of work items the call did.
        peak_matrix(args) gives (shape key, bytes of one score matrix); it
        turns on the allocation peak, reported also as a multiple of that size.
        """
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, leaf, work, peak_matrix)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def run(self, name: str, fn: Callable, *args):
        """Call fn(*args) inside a span the benchmark opens itself."""
        return self._call(name, fn, args, {}, False, None, None)

    def _call(self, name, fn, args, kwargs, leaf, work, peak_matrix):
        stack = self._stack
        parent = stack[-1] if stack else None
        index = -1
        if not leaf:
            index = len(self.spans)
            self.spans.append(None)  # filled at exit, so parents precede children
        frame = [name, index, 0.0]
        stack.append(frame)
        own_malloc = False
        if peak_matrix is not None and not tracemalloc.is_tracing():
            key, matrix_bytes = peak_matrix(args)
            own_malloc = (name, key) not in self._peaked
        if own_malloc:
            self._peaked.add((name, key))
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if own_malloc:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - frame[2]
            if parent is not None:
                parent[2] += duration
            if leaf:
                self.leaf_calls[(name, parent[0] if parent else _ROOT)] += 1
            else:
                self.spans[index] = (name, start - self._t0, end - self._t0,
                                     parent[1] if parent else -1)
        if work is not None:
            self.work[name] += work(args, result)
        if own_malloc:
            self.peak_bytes[name] = max(self.peak_bytes[name], peak)
            self.peak_ratio[name] = max(self.peak_ratio[name], peak / max(matrix_bytes, 1))
        return result

    def unwrap(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def dump(self, path: str, extra: dict) -> None:
        """Write every span and the leaf counts as one JSON document."""
        doc = dict(extra)
        doc["spans"] = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
        doc["leaf_calls"] = [
            {"name": n, "parent": p, "calls": c} for (n, p), c in sorted(self.leaf_calls.items())
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
