"""Spans for traced olx runs, and the self-time arithmetic over them.

A Recorder wraps functions so that each call records a span: name, start,
end, the span that caused it and the thread it ran on. Spans stay in
memory and are written out once, when the traced process ends.

Each thread keeps its own stack of open spans. A span opened on a thread
whose stack is empty (a worker of scan's thread pool) attaches to the
innermost span open on the main thread; while the pool runs, the main
thread is blocked inside grid_scan, so worker spans become children of
the grid_scan span instead of nesting inside each other.

Self time is a span's duration minus the length of the union of its
children's intervals. Children on different threads overlap, so the sum
of all self times exceeds the root span by exactly the overlap, which
is reported rather than dropped.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable

# span record layout, shared by writer and reader
ID, NAME, PARENT, START, END, THREAD, INFO = range(7)


class Recorder:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._main_stack: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def open(self, name: str, start: float | None = None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][ID]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1][ID]
        else:
            parent = None
        span = [next(self._ids), name, parent,
                time.perf_counter() if start is None else start,
                None, threading.get_ident(), None]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn: Callable,
             info: Callable[[dict, Any], dict] | None = None) -> Callable:
        """fn with a span around each call. info(bound_arguments, result)
        returns counts derived from argument and result sizes; it runs
        after the span closes, so it is charged to the caller."""
        signature = inspect.signature(fn) if info is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[INFO] = info(bound.arguments, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[list]) -> tuple[dict[int, float], float]:
    """(self time per span id, total overlap among sibling spans).

    Child intervals are clipped to their parent's interval; the overlap is
    sum(children durations) - union(children) summed over every parent.
    """
    by_id = {s[ID]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        p = by_id.get(s[PARENT])
        if p is not None:
            children.setdefault(p[ID], []).append(
                (max(s[START], p[START]), min(s[END], p[END])))
    out = {}
    overlap = 0.0
    for s in spans:
        kids = [(a, b) for a, b in children.get(s[ID], []) if b > a]
        covered = union_length(kids)
        out[s[ID]] = (s[END] - s[START]) - covered
        overlap += sum(b - a for a, b in kids) - covered
    return out, overlap
