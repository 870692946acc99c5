"""In-memory span tracer that instruments a program from the outside.

``Tracer.wrap`` replaces a module or class attribute with a wrapper that
records one span (id, name, start, end, parent) per call. Callers that look
the attribute up at call time, which is how Python resolves module globals,
then run through the wrapper without any change to the program.

Spans are kept in memory. A process forked after the wrappers were installed
(a ``ProcessPoolExecutor`` worker on Linux) inherits them; its spans get ids
prefixed with its own pid, take the span that was open in the parent at fork
time as their parent, and are appended to a per-process JSON-lines file
whenever a span created with ``flush=True`` closes, because the worker's
memory is gone once the pool shuts down.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import time
from pathlib import Path


class Tracer:
    """Span recorder. One instance per traced process tree."""

    def __init__(self, flush_dir: str | Path | None = None) -> None:
        self.flush_dir = None if flush_dir is None else Path(flush_dir)
        self.spans: list[dict] = []
        self._pid = os.getpid()
        self._root_pid = self._pid
        self._stack: list[str] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> tuple[str, str | None, float]:
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked child: drop the parent's finished spans
            # (the parent reports them) but keep its open stack as ancestry.
            self._pid = pid
            self.spans = []
        span_id = f"{pid}:{self._next_id}"
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, span_id, parent, name, start, amount=None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
        if amount is not None:
            span["n"] = amount
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        span_id, parent, start = self._open(name)
        try:
            yield
        finally:
            self._close(span_id, parent, name, start)

    def wrap(self, owner, attr: str, name: str, amount=None, flush: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``amount(args, kwargs, result)`` may return a number stored on the
        span as ``n`` (work done, such as sites drawn or bytes read). With
        ``flush`` a forked worker writes out its spans when this span closes.
        """
        static = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(static, classmethod)
        func = static.__func__ if is_classmethod else static

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id, parent, start = self._open(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                n = None
                if amount is not None and result is not None:
                    n = amount(args, kwargs, result)
                self._close(span_id, parent, name, start, n)
                if flush and self._pid != self._root_pid:
                    self._flush_worker()

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patched.append((owner, attr, static))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, static = self._patched.pop()
            setattr(owner, attr, static)

    # -- worker processes --------------------------------------------------

    def _flush_worker(self) -> None:
        if self.flush_dir is None or not self.spans:
            return
        path = self.flush_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect_workers(self) -> None:
        """Append the spans flushed by forked workers."""
        if self.flush_dir is None:
            return
        for path in sorted(self.flush_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                self.spans.extend(json.loads(line) for line in fh if line.strip())


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover. Children running in parallel (pool
    workers) are counted once where they overlap."""
    by_id = {s["id"]: s for s in spans}
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is None:
            continue
        start = max(s["start"], parent["start"])
        end = min(s["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    return {
        s["id"]: (s["end"] - s["start"]) - _union_length(children.get(s["id"], []))
        for s in spans
    }


def totals_by_name(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: ``self_s`` (summed self time), ``total_s`` (summed
    duration), ``calls`` and ``n`` (summed amounts)."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"self_s": 0.0, "total_s": 0.0, "calls": 0, "n": 0})
        row["self_s"] += own[s["id"]]
        row["total_s"] += s["end"] - s["start"]
        row["calls"] += 1
        row["n"] += s.get("n", 0)
    return out
