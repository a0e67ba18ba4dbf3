"""In-memory spans for the traced benchmark run.

A span records a name, start and end (``time.perf_counter_ns``, which on
Linux is the system-wide monotonic clock, so client and server spans
share one time base), the id of the span that was open around it in the
same thread, and a request id ``device_id/seq/ts_ms`` once one is known.
Spans stay in a list until the process writes them out at exit.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records spans from any number of threads of one process."""

    traced = True

    def __init__(self, proc: str):
        self.proc = proc
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.rid = None
        return state

    def set_rid(self, rid, backfill: str = "") -> None:
        """Tag spans that end from now on in this thread with ``rid``.

        ``backfill`` names a span that finished just before the request
        id became known (the client encrypts before it builds the
        envelope); the most recent such span of this thread without an
        id is tagged too.
        """
        state = self._state()
        state.rid = rid
        if backfill:
            me = threading.get_ident()
            for span in reversed(self.spans):
                if span["thread"] == me and span["name"] == backfill:
                    if span["rid"] is None:
                        span["rid"] = rid
                    break

    @contextmanager
    def span(self, name: str):
        state = self._state()
        sid = next(self._ids)
        parent = state.stack[-1] if state.stack else None
        state.stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            state.stack.pop()
            self.spans.append({
                "id": sid, "parent": parent, "name": name, "proc": self.proc,
                "thread": threading.get_ident(), "start_ns": start,
                "end_ns": end, "rid": state.rid,
            })

    def wrap(self, name: str, fn):
        """Return ``fn`` timed as a span called ``name``."""
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return timed


class NullTracer:
    """The client's view of Tracer, recording nothing (the untraced run)."""

    traced = False

    def set_rid(self, rid, backfill: str = "") -> None:
        pass

    def span(self, name: str):
        return nullcontext()


def span_ms(span) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


def self_times(spans) -> dict:
    """name -> (calls, total ms, self ms), where self time is a span's
    duration minus the durations of its direct children.  Children of
    one span run in its thread one after another, so they never
    overlap."""
    child_ms = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["proc"], span["parent"])
            child_ms[key] = child_ms.get(key, 0.0) + span_ms(span)
    table = {}
    for span in spans:
        total = span_ms(span)
        own = total - child_ms.get((span["proc"], span["id"]), 0.0)
        calls, tot, slf = table.get(span["name"], (0, 0.0, 0.0))
        table[span["name"]] = (calls + 1, tot + total, slf + own)
    return table


def format_table(table: dict) -> str:
    rows = sorted(table.items(), key=lambda item: -item[1][2])
    lines = [f"{'span':<28} {'calls':>7} {'total_ms':>11} {'self_ms':>11} {'mean_ms':>9}"]
    for name, (calls, total, own) in rows:
        lines.append(f"{name:<28} {calls:>7} {total:>11.2f} {own:>11.2f} "
                     f"{total / calls:>9.3f}")
    return "\n".join(lines)
