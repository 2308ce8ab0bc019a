"""In-memory span recording and the arithmetic over span trees.

A span is a dict with ``id``, ``parent`` (an id or ``None``), ``name``,
``start``/``end`` (seconds on the system-wide monotonic clock, so spans
from several processes line up), ``pid`` and free-form ``args``.  Spans
are kept in memory and written out once, at the end of a run.

* A span's **self time** is its duration minus the part of its interval
  that its direct children cover (the union, so overlapping children
  are not counted twice).
* A layer's **inclusive time** sums its outermost spans only, so a
  layer that calls itself is not counted twice.
* **Unaccounted** wall time is the part of a window that no root span
  covers.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

Span = dict[str, Any]


def clock() -> float:
    """System-wide monotonic seconds, comparable across processes."""
    return time.monotonic()


class Recorder:
    """Records nested spans for one process, in memory."""

    def __init__(self, id_prefix: str = "") -> None:
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._prefix = id_prefix or f"{os.getpid()}-"

    def _open(self, name: str, start: float | None = None) -> Span:
        span: Span = {
            "id": f"{self._prefix}{len(self.spans)}",
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": clock() if start is None else start,
            "end": None,
            "pid": os.getpid(),
            "args": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: Span) -> None:
        self._stack.pop()
        span["end"] = clock()

    @contextmanager
    def span(self, name: str, start: float | None = None) -> Iterator[Span]:
        """Record the enclosed block as one span (optionally back-dated)."""
        span = self._open(name, start)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        probe: Callable[..., Callable[[Any], dict]] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped so every call records a span called ``name``.

        ``probe(*args, **kwargs)`` runs before the call and returns a
        function of the call's result whose dict lands in the span's
        ``args`` (instruction counts, cache outcomes and the like).
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            finish = probe(*args, **kwargs) if probe is not None else None
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if finish is not None:
                span["args"].update(finish(result))
            return result

        return wrapper


# -- arithmetic over span lists --------------------------------------------------


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clip(span: Span, lo: float, hi: float) -> tuple[float, float]:
    return max(span["start"], lo), min(span["end"], hi)


def children_of(spans: list[Span]) -> dict[str | None, list[Span]]:
    kids: dict[str | None, list[Span]] = defaultdict(list)
    for span in spans:
        kids[span["parent"]].append(span)
    return kids


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> duration minus the union its direct children cover."""
    kids = children_of(spans)
    result = {}
    for span in spans:
        covered = union_length(
            [_clip(c, span["start"], span["end"]) for c in kids[span["id"]]]
        )
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def covered(spans: list[Span], lo: float, hi: float) -> float:
    """Seconds of ``[lo, hi]`` covered by at least one root span."""
    return union_length(
        [_clip(s, lo, hi) for s in spans if s["parent"] is None]
    )


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {s["id"]: s for s in spans}
    found = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:
            found.append(span)
    return found


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(
            span["name"], {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["self_s"] += selfs[span["id"]]
    for name, row in table.items():
        row["inclusive_s"] = sum(
            s["end"] - s["start"] for s in outermost(spans, name)
        )
    return table


def render_table(table: dict[str, dict[str, float]], wall: float) -> str:
    """Aligned text table, largest self time first."""
    lines = [f"{'layer':<34} {'calls':>7} {'incl s':>9} {'self s':>9} {'self %':>7}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall if wall > 0 else 0.0
        lines.append(
            f"{name:<34} {int(row['calls']):>7} {row['inclusive_s']:>9.3f} "
            f"{row['self_s']:>9.3f} {share:>6.1f}%"
        )
    return "\n".join(lines)


def chrome_trace(spans: list[Span]) -> dict[str, Any]:
    """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    origin = min((s["start"] for s in spans), default=0.0)
    events = []
    for span in spans:
        events.append(
            {
                "name": span["name"],
                "cat": span["name"].split(".", 1)[0],
                "ph": "X",
                "ts": round((span["start"] - origin) * 1e6, 3),
                "dur": round((span["end"] - span["start"]) * 1e6, 3),
                "pid": span["pid"],
                "tid": span["pid"],
                "args": {
                    "id": span["id"],
                    "parent": span["parent"],
                    **span["args"],
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
