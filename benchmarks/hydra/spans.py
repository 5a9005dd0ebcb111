"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls into each
layer of ``repro`` (spans inside ``src/`` are a later change).  A span is
``{name, start, end, parent, op_id}``: ``parent`` indexes the span that was
open when this one started, and every span of one operation shares its
``op_id``.  Spans stay in memory until :meth:`Recorder.write` dumps them, so
recording costs two clock reads and one list append.

A layer's *self time* is its span's duration minus the part of that interval
its child spans cover.  Two kinds of children exist: real spans (opened with
:meth:`Recorder.span` while the parent is open) and *measured* children
(:meth:`Recorder.child`), whose duration was accumulated elsewhere — the
store's ``measured_io_seconds`` or the timing answer set — because a query
makes thousands of such calls and one span each would dominate the query.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """Collects spans when ``enabled``; a disabled recorder records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op_id: str | None = None):
        """Time the enclosed block; yields the span's index (``None`` when off)."""
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        if op_id is None and parent is not None:
            op_id = self.spans[parent]["op_id"]
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "op_id": op_id}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield index
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def child(self, parent: int | None, name: str, seconds: float) -> None:
        """Attach a child whose ``seconds`` were measured by the layer itself.

        The child is anchored at its parent's start: only its duration is
        known, not where inside the parent its calls fell.
        """
        if not self.enabled or parent is None:
            return
        start = self.spans[parent]["start"]
        self.spans.append({"name": name, "start": start, "end": start + float(seconds),
                           "parent": parent, "op_id": self.spans[parent]["op_id"],
                           "measured": True})

    # -- analysis ----------------------------------------------------------------
    def self_seconds(self) -> list[float]:
        """Self time of every span: duration minus its children's durations."""
        covered = defaultdict(float)
        for record in self.spans:
            if record["parent"] is not None and record["end"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        return [
            (record["end"] - record["start"]) - covered[i] if record["end"] is not None else 0.0
            for i, record in enumerate(self.spans)
        ]

    def self_time_by_name(self) -> dict[str, dict]:
        """``name -> {count, total_s, self_s}`` over every closed span."""
        selfs = self.self_seconds()
        table: dict[str, dict] = {}
        for record, own in zip(self.spans, selfs):
            if record["end"] is None:
                continue
            row = table.setdefault(record["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += record["end"] - record["start"]
            row["self_s"] += own
        return table

    def write(self, path, extra: dict | None = None) -> None:
        """Dump the spans (and ``extra`` context) as one JSON document."""
        document = dict(extra or {})
        document["self_time_by_name"] = self.self_time_by_name()
        document["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
