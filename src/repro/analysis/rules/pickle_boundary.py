"""pickle-boundary: no raw series data ever crosses the process boundary.

PR 9's process executor ships *plans*, not data: a shard task carries a
method name, params, and a store handle that pickles by (backend path, row
range) — the worker reopens the bytes on its side.  Two classes of mistake
reintroduce raw-array shipping:

* a store/backend class without an explicit ``__getstate__``/``__reduce__``
  falls back to default ``__dict__`` pickling, which drags mapped pages,
  live counters, or cached arrays across the boundary (and double-counts
  the counters on merge);
* a task-plan dataclass growing an ``ndarray``-typed field ships the
  collection itself inside every task;
* a task plan may hold a built index *by reference* for in-process execution
  — without a ``__getstate__`` that refuses to ship it, the same field would
  drag the whole index (and its store) through every cross-process task.

The allowlists below name the classes that cross the boundary today; a
new boundary class must be added here *with* its ``__getstate__``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..linter import Finding, ModuleContext, Rule, register_rule

#: classes pickled across the process boundary: must control their state.
STATE_CLASSES = {
    "SeriesStore",
    "MmapBackend",
    "CompressedBackend",
    "GrowableBackend",
    "FaultInjectingBackend",
    "BufferPool",
}

#: task-plan classes: picklable by design, but must never carry arrays.
PLAN_CLASSES = {"_ShardTask"}

#: live objects a plan may reference in process, never across the boundary.
LIVE_REFERENCES = ("SearchMethod",)

_STATE_METHODS = {"__getstate__", "__reduce__", "__reduce_ex__", "__getnewargs__"}


def _annotation_mentions(annotation: ast.expr, name: str) -> bool:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if name in node.value:
                return True
    return False


@register_rule
class PickleBoundaryRule(Rule):
    name = "pickle-boundary"
    severity = "error"
    description = (
        "process-boundary classes must define __getstate__/__reduce__, and "
        "task plans must not carry ndarray-typed fields or unguarded live "
        "references"
    )
    invariant = (
        "Plans, never data, across the process boundary (PR 9): stores "
        "pickle by (backend path, row range) with a fresh counter; shipping "
        "arrays or live counters breaks both memory bounds and counter "
        "conservation."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            defined = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if node.name in STATE_CLASSES:
                if not (defined & _STATE_METHODS):
                    yield self.finding(
                        module,
                        node,
                        f"{node.name} crosses the process boundary but defines "
                        "no __getstate__/__reduce__: default __dict__ pickling "
                        "ships raw arrays and live counters",
                    )
            if node.name in PLAN_CLASSES:
                for item in node.body:
                    if not isinstance(item, ast.AnnAssign):
                        continue
                    if _annotation_mentions(item.annotation, "ndarray"):
                        yield self.finding(
                            module,
                            item,
                            f"{node.name} is a process task plan; an "
                            "ndarray-typed field ships raw data with every "
                            "task — ship a by-path store handle instead",
                        )
                    elif not (defined & _STATE_METHODS) and any(
                        _annotation_mentions(item.annotation, name)
                        for name in LIVE_REFERENCES
                    ):
                        yield self.finding(
                            module,
                            item,
                            f"{node.name} holds a live index by reference but "
                            "defines no __getstate__/__reduce__ to keep it "
                            "from crossing the process boundary",
                        )
