"""counter-conservation: every accounted read primitive moves the counters.

The paper's evaluation is counter-driven (random accesses, sequential
pages, bytes), and PRs 3–9 hardened a conservation law around it: the
counters for a piece of work are identical whatever backend, chunk size,
worker count, or executor performed it.  That only holds because every
read primitive on ``SeriesStore`` charges the counters exactly once —
directly, via ``_account_scan``, or by delegating to another accounted
primitive.  ``peek``/``peek_chunks`` are exempt *by design*: they re-read
rows a build pass already paid for with its explicit scan.

A read primitive that forgets its accounting silently breaks every
cross-backend and thread-vs-process equality suite downstream, so this
rule checks the method bodies statically.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..linter import Finding, ModuleContext, Rule, register_rule

#: SeriesStore methods that must account (peek/peek_chunks exempt by design).
READ_PRIMITIVES = {
    "scan",
    "scan_chunks",
    "scan_blocks",
    "scan_quantized_chunks",
    "read_groups",
    "read_block",
    "read_contiguous",
}


def _is_self_attribute(node: ast.expr, attribute: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attribute
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _accounts(method: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(method):
        # self._account_*(...)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                if func.attr.startswith("_account"):
                    return True
                # delegation to another accounted primitive
                if func.attr in READ_PRIMITIVES and func.attr != method.name:
                    return True
        # self.counter.<field> += ... (or an explicit assignment)
        if isinstance(node, (ast.AugAssign, ast.Assign)):
            targets = [node.target] if isinstance(node, ast.AugAssign) else node.targets
            for target in targets:
                if isinstance(target, ast.Attribute) and _is_self_attribute(
                    target.value, "counter"
                ):
                    return True
    return False


@register_rule
class CounterConservationRule(Rule):
    name = "counter-conservation"
    severity = "error"
    description = (
        "SeriesStore read primitives must charge the access counters "
        "(peek/peek_chunks exempt by design)"
    )
    invariant = (
        "Counter conservation (PRs 3-9): identical counters for identical "
        "work on any backend/chunk size/worker count/executor — every read "
        "primitive accounts exactly once, directly or by delegation."
    )

    def applies_to(self, module: ModuleContext) -> bool:
        return module.module_is("core", "storage.py")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.ClassDef) and node.name == "SeriesStore"):
                continue
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name not in READ_PRIMITIVES:
                    continue
                if not _accounts(item):
                    yield self.finding(
                        module,
                        item,
                        f"read primitive {item.name}() moves no access "
                        "counters: charge self.counter (or delegate to an "
                        "accounted primitive) so counter conservation holds "
                        "across backends and executors",
                    )
