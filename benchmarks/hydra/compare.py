"""Compare two hydra result sets: ``compare.py A.json B.json`` (A = parent, B = change).

Per workload x end-to-end metric: each side's median and quartiles, the share
of paired runs (run *i* of A with run *i* of B) that B wins, and a verdict by
the rule of the ``choosing-metrics`` guide (sections 6 and 8):

``regressed``
    B's median is worse than A's by more than the metric's bound.
``unresolved``
    not regressed, but the run-to-run spread (distance between the quartiles as
    a share of the median, the wider of the two sides) exceeds the bound — so
    "no worse than the bound" cannot be shown.  Overridden by ``improved`` when
    every run of B reads better than every run of A.
``improved``
    B wins at least nine tenths of the pairs (ties count for neither side) and
    the medians differ by more than the distance between A's quartiles.
``unchanged``
    everything else.

Exits 1 when any metric regressed or B failed a larger share of its
operations than A; bounds and directions come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys

from hygiene import load_contract


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Verdict and supporting numbers for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0  # positive delta = B is worse
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse_by = sign * (b_med - a_med) / abs(a_med)
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med))
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if worse_by > bound:
        verdict = "regressed"
    elif spread > bound:
        verdict = "improved" if all_better else "unresolved"
    elif worse_by < 0 and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > (a_q3 - a_q1):
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {"a": (a_q1, a_med, a_q3), "b": (b_q1, b_med, b_q3), "worse_by": worse_by,
            "spread": spread, "wins": wins, "pairs": len(pairs), "verdict": verdict}


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    contract = load_contract()
    with open(argv[1], encoding="utf-8") as handle:
        side_a = json.load(handle)["workloads"]
    with open(argv[2], encoding="utf-8") as handle:
        side_b = json.load(handle)["workloads"]
    bad = 0
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in side_a or workload not in side_b:
            print(f"== {workload}: missing from one side")
            bad += 1
            continue
        runs_a, runs_b = side_a[workload]["runs"], side_b[workload]["runs"]
        share_a, share_b = failed_share(runs_a), failed_share(runs_b)
        print(f"== {workload}: runs {len(runs_a)} vs {len(runs_b)}, attempted "
              f"{runs_a[0]['attempted']} vs {runs_b[0]['attempted']}, failed share "
              f"{share_a:.4f} vs {share_b:.4f}")
        if share_b > share_a:
            print("   B failed a larger share of its operations")
            bad += 1
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            row = judge(a, b, metric["better"], metric["bound"])
            bad += row["verdict"] == "regressed"
            print(f"   {name:<28} {metric['unit']:<6}"
                  f" A {row['a'][1]:11.5g} [{row['a'][0]:.5g}, {row['a'][2]:.5g}]"
                  f"  B {row['b'][1]:11.5g} [{row['b'][0]:.5g}, {row['b'][2]:.5g}]"
                  f"  worse by {row['worse_by'] * 100:+6.2f}% (bound {metric['bound'] * 100:g}%)"
                  f"  spread {row['spread'] * 100:5.2f}%  B wins {row['wins']}/{row['pairs']}"
                  f"  {row['verdict']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
