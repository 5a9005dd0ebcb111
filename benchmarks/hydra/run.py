"""hydra benchmark runner.

Two ways in:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process.  The last line of standard output is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
    metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (which
    also writes ``TRACE_hydra.json``).

``run.py [--runs R] [--smoke] [--out BENCH_hydra.json]``
    Every workload, ``R`` untraced runs (seeds ``seed, seed+1, ...``) and one
    traced run each, every run a fresh subprocess; prints every metric by name
    with its unit and writes the result set ``compare.py`` reads.

``run.py --check [--out FILE]`` validates a result set against ``BENCHMARK.json``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import hygiene  # noqa: E402  (must run before NumPy loads its BLAS)

hygiene.prepare()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = hygiene.HERE
ROOT = hygiene.ROOT
TRACE_FILE = "TRACE_hydra.json"
DEFAULT_OUT = "BENCH_hydra.json"
DEFAULT_SEED = 2018
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: sample count a p95 needs so that at least ten samples lie beyond it.
MIN_P95_SAMPLES = 200


@contextmanager
def work_directory(prefix: str):
    """A scratch directory under ``<checkout>/.hydra_work``, removed on the way out."""
    base = ROOT / ".hydra_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=prefix, dir=base))
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run is using it


def child_pids() -> list[int]:
    """Live or unreaped processes whose parent is this one, read from ``/proc``."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8", errors="replace") as handle:
                # "pid (comm) state ppid ...": comm may hold spaces, so split after it.
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue  # ended while we were looking
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The spawn pools are joined by ``shutdown_shared_executors``; what outlives
    them is ``multiprocessing``'s resource tracker, which otherwise ends only
    after this process has and is left to init as an orphan.  Whatever else is
    still a child (a worker of a pool dropped after a break) is terminated,
    then killed, and reaped here.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()  # closes its pipe and waits for it
    except (AttributeError, OSError, ChildProcessError):
        pass
    deadline = time.monotonic() + grace_s
    signalled: set[int] = set()
    while True:
        children = child_pids()
        if not children:
            return
        for pid in children:
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    continue
                if pid not in signalled:
                    os.kill(pid, signal.SIGTERM)
                    signalled.add(pid)
                elif time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
            except (ChildProcessError, ProcessLookupError):
                pass  # reaped by its owner (a Popen or pool) in the meantime
        if time.monotonic() > deadline + grace_s:
            raise SystemExit(f"hydra: processes {children} would not end")
        time.sleep(0.01)


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


# --------------------------------------------------------------------------- #
# One workload, in this process
# --------------------------------------------------------------------------- #
def run_one(args) -> int:
    import layers
    import workloads
    from repro.core.parallel import shutdown_shared_executors
    from spans import Recorder

    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    detail: dict = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                    "smoke": args.smoke, "trace": trace}
    with work_directory(f"{workload.name}-") as workdir:
        # spills and spawn bookkeeping of the library stay inside the checkout too.
        os.environ["TMPDIR"] = str(workdir)
        tempfile.tempdir = str(workdir)
        run = workloads.Run(
            workload=workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=trace,
            smoke=args.smoke,
            workdir=workdir,
            recorder=Recorder(enabled=trace),
            started=_STARTED,
        )
        try:
            outcome = workloads.execute(run)
            finished = time.perf_counter()
            if trace:
                metrics, cells = workloads.traced_layers(run, outcome)
                panel_dir = workdir / "panel"
                panel_dir.mkdir()
                metrics.update(layers.panel(panel_dir, args.seed, args.smoke, run.recorder))
                metrics["process.peak_rss_mb"] = (peak_rss_mb(), "MB")
                detail["cells"] = cells
                negative = [n for n, c in cells.items() if c["indexes.self_ms"] < 0]
                if negative:
                    print(f"hydra: negative indexes.self_ms in {negative}", file=sys.stderr)
            else:
                metrics, samples = workloads.end_to_end(run, outcome, finished)
                detail["samples"] = samples
                detail["cells"] = workloads.cell_summaries(outcome["passes"][False])
        finally:
            shutdown_shared_executors()
            stop_children()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail["result"] = result
    if trace:
        run.recorder.write(Path.cwd() / TRACE_FILE, extra=detail)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(detail, handle)
    for name, cell in detail["cells"].items():
        print(f"{workload.name}  cell {name}: " + "  ".join(
            f"{key} {value:.6g}" for key, value in cell.items() if value is not None))
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        extra = f"  (n={detail['samples'][name]})" if name in detail.get("samples", {}) else ""
        print(f"{workload.name}  {name:<{width}}  {value:14.6g} {unit}{extra}")
    print(f"{workload.name}  attempted {run.attempted}  failed {run.failed}")
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------- #
# Every workload, a fresh subprocess per run
# --------------------------------------------------------------------------- #
def spawn_run(workload: str, seed: int, seconds: float, trace: int, smoke: bool, scratch: Path):
    """One ``run.py --workload`` subprocess; returns its detail document."""
    detail_path = scratch / f"{workload}-{seed}-{trace}.json"
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--detail", str(detail_path)]
    if smoke:
        command.append("--smoke")
    started = time.perf_counter()
    done = subprocess.run(command, cwd=scratch, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"hydra: {workload} seed {seed} trace {trace} exited {done.returncode}")
    with open(detail_path, encoding="utf-8") as handle:
        detail = json.load(handle)
    detail["wall_s"] = wall
    if trace:
        trace_path = scratch / TRACE_FILE
        with open(trace_path, encoding="utf-8") as handle:
            detail["self_time_by_name"] = json.load(handle)["self_time_by_name"]
        trace_path.unlink()
    return detail


def run_suite(args) -> int:
    contract = hygiene.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    seconds = args.seconds if args.seconds is not None else float(contract["run_seconds"])
    document = {"environment": hygiene.describe(), "seconds": seconds, "smoke": args.smoke,
                "workloads": {}}
    with work_directory("suite-") as scratch:
        for name in names:
            runs = []
            for i in range(args.runs):
                detail = spawn_run(name, args.seed + i, seconds, 0, args.smoke, scratch)
                runs.append({"seed": detail["seed"], "wall_s": detail["wall_s"],
                             "samples": detail["samples"], **detail["result"]})
                print(f"{name}: run {i + 1}/{args.runs} seed {detail['seed']} "
                      f"{detail['wall_s']:.1f}s failed {detail['result']['failed']}", flush=True)
            traced = spawn_run(name, args.seed, seconds, 1, args.smoke, scratch)
            print(f"{name}: traced run {traced['wall_s']:.1f}s", flush=True)
            document["workloads"][name] = {
                "runs": runs,
                "traced": {"seed": traced["seed"], "wall_s": traced["wall_s"],
                           "cells": traced["cells"],
                           "self_time_by_name": traced["self_time_by_name"],
                           **traced["result"]},
            }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print_suite(document)
    print(f"result set written to {args.out}")
    failed = sum(r["failed"] for w in document["workloads"].values() for r in w["runs"])
    return 1 if failed else 0


def print_suite(document: dict) -> None:
    """Every metric by name, with its unit: median over the runs (min .. max)."""
    for name, entry in document["workloads"].items():
        runs = entry["runs"]
        print(f"\n== {name}: {len(runs)} runs, attempted {runs[0]['attempted']}, "
              f"failed {sum(r['failed'] for r in runs)}")
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            n = runs[0]["samples"].get(metric)
            print(f"  {metric:<28} {statistics.median(values):14.6g} {first['unit']:<6}"
                  f" ({min(values):.6g} .. {max(values):.6g})" + (f"  n={n}" if n else ""))
        print("  -- per layer (traced run)")
        for metric, entry_ in entry["traced"]["metrics"].items():
            print(f"  {metric:<48} {entry_['value']:14.6g} {entry_['unit']}")


# --------------------------------------------------------------------------- #
# --check
# --------------------------------------------------------------------------- #
def check(path: str) -> int:
    """Validate a result set against ``BENCHMARK.json``; prints every problem."""
    contract = hygiene.load_contract()
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    problems = []
    declared = {"end_to_end": {m["name"]: m["unit"] for m in contract["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in contract["per_layer"]}}
    if not 1 <= len(declared["end_to_end"]) <= 16:
        problems.append("end_to_end must declare 1..16 metrics")
    if not 1 <= len(declared["per_layer"]) <= 128:
        problems.append("per_layer must declare 1..128 metrics")
    for kind in declared.values():
        problems += [f"bad metric name {n!r}" for n in kind if not NAME_PATTERN.match(n)]
    for workload in (w["name"] for w in contract["workloads"]):
        entry = document["workloads"].get(workload)
        if entry is None:
            problems.append(f"{workload}: missing from the result set")
            continue
        groups = [(f"{workload} run {i}", run, "end_to_end") for i, run in enumerate(entry["runs"])]
        groups.append((f"{workload} traced", entry["traced"], "per_layer"))
        for label, run, kind in groups:
            got = run["metrics"]
            for name, unit in declared[kind].items():
                if name not in got:
                    problems.append(f"{label}: {name} missing")
                elif got[name]["unit"] != unit:
                    problems.append(f"{label}: {name} unit {got[name]['unit']!r} != {unit!r}")
                elif not isinstance(got[name]["value"], (int, float)) or got[name]["value"] != got[name]["value"]:
                    problems.append(f"{label}: {name} is not a number")
            problems += [f"{label}: {n} not declared" for n in got if n not in declared[kind]]
            if kind == "end_to_end" and run["samples"].get("query_p95_ms", 0) < MIN_P95_SAMPLES:
                problems.append(f"{label}: query_p95_ms rests on n={run['samples'].get('query_p95_ms')}"
                                f" < {MIN_P95_SAMPLES}")
    for problem in problems:
        print(f"check: {problem}")
    print(f"check: {path}: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run this one workload in-process (driver protocol)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured part; list lengths scale with it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="collections 8x smaller, same code paths")
    parser.add_argument("--runs", type=int, default=3, help="untraced runs per workload (suite mode)")
    parser.add_argument("--out", default=DEFAULT_OUT, help="result set written by suite mode")
    parser.add_argument("--check", action="store_true", help="validate --out against BENCHMARK.json")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args()
    # a polite kill unwinds through the ``finally`` blocks that stop the pools.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.check:
        return check(args.out)
    if args.workload is None:
        return run_suite(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seconds is None:
        args.seconds = float(hygiene.load_contract()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
