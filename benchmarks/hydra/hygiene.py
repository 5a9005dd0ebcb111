"""Environment hygiene for the hydra benchmark.

Imported (and :func:`prepare` called) by ``run.py`` before NumPy or ``repro``
is imported: BLAS thread pins only take effect if they are in the environment
when the BLAS library loads, and the ``REPRO_*`` variables silently change
which executor, worker count or fault plan the library picks.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: the checkout root: this file lives at ``<root>/benchmarks/hydra/``.
ROOT = HERE.parent.parent

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SCRUBBED_VARS = ("REPRO_EXECUTOR", "REPRO_WORKERS", "REPRO_FAULT_PLAN", "REPRO_MP_START")


def prepare() -> None:
    """Pin BLAS to one thread, scrub ``REPRO_*`` and put ``src/`` on the path.

    Exits with code 2 when the program under test is not in this checkout or
    a fault plan is set: a benchmark of injected faults is not a benchmark.
    """
    if os.environ.get("REPRO_FAULT_PLAN", "").strip():
        sys.exit("hydra: refusing to start with REPRO_FAULT_PLAN set")
    pinned = all(os.environ.get(name) == "1" for name in BLAS_VARS)
    if "numpy" in sys.modules and not pinned:
        sys.exit("hydra: NumPy was imported before the BLAS thread pins were set")
    for name in BLAS_VARS:
        os.environ[name] = "1"
    for name in SCRUBBED_VARS:
        os.environ.pop(name, None)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"hydra: no program to measure: {src}/repro is missing\n")
        sys.exit(2)
    sys.path.insert(0, str(src))


def load_contract() -> dict:
    """``BENCHMARK.json``: workload names, metric names, units, directions, bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def describe() -> dict:
    """What the numbers were measured on (recorded next to every result set)."""
    import platform
    import subprocess

    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (KeyError, TypeError):
        pass
    sha = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_pins": {name: os.environ.get(name) for name in BLAS_VARS},
        "scrubbed_variables": list(SCRUBBED_VARS),
    }
