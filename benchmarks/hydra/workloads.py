"""The four hydra workloads: collections, cells, op schedules and measurement.

Protocol (every workload): closed loop, one client; series length 128,
z-normalized random walks, ``k = 10``; every query list is half Synth-Rand
(fresh walks) and half Ctrl (collection series plus 0-2 sigma noise), because
pruning — and therefore which layer does the work — depends on query
difficulty.  Work is fixed, not time: a run executes the identical op sequence
for a given ``--seconds`` (list lengths scale with it), so ``attempted`` is
constant and sample composition is identical run to run.

A *cell* is one method x backend x executor inside a workload.  Cells exist so
that each method carries equal weight: per-cell statistics are combined with a
geometric mean, so a 20 % change in any one cell moves the workload's number
equally (a user runs *one* method).
"""

from __future__ import annotations

import gc
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import geometric_mean

import numpy as np

from repro import Dataset, SimilaritySearchEngine, load_method, save_method
from repro.core.answers import KnnAnswerSet
from repro.core.queries import KnnQuery
from repro.workloads import (
    controlled_workload,
    random_walk,
    random_walk_dataset,
    random_walk_to_file,
    synth_rand_workload,
)

from oracle import Oracle, matches

LENGTH = 128
K = 10
#: ``--seconds`` at which the list lengths below apply; other values scale them.
NOMINAL_SECONDS = 20.0
#: rows of the decoded-block LRU of the compressed backend (16 blocks x 1024).
RCZ_LRU_ROWS = 16 * 1024
USER_BYTES_PER_ROW = 4 * LENGTH
#: Synth-Rand pool size, as a multiple of the queries kept from it.
RAND_POOL = 4


# --------------------------------------------------------------------------- #
# Definitions
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Cell:
    """One method x backend x executor combination."""

    name: str
    method: str
    params: dict = field(default_factory=dict)
    #: which of the workload's collections serves the cell.
    source: str = "main"
    executor: str | None = None
    #: ``workers=`` handed to ``search_batch`` (inter-query chunking).
    batch_workers: int | None = None
    #: timed passes over the single-query list; each query keeps its fastest
    #: pass.  Cells whose queries take milliseconds get several, so that every
    #: cell is timed over about a second of work: cells weigh the same in the
    #: geometric means, so a cell timed over 0.2 s would set the run's noise.
    passes: int = 1
    #: the batch call is repeated this often and the fastest kept, likewise.
    batch_reps: int = 1
    #: the index is built this often and the fastest build kept (a flat scan's
    #: "build" is a 5 ms norm pass: two samples of that are noise).
    build_reps: int = 2
    #: the cell's list length (live-ingest: its extends) as a multiple of the
    #: workload's.  Cheap or erratic cells get longer lists, dear ones shorter,
    #: so that cells cost about the same time and none sets the run's spread.
    list_scale: float = 1.0
    #: the cell's batch list as a multiple of the workload's share of the single
    #: list; past the whole list it wraps around.  For cells whose batch call
    #: would otherwise last a few milliseconds.
    batch_scale: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: rows per collection (``main``, and ``small`` where one exists).
    rows: dict
    #: single-query list length per collection at ``NOMINAL_SECONDS``, before a
    #: cell's ``list_scale``.
    queries: dict
    #: batch list length per collection, likewise (cut from the single list).
    batch: dict
    cells: tuple
    live: bool = False


_TREE = {"leaf_capacity": 500}
_SHARD2 = {"shards": 2, "workers": 2}
#: 8-segment words on the live collection: a 16-segment root (65536 children)
#: puts a handful of series in each leaf at this size, and every leaf is one
#: read through the growable backend — queries take 7x longer for no more signal.
_LIVE_SAX = {"leaf_capacity": 500, "segments": 8}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tree-mem",
            why="in-RAM collection, one index per summarization family: lower-bound "
            "kernels, descent and answer sets do the work; storage is array views",
            rows={"main": 16_000},
            queries={"main": 40},
            batch={"main": 40},
            cells=(
                # half a second of builds in all: each is the fastest of three.
                Cell("isax2p", "isax2+", _TREE, build_reps=3),
                Cell("dstree", "dstree", _TREE, list_scale=3, passes=2, batch_reps=2, build_reps=3),
                # ADS+ refines adaptively; a hard query costs 15 ms or 100 ms depending
                # on how good its approximate answer was: the most erratic cell.
                Cell("adsp", "ads+", _TREE, list_scale=3, build_reps=3),
                Cell("sfa-trie", "sfa-trie", _TREE, list_scale=3, passes=2, batch_reps=2,
                     build_reps=3),
                Cell("vafile", "va+file", build_reps=3),
            ),
        ),
        Workload(
            name="ooc-store",
            why="file-backed .npy and int8 .rcz larger than the decoded-block LRU: "
            "page-ins, block decode, CRC and quantized bounds do the work",
            # main: 20 blocks, 1.25x the decoded-block LRU.  small: 17 blocks, one over
            # the LRU — a DSTree leaf's rows are spread over every block, so each leaf
            # read cycles all 17 through the 16-slot LRU and nothing is ever reused.
            rows={"main": RCZ_LRU_ROWS + 4096, "small": RCZ_LRU_ROWS + 1024},
            queries={"main": 48, "small": 12},
            batch={"main": 24, "small": 4},
            cells=(
                Cell("flat-mmap", "flat", source="main.npy", list_scale=4, passes=2,
                     batch_reps=4, build_reps=8),
                Cell("flat-rcz", "flat", source="main.rcz", list_scale=2, batch_reps=3,
                     build_reps=8),
                Cell("vafile-rcz", "va+file", source="main.rcz"),
                Cell("dstree-mmap", "dstree", _TREE, source="main.npy", list_scale=3),
                # 2000-row leaves: a quarter of the leaf reads, so the cell fits its share
                # of the run; the cliff is the same at any leaf size.  48 queries, so the
                # pooled p95 falls inside this cell's latencies, not in the gap below them.
                Cell("dstree-rcz", "dstree", {"leaf_capacity": 2000}, source="small.rcz",
                     list_scale=4, batch_scale=0.5),
            ),
        ),
        Workload(
            name="shard-fanout",
            why="two shards on two workers, thread and process executors: fan-out, "
            "shared radius, merge, pickling and the warm pool do the work",
            rows={"main": 12_000},
            queries={"main": 34},
            batch={"main": 12},
            cells=tuple(
                Cell(
                    f"sharded-{label}-{executor}",
                    f"sharded:{method}",
                    {**params, **_SHARD2},
                    source="main.npy",
                    executor=executor,
                    batch_workers=2,
                    **repeats,
                )
                for label, method, params, repeats in (
                    # lists stay short enough that the pooled p95 lands on the plateau of
                    # sharded-isax2p-thread's saturated queries, not on a cell boundary.
                    ("flat", "flat", {}, {"passes": 8, "batch_reps": 16, "batch_scale": 8,
                                          "build_reps": 8}),
                    # 24-query batches: the tree cells share one list, so with 12 its
                    # luck of the draw moved all four rates together, by 13 % across seeds.
                    ("dstree", "dstree", {"leaf_capacity": 100},
                     {"passes": 2, "batch_reps": 2, "batch_scale": 2}),
                    ("isax2p", "isax2+", _TREE, {"build_reps": 4, "batch_scale": 2}),
                )
                for executor in ("thread", "process")
            ),
        ),
        Workload(
            name="live-ingest",
            why="growable store: WAL append + fsync-before-ack, checkpoints and "
            "per-series index inserts run beside the reads",
            rows={"main": 16_384},
            queries={"main": 96},
            batch={"main": 96},
            cells=(
                Cell("isax2p", "isax2+", _LIVE_SAX),
                # per-series DSTree insert is ~10x the iSAX cost per row.
                Cell("dstree", "dstree", _TREE, list_scale=0.5, batch_reps=2),
                # workers=1 keeps the cross-shard radius, and so the counts, deterministic.
                Cell("sharded-isax2p", "sharded:isax2+", {**_LIVE_SAX, "shards": 2, "workers": 1}),
            ),
            live=True,
        ),
    )
}

#: live-ingest schedule: rows per extend, and a checkpoint every N-th extend.
EXTEND_ROWS = 128
CHECKPOINT_EVERY = 8


# --------------------------------------------------------------------------- #
# Run state and samples
# --------------------------------------------------------------------------- #
@dataclass
class Run:
    """One benchmark process: its inputs, scratch directory and tallies."""

    workload: Workload
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    workdir: Path
    recorder: object
    started: float
    attempted: int = 0
    failed: int = 0
    #: wall-clock seconds inside measured sections; the rest of the run is set-up.
    measured_s: float = 0.0

    def rows(self, collection: str) -> int:
        rows = self.workload.rows[collection]
        return max(512, rows // 8) if self.smoke else rows

    def scaled(self, count: int, minimum: int = 4) -> int:
        """A list length at this run's ``--seconds``.

        A traced run goes over its lists twice (a plain pass, then a traced
        one), so they are half as long and the run costs about the same.
        """
        seconds = self.seconds / 2 if self.trace else self.seconds
        return max(minimum, round(count * seconds / NOMINAL_SECONDS))

    def tally(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


@dataclass
class CellSamples:
    """Everything measured in one cell (one pass: traced or not)."""

    name: str
    rows: int
    build_s: float = 0.0
    latencies: list = field(default_factory=list)
    physical: list = field(default_factory=list)
    logical: list = field(default_factory=list)
    batch_rates: list = field(default_factory=list)
    index_bytes: int = 0
    save_s: float = 0.0
    #: rows made searchable and the seconds that took (build, or extends + checkpoints).
    ingest_rows: int = 0
    ingest_s: float = 0.0
    extend_latencies: list = field(default_factory=list)
    checkpoint_latencies: list = field(default_factory=list)
    #: traced pass only — per single query.
    store_s: list = field(default_factory=list)
    answers_s: list = field(default_factory=list)
    nodes: list = field(default_factory=list)
    examined: list = field(default_factory=list)
    lower_bounds: list = field(default_factory=list)
    retries: int = 0


class AnswerClock:
    """Seconds spent inside answer-set updates since the last :meth:`take`."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.depth = 0

    def take(self) -> float:
        seconds, self.seconds = self.seconds, 0.0
        return seconds

    def factory(self, k: int) -> "TimedAnswerSet":
        return TimedAnswerSet(k, self)


class TimedAnswerSet(KnnAnswerSet):
    """``KnnAnswerSet`` that charges its update calls to an :class:`AnswerClock`.

    Injected through ``SearchMethod.execution_context(answer_factory=)`` in the
    traced run, so ``core.answers`` is timed from outside.  ``offer_batch`` and
    ``merge`` call ``offer`` internally; the depth counter charges the
    outermost call only.
    """

    def __init__(self, k: int, clock: AnswerClock) -> None:
        super().__init__(k)
        self._clock = clock

    def _timed(self, call, *args, **kwargs):
        clock = self._clock
        if clock.depth:
            return call(*args, **kwargs)
        clock.depth += 1
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            clock.seconds += time.perf_counter() - start
            clock.depth -= 1

    def offer(self, position, squared_distance):
        return self._timed(super().offer, position, squared_distance)

    def offer_batch(self, positions, squared_distances):
        return self._timed(super().offer_batch, positions, squared_distances)

    def merge(self, other, position_offset=0):
        return self._timed(super().merge, other, position_offset=position_offset)


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def make_queries(dataset: Dataset, oracle: Oracle, count: int, seed: int) -> np.ndarray:
    """``count`` queries: Synth-Rand and Ctrl interleaved, as a float32 matrix.

    The Ctrl half is the library's noise ladder (0-2 sigma, evenly spaced).  The
    Synth-Rand half is stratified the same way: from a pool of ``RAND_POOL``
    times as many fresh walks, those at evenly spaced ranks of difficulty (the
    distance to the k-th true neighbour, from ``oracle``) are kept, easiest
    first.  A fresh walk's difficulty varies 20-fold, so an unstratified draw
    of twenty makes the list's mean cost — not the program's speed — what a
    seed changes.

    Interleaving (rand, ctrl, rand, ...) puts the i-th rung of both ladders side
    by side; the warm-up and batch lists are cut from the single-query list as
    evenly spread such pairs (:func:`strided`), so they keep both kinds.
    """
    wanted = count - count // 2
    pool = synth_rand_workload(LENGTH, RAND_POOL * wanted, seed=seed, k=K)
    pool = np.stack([q.series for q in pool.queries])
    difficulty = oracle.knn(pool, K)[1][:, -1]
    ranks = ((np.arange(wanted) + 0.5) * RAND_POOL).astype(np.int64)
    rand = pool[np.argsort(difficulty, kind="stable")[ranks]]
    ctrl = controlled_workload(dataset, count // 2, seed=seed + 1, k=K)
    out = np.empty((count, LENGTH), dtype=np.float32)
    out[0::2] = rand
    out[1::2] = [q.series for q in ctrl.queries]
    return out


def strided(count: int, take: int) -> np.ndarray:
    """About ``take`` indices into a :func:`make_queries` list of ``count``.

    Evenly spread (rand, ctrl) pairs — a plain stride of two would keep the
    Synth-Rand half only.  Past ``count`` the list wraps around.
    """
    if take >= count:
        return np.arange(take) % count
    pairs = max(1, take // 2)
    first = 2 * ((np.arange(pairs) * (count // 2)) // pairs)
    return np.stack([first, first + 1], axis=1).ravel()


def directory_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def close_engine(engine) -> None:
    """Release pools, spills and WAL handles an engine's method and store hold."""
    close = getattr(engine.method, "close", None)
    if close is not None:
        close()
    backend = engine.store.backend
    close = getattr(getattr(backend, "inner", backend), "close", None)
    if close is not None:
        close()


# --------------------------------------------------------------------------- #
# Measurement: frozen collections
# --------------------------------------------------------------------------- #
def timed_search(run: Run, engine, cell_name: str, index: int, query, clock):
    """One closed-loop ``engine.search``: ``(result | None, seconds, answers_s)``.

    With a ``clock`` (traced pass) the call runs under an ``indexes.search``
    span with the timing answer set injected, and the store's measured read
    time and the answer-set time are attached as the span's children;
    ``answers_s`` is ``None`` on an untraced pass.
    """
    if clock is None:
        start = time.perf_counter()
        try:
            result = engine.search(query, k=K)
        except Exception:  # a failed op is counted, never fatal to the run
            traceback.print_exc()
            result = None
        return result, time.perf_counter() - start, None
    recorder = run.recorder
    with recorder.span("indexes.search", op_id=f"{cell_name}/q{index}") as span:
        start = time.perf_counter()
        try:
            with engine.method.execution_context(answer_factory=clock.factory):
                result = engine.search(query, k=K)
        except Exception:
            traceback.print_exc()
            result = None
        seconds = time.perf_counter() - start
    answers = clock.take()
    if result is not None:
        recorder.child(span, "core.storage.read", result.stats.measured_io_seconds)
        recorder.child(span, "core.answers.offer", answers)
    return result, seconds, answers


def record_counts(samples: CellSamples, result, answers_s: float | None) -> None:
    """What one query read and visited (and, traced, where its time went)."""
    stats = result.stats
    samples.physical.append(stats.physical_bytes_read)
    samples.logical.append(stats.bytes_read)
    samples.retries += stats.retries
    if answers_s is not None:
        samples.store_s.append(stats.measured_io_seconds)
        samples.answers_s.append(answers_s)
        samples.nodes.append(stats.nodes_visited)
        samples.examined.append(stats.series_examined)
        samples.lower_bounds.append(stats.lower_bounds_computed)


def single_pass(run: Run, engine, samples: CellSamples, queries, expected, traced: bool) -> None:
    """One timed closed-loop pass: every query once, each checked by the oracle.

    Called once per pass; a query's latency is the fastest of its passes (the
    sandbox's noise only ever adds time), its counts are those of the first.
    """
    clock = AnswerClock() if traced else None
    positions, distances = expected
    first = not samples.latencies
    if first:
        samples.latencies = [math.inf] * len(queries)
    gc.collect()
    began = time.perf_counter()
    for i, query in enumerate(queries):
        result, seconds, answers_s = timed_search(run, engine, samples.name, i, query, clock)
        run.tally(result is not None and matches(result, positions[i], distances[i]))
        if result is not None:
            samples.latencies[i] = min(samples.latencies[i], seconds)
            if first:
                record_counts(samples, result, answers_s)
    run.measured_s += time.perf_counter() - began


def batch_pass(run: Run, engine, cell: Cell, samples: CellSamples, queries, expected) -> None:
    """``engine.search_batch`` over the batch list, ``batch_reps`` times."""
    positions, distances = expected
    gc.collect()
    began = time.perf_counter()
    for _ in range(cell.batch_reps):
        start = time.perf_counter()
        try:
            results = engine.search_batch(queries, k=K, workers=cell.batch_workers)
        except Exception:
            traceback.print_exc()
            results = None
        seconds = time.perf_counter() - start
        if results is None or len(results) != len(queries):
            for _ in queries:
                run.tally(False)
            continue
        samples.batch_rates.append(len(queries) / seconds)
        for i, result in enumerate(results):
            run.tally(matches(result, positions[i], distances[i]))
    run.measured_s += time.perf_counter() - began


def save_index(run: Run, engine, samples: CellSamples, tag: str) -> Path:
    """``save_method`` the cell's index: its file is part of the footprint."""
    path = run.workdir / f"{samples.name}{tag}.idx"
    with run.recorder.span("core.persistence.save", op_id=samples.name):
        start = time.perf_counter()
        save_method(engine.method, path)
        samples.save_s = time.perf_counter() - start
    samples.index_bytes = path.stat().st_size
    return path


def build_engine(run: Run, cell: Cell, dataset: Dataset, samples: CellSamples, traced: bool):
    """Build the cell's index ``build_reps`` times; keep the last, time the fastest."""
    engine = None
    seconds = []
    for _ in range(1 if run.trace else cell.build_reps):
        if engine is not None:
            close_engine(engine)
        engine = SimilaritySearchEngine(dataset, measure_io=traced, executor=cell.executor)
        gc.collect()  # the previous cell's garbage is not this build's cost
        with run.recorder.span("indexes.build", op_id=cell.name):
            start = time.perf_counter()
            engine.build(cell.method, **cell.params)
            seconds.append(time.perf_counter() - start)
    samples.build_s = min(seconds)
    return engine


def measure_cell(run: Run, cell: Cell, dataset: Dataset, lists: dict, traced: bool) -> CellSamples:
    """Build one cell, warm it up, run its passes, save its index, close it."""
    samples = CellSamples(name=cell.name, rows=dataset.count)
    engine = build_engine(run, cell, dataset, samples, traced)
    try:
        if not cell.method.endswith("flat"):
            # a scan builds no index: its 3 ms norm pass would put pure timing
            # noise, at full weight, into the geometric mean of the ingest rates.
            samples.ingest_rows, samples.ingest_s = dataset.count, samples.build_s
        # Untimed warm-up: fills cached node matrices, CRC verified-sets, the
        # decoded-block LRU and (process executor) the workers' index caches.
        with run.recorder.span("warmup", op_id=cell.name):
            for query in lists["warm"]:
                engine.search(query, k=K)
            if not run.trace:
                engine.search_batch(lists["warm"][:2], k=K, workers=cell.batch_workers)
        # a traced run compares one traced pass with one plain pass.
        for _ in range(1 if run.trace else cell.passes):
            single_pass(run, engine, samples, lists["single"], lists["single_expected"], traced)
        samples.latencies = [s for s in samples.latencies if s < math.inf]
        if not run.trace:
            batch_pass(run, engine, cell, samples, lists["batch"], lists["batch_expected"])
        save_index(run, engine, samples, "-t" if traced else "")
    finally:
        close_engine(engine)
    return samples


def frozen_collections(run: Run) -> tuple[dict, int, list]:
    """Generate the workload's collections: ``(sources, user_bytes, files)``.

    A source is an in-RAM :class:`Dataset` or the path of a collection file;
    files are reopened per cell (:func:`open_source`) so that no cell inherits
    the previous cell's decoded-block LRU or mapping.
    """
    workload = run.workload
    sources: dict = {}
    files: list = []
    wanted = {cell.source for cell in workload.cells}
    for offset, name in enumerate(workload.rows):
        rows = run.rows(name)
        seed = run.seed + 1000 * offset
        if name in wanted:
            with run.recorder.span("workloads.generate", op_id=name):
                sources[name] = random_walk_dataset(rows, LENGTH, seed=seed)
            continue
        path = run.workdir / f"{name}.npy"
        with run.recorder.span("workloads.generate", op_id=name):
            written = random_walk_to_file(path, rows, LENGTH, seed=seed)
        sources[f"{name}.npy"] = path
        files += [path, Path(f"{path}.crc")]
        if f"{name}.rcz" in wanted:
            rcz = run.workdir / f"{name}.rcz"
            with run.recorder.span("core.quantize.convert", op_id=name):
                written.to_compressed(rcz)
            sources[f"{name}.rcz"] = rcz
            files.append(rcz)
    user_bytes = sum(run.rows(name) for name in workload.rows) * USER_BYTES_PER_ROW
    return sources, user_bytes, files


def open_source(source) -> Dataset:
    return source if isinstance(source, Dataset) else Dataset.from_file(source, length=LENGTH)


def query_lists(run: Run, sources: dict) -> dict:
    """Per cell: the single, batch and warm-up lists with their oracle answers."""
    workload = run.workload
    oracles: dict = {}
    raw: dict = {}
    lists: dict = {}

    def oracle_for(source: str) -> Oracle:
        # the values the store serves: for .rcz, the dequantized stored values.
        if source not in oracles:
            with run.recorder.span("oracle", op_id=source):
                oracles[source] = Oracle(open_source(sources[source]).values)
        return oracles[source]

    def single_list(name: str, count: int) -> np.ndarray:
        if (name, count) not in raw:
            base = name if name in sources else f"{name}.npy"
            offset = list(workload.rows).index(name)
            with run.recorder.span("workloads.generate", op_id=f"{name}/queries"):
                raw[name, count] = make_queries(open_source(sources[base]), oracle_for(base),
                                                count, seed=run.seed + 1000 * offset + 1)
        return raw[name, count]

    for cell in workload.cells:
        name = cell.source.split(".")[0]
        count = run.scaled(workload.queries[name] * cell.list_scale)
        key = (cell.source, count, cell.batch_scale)
        if key not in lists:
            single = single_list(name, count)
            share = cell.batch_scale * workload.batch[name] / workload.queries[name]
            batch = single[strided(count, max(2, round(count * share)))]
            oracle = oracle_for(cell.source)
            with run.recorder.span("oracle", op_id=cell.source):
                lists[key] = {
                    "single": single,
                    "batch": batch,
                    "warm": single[strided(count, max(4, count // 6))],
                    "single_expected": oracle.knn(single, K),
                    "batch_expected": oracle.knn(batch, K),
                }
        lists[cell.name] = lists[key]
    return lists


def run_frozen(run: Run) -> dict:
    """tree-mem, ooc-store, shard-fanout: build once, then read-only ops."""
    sources, user_bytes, files = frozen_collections(run)
    lists = query_lists(run, sources)
    passes = {}
    for traced in ([False, True] if run.trace else [False]):
        passes[traced] = [
            measure_cell(run, cell, open_source(sources[cell.source]), lists[cell.name], traced)
            for cell in run.workload.cells
        ]
    stored = sum(directory_bytes(p) for p in files if p.exists())
    stored += sum(c.index_bytes for c in passes[False])
    return {"passes": passes, "stored_bytes": stored, "user_bytes": user_bytes}


# --------------------------------------------------------------------------- #
# Measurement: the live collection
# --------------------------------------------------------------------------- #
def measure_live_cell(run: Run, cell: Cell, base: Dataset, plan: dict, traced: bool):
    """One live cell: extend / search / checkpoint schedule, batch, reopen.

    Returns ``(samples, stored_bytes)``; the store directory is the cell's own
    copy, ingested through the WAL with the default fsync-before-ack policy.
    """
    recorder = run.recorder
    extends = max(2, round(plan["extends"] * cell.list_scale))
    root = run.workdir / f"{cell.name}{'-t' if traced else ''}.store"
    with recorder.span("core.growable.create", op_id=cell.name):
        dataset = base.to_growable(root)
    samples = CellSamples(name=cell.name, rows=base.count)
    engine = build_engine(run, cell, dataset, samples, traced)
    clock = AnswerClock() if traced else None
    try:
        with recorder.span("warmup", op_id=cell.name):
            for query in plan["warm"]:
                engine.search(query, k=K)
        gc.collect()
        began = time.perf_counter()
        acked = base.count
        for step in range(extends):
            rows = plan["new_rows"][step * EXTEND_ROWS : (step + 1) * EXTEND_ROWS]
            with recorder.span("engine.extend", op_id=f"{cell.name}/e{step}"):
                start = time.perf_counter()
                try:
                    count = engine.extend(rows)
                except Exception:
                    traceback.print_exc()
                    count = -1
                seconds = time.perf_counter() - start
            acked += EXTEND_ROWS
            run.tally(count == acked)
            samples.extend_latencies.append(seconds)
            result, seconds, answers_s = timed_search(
                run, engine, cell.name, step, plan["single"][step], clock
            )
            positions, distances = plan["expected"][step]
            run.tally(result is not None and matches(result, positions, distances))
            if result is not None:
                samples.latencies.append(seconds)
                record_counts(samples, result, answers_s)
            if (step + 1) % CHECKPOINT_EVERY == 0:
                with recorder.span("engine.checkpoint", op_id=f"{cell.name}/c{step}"):
                    start = time.perf_counter()
                    try:
                        engine.checkpoint()
                        ok = True
                    except Exception:
                        traceback.print_exc()
                        ok = False
                    samples.checkpoint_latencies.append(time.perf_counter() - start)
                run.tally(ok)
        samples.ingest_rows = extends * EXTEND_ROWS
        samples.ingest_s = sum(samples.extend_latencies) + sum(samples.checkpoint_latencies)
        run.measured_s += time.perf_counter() - began
        if not run.trace:
            final = plan["final_expected"][extends]
            batch_pass(run, engine, cell, samples, plan["batch"], final)
        index_path = save_index(run, engine, samples, "-t" if traced else "")
    finally:
        close_engine(engine)
    # Close -> reopen: every acked row must be there and answers must not change.
    with recorder.span("core.growable.reopen", op_id=cell.name):
        reopened = Dataset.from_file(root, length=LENGTH)
        if cell.method.startswith("sharded"):
            # A sharded index saved after tail-routed extends re-attaches its
            # shards on balanced slices and cannot answer (IndexError at this
            # commit), so the reopened *store* is checked through a flat scan.
            engine = SimilaritySearchEngine(reopened)
            engine.build("flat")
            method = engine.method
        else:
            method = load_method(index_path, dataset=reopened)
    try:
        run.tally(reopened.count == acked)
        positions, distances = plan["final_expected"][extends]
        try:
            result = method.knn_exact(KnnQuery(series=plan["batch"][0], k=K))
        except Exception:
            traceback.print_exc()
            result = None
        run.tally(result is not None and matches(result, positions[0], distances[0]))
    finally:
        reopened.backend.close()
    return samples, directory_bytes(root) + samples.index_bytes


def run_live(run: Run) -> dict:
    """live-ingest: writes beside reads on a growable store, one copy per cell."""
    workload = run.workload
    recorder = run.recorder
    rows = run.rows("main")
    extends = run.scaled(workload.queries["main"], minimum=CHECKPOINT_EVERY)
    with recorder.span("workloads.generate", op_id="main"):
        base = random_walk_dataset(rows, LENGTH, seed=run.seed)
        new_rows = random_walk(extends * EXTEND_ROWS, LENGTH, seed=run.seed + 2)
    with recorder.span("oracle", op_id="main"):
        oracle = Oracle(np.vstack([base.values, new_rows]))
    with recorder.span("workloads.generate", op_id="main/queries"):
        # difficulty is ranked against the whole final collection.
        single = make_queries(base, oracle, extends, seed=run.seed + 1)
    batch = single[strided(extends, run.scaled(workload.batch["main"]))]
    with recorder.span("oracle", op_id="main"):
        # search ``step`` runs right after extend ``step``: over the acked prefix.
        expected = []
        for step in range(extends):
            positions, distances = oracle.knn(single[step], K, count=rows + (step + 1) * EXTEND_ROWS)
            expected.append((positions[0], distances[0]))
        shares = {max(2, round(extends * cell.list_scale)) for cell in workload.cells}
        final_expected = {
            count: oracle.knn(batch, K, count=rows + count * EXTEND_ROWS) for count in shares
        }
    plan = {
        "extends": extends,
        "new_rows": new_rows,
        "single": single,
        "batch": batch,
        "warm": single[strided(extends, max(4, extends // 10))],
        "expected": expected,
        "final_expected": final_expected,
    }
    passes = {}
    stored = user_bytes = 0
    for traced in ([False, True] if run.trace else [False]):
        passes[traced] = []
        for cell in workload.cells:
            samples, cell_bytes = measure_live_cell(run, cell, base, plan, traced)
            passes[traced].append(samples)
            if not traced:
                stored += cell_bytes
                user_bytes += (rows + samples.ingest_rows) * USER_BYTES_PER_ROW
    return {"passes": passes, "stored_bytes": stored, "user_bytes": user_bytes}


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def end_to_end(run: Run, outcome: dict, finished: float) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced run, and the sample count behind each."""
    cells = outcome["passes"][False]
    pooled = np.concatenate([np.asarray(c.latencies, dtype=np.float64) for c in cells])
    metrics = {
        "setup_s": (finished - run.started - run.measured_s, "s"),
        "build_s": (sum(c.build_s for c in cells), "s"),
        "query_mean_ms": (geometric_mean(np.mean(c.latencies) for c in cells if c.latencies) * 1e3, "ms"),
        "query_p95_ms": (float(np.percentile(pooled, 95)) * 1e3, "ms"),
        "batch_queries_per_s": (
            geometric_mean(max(c.batch_rates) for c in cells if c.batch_rates), "1/s"),
        "physical_mb_per_query": (
            geometric_mean(np.mean(c.physical) for c in cells if c.physical) / 1e6, "MB"),
        "stored_bytes_per_user_byte": (outcome["stored_bytes"] / outcome["user_bytes"], "ratio"),
        "ingest_rows_per_s": (
            geometric_mean(c.ingest_rows / c.ingest_s for c in cells if c.ingest_s > 0), "1/s"),
    }
    samples = {
        "query_mean_ms": min(len(c.latencies) for c in cells),
        "query_p95_ms": int(pooled.size),
        "batch_queries_per_s": sum(len(c.batch_rates) for c in cells),
    }
    return metrics, samples


def cell_summaries(cells) -> dict:
    """Per-cell view of an untraced pass (printed and kept in the result set)."""
    out = {}
    for c in cells:
        out[c.name] = {
            "queries": len(c.latencies),
            "build_s": c.build_s,
            "query_p50_ms": float(np.median(c.latencies)) * 1e3,
            "query_mean_ms": float(np.mean(c.latencies)) * 1e3,
            "batch_queries_per_s": max(c.batch_rates) if c.batch_rates else None,
            "physical_mb_per_query": float(np.mean(c.physical)) / 1e6,
            "ingest_rows_per_s": c.ingest_rows / c.ingest_s if c.ingest_s > 0 else None,
            "index_bytes": c.index_bytes,
        }
        if c.extend_latencies:
            out[c.name]["extend_p50_ms"] = float(np.median(c.extend_latencies)) * 1e3
            out[c.name]["extend_p95_ms"] = float(np.percentile(c.extend_latencies, 95)) * 1e3
            out[c.name]["checkpoint_mean_ms"] = float(np.mean(c.checkpoint_latencies)) * 1e3
    return out


def traced_layers(run: Run, outcome: dict) -> tuple[dict, dict]:
    """Per-layer metrics read off the traced pass, and the per-cell detail.

    Times are means per single query over the workload's pooled queries, so
    ``indexes.self_ms + core.storage.read_ms + core.answers.offer_ms`` is the
    mean traced query latency: where a query's time goes on this workload.
    """
    plain, traced = outcome["passes"][False], outcome["passes"][True]

    def pooled(attribute):
        return np.concatenate([np.asarray(getattr(c, attribute), dtype=np.float64) for c in traced])

    latency, store, answers = pooled("latencies"), pooled("store_s"), pooled("answers_s")
    off = geometric_mean(np.mean(c.latencies) for c in plain if c.latencies)
    on = geometric_mean(np.mean(c.latencies) for c in traced if c.latencies)
    generate = sum(
        s["end"] - s["start"] for s in run.recorder.spans if s["name"] == "workloads.generate"
    )
    metrics = {
        "workloads.generate_s": (generate, "s"),
        "indexes.self_ms": (float(np.mean(latency - store - answers)) * 1e3, "ms"),
        "core.storage.read_ms": (float(store.mean()) * 1e3, "ms"),
        "core.answers.offer_ms": (float(answers.mean()) * 1e3, "ms"),
        "indexes.nodes_visited": (float(pooled("nodes").mean()), "count"),
        "indexes.series_examined": (float(pooled("examined").mean()), "count"),
        "summarization.lower_bounds": (float(pooled("lower_bounds").mean()), "count"),
        "core.backends.read_amp": (
            float(pooled("physical").sum() / max(1.0, pooled("logical").sum())), "ratio"),
        "indexes.sharded.retries": (float(sum(c.retries for c in traced)), "count"),
        "core.persistence.save_s": (sum(c.save_s for c in traced), "s"),
        "core.persistence.index_bytes_per_user_byte": (
            sum(c.index_bytes for c in traced)
            / (sum(c.rows + (c.ingest_rows if run.workload.live else 0) for c in traced)
               * USER_BYTES_PER_ROW), "ratio"),
        "trace.overhead_pct": ((on / off - 1.0) * 100.0, "%"),
    }
    detail = {}
    for cell in traced:
        lat = np.asarray(cell.latencies, dtype=np.float64)
        sto = np.asarray(cell.store_s, dtype=np.float64)
        ans = np.asarray(cell.answers_s, dtype=np.float64)
        detail[cell.name] = {
            "queries": int(lat.size),
            "query_ms": float(lat.mean()) * 1e3,
            "indexes.self_ms": float(np.mean(lat - sto - ans)) * 1e3,
            "core.storage.read_ms": float(sto.mean()) * 1e3,
            "core.answers.offer_ms": float(ans.mean()) * 1e3,
            "indexes.nodes_visited": float(np.mean(cell.nodes)),
            "indexes.series_examined": float(np.mean(cell.examined)),
            "summarization.lower_bounds": float(np.mean(cell.lower_bounds)),
            "core.backends.read_amp": float(np.sum(cell.physical) / max(1, np.sum(cell.logical))),
            "physical_mb_per_query": float(np.mean(cell.physical)) / 1e6,
            "indexes.build_s": cell.build_s,
            "core.persistence.index_bytes_per_user_byte": cell.index_bytes
            / (cell.rows * USER_BYTES_PER_ROW),
        }
        if cell.extend_latencies:
            detail[cell.name]["indexes.extend_us_per_row"] = (
                sum(cell.extend_latencies) / cell.ingest_rows * 1e6)
            detail[cell.name]["core.growable.checkpoint_ms"] = (
                float(np.mean(cell.checkpoint_latencies)) * 1e3)
    return metrics, detail


def execute(run: Run) -> dict:
    """Run the workload's whole op sequence; returns the raw outcome."""
    os.makedirs(run.workdir, exist_ok=True)
    return run_live(run) if run.workload.live else run_frozen(run)
