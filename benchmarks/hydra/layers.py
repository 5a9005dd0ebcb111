"""The layer panel of the traced run: direct calls into single layers.

The spans of a workload say where *its* queries spend their time; the panel
times each layer on its own, at one fixed small size, by calling the layer's
public functions directly.  Every traced run executes the same panel, so every
workload reports the same per-layer names and a change to one kernel shows in
its own number whichever workload was traced.  Inputs derive from ``--seed``.

Kernel sizes follow the shape an index uses them at: one query against 4096
candidates of 16 segments / coefficients.
"""

from __future__ import annotations

import pickle
import statistics
import time
from pathlib import Path

import numpy as np

from repro import Dataset, SimilaritySearchEngine, load_method, save_method
from repro.core.answers import KnnAnswerSet
from repro.core.distance import early_abandon_squared, squared_euclidean_batch
from repro.core.storage import SeriesStore
from repro.summarization.eapca import (
    EapcaSummarizer,
    batch_segment_statistics,
    synopses_lower_bounds,
)
from repro.summarization.sax import IsaxSummarizer
from repro.summarization.sfa import SfaSummarizer
from repro.summarization.vaplus import VaPlusSummarizer
from repro.workloads import random_walk, random_walk_dataset, random_walk_to_file

from oracle import Oracle
from workloads import EXTEND_ROWS, K, LENGTH, RCZ_LRU_ROWS, make_queries

CANDIDATES = 4096
SEGMENTS = 16
#: file-backed panel collection: 1.5x the decoded-block LRU, so random reads
#: over ``.rcz`` evict (the read-amplification cliff) yet builds stay short.
STORE_ROWS = RCZ_LRU_ROWS * 3 // 2
#: R*-tree construction is quadratic-ish in Python; the registry panel is small.
REGISTRY_ROWS = 1024
GROWABLE_ROWS = 4096


def median_seconds(call, repeats: int = 7) -> float:
    """Median wall-clock seconds of ``call()`` over ``repeats`` (after one warm-up)."""
    call()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def median_query_ms(engine, queries) -> float:
    samples = []
    for query in queries:
        start = time.perf_counter()
        engine.search(query, k=K)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


# --------------------------------------------------------------------------- #
def summarization(seed: int) -> dict:
    data = random_walk(CANDIDATES, LENGTH, seed=seed).astype(np.float64)
    query = random_walk(1, LENGTH, seed=seed + 1)[0].astype(np.float64)
    out = {}

    isax = IsaxSummarizer(LENGTH, segments=SEGMENTS, cardinality=256)
    symbols = isax.transform_batch(data)
    cards = np.full_like(symbols, 256)
    paa = isax.paa.transform(query)
    out["summarization.sax.transform_us"] = median_seconds(lambda: isax.transform_batch(data))
    out["summarization.sax.mindist_us"] = median_seconds(
        lambda: isax.mindist_paa_to_words_batch(paa, symbols, cards))

    boundaries = EapcaSummarizer(LENGTH, segments=SEGMENTS).boundaries
    means, stds = batch_segment_statistics(data, boundaries)
    q_means, q_stds = (m[0] for m in batch_segment_statistics(query[None, :], boundaries))
    widths = np.diff(boundaries).astype(np.float64)
    # one synopsis per candidate: a node holding exactly that series.
    stacked = (means, means, stds, stds)
    out["summarization.eapca.segment_stats_us"] = median_seconds(
        lambda: batch_segment_statistics(data, boundaries))
    out["summarization.eapca.lower_bounds_us"] = median_seconds(
        lambda: synopses_lower_bounds(q_means, q_stds, widths, stacked))

    sfa = SfaSummarizer(LENGTH, coefficients=SEGMENTS).fit(data)
    words = sfa.transform_batch(data)
    q_dft = sfa.dft_of(query)
    out["summarization.sfa.prefix_lb_us"] = median_seconds(
        lambda: sfa.prefix_lower_bound_batch(q_dft, words))

    vaplus = VaPlusSummarizer(LENGTH, coefficients=SEGMENTS).fit(data)
    cells = vaplus.transform_batch(data)
    q_va = vaplus.dft_of(query)
    out["summarization.vaplus.lower_bound_us"] = median_seconds(
        lambda: vaplus.lower_bound_batch(q_va, cells))
    return {name: (seconds * 1e6, "us") for name, seconds in out.items()}


def answers_and_distance(seed: int) -> dict:
    data = random_walk(CANDIDATES, LENGTH, seed=seed + 2)
    query = random_walk(1, LENGTH, seed=seed + 3)[0].astype(np.float64)
    positions = np.arange(CANDIDATES)
    squared = squared_euclidean_batch(query, data)

    def offer_batch():
        KnnAnswerSet(K).offer_batch(positions, squared)

    left, right = KnnAnswerSet(K), KnnAnswerSet(K)
    left.offer_batch(positions[::2], squared[::2])
    right.offer_batch(positions[1::2], squared[1::2])

    def merge():
        merged = KnnAnswerSet(K)
        merged.merge(left)
        merged.merge(right, position_offset=CANDIDATES)

    threshold = float(np.median(squared))
    rows = data[:256].astype(np.float64)

    def early_abandon():
        for row in rows:
            early_abandon_squared(query, row, threshold)

    return {
        "core.answers.offer_batch_us": (median_seconds(offer_batch) * 1e6, "us"),
        "core.answers.merge_us": (median_seconds(merge) * 1e6, "us"),
        "core.distance.sq_euclid_batch_us": (
            median_seconds(lambda: squared_euclidean_batch(query, data)) * 1e6, "us"),
        "core.distance.early_abandon_us": (median_seconds(early_abandon) / len(rows) * 1e6, "us"),
    }


# --------------------------------------------------------------------------- #
def scan_seconds(store: SeriesStore) -> float:
    start = time.perf_counter()
    for _, block in store.scan_chunks():
        block.sum()  # touch every page: an untouched mmap view reads nothing
    return time.perf_counter() - start


def storage(workdir: Path, seed: int, rows: int, recorder) -> tuple[dict, np.ndarray]:
    """Scan / block-read / decode / verify / convert rates on one collection file."""
    out = {}
    npy_path = workdir / "panel.npy"
    with recorder.span("workloads.generate", op_id="panel"):
        npy = random_walk_to_file(npy_path, rows, LENGTH, seed=seed + 4)
    user_mb = rows * LENGTH * 4 / 1e6

    # integrity: the first scan in this process verifies every CRC block.
    first = scan_seconds(SeriesStore(npy))
    second = scan_seconds(SeriesStore(npy))
    out["core.integrity.first_touch_s"] = (first - second, "s")

    start = time.perf_counter()
    rcz = npy.to_compressed(workdir / "panel.rcz")
    convert = time.perf_counter() - start
    out["core.quantize.convert_rows_per_s"] = (rows / convert, "1/s")
    out["core.quantize.ratio"] = (
        (workdir / "panel.rcz").stat().st_size / npy_path.stat().st_size, "ratio")

    stores = {
        "memory": SeriesStore(Dataset.from_file(npy_path, mmap=False)),
        "mmap": SeriesStore(npy),
        "rcz": SeriesStore(rcz),
    }
    scan_seconds(stores["rcz"])  # verify its blocks once, as above for .npy
    for kind, store in stores.items():
        seconds = statistics.median(scan_seconds(store) for _ in range(3))
        out[f"core.storage.scan_mb_per_s.{kind}"] = (user_mb / seconds, "MB/s")

    rng = np.random.default_rng(seed + 5)
    blocks = [np.sort(rng.choice(rows, size=min(500, rows), replace=False)) for _ in range(5)]
    for kind in ("mmap", "rcz"):
        samples = []
        for block in blocks:
            start = time.perf_counter()
            stores[kind].read_block(block)
            samples.append(time.perf_counter() - start)
        out[f"core.storage.read_block_us.{kind}"] = (statistics.median(samples) * 1e6, "us")

    def decode_all():
        cold = rcz.backend.fork()  # an empty decoded-block LRU
        cold.read_rows(0, rows)

    out["core.backends.rcz_decode_mb_per_s"] = (user_mb / median_seconds(decode_all, 3), "MB/s")

    # the random-read-over-compressed cliff: DSTree leaves over .rcz blocks.
    queries = make_queries(npy, Oracle(npy.values), 4, seed=seed + 6)
    engine = SimilaritySearchEngine(Dataset.from_file(workdir / "panel.rcz"))
    engine.build("dstree", leaf_capacity=500)
    physical = logical = 0
    for query in queries:
        stats = engine.search(query, k=K).stats
        physical += stats.physical_bytes_read
        logical += stats.bytes_read
    out["core.backends.read_amp.dstree-rcz"] = (physical / max(1, logical), "ratio")
    return out, queries


def sharded_and_parallel(workdir: Path, queries) -> dict:
    """Sharded vs unsharded on the same store; executor and persistence costs."""
    from repro.core.parallel import shutdown_shared_executors

    out = {}
    path = workdir / "panel.npy"

    def engine_for(method, executor=None, **params):
        engine = SimilaritySearchEngine(Dataset.from_file(path), executor=executor)
        engine.build(method, **params)
        return engine

    flat = engine_for("flat")
    fanned = engine_for("sharded:flat", shards=2, workers=1)
    out["indexes.sharded.fanout_overhead_ms"] = (
        median_query_ms(fanned, queries) - median_query_ms(flat, queries), "ms")
    fanned.method.close()

    shutdown_shared_executors()  # a cold pool, whatever the traced workload ran before
    tree = {"leaf_capacity": 500}
    plain = engine_for("isax2+", **tree)
    plain.search(queries[0], k=K)
    unsharded_ms = median_query_ms(plain, queries)
    for executor in ("thread", "process"):
        start = time.perf_counter()
        sharded = engine_for("sharded:isax2+", executor=executor, shards=2, workers=2, **tree)
        sharded.search(queries[0], k=K)
        first = time.perf_counter() - start
        sharded_ms = median_query_ms(sharded, queries)
        out[f"indexes.sharded.speedup.sharded-isax2p-{executor}"] = (
            unsharded_ms / sharded_ms, "ratio")
        sharded.method.close()
        if executor == "process":
            # the same build + first search again, now on the warm shared pool.
            start = time.perf_counter()
            again = engine_for("sharded:isax2+", executor=executor, shards=2, workers=2, **tree)
            again.search(queries[0], k=K)
            out["core.parallel.pool_warmup_s"] = (first - (time.perf_counter() - start), "s")
            again.method.close()
    shutdown_shared_executors()

    store = SeriesStore(Dataset.from_file(path))
    out["core.parallel.task_pickle_bytes"] = (
        float(len(pickle.dumps(store.slice(0, store.count // 2)))), "B")

    # inter-query chunking on threads: two chunks of a per-query-loop batch.
    batch = np.vstack([queries, queries])
    dstree = engine_for("dstree", **tree)
    dstree.search_batch(batch, k=K)
    start = time.perf_counter()
    dstree.search_batch(batch, k=K)
    sequential = time.perf_counter() - start
    start = time.perf_counter()
    dstree.search_batch(batch, k=K, workers=2)
    out["core.parallel.batch_chunk_speedup"] = (
        sequential / (time.perf_counter() - start), "ratio")

    index_path = workdir / "panel.idx"
    start = time.perf_counter()
    save_method(plain.method, index_path)
    saved = time.perf_counter()
    load_method(index_path)
    out["core.persistence.load_s"] = (time.perf_counter() - saved, "s")
    return out


def growable(workdir: Path, seed: int, rows: int) -> dict:
    """Store-level ack, checkpoint and reopen; per-row index insert cost."""
    out = {}
    base = random_walk_dataset(rows, LENGTH, seed=seed + 7)
    new_rows = random_walk(16 * EXTEND_ROWS, LENGTH, seed=seed + 8)
    root = workdir / "panel.store"
    store = SeriesStore(base.to_growable(root))
    extends, checkpoints = [], []
    wal_bytes = 0
    for step in range(16):
        chunk = new_rows[step * EXTEND_ROWS : (step + 1) * EXTEND_ROWS]
        start = time.perf_counter()
        store.extend(chunk)
        extends.append(time.perf_counter() - start)
        if step == 7:
            wal_bytes = (root / "wal.log").stat().st_size  # eight extends logged
        if step in (7, 11):
            start = time.perf_counter()
            store.checkpoint()
            checkpoints.append(time.perf_counter() - start)
    out["core.growable.store_extend_ms"] = (statistics.median(extends) * 1e3, "ms")
    out["core.growable.checkpoint_ms"] = (statistics.median(checkpoints) * 1e3, "ms")
    out["core.wal.bytes_per_user_byte"] = (wal_bytes / (8 * EXTEND_ROWS * LENGTH * 4), "ratio")
    store.backend.close()
    # four extends are still only in the log: reopening replays them.
    start = time.perf_counter()
    reopened = Dataset.from_file(root, length=LENGTH)
    out["core.growable.reopen_s"] = (time.perf_counter() - start, "s")
    if reopened.count != rows + 16 * EXTEND_ROWS:
        raise RuntimeError("panel: an acked row was lost on reopen")
    reopened.backend.close()

    for label, method in (("isax2p", "isax2+"), ("dstree", "dstree")):
        dataset = base.to_growable(workdir / f"panel-{label}.store")
        engine = SimilaritySearchEngine(dataset)
        engine.build(method, leaf_capacity=500)
        start = time.perf_counter()
        for step in range(4):
            engine.extend(new_rows[step * EXTEND_ROWS : (step + 1) * EXTEND_ROWS])
        seconds = time.perf_counter() - start
        out[f"indexes.extend_us_per_row.{label}"] = (seconds / (4 * EXTEND_ROWS) * 1e6, "us")
        dataset.backend.close()
    return out


def registry(seed: int, rows: int) -> dict:
    """The methods no workload cell covers, so a change to them still shows."""
    out = {}
    dataset = random_walk_dataset(rows, LENGTH, seed=seed + 9)
    queries = make_queries(dataset, Oracle(dataset.values), 6, seed=seed + 10)
    for layer, label, method in (
        ("indexes", "mtree", "m-tree"),
        ("indexes", "rstartree", "r*-tree"),
        ("indexes", "stepwise", "stepwise"),
        ("sequential", "ucr-suite", "ucr-suite"),
        ("sequential", "mass", "mass"),
    ):
        engine = SimilaritySearchEngine(dataset)
        engine.build(method)
        engine.search(queries[0], k=K)
        out[f"{layer}.query_ms.{label}"] = (median_query_ms(engine, queries), "ms")
    return out


def panel(workdir: Path, seed: int, smoke: bool, recorder) -> dict:
    """Every panel metric as ``name -> (value, unit)``."""
    shrink = 8 if smoke else 1
    out = {}
    with recorder.span("panel.summarization"):
        out.update(summarization(seed))
    with recorder.span("panel.answers_distance"):
        out.update(answers_and_distance(seed))
    with recorder.span("panel.storage"):
        stored, queries = storage(workdir, seed, STORE_ROWS // shrink, recorder)
        out.update(stored)
    with recorder.span("panel.sharded_parallel"):
        out.update(sharded_and_parallel(workdir, queries))
    with recorder.span("panel.growable"):
        out.update(growable(workdir, seed, GROWABLE_ROWS // shrink))
    with recorder.span("panel.registry"):
        out.update(registry(seed, REGISTRY_ROWS // (2 if smoke else 1)))
    return out
