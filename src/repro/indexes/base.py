"""Common interface for every similarity-search method in the library.

A :class:`SearchMethod` wraps a :class:`~repro.core.storage.SeriesStore` and
answers exact (and, where supported, ng-approximate) whole-matching k-NN
queries, while reporting the accounting structures the paper's evaluation is
built on (:class:`~repro.core.stats.QueryStats`,
:class:`~repro.core.stats.IndexStats`).

Every method has one construction path — :meth:`SearchMethod._build` over the
whole collection — and, where it maintains one, one insert path for rows that
arrive later: :meth:`SearchMethod._insert_block`, reached through
:meth:`SearchMethod.extend` and driven down a tree by :func:`route_batch`.
"""

from __future__ import annotations

import abc
import heapq
import threading
import time
from contextlib import contextmanager

import numpy as np

from ..core.answers import KnnAnswerSet, Neighbor, RangeAnswerSet
from ..core.distance import squared_euclidean_batch
from ..core.queries import KnnQuery, RangeQuery
from ..core.quantize import quantized_lower_bounds
from ..core.series import SERIES_DTYPE
from ..core.stats import AccessCounter, IndexStats, QueryStats
from ..core.storage import SeriesStore

__all__ = ["SearchMethod", "SearchResult", "RangeSearchResult", "route_batch"]


def route_batch(root, count: int, leaf_capacity: int, descend, deliver) -> None:
    """Route rows ``0..count-1`` of a summarized batch down a tree, one visit
    per node, leaving exactly the tree that inserting them one by one leaves.

    ``descend(node, rows)`` returns an internal node's ``(child, rows)``
    groups (``rows`` are ascending batch indices, i.e. arrival order);
    ``deliver(leaf, rows)`` stores rows in a leaf and splits it if that
    overflows it.  A leaf is only ever handed rows up to one past its
    capacity — the row whose arrival splits it on the per-row path — and the
    rest of its group then continues through the children the split made.  A
    leaf its split had to leave whole is fed one row at a time, so the split
    is re-attempted after each, as it is per row.
    """
    pending = [(root, np.arange(count))]
    while pending:
        node, rows = pending.pop()
        if not node.is_leaf:
            pending.extend(descend(node, rows))
            continue
        room = max(1, leaf_capacity + 1 - node.size)
        deliver(node, rows[:room])
        if rows.size > room:
            pending.append((node, rows[room:]))


class SearchResult:
    """Answers plus per-query accounting returned by every method."""

    def __init__(self, neighbors: list[Neighbor], stats: QueryStats) -> None:
        self.neighbors = neighbors
        self.stats = stats

    @property
    def nearest(self) -> Neighbor:
        if not self.neighbors:
            raise ValueError("the result set is empty")
        return self.neighbors[0]

    def positions(self) -> list[int]:
        return [n.position for n in self.neighbors]

    def distances(self) -> list[float]:
        return [n.distance for n in self.neighbors]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SearchResult(neighbors={self.neighbors!r})"


class RangeSearchResult:
    """Answers plus accounting for an r-range query."""

    def __init__(self, answers: RangeAnswerSet, stats: QueryStats) -> None:
        self.answers = answers
        self.stats = stats

    @property
    def neighbors(self) -> list[Neighbor]:
        return self.answers.neighbors()

    def positions(self) -> list[int]:
        return [n.position for n in self.neighbors]

    def distances(self) -> list[float]:
        return [n.distance for n in self.neighbors]

    def __len__(self) -> int:
        return self.answers.size


class SearchMethod(abc.ABC):
    """Abstract base class for the ten evaluated methods.

    Lifecycle::

        method = SomeMethod(store, **parameters)
        method.build()                    # index construction / preprocessing
        result = method.knn_exact(query)  # exact whole-matching search
    """

    #: short name used by the registry and the reports ("isax2+", "dstree", ...)
    name: str = "method"
    #: whether the method builds an auxiliary structure (False for UCR Suite).
    is_index: bool = True
    #: whether the method supports ng-approximate search.
    supports_approximate: bool = False

    def __init__(self, store: SeriesStore, build_chunk_rows: int | None = None) -> None:
        if build_chunk_rows is not None and int(build_chunk_rows) <= 0:
            raise ValueError("build_chunk_rows must be positive or None")
        # Thread-local execution context (set before the store property below).
        self._context = threading.local()
        self.store = store
        #: rows per streamed build chunk (None = the store's default chunk).
        #: Builds stream the collection in chunks of this many rows, so
        #: peak build residency is one chunk plus the summaries — the chunk
        #: size trades sequential-pass granularity for resident bytes and
        #: never changes the built index (chunking is row-local).
        self.build_chunk_rows = None if build_chunk_rows is None else int(build_chunk_rows)
        self.index_stats = IndexStats(method=self.name)
        self._built = False

    # -- parallel execution context ---------------------------------------------
    # Search code is read-only with respect to the index structure (lazily
    # cached node matrices are idempotent, so racing builds are benign under
    # the GIL), which makes concurrent queries safe *except* for the shared
    # access accounting.  Workers therefore run under an execution context
    # that swaps in a forked store (same dataset, private counter) for the
    # current thread only; ``self.store`` resolves through it transparently,
    # so no method-specific search code needs to know about threading.

    @property
    def store(self) -> SeriesStore:
        override = getattr(self._context, "store", None)
        return self._base_store if override is None else override

    @store.setter
    def store(self, value: SeriesStore | None) -> None:
        self._base_store = value
        self._on_store_attached(value)

    def _on_store_attached(self, store: SeriesStore | None) -> None:
        """Hook run whenever the base store is (re-)attached (persistence)."""

    @contextmanager
    def execution_context(self, store: SeriesStore | None = None, answer_factory=None):
        """Run the calling thread's searches under worker-local state.

        ``store`` substitutes a forked store so access accounting is private
        to this worker; ``answer_factory`` substitutes the k-NN answer-set
        constructor (the sharded wrapper injects sets wired to a cross-shard
        shared pruning radius).  Both apply to the current thread only and are
        restored on exit, so concurrent workers compose without interference.
        """
        ctx = self._context
        previous = (getattr(ctx, "store", None), getattr(ctx, "answer_factory", None))
        if store is not None:
            ctx.store = store
        if answer_factory is not None:
            ctx.answer_factory = answer_factory
        try:
            yield self
        finally:
            ctx.store, ctx.answer_factory = previous

    def _make_answer_set(self, k: int) -> KnnAnswerSet:
        """The k-NN answer set for one exact search (context-overridable)."""
        factory = getattr(self._context, "answer_factory", None)
        return KnnAnswerSet(k) if factory is None else factory(k)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_context", None)  # thread-local state is not picklable
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._context = threading.local()

    # -- construction -----------------------------------------------------------
    def build(self) -> IndexStats:
        """Build the index (or perform the method's preprocessing step)."""
        before = self.store.counter_snapshot()
        start = time.perf_counter()
        self._build()
        elapsed = time.perf_counter() - start
        delta = self.store.since(before)
        self.index_stats.method = self.name
        self.index_stats.build_cpu_seconds = elapsed
        self.index_stats.sequential_pages = delta.sequential_pages
        self.index_stats.random_accesses = delta.random_accesses
        self._collect_footprint()
        self._built = True
        return self.index_stats

    @abc.abstractmethod
    def _build(self) -> None:
        """Method-specific construction over the whole collection (the one
        construction path; rows that arrive later go through :meth:`extend`)."""

    def append(self, position: int) -> None:
        """Insert one more series from the store: the one-row :meth:`extend`."""
        self.extend(int(position), int(position) + 1)

    def extend(self, start: int, stop: int | None = None) -> int:
        """Insert store rows ``[start, stop)`` into a *built* index.

        The live-ingest path: after ``store.extend(rows)`` lands new rows,
        ``method.extend(old_count)`` makes them searchable without a rebuild.
        ``stop`` defaults to the store's current count.  The rows arrive in
        RSS-bounded float64 blocks at :meth:`_insert_block`, which the methods
        that maintain an insert path implement; however a range is cut into
        calls, the index is the one per-row inserts would have produced.
        Returns the number of rows inserted.
        """
        self._require_built()
        start = int(start)
        stop = self.store.count if stop is None else int(stop)
        if not (0 <= start <= stop <= self.store.count):
            raise ValueError(
                f"extend range [{start}, {stop}) out of bounds for "
                f"{self.store.count} rows"
            )
        # build_chunk_rows=None means "store default" for scans; here any
        # RSS-bounded block size works, so fall back to a few thousand rows.
        chunk_rows = self.build_chunk_rows or 4096
        for block_start in range(start, stop, chunk_rows):
            block = self.store.peek(block_start, min(stop, block_start + chunk_rows))
            self._insert_block(block_start, block.astype(np.float64))
        return stop - start

    def _insert_block(self, start: int, block: np.ndarray) -> None:
        """Insert the float64 rows ``block`` (store positions ``start``...)."""
        raise NotImplementedError(f"{self.name} does not support appends")

    def _collect_footprint(self) -> None:
        """Populate node counts / sizes in :attr:`index_stats` (optional)."""

    @property
    def is_built(self) -> bool:
        return self._built

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError(f"{self.name}: build() must be called before searching")

    # -- search -------------------------------------------------------------------
    def _charge_delta(self, stats: QueryStats, delta: AccessCounter) -> None:
        """Charge a store-counter delta to one query's stats."""
        stats.random_accesses += delta.random_accesses
        stats.sequential_pages += delta.sequential_pages
        stats.bytes_read += delta.bytes_read
        stats.physical_bytes_read += delta.physical_bytes_read
        stats.measured_io_seconds += delta.measured_io_seconds
        stats.retries += delta.retries

    def _package_result(self, answers: KnnAnswerSet, stats: QueryStats) -> SearchResult:
        neighbors = answers.neighbors()
        if neighbors:
            stats.answer_distance = neighbors[0].distance
        return SearchResult(neighbors, stats)

    def knn_exact(self, query: KnnQuery) -> SearchResult:
        """Answer an exact k-NN query, with timing and access accounting."""
        self._require_built()
        before = self.store.counter_snapshot()
        stats = QueryStats(dataset_size=self.store.count)
        start = time.perf_counter()
        answers = self._knn_exact(np.asarray(query.series, dtype=np.float64), query.k, stats)
        stats.cpu_seconds = time.perf_counter() - start
        self._charge_delta(stats, self.store.since(before))
        return self._package_result(answers, stats)

    def knn_exact_batch(self, queries: np.ndarray, k: int = 1) -> list[SearchResult]:
        """Answer many exact k-NN queries in one call.

        ``queries`` is a ``(Q, length)`` array (a single 1-D query is
        accepted).  Returns one :class:`SearchResult` per query, in order,
        with exactly the answers :meth:`knn_exact` would return.

        The work happens in the :meth:`_batch_answer_sets` seam: the base
        implementation loops the per-query search, so every method supports
        the batch API out of the box; scan-based methods override the seam
        with a true vectorized implementation that amortizes the data pass and
        the distance kernel over the whole query batch (one ``(Q, N)``
        distance-matrix tile pass instead of ``Q`` separate scans), and the
        sharded wrapper overrides it to fan the batch out across shards.
        """
        self._require_built()
        qs = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        answer_sets, stats_list = self._batch_answer_sets(qs, k)
        return [
            self._package_result(answers, stats)
            for answers, stats in zip(answer_sets, stats_list)
        ]

    def _batch_answer_sets(
        self, queries: np.ndarray, k: int
    ) -> tuple[list[KnnAnswerSet], list[QueryStats]]:
        """Per-query answer sets and stats for an exact batch (internal seam).

        Returning raw answer sets (squared distances) rather than packaged
        results lets the sharded wrapper merge shard answers without a lossy
        sqrt round-trip.  The default is the per-query loop with per-query
        timing and accounting — exactly what looping :meth:`knn_exact`
        produces (queries pass through the collection dtype first, just as
        :class:`~repro.core.queries.KnnQuery` coerces them).

        Contract for overrides: create exactly one answer set per query, in
        query order, via :meth:`_make_answer_set` — the sharded wrapper wires
        per-query shared pruning radii through that factory and relies on the
        call order to match sets to queries.
        """
        answer_sets: list[KnnAnswerSet] = []
        stats_list: list[QueryStats] = []
        for q in queries:
            series = np.asarray(np.asarray(q, dtype=SERIES_DTYPE), dtype=np.float64)
            before = self.store.counter_snapshot()
            stats = QueryStats(dataset_size=self.store.count)
            start = time.perf_counter()
            answers = self._knn_exact(series, k, stats)
            stats.cpu_seconds = time.perf_counter() - start
            self._charge_delta(stats, self.store.since(before))
            answer_sets.append(answers)
            stats_list.append(stats)
        return answer_sets, stats_list

    def _streamed_norms(self, chunk_rows: int | None = None) -> np.ndarray:
        """Candidate squared norms in one streamed sequential pass.

        Chunked so the float64 staging buffer — and, on the mmap backend, the
        resident pages of the raw file — stay bounded by the chunk size
        regardless of the collection size.  Scan-based methods call this at
        build time and feed the result to the tiled scans below.
        """
        if chunk_rows is None:
            chunk_rows = self.build_chunk_rows
        norms = np.empty(self.store.count, dtype=np.float64)
        for start, block in self.store.scan_chunks(chunk_rows=chunk_rows):
            b = block.astype(np.float64)
            norms[start : start + b.shape[0]] = np.einsum("ij,ij->i", b, b)
        return norms

    @staticmethod
    def _tile_norms(
        norms: np.ndarray | None, block: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Squared norms for one float64 tile: the precomputed slice, or — when
        the method was built without norms — computed on the fly (per-row, so
        the values are identical either way)."""
        if norms is None:
            return np.einsum("ij,ij->i", block, block)
        return norms[start:stop]

    def _tiled_batch_scan(
        self,
        queries: np.ndarray,
        k: int,
        tile: int,
        norms: np.ndarray | None,
        dots_for,
    ) -> tuple[list[KnnAnswerSet], list[QueryStats]]:
        """Shared driver for vectorized batch scans over the raw data.

        One sequential pass in tiles of ``tile`` series; ``dots_for(block)``
        returns the ``(Q, tile)`` dot products of every query against the
        (float64) tile, and squared distances follow from the norm-expansion
        identity ``||q - c||^2 = ||q||^2 + ||c||^2 - 2 <q, c>``.  ``norms``
        are the precomputed candidate squared norms (computed on the fly when
        the method was built without them).  Accounting is amortized over the
        batch via :meth:`_amortized_batch_stats`.

        On a store whose backend keeps a quantized representation (the
        compressed backend) the pass automatically runs as a two-phase pruned
        scan — quantized filter, full-precision refinement of surviving tiles
        — with byte-identical answers (:meth:`_tiled_pruned_batch_scan`).
        """
        if self.store.supports_quantized_scan:
            return self._tiled_pruned_batch_scan(queries, k, tile, norms, dots_for)
        before = self.store.counter_snapshot()
        start_time = time.perf_counter()

        q_norms = np.einsum("ij,ij->i", queries, queries)
        answer_sets = [self._make_answer_set(k) for _ in range(queries.shape[0])]
        # One streamed pass in tiles: residency stays O(tile) on every backend
        # (the mmap backend drops each consumed tile's pages), with accounting
        # identical to a scan()-then-slice pass.
        for start, raw in self.store.scan_chunks(chunk_rows=tile):
            stop = start + raw.shape[0]
            block = raw.astype(np.float64)
            tile_norms = self._tile_norms(norms, block, start, stop)
            distances = (
                q_norms[:, np.newaxis] + tile_norms[np.newaxis, :] - 2.0 * dots_for(block)
            )
            np.clip(distances, 0.0, None, out=distances)
            positions = np.arange(start, stop)
            for answers, row in zip(answer_sets, distances):
                answers.offer_batch(positions, row)

        elapsed = time.perf_counter() - start_time
        delta = self.store.since(before)
        return answer_sets, self._amortized_batch_stats(len(answer_sets), elapsed, delta)

    def _tile_survives_filter(
        self, parts, queries: np.ndarray, thresholds: np.ndarray
    ) -> bool:
        """Whether a quantized tile may still hold an answer for any query.

        ``parts`` is one tile's integer representation
        (``[(codes, scale, shift), ...]``) and ``thresholds`` the per-query
        pruning radii (current worst squared distances).  The tile is pruned
        only when the *sound* quantized lower bound of every row strictly
        exceeds every query's radius — a pruned row therefore cannot enter the
        final answer set, not even through the positional tie-break, so
        skipping its full-precision read changes nothing.  Any non-finite
        threshold (an answer set not yet full) keeps the tile.
        """
        if not np.all(np.isfinite(thresholds)):
            return True
        remaining = np.full(thresholds.shape[0], np.inf)
        for codes, scale, shift in parts:
            bounds = quantized_lower_bounds(codes, scale, shift, queries)
            np.minimum(remaining, bounds.min(axis=1), out=remaining)
            if np.any(remaining <= thresholds):
                return True
        return bool(np.any(remaining <= thresholds))

    def _tiled_pruned_batch_scan(
        self,
        queries: np.ndarray,
        k: int,
        tile: int,
        norms: np.ndarray | None,
        dots_for,
    ) -> tuple[list[KnnAnswerSet], list[QueryStats]]:
        """Two-phase variant of :meth:`_tiled_batch_scan` (compressed backend).

        Phase 1 streams the quantized representation
        (:meth:`~repro.core.storage.SeriesStore.scan_quantized_chunks`) and
        bounds every tile against the batch's tightening pruning radii; phase
        2 fetches full precision only for surviving tiles — a skip-sequential
        :meth:`~repro.core.storage.SeriesStore.read_contiguous` each, like
        VA+file refinement — and runs the *identical* distance kernel at the
        identical tile boundaries the plain pass uses, so the answers are
        byte-identical while the physical bytes moved drop several-fold.
        """
        before = self.store.counter_snapshot()
        start_time = time.perf_counter()

        q_norms = np.einsum("ij,ij->i", queries, queries)
        answer_sets = [self._make_answer_set(k) for _ in range(queries.shape[0])]
        examined = 0
        for start, stop, parts in self.store.scan_quantized_chunks(chunk_rows=tile):
            thresholds = np.array([a.worst_squared_distance for a in answer_sets])
            if not self._tile_survives_filter(parts, queries, thresholds):
                continue
            raw = self.store.read_contiguous(start, stop)
            examined += stop - start
            block = raw.astype(np.float64)
            tile_norms = self._tile_norms(norms, block, start, stop)
            distances = (
                q_norms[:, np.newaxis] + tile_norms[np.newaxis, :] - 2.0 * dots_for(block)
            )
            np.clip(distances, 0.0, None, out=distances)
            positions = np.arange(start, stop)
            for answers, row in zip(answer_sets, distances):
                answers.offer_batch(positions, row)

        elapsed = time.perf_counter() - start_time
        delta = self.store.since(before)
        return answer_sets, self._amortized_batch_stats(
            len(answer_sets),
            elapsed,
            delta,
            examined=examined,
            lower_bounds=self.store.count,
        )

    def _amortized_batch_stats(
        self,
        count: int,
        elapsed: float,
        delta,
        examined: int | None = None,
        lower_bounds: int = 0,
    ) -> list[QueryStats]:
        """Per-query stats for answers produced by one shared batch pass.

        The measured CPU time and the access counts of the shared scan are
        amortized evenly over the batch (integer counters distribute their
        remainder to the first queries so batch totals are preserved) — this
        is the accounting story of batched execution: ``Q`` queries share a
        single pass over the data.  ``examined`` overrides the series-examined
        count per query (the pruned scans refine only survivors) and
        ``lower_bounds`` records the filter bounds each query evaluated.
        """
        stats_list = []
        for i in range(count):

            def share(total: int) -> int:
                return total // count + (1 if i < total % count else 0)

            stats = QueryStats(dataset_size=self.store.count)
            stats.cpu_seconds = elapsed / count
            stats.series_examined = self.store.count if examined is None else examined
            stats.lower_bounds_computed = lower_bounds
            stats.random_accesses = share(delta.random_accesses)
            stats.sequential_pages = share(delta.sequential_pages)
            stats.bytes_read = share(delta.bytes_read)
            stats.physical_bytes_read = share(delta.physical_bytes_read)
            stats.measured_io_seconds = delta.measured_io_seconds / count
            stats.retries = share(delta.retries)
            stats_list.append(stats)
        return stats_list

    # -- fused refinement ----------------------------------------------------------
    # Every refinement step — the leaves a traversal decided to visit, the
    # survivors of a filter pass — is one store gather, one distance kernel
    # call and one answer-set offer, however many physical blocks ("groups")
    # it spans; the store still charges each group as its own block read.

    def _scan_groups(self, positions: np.ndarray, sizes, query, answers, stats: QueryStats) -> None:
        """Refine ``positions``, read as consecutive groups of ``sizes`` rows."""
        block = self.store.read_groups(positions, sizes)
        answers.offer_batch(positions, squared_euclidean_batch(query, block))
        stats.series_examined += int(positions.size)

    def _scan_runs(self, positions: np.ndarray, query, answers, stats: QueryStats) -> None:
        """Skip-sequential refinement of ascending ``positions``: every run of
        consecutive rows is one group (one seek), as ADS+ SIMS and the VA+file
        read the raw file."""
        starts = np.flatnonzero(np.diff(positions) > 1) + 1
        sizes = np.diff(starts, prepend=0, append=positions.size)
        self._scan_groups(positions, sizes, query, answers, stats)

    def _scan_leaves(self, leaves: list, query, answers, stats: QueryStats) -> None:
        """Refine the series of index ``leaves``; each leaf is one group."""
        blocks = [leaf.position_block() for leaf in leaves]
        sizes = [block.size for block in blocks]
        visited = len(sizes) - sizes.count(0)
        if not visited:
            return
        positions = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        self._scan_groups(positions, sizes, query, answers, stats)
        stats.leaves_visited += visited
        stats.nodes_visited += visited

    def _best_first(
        self, heap: list, expand, start_leaf, query: np.ndarray, answers, stats: QueryStats
    ) -> None:
        """Bounded best-first traversal of a ``(bound, tiebreak, node)`` heap.

        ``expand(node)`` pushes an internal node's surviving children;
        ``start_leaf`` was scanned by the approximate descent and is skipped.
        Consecutive heap-top leaves whose bound still passes the best-so-far
        are scanned as one group of at most ``leaf_capacity`` series — the
        unit of I/O the index was built with.  A serial traversal re-checks
        the best-so-far after every leaf, so it scans the same leaves except
        that it may stop inside the *final* group: the coalesced traversal
        examines fewer than ``leaf_capacity`` series more, and returns the
        same answers (extra candidates never displace a true neighbor).
        """
        while heap:
            bound, _, node = heapq.heappop(heap)
            worst = answers.worst_squared_distance
            # Strict >: a node whose bound ties the k-th distance may still
            # hold an equal-distance answer that wins the positional tie-break.
            if bound * bound > worst:
                break
            if not node.is_leaf:
                stats.nodes_visited += 1
                expand(node)
                continue
            leaves = [] if node is start_leaf else [node]
            room = self.leaf_capacity - (node.size if leaves else 0)
            while heap:
                bound, _, node = heap[0]
                if not node.is_leaf or bound * bound > worst:
                    break
                size = node.size
                if size > room:
                    break
                heapq.heappop(heap)
                if node is not start_leaf:
                    leaves.append(node)
                    room -= size
            self._scan_leaves(leaves, query, answers, stats)

    def knn_approximate(self, query: KnnQuery) -> SearchResult:
        """Answer an ng-approximate k-NN query (one index path, one leaf)."""
        self._require_built()
        if not self.supports_approximate:
            raise NotImplementedError(f"{self.name} does not support approximate search")
        before = self.store.counter_snapshot()
        stats = QueryStats(dataset_size=self.store.count)
        start = time.perf_counter()
        answers = self._knn_approximate(
            np.asarray(query.series, dtype=np.float64), query.k, stats
        )
        stats.cpu_seconds = time.perf_counter() - start
        self._charge_delta(stats, self.store.since(before))
        return self._package_result(answers, stats)

    def range_exact(self, query: RangeQuery) -> RangeSearchResult:
        """Answer an exact r-range query (Definition 2 in the paper).

        The default implementation seeds the pruning threshold with the query
        radius and reuses the method's exact machinery indirectly: every method
        overrides :meth:`_range_exact` where a better-than-scan strategy
        exists; the base fallback is a full sequential scan, which is always
        correct.
        """
        self._require_built()
        before = self.store.counter_snapshot()
        stats = QueryStats(dataset_size=self.store.count)
        start = time.perf_counter()
        answers = self._range_exact(
            np.asarray(query.series, dtype=np.float64), float(query.radius), stats
        )
        stats.cpu_seconds = time.perf_counter() - start
        self._charge_delta(stats, self.store.since(before))
        return RangeSearchResult(answers, stats)

    @abc.abstractmethod
    def _knn_exact(self, query: np.ndarray, k: int, stats: QueryStats) -> KnnAnswerSet:
        """Method-specific exact search."""

    def _knn_approximate(
        self, query: np.ndarray, k: int, stats: QueryStats
    ) -> KnnAnswerSet:
        raise NotImplementedError

    def _range_exact(
        self, query: np.ndarray, radius: float, stats: QueryStats
    ) -> RangeAnswerSet:
        """Fallback r-range search: a full scan of the raw data (always exact)."""
        answers = RangeAnswerSet(radius=radius)
        data = self.store.scan()
        stats.series_examined += self.store.count
        distances = squared_euclidean_batch(query, data)
        answers.offer_batch(np.arange(self.store.count), distances)
        return answers

    # -- description ---------------------------------------------------------------
    def describe(self) -> dict:
        """A small dict describing the method configuration (for reports)."""
        return {"name": self.name, "is_index": self.is_index}
