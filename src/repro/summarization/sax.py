"""SAX and iSAX symbolic summarizations.

SAX maps each PAA segment of a z-normalized series to a discrete symbol using
breakpoints that divide the standard normal distribution into equi-probable
regions.  iSAX (indexable SAX) allows each segment to use its own alphabet
cardinality, which is what lets iSAX-family indexes split one segment at a time
by "promoting" it to a finer cardinality.  The MINDIST function between a query
(raw PAA values) and an iSAX word lower-bounds the Euclidean distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Summarizer
from .paa import PaaSummarizer

__all__ = [
    "sax_breakpoints",
    "sax_region_edges",
    "stack_words",
    "symbolize_batch",
    "summarize_stream",
    "group_rows",
    "group_root_words",
    "SaxWord",
    "IsaxSummarizer",
]

_BREAKPOINT_CACHE: dict[int, np.ndarray] = {}
_REGION_EDGE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _norm_ppf(p: np.ndarray) -> np.ndarray:
    """Inverse CDF of the standard normal (Acklam's rational approximation).

    Implemented locally so the core library only depends on NumPy; accuracy is
    ~1e-9 over the open interval (0, 1), far beyond what breakpoint placement
    needs.
    """
    p = np.asarray(p, dtype=np.float64)
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    plow = 0.02425
    phigh = 1 - plow
    out = np.empty_like(p)

    lower = p < plow
    upper = p > phigh
    middle = ~(lower | upper)

    if np.any(lower):
        q = np.sqrt(-2 * np.log(p[lower]))
        out[lower] = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if np.any(upper):
        q = np.sqrt(-2 * np.log(1 - p[upper]))
        out[upper] = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if np.any(middle):
        q = p[middle] - 0.5
        r = q * q
        out[middle] = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
        )
    return out


def sax_breakpoints(cardinality: int) -> np.ndarray:
    """Breakpoints dividing N(0, 1) into ``cardinality`` equi-probable regions.

    Returns an array of ``cardinality - 1`` increasing values.  Cached because
    iSAX evaluates MINDIST against many cardinalities repeatedly.
    """
    if cardinality < 2:
        raise ValueError("cardinality must be at least 2")
    if cardinality not in _BREAKPOINT_CACHE:
        probs = np.arange(1, cardinality) / cardinality
        _BREAKPOINT_CACHE[cardinality] = _norm_ppf(probs)
    return _BREAKPOINT_CACHE[cardinality]


def sax_region_edges(max_cardinality: int) -> tuple[np.ndarray, np.ndarray]:
    """Flattened region-edge table for every power-of-two cardinality.

    Returns ``(edges, offsets)`` such that for a segment with cardinality ``c``
    (a power of two ``<= max_cardinality``) and symbol ``s``, the breakpoint
    interval covered by the symbol is
    ``(edges[offsets[c] + s], edges[offsets[c] + s + 1])``, with ``-inf``/
    ``+inf`` sentinels at the extremes.  This is the lookup structure behind
    the array-native MINDIST kernel: one fancy-indexing gather replaces the
    per-word, per-segment ``segment_region`` calls.
    """
    if max_cardinality < 2 or (max_cardinality & (max_cardinality - 1)) != 0:
        raise ValueError("max_cardinality must be a power of two >= 2")
    cached = _REGION_EDGE_CACHE.get(max_cardinality)
    if cached is None:
        offsets = np.full(max_cardinality + 1, -1, dtype=np.int64)
        pieces = []
        cursor = 0
        card = 2
        while card <= max_cardinality:
            offsets[card] = cursor
            pieces.append(
                np.concatenate(([-np.inf], sax_breakpoints(card), [np.inf]))
            )
            cursor += card + 1
            card *= 2
        cached = (np.concatenate(pieces), offsets)
        _REGION_EDGE_CACHE[max_cardinality] = cached
    return cached


def stack_words(words) -> tuple[np.ndarray, np.ndarray]:
    """Stack iSAX words into ``(symbols, cardinalities)`` integer matrices.

    The matrices feed :meth:`IsaxSummarizer.mindist_paa_to_words_batch`; index
    nodes cache them per child set so the batch kernel never rebuilds them.
    """
    symbols = np.array([w.symbols for w in words], dtype=np.int64)
    cardinalities = np.array([w.cardinalities for w in words], dtype=np.int64)
    return symbols, cardinalities


def _symbolize(paa_values: np.ndarray, cardinality: int) -> np.ndarray:
    """Map PAA values to symbols in ``[0, cardinality)`` (0 = lowest region)."""
    breakpoints = sax_breakpoints(cardinality)
    return np.searchsorted(breakpoints, paa_values, side="left").astype(np.int64)


def symbolize_batch(paa_values: np.ndarray, cardinality: int) -> np.ndarray:
    """Symbols of PAA values at one cardinality, for arrays of any shape.

    The bulk loaders symbolize a whole ``(series, segments)`` PAA matrix (or
    one segment column of it) in a single call — one ``searchsorted`` against
    the cached breakpoints replaces millions of per-series conversions.
    """
    return _symbolize(np.asarray(paa_values, dtype=np.float64), cardinality)


def summarize_stream(
    summarizer: "IsaxSummarizer", blocks, count: int, symbols: bool = False
):
    """Chunked driver for the iSAX bulk-build summaries.

    Consumes ``(slice, float64 block)`` pairs (see
    :meth:`repro.core.storage.SeriesStore.scan_blocks`) and fills the
    ``(count, segments)`` PAA matrix — plus, with ``symbols=True``, the
    full-cardinality symbol matrix ADS+ keeps for SIMS — one chunk at a time.
    Both matrices are tiny next to the raw rows (8 + 8 bytes per segment per
    series), so tree construction holds summaries instead of the collection;
    every value is bitwise identical to the historical whole-collection
    ``transform_batch`` because PAA and symbolization are row-local.

    Returns ``paa`` or ``(paa, symbols)``.
    """
    paa = np.empty((count, summarizer.segments), dtype=np.float64)
    syms = None
    if symbols:
        # Symbols are bounded by the cardinality; the matrix is retained for
        # the index's whole lifetime, so store it at the narrowest safe width.
        dtype = np.int16 if summarizer.cardinality <= 2**15 else np.int64
        syms = np.empty((count, summarizer.segments), dtype=dtype)
    for rows, block in blocks:
        part = summarizer.paa.transform_batch(block)
        paa[rows] = part
        if syms is not None:
            syms[rows] = _symbolize(part, summarizer.cardinality)
    return paa if syms is None else (paa, syms)


def group_root_words(paa: np.ndarray):
    """Group rows by their cardinality-2 root word, bit-packed.

    Yields exactly what ``group_rows(symbolize_batch(paa, 2))`` yields — the
    ``(symbols tuple, ascending row indices)`` groups in lexicographic key
    order — but packs each row's word into one integer key instead of
    materializing and lexsorting a ``(series, segments)`` int64 word matrix:
    the lex order of binary symbol tuples is the numeric order of the packed
    keys (first segment in the most significant bit), and a stable integer
    argsort keeps rows ascending within each group.  At bulk-build scale the
    word matrix plus its lexsort copies dominated transient build memory.
    """
    arr = np.atleast_2d(np.asarray(paa, dtype=np.float64))
    count, segments = arr.shape
    if count == 0:
        return
    if segments > 63:  # pragma: no cover - packed keys no longer fit
        yield from group_rows(symbolize_batch(arr, 2))
        return
    packed = np.zeros(count, dtype=np.int64)
    for j in range(segments):
        np.left_shift(packed, 1, out=packed)
        packed |= _symbolize(arr[:, j], 2)
    order = np.argsort(packed, kind="stable")
    ordered = packed[order]
    change = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    starts = np.concatenate(([0], change, [count]))
    for start, stop in zip(starts[:-1], starts[1:]):
        bits = int(ordered[start])
        key = tuple((bits >> (segments - 1 - j)) & 1 for j in range(segments))
        yield key, order[start:stop]


def group_rows(rows: np.ndarray):
    """Group identical rows of an integer matrix, yielding position blocks.

    Yields ``(key, indices)`` pairs where ``key`` is the row as a tuple of
    ints and ``indices`` are the (ascending) row numbers carrying that key,
    in lexicographic key order.  This is the array-native partitioning step of
    the bulk loaders: one ``np.lexsort`` replaces a per-series dictionary
    insert loop.  ``np.lexsort`` is stable, so indices stay ascending within
    each group.
    """
    arr = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    if arr.shape[0] == 0:
        return
    order = np.lexsort(arr.T[::-1])
    ordered = arr[order]
    change = np.flatnonzero(np.any(ordered[1:] != ordered[:-1], axis=1)) + 1
    starts = np.concatenate(([0], change, [order.size]))
    for start, stop in zip(starts[:-1], starts[1:]):
        key = tuple(int(v) for v in ordered[start])
        yield key, order[start:stop]


@dataclass(frozen=True)
class SaxWord:
    """An iSAX word: per-segment symbols with per-segment cardinalities."""

    symbols: tuple
    cardinalities: tuple

    def __post_init__(self) -> None:
        if len(self.symbols) != len(self.cardinalities):
            raise ValueError("symbols and cardinalities must have equal length")

    @property
    def segments(self) -> int:
        return len(self.symbols)

    def segment_region(self, segment: int) -> tuple[float, float]:
        """The (low, high) breakpoint interval covered by one segment's symbol."""
        card = self.cardinalities[segment]
        sym = self.symbols[segment]
        breakpoints = sax_breakpoints(card)
        low = -np.inf if sym == 0 else float(breakpoints[sym - 1])
        high = np.inf if sym == card - 1 else float(breakpoints[sym])
        return low, high

    def promote(self, segment: int, paa_value: float) -> "SaxWord":
        """Return a copy with one segment's cardinality doubled.

        ``paa_value`` is the raw PAA value of the series being re-summarized;
        iSAX 2.0/2+ use it to place the series on the correct side of the new
        breakpoint when a node splits.
        """
        new_cards = list(self.cardinalities)
        new_syms = list(self.symbols)
        new_cards[segment] = self.cardinalities[segment] * 2
        new_syms[segment] = int(_symbolize(paa_value, new_cards[segment]))
        return SaxWord(symbols=tuple(new_syms), cardinalities=tuple(new_cards))

    def prefix_symbol(self, segment: int, cardinality: int) -> int:
        """The symbol of ``segment`` coarsened to a lower ``cardinality``.

        iSAX cardinalities are powers of two, so coarsening is a right shift.
        """
        own = self.cardinalities[segment]
        if cardinality > own:
            raise ValueError("cannot coarsen to a higher cardinality")
        shift = int(np.log2(own // cardinality))
        return int(self.symbols[segment]) >> shift


class IsaxSummarizer(Summarizer):
    """iSAX summarizer: PAA + per-segment symbolization with MINDIST.

    Parameters
    ----------
    series_length:
        Length of the series being summarized.
    segments:
        Number of PAA segments (word length); the paper uses 16.
    cardinality:
        Maximum (full-resolution) cardinality per segment; the paper's
        SAX-based methods use 256.
    """

    name = "isax"

    def __init__(
        self, series_length: int, segments: int = 16, cardinality: int = 256
    ) -> None:
        super().__init__(series_length, segments)
        if cardinality < 2 or (cardinality & (cardinality - 1)) != 0:
            raise ValueError("cardinality must be a power of two >= 2")
        self.segments = segments
        self.cardinality = cardinality
        self.paa = PaaSummarizer(series_length, segments)
        self._segment_width = series_length / segments

    # -- transforms -----------------------------------------------------------
    def transform(self, series: np.ndarray) -> np.ndarray:
        """Full-cardinality symbols of one series (or a batch) as integer arrays."""
        paa = self.paa.transform_batch(series) if np.asarray(series).ndim == 2 else self.paa.transform(series)
        return _symbolize(paa, self.cardinality)

    def transform_batch(self, series: np.ndarray) -> np.ndarray:
        paa = self.paa.transform_batch(series)
        return _symbolize(paa, self.cardinality)

    def word(self, series: np.ndarray, cardinalities: tuple | None = None) -> SaxWord:
        """iSAX word of one series at the given per-segment cardinalities."""
        paa = self.paa.transform(series)
        return self.word_from_paa(paa, cardinalities)

    def word_from_paa(
        self, paa: np.ndarray, cardinalities: tuple | None = None
    ) -> SaxWord:
        cards = tuple(cardinalities or [self.cardinality] * self.segments)
        values = np.asarray(paa, dtype=np.float64)
        # One searchsorted per distinct cardinality (a root or full-resolution
        # word has one), not one per segment.
        symbols = np.empty(self.segments, dtype=np.int64)
        card_row = np.array(cards)
        for card in set(cards):
            at_card = card_row == card
            symbols[at_card] = _symbolize(values[at_card], card)
        return SaxWord(symbols=tuple(symbols.tolist()), cardinalities=cards)

    # -- distances -------------------------------------------------------------
    def mindist_paa_to_word(self, query_paa: np.ndarray, word: SaxWord) -> float:
        """MINDIST between a query's PAA values and an iSAX word (lower bound)."""
        q = np.asarray(query_paa, dtype=np.float64)
        total = 0.0
        for j in range(word.segments):
            low, high = word.segment_region(j)
            value = q[j]
            if value < low:
                gap = low - value
            elif value > high:
                gap = value - high
            else:
                gap = 0.0
            total += gap * gap
        return float(np.sqrt(self._segment_width * total))

    def mindist_paa_to_words_batch(
        self,
        query_paa: np.ndarray,
        symbols: np.ndarray,
        cardinalities: np.ndarray,
    ) -> np.ndarray:
        """MINDIST between a query's PAA values and many iSAX words at once.

        ``symbols`` and ``cardinalities`` are ``(words, segments)`` integer
        matrices (see :func:`stack_words`); cardinalities may differ per word
        *and* per segment, exactly as in :meth:`mindist_paa_to_word`.  One call
        scores the query against every word — e.g. all children of an index
        node — through a single gather into the flattened region-edge table,
        replacing the per-word Python loop.  Matches the scalar kernel to
        floating-point accuracy.
        """
        q = np.asarray(query_paa, dtype=np.float64)
        syms = np.atleast_2d(np.asarray(symbols, dtype=np.int64))
        cards = np.atleast_2d(np.asarray(cardinalities, dtype=np.int64))
        if syms.shape != cards.shape:
            raise ValueError("symbols and cardinalities must have equal shapes")
        edges, offsets = sax_region_edges(self.cardinality)
        base = offsets[cards] + syms
        low = edges[base]
        high = edges[base + 1]
        below = np.maximum(low - q[np.newaxis, :], 0.0)   # -inf low -> 0
        above = np.maximum(q[np.newaxis, :] - high, 0.0)  # +inf high -> 0
        gap = below + above  # at most one side is non-zero per segment
        return np.sqrt(self._segment_width * np.einsum("ij,ij->i", gap, gap))

    def mindist_symbols(
        self, query_symbols: np.ndarray, word: SaxWord
    ) -> float:
        """MINDIST between a full-cardinality query word and an iSAX word.

        Used by ADS+ which keeps only the symbolic representation of the query
        candidates; the query itself is still compared via its PAA values when
        available (tighter), so this variant is the symbol-only fallback.
        """
        breakpoints = sax_breakpoints(self.cardinality)
        total = 0.0
        for j in range(word.segments):
            low, high = word.segment_region(j)
            sym = int(query_symbols[j])
            # representative value of the query cell: its region midpoint proxy
            q_low = -np.inf if sym == 0 else breakpoints[sym - 1]
            q_high = np.inf if sym == self.cardinality - 1 else breakpoints[sym]
            if q_high < low:
                gap = low - q_high
            elif q_low > high:
                gap = q_low - high
            else:
                gap = 0.0
            total += gap * gap
        return float(np.sqrt(self._segment_width * total))

    def lower_bound(self, query_summary: np.ndarray, candidate_summary: np.ndarray) -> float:
        """Lower bound between a query PAA vector and candidate full-resolution symbols."""
        word = SaxWord(
            symbols=tuple(int(s) for s in np.asarray(candidate_summary)),
            cardinalities=tuple([self.cardinality] * self.segments),
        )
        return self.mindist_paa_to_word(np.asarray(query_summary, dtype=np.float64), word)

    def lower_bound_batch(
        self, query_summary: np.ndarray, candidate_summaries: np.ndarray
    ) -> np.ndarray:
        """Vectorized MINDIST between a query PAA vector and many symbol rows.

        Integer ``candidate_summaries`` are used at their stored width — ADS+
        keeps its full-resolution symbol matrix at int16, and forcing int64
        here would copy the whole matrix on every SIMS query.
        """
        q = np.asarray(query_summary, dtype=np.float64)
        syms = np.asarray(candidate_summaries)
        if not np.issubdtype(syms.dtype, np.integer):
            syms = syms.astype(np.int64)
        if syms.ndim == 1:
            syms = syms[np.newaxis, :]
        # A cell's contribution depends on (segment, symbol) only: tabulate the
        # squared gap of every cell of every segment once per query — the
        # classic VA-file lookup table — then gather one entry per candidate
        # cell and sum each row.
        cells = np.arange(self.cardinality)[np.newaxis, :]
        breakpoints = sax_breakpoints(self.cardinality)
        low = np.where(cells == 0, -np.inf, breakpoints[np.clip(cells - 1, 0, None)])
        high = np.where(
            cells == self.cardinality - 1,
            np.inf,
            breakpoints[np.clip(cells, 0, len(breakpoints) - 1)],
        )
        below = np.clip(low - q[:, np.newaxis], 0.0, None)
        above = np.clip(q[:, np.newaxis] - high, 0.0, None)
        gap = np.where(np.isfinite(below), below, 0.0) + np.where(
            np.isfinite(above), above, 0.0
        )
        table = (gap * gap).ravel()  # segment j's cells start at j * cardinality
        picked = table[syms + np.arange(self.segments) * self.cardinality]
        return np.sqrt(self._segment_width * np.sum(picked, axis=1))
