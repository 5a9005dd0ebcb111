"""Brute-force k-NN oracle, independent of every ``repro`` search method.

Plain NumPy in float64 over the values a store actually serves (for ``.rcz``
that is the dequantized stored values), with the library's documented tie
rule: answers are the lexicographic top-k by ``(distance, position)``.
"""

from __future__ import annotations

import numpy as np

#: relative tolerance on distances: the flat/MASS batch kernels evaluate the
#: norm expansion in a different order and may differ in the last ulp.
DISTANCE_RTOL = 1e-6
#: extra candidates kept around the GEMM pre-selection, so that its rounding
#: can never push a true neighbour out before distances are recomputed exactly.
_MARGIN = 16
#: queries per GEMM tile (bounds the ``(tile, N)`` float64 distance matrix).
_TILE = 32


class Oracle:
    """Exact answers over a fixed float64 copy of a collection."""

    def __init__(self, values) -> None:
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.norms = np.einsum("ij,ij->i", self.values, self.values)

    def knn(self, queries, k: int, count: int | None = None):
        """``(positions, distances)``, each ``(Q, k)``, over rows ``[0, count)``.

        ``count`` restricts the search to a prefix — on the live-ingest
        workload, the rows acked at the moment of the search.
        """
        qs = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n = self.values.shape[0] if count is None else int(count)
        data, norms = self.values[:n], self.norms[:n]
        width = min(k, n)
        keep = min(n, k + _MARGIN)
        positions = np.empty((qs.shape[0], width), dtype=np.int64)
        distances = np.empty((qs.shape[0], width), dtype=np.float64)
        for start in range(0, qs.shape[0], _TILE):
            tile = qs[start : start + _TILE]
            approx = norms[None, :] - 2.0 * (tile @ data.T)
            for i, q in enumerate(tile, start):
                row = approx[i - start]
                candidates = np.argpartition(row, keep - 1)[:keep] if keep < n else np.arange(n)
                diff = data[candidates] - q
                exact = np.einsum("ij,ij->i", diff, diff)
                order = np.lexsort((candidates, exact))[:width]
                positions[i] = candidates[order]
                distances[i] = np.sqrt(exact[order])
        return positions, distances


def matches(result, positions, distances) -> bool:
    """Whether a ``SearchResult`` is the oracle's answer and is not degraded."""
    if result.stats.degraded:
        return False
    if result.positions() != [int(p) for p in positions]:
        return False
    return bool(
        np.allclose(result.distances(), distances, rtol=DISTANCE_RTOL, atol=DISTANCE_RTOL)
    )
