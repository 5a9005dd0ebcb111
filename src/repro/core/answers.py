"""Answer containers for k-NN and range similarity queries."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Neighbor", "KnnAnswerSet", "RangeAnswerSet"]


@dataclass(frozen=True, order=True)
class Neighbor:
    """One answer: the position of a series in the collection and its distance.

    Distances are *Euclidean* (not squared) so answers read the same way the
    paper reports them; internal heaps work on squared distances for speed.
    """

    distance: float
    position: int


class KnnAnswerSet:
    """A bounded max-heap holding the current k best candidates.

    Every method in the library funnels candidates through this structure, so
    the best-so-far (bsf) pruning threshold is maintained identically everywhere.

    Ties are deterministic: candidates are ranked by ``(squared_distance,
    position)``, so among equal distances the *smaller position* wins a slot.
    The final contents are therefore the lexicographic top-k of everything
    offered, independent of offer order — which is what makes sharded /
    parallel searches byte-identical to their sequential counterparts.
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError("k must be a positive integer")
        self.k = k
        # Min-heap of (-squared_distance, -position): the head is the
        # lexicographically largest (distance, position) pair, i.e. the entry
        # evicted first when a better candidate arrives.
        self._heap: list[tuple[float, int]] = []
        # positions currently in the heap; a series can only be an answer once,
        # even if several access paths (approximate leaf + refinement scan)
        # offer it to the answer set.
        self._positions: set[int] = set()

    # -- updates -----------------------------------------------------------
    def offer(self, position: int, squared_distance: float) -> bool:
        """Offer a candidate; returns True if it entered the current top-k."""
        if squared_distance < 0:
            squared_distance = 0.0
        if position in self._positions:
            return False
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-squared_distance, -position))
            self._positions.add(position)
            return True
        worst_neg_sq, worst_neg_pos = self._heap[0]
        worst = -worst_neg_sq
        if squared_distance < worst or (
            squared_distance == worst and position < -worst_neg_pos
        ):
            heapq.heapreplace(self._heap, (-squared_distance, -position))
            self._positions.discard(-worst_neg_pos)
            self._positions.add(position)
            return True
        return False

    def offer_batch(self, positions: np.ndarray, squared_distances: np.ndarray) -> int:
        """Offer many candidates at once; returns how many entered the top-k.

        Runs in O(n + k log k) instead of the O(n log k) per-element loop: the
        batch is first filtered against the current pruning threshold, then
        ``np.argpartition`` keeps only the candidates that can possibly enter
        the heap (at most ``k`` plus the current occupancy, to absorb
        duplicate-position collisions), and only that handful goes through
        :meth:`offer`.  The result is exactly what offering each candidate
        individually produces: the lexicographic ``(distance, position)``
        top-k (candidates tying the k-th distance are filtered with ``<=`` so
        the positional tie-break in :meth:`offer` can still decide them).  A
        position repeated within one batch keeps its smallest distance (a
        position has a single true distance, so real call sites never hit
        this).
        """
        pos = np.asarray(positions, dtype=np.int64).ravel()
        sq = np.asarray(squared_distances, dtype=np.float64).ravel()
        if pos.size != sq.size:
            raise ValueError("positions and squared_distances must have equal length")
        if pos.size == 0:
            return 0
        if not np.all(np.isfinite(sq)):
            # NaN/inf distances follow the legacy one-by-one semantics (they
            # can still fill an under-occupied heap); keep the slow path here.
            admitted = 0
            for p, s in zip(pos, sq):
                if self.offer(int(p), float(s)):
                    admitted += 1
            return admitted
        sq = np.maximum(sq, 0.0)
        admitted = 0
        threshold = self.worst_squared_distance
        if np.isfinite(threshold):
            # <= rather than <: candidates tying the current k-th distance may
            # still enter on the positional tie-break.
            candidates = np.flatnonzero(sq <= threshold)
        else:
            candidates = np.arange(pos.size)
        while candidates.size:
            # Only the (k + occupancy) smallest can enter: at most ``occupancy``
            # of them may be rejected as duplicates of positions already held.
            cap = self.k + len(self._positions)
            if candidates.size > cap:
                part = np.argpartition(sq[candidates], cap - 1)
                selected = candidates[part[:cap]]
                rest = candidates[part[cap:]]
            else:
                selected, rest = candidates, candidates[:0]
            selected = np.sort(selected)
            selected = selected[np.argsort(sq[selected], kind="stable")]
            for i in selected:
                if self.offer(int(pos[i]), float(sq[i])):
                    admitted += 1
            if rest.size == 0:
                break
            # Duplicate collisions may have left room for candidates beyond the
            # cap; re-filter the remainder against the updated threshold.
            candidates = rest[sq[rest] <= self.worst_squared_distance]
        return admitted

    def merge(self, other: "KnnAnswerSet", position_offset: int = 0) -> int:
        """Fold another answer set into this one; returns how many entered.

        ``position_offset`` translates the other set's positions into this
        set's coordinate space (a shard's local positions become global ones).
        Distance ties are broken by (translated) position via :meth:`offer`,
        so merging per-shard sets in any order yields the same final top-k —
        byte-identical to offering every underlying candidate to one set.
        """
        admitted = 0
        for sq, position in other.squared_items():
            if self.offer(position + position_offset, sq):
                admitted += 1
        return admitted

    def squared_items(self) -> list[tuple[float, int]]:
        """The current answers as ``(squared_distance, position)``, best first."""
        return sorted((-neg_sq, -neg_pos) for neg_sq, neg_pos in self._heap)

    # -- thresholds -----------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._heap)

    @property
    def worst_squared_distance(self) -> float:
        """Current pruning threshold (squared).  Infinite until k answers exist."""
        if len(self._heap) < self.k:
            return float("inf")
        return -self._heap[0][0]

    @property
    def best_squared_distance(self) -> float:
        if not self._heap:
            return float("inf")
        return min(-d for d, _ in self._heap)

    # -- extraction ----------------------------------------------------------
    def neighbors(self) -> list[Neighbor]:
        """The answers sorted by increasing (distance, position)."""
        return [
            Neighbor(distance=float(np.sqrt(sq)), position=pos)
            for sq, pos in self.squared_items()
        ]

    def positions(self) -> list[int]:
        return [n.position for n in self.neighbors()]

    def distances(self) -> list[float]:
        return [n.distance for n in self.neighbors()]


@dataclass
class RangeAnswerSet:
    """Answers of an r-range query: every series within ``radius`` of the query."""

    radius: float
    matches: list[Neighbor] = field(default_factory=list)

    def offer(self, position: int, squared_distance: float) -> bool:
        distance = float(np.sqrt(max(0.0, squared_distance)))
        if distance <= self.radius:
            self.matches.append(Neighbor(distance=distance, position=position))
            return True
        return False

    def offer_batch(self, positions: np.ndarray, squared_distances: np.ndarray) -> int:
        """Offer many candidates at once; returns how many were within range.

        Vectorized counterpart of :meth:`offer`: the radius test runs on the
        whole array and only the matches are materialized as :class:`Neighbor`
        objects, in batch order.
        """
        pos = np.asarray(positions, dtype=np.int64).ravel()
        sq = np.asarray(squared_distances, dtype=np.float64).ravel()
        if pos.size != sq.size:
            raise ValueError("positions and squared_distances must have equal length")
        if pos.size == 0:
            return 0
        distances = np.sqrt(np.maximum(sq, 0.0))
        within = distances <= self.radius
        self.matches.extend(
            Neighbor(distance=float(d), position=int(p))
            for p, d in zip(pos[within], distances[within])
        )
        return int(np.count_nonzero(within))

    def neighbors(self) -> list[Neighbor]:
        return sorted(self.matches)

    @property
    def size(self) -> int:
        return len(self.matches)
