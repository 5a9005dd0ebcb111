"""Growable contiguous array storage for index-node payloads.

The tree indexes keep their leaf payloads (series positions and, for the
iSAX family, the PAA rows needed to re-split) in :class:`GrowableArray`
instances: contiguous NumPy buffers that grow by amortized doubling.  Storing
payloads structure-of-arrays style means

* query-time leaf scans hand one ready-made integer vector straight to the
  store instead of converting a Python list on every visit,
* leaf splits are slice-and-mask operations over one matrix instead of
  per-element Python loops, and
* bulk loading can adopt whole position blocks in a single ``memcpy``-style
  extend.

Single rows still land through :meth:`GrowableArray.append` with O(1)
amortized cost.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GrowableArray", "group_values", "position_vector"]

_MIN_CAPACITY = 8


def position_vector() -> "GrowableArray":
    """A growable int64 vector — the canonical leaf-position payload."""
    return GrowableArray(dtype=np.int64)


def group_values(values: np.ndarray):
    """Group a 1-D array by value, yielding ``(value, indices)`` per group.

    The slice-and-mask leaf splits group one payload column (a re-symbolized
    segment, a trie level's symbols) and hand each child its index block:
    one stable argsort, then contiguous runs.  Stability keeps indices
    ascending within each group; groups come in ascending value order.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    change = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    starts = np.concatenate(([0], change, [order.size]))
    for start, stop in zip(starts[:-1], starts[1:]):
        yield ordered[start], order[start:stop]


class GrowableArray:
    """A contiguous NumPy array growable along axis 0 (amortized doubling).

    Parameters
    ----------
    width:
        Number of columns; ``None`` makes the array one-dimensional (the shape
        used for position vectors).
    dtype:
        Element dtype (``int64`` for positions, ``float64`` for PAA rows).
    capacity:
        Initial row capacity.
    """

    __slots__ = ("_data", "_size")

    def __init__(
        self,
        width: int | None = None,
        dtype=np.float64,
        capacity: int = _MIN_CAPACITY,
    ) -> None:
        shape = (capacity,) if width is None else (capacity, width)
        self._data = np.empty(shape, dtype=dtype)
        self._size = 0

    # -- access ----------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """Contiguous read-only view of the live rows.

        The view is frozen (``WRITEABLE`` cleared) so callers cannot corrupt
        a leaf payload through it — mutation raises, mirroring the read-only
        views :class:`~repro.core.storage.SeriesStore` hands out.
        """
        view = self._data[: self._size]
        view.setflags(write=False)
        return view

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self):
        return iter(self.data)

    def __getitem__(self, index):
        return self.data[index]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        view = self.data
        if dtype is not None and dtype != view.dtype:
            return view.astype(dtype)
        if copy:
            return view.copy()
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"GrowableArray(size={self._size}, shape={self._data.shape})"

    # -- growth ----------------------------------------------------------------
    def _reserve(self, needed: int) -> None:
        capacity = self._data.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(needed, 2 * capacity, _MIN_CAPACITY)
        grown = np.empty(
            (new_capacity,) + self._data.shape[1:], dtype=self._data.dtype
        )
        grown[: self._size] = self._data[: self._size]
        self._data = grown

    def append(self, row) -> None:
        """Append one row (amortized O(1))."""
        self._reserve(self._size + 1)
        self._data[self._size] = row
        self._size += 1

    def extend(self, block) -> None:
        """Append a whole block of rows in one array copy."""
        arr = np.asarray(block)
        count = arr.shape[0]
        if count == 0:
            return
        self._reserve(self._size + count)
        self._data[self._size : self._size + count] = arr
        self._size += count

    def clear(self) -> None:
        """Drop every row and release the backing buffer."""
        self._data = np.empty((0,) + self._data.shape[1:], dtype=self._data.dtype)
        self._size = 0

    # -- pickling (required because of __slots__) ---------------------------------
    def __getstate__(self):
        return {"data": self.data.copy()}

    def __setstate__(self, state):
        self._data = state["data"]
        self._size = self._data.shape[0]
