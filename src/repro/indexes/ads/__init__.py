"""ADS+: adaptive data series index with the SIMS exact-search algorithm."""

from .index import AdsPlusIndex

__all__ = ["AdsPlusIndex"]
