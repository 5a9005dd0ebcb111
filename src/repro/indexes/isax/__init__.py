"""The iSAX family: one split tree (``IsaxTree``), shared by iSAX2+ and ADS+."""

from .index import Isax2PlusIndex
from .node import IsaxNode
from .tree import IsaxTree

__all__ = ["Isax2PlusIndex", "IsaxNode", "IsaxTree"]
