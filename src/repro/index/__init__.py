"""Spatial and temporal indexes: R-tree and AR-tree."""

from .artree import ARLeafEntry, ARTree
from .rtree import RTree, RTreeEntry, RTreeNode

__all__ = [
    "ARLeafEntry",
    "ARTree",
    "RTree",
    "RTreeEntry",
    "RTreeNode",
]
