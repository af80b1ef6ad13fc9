"""Balanced k-d tree over 2-D bounding boxes, in memory and distributed.

The tree is built by presorting super keys and subdividing while
preserving the sort orders, either over plain arrays or over partitioned
datasets processed by a miniature MapReduce-style engine, and searched
for box intersections by iterative breadth-first key joins. Import the
submodules (``boxtree.cli``, ``boxtree.io``, ``boxtree.distributed_tree``,
``boxtree.distributed_search`` and the rest) by name.
"""

__version__ = "0.1.0"
