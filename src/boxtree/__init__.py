"""Balanced k-d tree over 2-D bounding boxes, in memory and distributed.

The tree is built by presorting super keys and subdividing while
preserving the sort orders, either over plain arrays or over partitioned
datasets processed by a miniature MapReduce-style engine, and searched
for box intersections by iterative breadth-first key joins.
"""

from .geometry import (
    AXIS_XMAX,
    AXIS_XMIN,
    AXIS_YMAX,
    AXIS_YMIN,
    Box,
    DuplicateNameError,
    Region,
    SuperKey,
    boxes_intersect,
    merge_region,
    superkey,
)
from .memory_tree import (
    KdNode,
    build_memory_tree,
    presort,
    sweep_and_partition,
    tree_depth,
)
from .engine import Engine, EngineConfig, PairDataset, PartitionedDataset
from .distributed_tree import (
    TreeGraphEntry,
    TreeNodeValue,
    build_distributed_tree,
    flatten_memory_subtree,
    four_way_presort,
    region_from_sorted,
)
from .distributed_search import (
    init_queries,
    run_search,
    search_iteration,
    tree_root_name,
)
from .testdata import (
    SquareGridSpec,
    brute_force_intersections,
    generate_test_data,
    verify_search_results,
)
from .fits import FitResult, fit_linear_nlogn, fit_scaling_model
from .bench import (
    FULL_DEPTH,
    BenchRecord,
    run_build_bench,
    run_scaling_bench,
    run_search_bench,
)

__version__ = "0.1.0"
