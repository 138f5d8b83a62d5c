"""Legion-style data model: points, index spaces, fields, regions, partitions.

This package is the substrate the dependence analysis operates on.  See
DESIGN.md §3 for the module map.
"""

from .cache import (PairCache, cached_may_alias, cached_region_contains,
                    clear_region_caches, region_cache_stats,
                    region_contains)
from .dependent import (partition_by_field, partition_by_image,
                        partition_by_preimage)
from .field_space import Field, FieldSpace
from .index_space import IndexSpace
from .point import Point, Rect
from .region import LogicalRegion, Partition
from .tree import (divergence_partition, lowest_common_ancestor, may_alias,
                   upper_bound)

__all__ = [
    "partition_by_field", "partition_by_image", "partition_by_preimage",
    "Field", "FieldSpace", "IndexSpace", "Point", "Rect",
    "LogicalRegion", "Partition",
    "divergence_partition", "lowest_common_ancestor", "may_alias",
    "upper_bound",
    "PairCache", "cached_may_alias", "cached_region_contains",
    "region_contains", "clear_region_caches", "region_cache_stats",
]
