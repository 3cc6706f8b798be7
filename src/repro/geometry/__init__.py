"""Planar geometry: points, convex polygons, Voronoi diagrams, partitions.

Everything the coordination algorithms need to reason about the 2-D
deployment field, implemented from scratch (no scipy dependency in the
library itself; scipy is only used by tests as an oracle).
"""

from repro.geometry.detour import (
    detour_around,
    plan_route,
    polyline_length,
    segment_crosses_disk,
    segment_distance_to_point,
)
from repro.geometry.kernels import (
    collect_entries_within_radius,
    distances_to_point,
    in_disk_mask,
    segment_distances_to_points,
)
from repro.geometry.partition import (
    Partition,
    SquarePartition,
    StaggeredPartition,
)
from repro.geometry.point import Point, centroid_of, midpoint
from repro.geometry.polygon import ConvexPolygon, HalfPlane, Rect
from repro.geometry.voronoi import (
    VoronoiDiagram,
    closest_site,
    closest_site_index,
    closest_site_indices,
    voronoi_cell,
    voronoi_cells,
)

__all__ = [
    "ConvexPolygon",
    "HalfPlane",
    "Partition",
    "Point",
    "Rect",
    "SquarePartition",
    "StaggeredPartition",
    "VoronoiDiagram",
    "centroid_of",
    "closest_site",
    "closest_site_index",
    "closest_site_indices",
    "collect_entries_within_radius",
    "detour_around",
    "distances_to_point",
    "in_disk_mask",
    "midpoint",
    "plan_route",
    "polyline_length",
    "segment_crosses_disk",
    "segment_distance_to_point",
    "segment_distances_to_points",
    "voronoi_cell",
    "voronoi_cells",
]
