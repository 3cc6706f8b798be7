"""Planar geometry: points, convex polygons, Voronoi diagrams, partitions
and detours around disks.

Everything the coordination algorithms need to reason about the 2-D
deployment field, implemented from scratch (no scipy dependency in the
library itself; scipy is only used by tests as an oracle).  Every query
is a scalar loop over :class:`Point` values: the simulator asks about a
handful of points at a time (about twelve receivers per fault-field
call, at most sixteen Voronoi sites), too few for a batch layer over
flat coordinate arrays to pay for its setup.
"""

from repro.geometry.detour import (
    detour_around,
    plan_route,
    polyline_length,
    segment_crosses_disk,
    segment_distance_to_point,
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
    "detour_around",
    "midpoint",
    "plan_route",
    "polyline_length",
    "segment_crosses_disk",
    "segment_distance_to_point",
    "voronoi_cell",
    "voronoi_cells",
]
