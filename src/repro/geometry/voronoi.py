"""Bounded Voronoi diagrams by half-plane intersection.

The dynamic distributed manager algorithm (paper §3.3) partitions the
deployment area among robots by the Voronoi diagram of their current
positions: every sensor reports failures to the robot whose cell contains
it.  Robot counts are small (the paper uses 4–16), so the O(n² · v)
half-plane clipping construction is simple, robust and exact enough —
no Fortune sweep needed.

The module also provides the nearest-site queries that sensors use when
deciding (and re-deciding) their ``myrobot``.
"""

from __future__ import annotations

import typing

from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon, HalfPlane, Rect

__all__ = [
    "VoronoiDiagram",
    "voronoi_cell",
    "voronoi_cells",
    "closest_site",
    "closest_site_index",
    "closest_site_indices",
]


def voronoi_cell(
    site: Point,
    other_sites: typing.Iterable[Point],
    bounds: Rect,
) -> ConvexPolygon:
    """The bounded Voronoi cell of *site* against *other_sites*.

    Coincident other sites are skipped (their bisector is undefined; the
    tie is broken in favour of *site*, matching how sensors keep their
    current ``myrobot`` on exact ties).
    """
    cell = bounds.to_polygon()
    for other in other_sites:
        if other == site:
            continue
        cell = cell.clip_halfplane(HalfPlane.bisector_towards(site, other))
        if cell.is_empty:
            break
    return cell


def voronoi_cells(
    sites: typing.Sequence[Point],
    bounds: Rect,
) -> typing.List[ConvexPolygon]:
    """Bounded Voronoi cells for every site, in input order."""
    return [
        voronoi_cell(site, sites[:i] + sites[i + 1 :], bounds)
        for i, site in enumerate(list(sites))
    ]


def closest_site_index(
    point: Point,
    sites: typing.Sequence[Point],
) -> int:
    """Index of the site nearest to *point* (first wins ties).

    Raises
    ------
    ValueError
        If *sites* is empty.
    """
    if not sites:
        raise ValueError("closest site of an empty site set")
    best_index = 0
    best_distance = point.squared_distance_to(sites[0])
    for i in range(1, len(sites)):
        distance = point.squared_distance_to(sites[i])
        if distance < best_distance:
            best_distance = distance
            best_index = i
    return best_index


def closest_site(point: Point, sites: typing.Sequence[Point]) -> Point:
    """The site nearest to *point* (first wins ties)."""
    return sites[closest_site_index(point, sites)]


def closest_site_indices(
    points: typing.Sequence[Point],
    sites: typing.Sequence[Point],
) -> typing.List[int]:
    """:func:`closest_site_index` for every point, in order.

    Raises
    ------
    ValueError
        If *sites* is empty and *points* is not.
    """
    return [closest_site_index(point, sites) for point in points]


class VoronoiDiagram:
    """A bounded Voronoi diagram over a mutable set of named sites.

    This is the analytical counterpart of what the dynamic algorithm
    maintains *implicitly* through message flooding; the experiment
    harness uses it to validate that sensors' distributed ``myrobot``
    choices converge to the true diagram.

    Example::

        diagram = VoronoiDiagram(Rect.square(400.0))
        diagram.set_site("r1", Point(100, 100))
        diagram.set_site("r2", Point(300, 300))
        assert diagram.owner_of(Point(50, 50)) == "r1"
    """

    def __init__(self, bounds: Rect) -> None:
        self.bounds = bounds
        self._sites: typing.Dict[str, Point] = {}
        self._cells: typing.Optional[typing.Dict[str, ConvexPolygon]] = None

    # ------------------------------------------------------------------
    # Site management
    # ------------------------------------------------------------------
    def set_site(self, name: str, position: Point) -> None:
        """Add or move the site *name*; invalidates cached cells."""
        self._sites[name] = position
        self._cells = None

    def remove_site(self, name: str) -> None:
        """Remove the site *name* (KeyError if absent)."""
        del self._sites[name]
        self._cells = None

    @property
    def sites(self) -> typing.Dict[str, Point]:
        """A copy of the current name → position mapping."""
        return dict(self._sites)

    def __len__(self) -> int:
        return len(self._sites)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def cell_of(self, name: str) -> ConvexPolygon:
        """The bounded Voronoi cell of site *name*."""
        return self._all_cells()[name]

    def cells(self) -> typing.Dict[str, ConvexPolygon]:
        """All cells, keyed by site name."""
        return dict(self._all_cells())

    def owner_of(self, point: Point) -> str:
        """Name of the site whose cell contains *point*.

        Equivalently the nearest site; ties break by insertion order.
        """
        if not self._sites:
            raise ValueError("diagram has no sites")
        names = list(self._sites)
        return names[closest_site_index(point, list(self._sites.values()))]

    def neighbours_of(self, name: str) -> typing.List[str]:
        """Sites whose cells share a boundary with *name*'s cell.

        Determined by testing whether removing the other site changes the
        cell — simple and reliable at the small site counts used here.
        """
        base_cell = self.cell_of(name)
        position = self._sites[name]
        result = []
        for other, other_pos in self._sites.items():
            if other == name or other_pos == position:
                continue
            others = [
                p
                for n, p in self._sites.items()
                if n not in (name, other)
            ]
            without = voronoi_cell(position, others, self.bounds)
            if _polygon_differs(base_cell, without):
                result.append(other)
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _all_cells(self) -> typing.Dict[str, ConvexPolygon]:
        if self._cells is None:
            names = list(self._sites)
            positions = [self._sites[n] for n in names]
            cells = voronoi_cells(positions, self.bounds)
            self._cells = dict(zip(names, cells))
        return self._cells

    def __repr__(self) -> str:
        return f"<VoronoiDiagram sites={len(self._sites)} bounds={self.bounds!r}>"


def _polygon_differs(
    a: ConvexPolygon, b: ConvexPolygon, tolerance: float = 1e-6
) -> bool:
    """True if the polygons differ by more than *tolerance* in area.

    Good enough for adjacency detection: removing a non-neighbour leaves
    the cell area unchanged; removing a neighbour strictly grows it.
    """
    return abs(a.area - b.area) > tolerance
