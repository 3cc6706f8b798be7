"""Spatial hash grid for range queries over node positions.

The channel must answer "which nodes lie within ``r`` metres of this
sender?" for every transmission.  A uniform hash grid with cell size on
the order of the largest radio range answers this in near-constant time
for the paper's densities (one sensor per ~28 m × 28 m).

Hot-path layout (see ``docs/PERFORMANCE.md``):

* Cells store flattened ``(id, x, y, (id, position))`` entry rows in
  id-sorted lists.  Iterating prebuilt tuples beats zipping parallel
  coordinate arrays here — list iteration yields existing tuples with
  no per-element allocation, and the buckets are too small (a handful
  of sensors each) to amortize any per-bucket batch setup — so the
  grid keeps the row layout and hands the *concatenated* candidate
  rows of a query to one
  :func:`repro.geometry.kernels.collect_entries_within_radius` call:
  a single fused filter-and-gather pass with no attribute loads and no
  per-hit allocation.
* The set of candidate cell offsets for a query radius is precomputed
  once per radius (``_offsets_for``) — the paper uses exactly two radii
  (63 m sensors, 250 m robots/manager), so the tables are tiny.  Each
  candidate cell is then pruned by its exact minimum distance to the
  query center before its rows are collected.
* Every mutation bumps :attr:`epoch`; the channel keys its cached
  receiver sets on it, so they invalidate exactly when the node
  population or a position changes.  The grid keeps no query cache of
  its own: the channel's per-sender cache already answers repeats
  within one epoch, and the repeats it misses are rare (under 1 % of
  queries on the benchmark's workloads).
"""

from __future__ import annotations

import bisect
import math
import typing

from math import floor as _floor

from repro.geometry.kernels import collect_entries_within_radius
from repro.geometry.point import Point

__all__ = ["SpatialGrid"]

#: Cell bucket entry: ``(id, x, y, (id, position))``.  Coordinates are
#: flattened for the range-query inner loop, and the trailing pair is
#: the prebuilt result tuple so hits allocate nothing.
_Entry = typing.Tuple[str, float, float, typing.Tuple[str, Point]]


def _entry(item_id: str, position: Point) -> _Entry:
    return (item_id, position.x, position.y, (item_id, position))


class SpatialGrid:
    """Maps string ids to positions and supports disk range queries."""

    __slots__ = (
        "cell_size",
        "epoch",
        "_cells",
        "_positions",
        "_offsets",
    )

    def __init__(self, cell_size: float = 250.0) -> None:
        if cell_size <= 0:
            raise ValueError(f"non-positive cell size: {cell_size}")
        self.cell_size = cell_size
        #: Monotonic mutation counter: bumped by every insert / move /
        #: remove.  Consumers (``Channel``) cache derived data keyed on
        #: it; equal epochs guarantee an identical grid state.
        self.epoch = 0
        self._cells: typing.Dict[typing.Tuple[int, int], typing.List[_Entry]] = {}
        self._positions: typing.Dict[str, Point] = {}
        #: radius -> candidate cell offsets ``(dx, dy)`` relative to the
        #: query's cell, pruned to offsets whose cells can intersect the
        #: disk for *some* center within the home cell.
        self._offsets: typing.Dict[
            float, typing.Tuple[typing.Tuple[int, int], ...]
        ] = {}

    def _cell_of(self, position: Point) -> typing.Tuple[int, int]:
        return (
            math.floor(position.x / self.cell_size),
            math.floor(position.y / self.cell_size),
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, item_id: str, position: Point) -> None:
        """Insert *item_id* at *position* (moves it if already present)."""
        if item_id in self._positions:
            self.move(item_id, position)
            return
        self._positions[item_id] = position
        bucket = self._cells.setdefault(self._cell_of(position), [])
        bisect.insort(bucket, _entry(item_id, position))
        self.epoch += 1

    def move(self, item_id: str, position: Point) -> None:
        """Update the position of *item_id* (KeyError if absent)."""
        old = self._positions[item_id]
        old_cell = self._cell_of(old)
        new_cell = self._cell_of(position)
        self._positions[item_id] = position
        self.epoch += 1
        if old_cell == new_cell:
            bucket = self._cells[old_cell]
            for index, entry in enumerate(bucket):
                if entry[0] == item_id:
                    bucket[index] = _entry(item_id, position)
                    break
            return
        self._discard(old_cell, item_id)
        bucket = self._cells.setdefault(new_cell, [])
        bisect.insort(bucket, _entry(item_id, position))

    def remove(self, item_id: str) -> None:
        """Remove *item_id* (KeyError if absent)."""
        position = self._positions.pop(item_id)
        self._discard(self._cell_of(position), item_id)
        self.epoch += 1

    def _discard(
        self, cell: typing.Tuple[int, int], item_id: str
    ) -> None:
        bucket = self._cells[cell]
        for index, entry in enumerate(bucket):
            if entry[0] == item_id:
                del bucket[index]
                break
        if not bucket:
            del self._cells[cell]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, item_id: str) -> bool:
        return item_id in self._positions

    def __len__(self) -> int:
        return len(self._positions)

    def position_of(self, item_id: str) -> Point:
        """Current position of *item_id* (KeyError if absent)."""
        return self._positions[item_id]

    def _offsets_for(
        self, radius: float
    ) -> typing.Tuple[typing.Tuple[int, int], ...]:
        """Candidate cell offsets covering a disk of *radius*.

        For a query centered anywhere in its home cell, the reachable
        cells lie within ``floor(r/cell) + 1`` in each axis; offsets
        whose nearest possible corner is still outside the disk are
        pruned up front.  The table is a superset of the exact per-query
        range, so query results are unaffected (each candidate is still
        distance-checked).
        """
        table = self._offsets.get(radius)
        if table is None:
            size = self.cell_size
            span = int(radius / size) + 1
            r2 = radius * radius
            offsets = []
            for dx in range(-span, span + 1):
                min_x = max(0, abs(dx) - 1) * size
                for dy in range(-span, span + 1):
                    min_y = max(0, abs(dy) - 1) * size
                    if min_x * min_x + min_y * min_y <= r2:
                        offsets.append((dx, dy))
            table = tuple(offsets)
            self._offsets[radius] = table
        return table

    def within(
        self, center: Point, radius: float
    ) -> typing.List[typing.Tuple[str, Point]]:
        """All ``(id, position)`` pairs within *radius* of *center*.

        Membership is inclusive of the boundary.  Order is deterministic
        (sorted by id) so simulations replay identically.
        """
        if radius < 0:
            return []
        size = self.cell_size
        r2 = radius * radius
        x = center.x
        y = center.y
        cx = _floor(x / size)
        cy = _floor(y / size)
        # Offsets of the query point inside its home cell; used to prune
        # candidate cells by their exact minimum distance to the center
        # (the offset table is only a worst-case-over-the-cell superset).
        fx = x - cx * size
        fy = y - cy * size
        get = self._cells.get
        candidates: typing.List[_Entry] = []
        extend = candidates.extend
        for dx, dy in self._offsets_for(radius):
            if dx > 0:
                mx = dx * size - fx
            elif dx:
                mx = fx - (dx + 1) * size
            else:
                mx = 0.0
            if dy > 0:
                my = dy * size - fy
            elif dy:
                my = fy - (dy + 1) * size
            else:
                my = 0.0
            if mx * mx + my * my > r2:
                continue
            bucket = get((cx + dx, cy + dy))
            if bucket:
                extend(bucket)
        found: typing.List[typing.Tuple[str, Point]] = []
        collect_entries_within_radius(candidates, x, y, r2, found)
        found.sort()
        return found

    def nearest(
        self, center: Point, exclude: typing.Container[str] = ()
    ) -> typing.Optional[typing.Tuple[str, Point]]:
        """The nearest item to *center* not in *exclude* (None if empty).

        Grid-accelerated: searches outward ring by ring.
        """
        if not self._positions:
            return None
        best: typing.Optional[typing.Tuple[str, Point]] = None
        best_d2 = float("inf")
        center_cell = self._cell_of(center)
        max_rings = 2 + int(
            max(
                (abs(cx - center_cell[0]) + abs(cy - center_cell[1]))
                for cx, cy in self._cells
            )
        )
        for ring in range(max_rings + 1):
            candidates = self._ring_members(center_cell, ring)
            for item_id in candidates:
                if item_id in exclude:
                    continue
                d2 = center.squared_distance_to(self._positions[item_id])
                if d2 < best_d2 or (
                    d2 == best_d2
                    and best is not None
                    and item_id < best[0]
                ):
                    best = (item_id, self._positions[item_id])
                    best_d2 = d2
            # Once a candidate is found, one further ring suffices: any
            # item beyond ring+1 is farther than cell_size * ring >= the
            # candidate distance bound.
            if best is not None and ring * self.cell_size > math.sqrt(
                best_d2
            ):
                break
        return best

    def _ring_members(
        self, center_cell: typing.Tuple[int, int], ring: int
    ) -> typing.List[str]:
        cx0, cy0 = center_cell
        members: typing.List[str] = []
        if ring == 0:
            cells = [(cx0, cy0)]
        else:
            cells = []
            for dx in range(-ring, ring + 1):
                cells.append((cx0 + dx, cy0 - ring))
                cells.append((cx0 + dx, cy0 + ring))
            for dy in range(-ring + 1, ring):
                cells.append((cx0 - ring, cy0 + dy))
                cells.append((cx0 + ring, cy0 + dy))
        for cell in cells:
            bucket = self._cells.get(cell)
            if bucket:
                for entry in bucket:
                    members.append(entry[0])
        members.sort()
        return members

    def items(self) -> typing.Iterator[typing.Tuple[str, Point]]:
        """All ``(id, position)`` pairs in sorted-id order."""
        for item_id in sorted(self._positions):
            yield item_id, self._positions[item_id]
