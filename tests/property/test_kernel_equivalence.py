"""Exact-equality properties for the remaining batch geometry paths.

Two paths answer a geometry query for many inputs at once and promise
*bit-identical* results to a scalar reference: the nearest-site batch
(:func:`~repro.geometry.closest_site_indices` and
:meth:`~repro.geometry.VoronoiDiagram.owner_of`) and
:meth:`~repro.core.knowledge.RobotKnowledge.closest`'s row scan.  That
identity keeps the pinned trace-hash baselines unchanged, so these
properties assert ``==``, never ``math.isclose``: one reordered
subtraction would break a baseline, so an approximate test would be
testing the wrong contract.  The spatial grid's range filter is covered
against brute force by ``test_within_matches_brute_force``.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.knowledge import RobotKnowledge
from repro.geometry import (
    Point,
    Rect,
    VoronoiDiagram,
    closest_site_index,
    closest_site_indices,
)

coords = st.floats(
    min_value=-1e6,
    max_value=1e6,
    allow_nan=False,
    allow_infinity=False,
)
point_lists = st.lists(st.tuples(coords, coords), max_size=40)
site_lists = st.lists(st.tuples(coords, coords), min_size=1, max_size=12)


class TestNearestSiteKernels:
    @given(point_lists, site_lists)
    def test_batch_matches_scalar_reference(self, pairs, site_pairs):
        points = [Point(x, y) for x, y in pairs]
        sites = [Point(x, y) for x, y in site_pairs]
        expected = [closest_site_index(p, sites) for p in points]
        assert closest_site_indices(points, sites) == expected
        # VoronoiDiagram.owner_of breaks ties by insertion order, like
        # closest_site_index does by list order.
        diagram = VoronoiDiagram(Rect(-1e6, -1e6, 1e6, 1e6))
        names = [f"r{i:02d}" for i in range(len(sites))]
        for name, site in zip(names, sites):
            diagram.set_site(name, site)
        assert [diagram.owner_of(p) for p in points] == [
            names[i] for i in expected
        ]


class TestRobotKnowledgeClosest:
    @given(
        st.dictionaries(
            st.sampled_from([f"robot-{i}" for i in range(8)]),
            st.tuples(coords, coords, st.integers(0, 99)),
            max_size=8,
        ),
        coords,
        coords,
        st.sets(st.sampled_from([f"robot-{i}" for i in range(8)])),
    )
    def test_closest_matches_scalar_dict_loop(
        self, table, px, py, exclude
    ):
        knowledge = RobotKnowledge()
        for robot_id, (x, y, seq) in table.items():
            knowledge[robot_id] = (Point(x, y), seq)
        # Scalar reference: the original dict loop over items(), with
        # the lexicographic (d2, id) minimum selection.
        best = None
        best_d2 = float("inf")
        for robot_id in sorted(table):
            if robot_id in exclude:
                continue
            x, y, _seq = table[robot_id]
            dx = px - x
            dy = py - y
            d2 = dx * dx + dy * dy
            if d2 < best_d2 or (
                d2 == best_d2 and best is not None and robot_id < best[0]
            ):
                best = (robot_id, Point(x, y))
                best_d2 = d2
        assert knowledge.closest(px, py, exclude) == best
