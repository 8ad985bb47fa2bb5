import dataclasses
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from camchain.errors import GeometryError
from camchain.geometry import (
    BOUNDARY_EPS,
    Point2,
    Polygon,
    RoadFrame,
    Zone,
    get_zone,
    lateral_norm,
    point_in_polygon,
    polygons_intersect,
    _dist_to_segment,
    to_road_frame,
)
from helpers import min_edge_dist, pip_oracle, star_polygon

L_SHAPE = Polygon(
    (
        Point2(0, 0), Point2(2, 0), Point2(2, 1),
        Point2(1, 1), Point2(1, 2), Point2(0, 2),
    )
)


class TestPointInPolygon:
    def test_l_shape_interior(self):
        assert point_in_polygon(Point2(0.5, 0.25), L_SHAPE) is True

    def test_l_shape_notch_is_outside(self):
        # the cut-away quadrant of the L
        assert point_in_polygon(Point2(1.5, 1.5), L_SHAPE) is False

    def test_boundary_counts_as_inside(self):
        verts = L_SHAPE.vertices
        for v in verts:
            assert point_in_polygon(v, L_SHAPE)
        for i in range(len(verts)):
            a, b = verts[i], verts[(i + 1) % len(verts)]
            mid = Point2((a.x + b.x) / 2, (a.y + b.y) / 2)
            assert point_in_polygon(mid, L_SHAPE)

    def test_just_outside(self):
        assert not point_in_polygon(Point2(-1e-3, 1.0), L_SHAPE)
        assert not point_in_polygon(Point2(2.001, 0.5), L_SHAPE)
        assert not point_in_polygon(Point2(1.0 + 1e-3, 1.0 + 1e-3), L_SHAPE)

    def test_concave_ray_through_notch(self):
        # a horizontal ray from here crosses the notch, parity must still work
        assert point_in_polygon(Point2(0.5, 1.5), L_SHAPE)

    @given(
        st.integers(-50, 50), st.integers(-50, 50),
        st.integers(1, 40), st.integers(1, 40),
        st.integers(-60, 60), st.integers(-60, 60),
    )
    def test_rectangle_matches_interval_logic(self, x0, y0, w, h, px, py):
        poly = Polygon(
            (Point2(x0, y0), Point2(x0 + w, y0), Point2(x0 + w, y0 + h), Point2(x0, y0 + h))
        )
        want = x0 <= px <= x0 + w and y0 <= py <= y0 + h
        assert point_in_polygon(Point2(px, py), poly) == want

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_integer_translation_invariance(self, dx, dy):
        moved = Polygon(tuple(Point2(v.x + dx, v.y + dy) for v in L_SHAPE.vertices))
        for p, want in [
            (Point2(0.5, 0.25), True), (Point2(1.5, 1.5), False),
            (Point2(1.0, 1.0), True), (Point2(2.5, 0.5), False),
        ]:
            assert point_in_polygon(Point2(p.x + dx, p.y + dy), moved) == want

    def test_agrees_with_winding_oracle(self):
        rng = random.Random(0xC0FFEE)
        checked = 0
        for _ in range(150):
            poly = star_polygon(rng)
            minx, miny, maxx, maxy = poly.bbox
            for _ in range(12):
                x = rng.uniform(minx - 1.0, maxx + 1.0)
                y = rng.uniform(miny - 1.0, maxy + 1.0)
                if min_edge_dist(x, y, poly.vertices) < 1e-7:
                    continue  # ambiguous band between the two epsilon rules
                assert point_in_polygon(Point2(x, y), poly) == pip_oracle(
                    x, y, poly.vertices
                ), f"disagreement at ({x}, {y}) on {poly.vertices}"
                checked += 1
        assert checked > 1500


def _pip_boundary_first(p, poly):
    """The earlier point_in_polygon: boundary distances first, then parity."""
    x, y = float(p[0]), float(p[1])
    minx, miny, maxx, maxy = poly.bbox
    if x < minx - BOUNDARY_EPS or x > maxx + BOUNDARY_EPS:
        return False
    if y < miny - BOUNDARY_EPS or y > maxy + BOUNDARY_EPS:
        return False
    verts = poly.vertices
    n = len(verts)
    pt = Point2(x, y)
    for i in range(n):
        if _dist_to_segment(pt, verts[i], verts[(i + 1) % n]) <= BOUNDARY_EPS:
            return True
    inside = False
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


@st.composite
def _probes(draw):
    """A polygon and a point on, next to, or anywhere around it."""
    poly = draw(
        st.one_of(
            st.just(L_SHAPE),
            st.integers(0, 2**32 - 1).map(lambda seed: star_polygon(random.Random(seed))),
        )
    )
    verts = poly.vertices
    i = draw(st.integers(0, len(verts) - 1))
    (ax, ay), (bx, by) = verts[i], verts[(i + 1) % len(verts)]
    kind = draw(st.sampled_from(["vertex", "edge", "offset", "random"]))
    if kind == "vertex":
        return poly, Point2(ax, ay)
    if kind == "random":
        minx, miny, maxx, maxy = poly.bbox
        x = draw(st.floats(minx - 1.0, maxx + 1.0))
        y = draw(st.floats(miny - 1.0, maxy + 1.0))
        return poly, Point2(x, y)
    u = draw(st.floats(0.0, 1.0))
    x, y = ax + u * (bx - ax), ay + u * (by - ay)
    if kind == "offset":
        d = draw(st.sampled_from([-2e-9, -1e-9, -0.5e-9, 0.5e-9, 1e-9, 2e-9]))
        length = math.hypot(bx - ax, by - ay)
        x, y = x - d * (by - ay) / length, y + d * (bx - ax) / length
    return poly, Point2(x, y)


@given(_probes())
def test_point_in_polygon_equals_the_boundary_first_test(probe):
    poly, p = probe
    assert point_in_polygon(p, poly) == _pip_boundary_first(p, poly)


class TestPolygonValidation:
    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            Polygon((Point2(0, 0), Point2(1, 1)))

    def test_collinear_is_zero_area(self):
        with pytest.raises(GeometryError, match="zero area"):
            Polygon((Point2(0, 0), Point2(1, 1), Point2(2, 2)))

    def test_non_finite_vertex(self):
        with pytest.raises(GeometryError):
            Polygon((Point2(0, 0), Point2(1, 0), Point2(math.nan, 1)))

    def test_area_and_bbox(self):
        assert L_SHAPE.area == pytest.approx(3.0)
        assert L_SHAPE.bbox == (0.0, 0.0, 2.0, 2.0)

    def test_winding_direction_irrelevant(self):
        cw = Polygon(tuple(reversed(L_SHAPE.vertices)))
        assert cw.area == pytest.approx(3.0)
        assert point_in_polygon(Point2(0.5, 0.25), cw)


class TestPolygonsIntersect:
    def r(self, x0, y0, x1, y1):
        return Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))

    def test_disjoint(self):
        assert not polygons_intersect(self.r(0, 0, 1, 1), self.r(2, 2, 3, 3))

    def test_touching_edge_counts(self):
        assert polygons_intersect(self.r(0, 0, 1, 1), self.r(1, 0, 2, 1))

    def test_containment(self):
        assert polygons_intersect(self.r(0, 0, 10, 10), self.r(4, 4, 5, 5))
        assert polygons_intersect(self.r(4, 4, 5, 5), self.r(0, 0, 10, 10))

    def test_cross_shape_no_vertex_inside(self):
        # plus-sign configuration: edges cross, no vertex of either inside the other
        tall = self.r(4, 0, 6, 10)
        wide = self.r(0, 4, 10, 6)
        assert polygons_intersect(tall, wide)
        assert polygons_intersect(wide, tall)

    @given(
        st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 15), st.integers(1, 15)),
        st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 15), st.integers(1, 15)),
    )
    def test_rectangles_match_interval_logic(self, a, b):
        ax, ay, aw, ah = a
        bx, by, bw, bh = b
        pa = self.r(ax, ay, ax + aw, ay + ah)
        pb = self.r(bx, by, bx + bw, by + bh)
        want = not (
            ax + aw < bx or bx + bw < ax or ay + ah < by or by + bh < ay
        )
        assert polygons_intersect(pa, pb) == want
        assert polygons_intersect(pb, pa) == want


class TestRoadFrame:
    def test_diagonal_projection(self):
        s22 = math.sqrt(2.0) / 2.0
        frame = RoadFrame(origin=Point2(0, 0), axis=Point2(s22, s22), width=8.0)
        s, lat = to_road_frame(Point2(1.0, 0.0), frame)
        assert s == pytest.approx(s22, abs=1e-12)
        assert lat == pytest.approx(-s22, abs=1e-12)

    def test_normal_is_left_of_axis(self):
        frame = RoadFrame(origin=Point2(0, 0), axis=Point2(1.0, 0.0), width=8.0)
        assert frame.normal == Point2(-0.0, 1.0) or frame.normal == Point2(0.0, 1.0)

    def test_normal_follows_a_replaced_axis(self):
        frame = RoadFrame(origin=Point2(0, 0), axis=Point2(1.0, 0.0), width=8.0)
        turned = dataclasses.replace(frame, axis=Point2(0.0, 1.0))
        assert turned.normal == Point2(-1.0, 0.0)
        assert turned != frame

    def test_axis_must_be_unit(self):
        with pytest.raises(GeometryError, match="unit"):
            RoadFrame(origin=Point2(0, 0), axis=Point2(1.0, 1.0), width=8.0)

    def test_width_positive(self):
        with pytest.raises(GeometryError):
            RoadFrame(origin=Point2(0, 0), axis=Point2(1, 0), width=0.0)

    def test_y_split_strictly_inside(self):
        with pytest.raises(GeometryError):
            RoadFrame(origin=Point2(0, 0), axis=Point2(1, 0), width=8.0, y_split=4.0)
        RoadFrame(origin=Point2(0, 0), axis=Point2(1, 0), width=8.0, y_split=3.9)

    def test_non_finite_rejected(self):
        with pytest.raises(GeometryError):
            RoadFrame(origin=Point2(math.inf, 0), axis=Point2(1, 0), width=8.0)


class TestLateralNorm:
    FRAME = RoadFrame(origin=Point2(0, 0), axis=Point2(1.0, 0.0), width=8.0)

    def test_worked_value(self):
        # width 8, offset +2 from the centerline -> three quarters across
        assert lateral_norm(Point2(123.0, 2.0), self.FRAME) == 0.75

    def test_edges_and_center(self):
        assert lateral_norm(Point2(0, -4.0), self.FRAME) == 0.0
        assert lateral_norm(Point2(0, 0.0), self.FRAME) == 0.5
        assert lateral_norm(Point2(0, 4.0), self.FRAME) == 1.0

    def test_unclamped_off_road(self):
        assert lateral_norm(Point2(0, 6.0), self.FRAME) == 1.25
        assert lateral_norm(Point2(0, -6.0), self.FRAME) == -0.25

    @given(st.floats(-40, 40, allow_nan=False), st.floats(-1000, 1000, allow_nan=False))
    def test_mirror_symmetry(self, y, x):
        a = lateral_norm(Point2(x, y), self.FRAME)
        b = lateral_norm(Point2(x, -y), self.FRAME)
        assert a + b == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_longitudinal_position_irrelevant(self, x):
        assert lateral_norm(Point2(x, 2.0), self.FRAME) == pytest.approx(0.75, abs=1e-9)


class TestGetZone:
    FRAME = RoadFrame(origin=Point2(0, 0), axis=Point2(1.0, 0.0), width=8.0)

    def test_split_line_belongs_to_lower(self):
        assert get_zone(Point2(5.0, 0.0), self.FRAME) is Zone.LOWER

    def test_sides(self):
        # axis east, normal north: negative y is the upper (along-axis) stream
        assert get_zone(Point2(0, -0.1), self.FRAME) is Zone.UPPER
        assert get_zone(Point2(0, 2.5), self.FRAME) is Zone.LOWER

    def test_shifted_split(self):
        frame = RoadFrame(origin=Point2(0, 0), axis=Point2(1, 0), width=8.0, y_split=1.0)
        assert get_zone(Point2(0, 0.5), frame) is Zone.UPPER
        assert get_zone(Point2(0, 1.0), frame) is Zone.LOWER

    def test_rotated_frame(self):
        # northbound road: east of the centerline is the along-axis stream
        frame = RoadFrame(origin=Point2(0, 0), axis=Point2(0.0, 1.0), width=8.0)
        assert get_zone(Point2(1.0, 50.0), frame) is Zone.UPPER
        assert get_zone(Point2(-1.0, -50.0), frame) is Zone.LOWER

    @given(st.floats(-1e6, 1e6, allow_nan=False), st.floats(-40, 40, allow_nan=False))
    def test_longitudinal_invariance(self, x, y):
        assert get_zone(Point2(x, y), self.FRAME) is get_zone(Point2(0.0, y), self.FRAME)
