"""Ground-plane geometry: footprint polygons, road-aligned frames, lane zones.

All coordinates are metric ground-plane coordinates unless a name says
otherwise. Polygons are simple (non self-intersecting), implicitly closed,
and may be non-convex. Boundary points count as inside everywhere; a track
sitting exactly on a footprint border must not flicker in and out of
trigger regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import GeometryError

# Metric slack for on-boundary tests. Coordinates are corridor-scale meters,
# so 1e-9 is far below any physical jitter yet far above float noise.
BOUNDARY_EPS = 1e-9


class Point2(NamedTuple):
    x: float
    y: float


class Zone(Enum):
    """Which side of the split line a road user occupies."""

    UPPER = "upper"
    LOWER = "lower"


def _signed_area(vertices: Sequence[Point2]) -> float:
    acc = 0.0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return 0.5 * acc


@dataclass(frozen=True)
class Polygon:
    """Simple polygon given as an ordered vertex ring (either winding)."""

    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        try:
            verts = tuple(Point2(float(x), float(y)) for x, y in self.vertices)
        except (TypeError, ValueError) as exc:
            raise GeometryError(f"polygon vertices must be coordinate pairs: {exc}") from exc
        if len(verts) < 3:
            raise GeometryError(f"polygon needs at least 3 vertices, got {len(verts)}")
        for p in verts:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise GeometryError(f"polygon has non-finite vertex {p}")
        if _signed_area(verts) == 0.0:
            raise GeometryError("polygon has zero area")
        object.__setattr__(self, "vertices", verts)
        xs = [p.x for p in verts]
        ys = [p.y for p in verts]
        object.__setattr__(self, "_bbox", (min(xs), min(ys), max(xs), max(ys)))

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        return self._bbox  # type: ignore[attr-defined]

    @property
    def area(self) -> float:
        return abs(_signed_area(self.vertices))


@dataclass(frozen=True)
class RoadFrame:
    """Road-aligned coordinate frame.

    ``axis`` is the unit direction of nominal travel for the UPPER zone;
    lateral offsets are measured along the +90 degree rotation of it.
    ``y_split`` divides the two traffic streams and must sit strictly
    inside the paved width. ``normal`` is the unit lateral direction (axis
    rotated +90 degrees), derived once from ``axis``.
    """

    origin: Point2
    axis: Point2
    width: float
    y_split: float = 0.0
    normal: Point2 = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        origin = Point2(float(self.origin[0]), float(self.origin[1]))
        axis = Point2(float(self.axis[0]), float(self.axis[1]))
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "normal", Point2(-axis.y, axis.x))
        if not all(math.isfinite(v) for v in (*origin, *axis, self.width, self.y_split)):
            raise GeometryError("road frame has non-finite component")
        if abs(math.hypot(axis.x, axis.y) - 1.0) > 1e-9:
            raise GeometryError(f"road frame axis must be unit length, got {axis}")
        if self.width <= 0.0:
            raise GeometryError(f"road width must be positive, got {self.width}")
        if not (-self.width / 2.0 < self.y_split < self.width / 2.0):
            raise GeometryError(
                f"y_split {self.y_split} must lie strictly inside the half-width "
                f"interval (-{self.width / 2.0}, {self.width / 2.0})"
            )


def _dist_to_segment(p: Point2, a: Point2, b: Point2) -> float:
    vx, vy = b[0] - a[0], b[1] - a[1]
    wx, wy = p[0] - a[0], p[1] - a[1]
    vv = vx * vx + vy * vy
    if vv == 0.0:
        return math.hypot(wx, wy)
    t = (wx * vx + wy * vy) / vv
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(p[0] - (a[0] + t * vx), p[1] - (a[1] + t * vy))


def point_in_polygon(p: Point2, poly: Polygon) -> bool:
    """Even-odd containment test; points on the boundary count as inside.

    The crossing test runs first; only a point it puts outside pays for the
    boundary-distance tests, which can still pull it in.
    """
    x, y = float(p[0]), float(p[1])
    minx, miny, maxx, maxy = poly.bbox
    if x < minx - BOUNDARY_EPS or x > maxx + BOUNDARY_EPS:
        return False
    if y < miny - BOUNDARY_EPS or y > maxy + BOUNDARY_EPS:
        return False
    verts = poly.vertices
    n = len(verts)
    inside = False
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    if inside:
        return True
    pt = Point2(x, y)
    for i in range(n):
        if _dist_to_segment(pt, verts[i], verts[(i + 1) % n]) <= BOUNDARY_EPS:
            return True
    return False


def _orient(a: Point2, b: Point2, c: Point2) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _within_bbox(a: Point2, b: Point2, c: Point2) -> bool:
    return (
        min(a[0], b[0]) - BOUNDARY_EPS <= c[0] <= max(a[0], b[0]) + BOUNDARY_EPS
        and min(a[1], b[1]) - BOUNDARY_EPS <= c[1] <= max(a[1], b[1]) + BOUNDARY_EPS
    )


def _segments_intersect(a: Point2, b: Point2, c: Point2, d: Point2) -> bool:
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    if o1 == 0.0 and _within_bbox(a, b, c):
        return True
    if o2 == 0.0 and _within_bbox(a, b, d):
        return True
    if o3 == 0.0 and _within_bbox(c, d, a):
        return True
    if o4 == 0.0 and _within_bbox(c, d, b):
        return True
    return ((o1 > 0.0) != (o2 > 0.0)) and ((o3 > 0.0) != (o4 > 0.0))


def polygons_intersect(a: Polygon, b: Polygon) -> bool:
    """True when the two polygons share any point (touching edges included)."""
    aminx, aminy, amaxx, amaxy = a.bbox
    bminx, bminy, bmaxx, bmaxy = b.bbox
    if (
        amaxx < bminx - BOUNDARY_EPS
        or bmaxx < aminx - BOUNDARY_EPS
        or amaxy < bminy - BOUNDARY_EPS
        or bmaxy < aminy - BOUNDARY_EPS
    ):
        return False
    # Vertex containment covers one-inside-the-other and shared corners.
    for p in a.vertices:
        if point_in_polygon(p, b):
            return True
    for p in b.vertices:
        if point_in_polygon(p, a):
            return True
    na, nb = len(a.vertices), len(b.vertices)
    for i in range(na):
        a1, a2 = a.vertices[i], a.vertices[(i + 1) % na]
        for j in range(nb):
            if _segments_intersect(a1, a2, b.vertices[j], b.vertices[(j + 1) % nb]):
                return True
    return False


def to_road_frame(p: Point2, frame: RoadFrame) -> tuple[float, float]:
    """Project a ground point to (longitudinal, lateral) road coordinates."""
    dx = p[0] - frame.origin.x
    dy = p[1] - frame.origin.y
    s = dx * frame.axis.x + dy * frame.axis.y
    lat = dx * frame.normal.x + dy * frame.normal.y
    return s, lat


def lateral_norm(p: Point2, frame: RoadFrame) -> float:
    """Lateral offset normalized so the paved width maps to [0, 1].

    Deliberately unclamped: off-road positions map outside [0, 1], which
    preserves ordering for match residuals instead of saturating.
    """
    _, lat = to_road_frame(p, frame)
    return (lat + frame.width / 2.0) / frame.width


def get_zone(p: Point2, frame: RoadFrame) -> Zone:
    """Zone by lateral offset alone; the split line itself belongs to LOWER."""
    _, lat = to_road_frame(p, frame)
    return Zone.UPPER if lat < frame.y_split else Zone.LOWER
