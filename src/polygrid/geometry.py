"""Exact integer/rational plane geometry helpers.

All predicates are exact: inputs are integer lattice points (or Fractions
derived from them) and every comparison is done in rational arithmetic, so
there are no tolerance knobs anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

Point = Tuple[int, int]
RatPoint = Tuple[Fraction, Fraction]


def cross(o, a, b):
    """Cross product of (a - o) x (b - o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def on_segment(p, a, b) -> bool:
    """True if point p lies on the closed segment ab (collinear + between)."""
    if cross(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_cross(a, b, c, d) -> bool:
    """True if closed segments ab and cd intersect anywhere except at a
    shared endpoint.

    Used to validate that a straight-line drawing is non-crossing: two edges
    may only touch at a common vertex.
    """
    shared = {a, b} & {c, d}
    if shared:
        # Touching at one shared endpoint is fine; any other containment
        # (e.g. overlap, or the far endpoint on the other segment) is not.
        if len(shared) == 2:
            return True
        (p,) = shared
        seg1 = next(q for q in (a, b) if q != p)
        seg2 = next(q for q in (c, d) if q != p)
        # Collinear overlapping edges running out of the shared endpoint.
        if cross(p, seg1, seg2) == 0:
            dot = (seg1[0] - p[0]) * (seg2[0] - p[0]) + (seg1[1] - p[1]) * (
                seg2[1] - p[1]
            )
            if dot > 0:
                return True
        # The far endpoint of one segment sitting on the other.
        if on_segment(seg1, c, d) or on_segment(seg2, a, b):
            return True
        return False
    d1 = cross(c, d, a)
    d2 = cross(c, d, b)
    d3 = cross(a, b, c)
    d4 = cross(a, b, d)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and on_segment(a, c, d):
        return True
    if d2 == 0 and on_segment(b, c, d):
        return True
    if d3 == 0 and on_segment(c, a, b):
        return True
    if d4 == 0 and on_segment(d, a, b):
        return True
    return False


def signed_area2(polygon: Sequence[Point]):
    """Twice the signed area of the (possibly non-simple) closed walk."""
    total = 0
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


class BoundaryPointError(Exception):
    """A query point landed exactly on a polygon boundary.

    Face representative points are strictly interior by construction, so this
    indicates a bug rather than bad input.
    """


def point_in_polygon(pt: RatPoint, polygon: Sequence[Point]) -> bool:
    """Exact ray-crossing test; True iff pt is strictly inside.

    Raises BoundaryPointError when pt lies on an edge or vertex.
    """
    px, py = pt
    n = len(polygon)
    inside = False
    for i in range(n):
        ax, ay = polygon[i]
        bx, by = polygon[(i + 1) % n]
        if on_segment((px, py), (ax, ay), (bx, by)):
            raise BoundaryPointError(f"point {pt} on polygon boundary")
        if (ay > py) != (by > py):
            # x-coordinate of the edge at height py, exact.
            x_at = Fraction(ax * (by - ay) + (py - ay) * (bx - ax), by - ay)
            if x_at > px:
                inside = not inside
    return inside


def polygon_centroid(polygon: Sequence[Point]) -> RatPoint:
    """Exact area centroid of a simple polygon."""
    a2 = Fraction(0)
    cx = Fraction(0)
    cy = Fraction(0)
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        w = x1 * y2 - x2 * y1
        a2 += w
        cx += (x1 + x2) * w
        cy += (y1 + y2) * w
    if a2 == 0:
        raise ValueError("degenerate polygon")
    return (cx / (3 * a2), cy / (3 * a2))


def interior_point(polygon: Sequence[Point]) -> RatPoint:
    """A point strictly inside a simple polygon.

    The centroid works for every convex cell; for non-convex faces fall back
    to the centroid of an ear triangle.
    """
    c = polygon_centroid(polygon)
    try:
        if point_in_polygon(c, polygon):
            return c
    except BoundaryPointError:
        pass
    orient = 1 if signed_area2(polygon) > 0 else -1
    n = len(polygon)
    for i in range(n):
        a = polygon[i - 1]
        b = polygon[i]
        c3 = polygon[(i + 1) % n]
        turn = cross(a, b, c3)
        if turn == 0 or (turn > 0) != (orient > 0):
            continue  # reflex or collinear vertex, not an ear tip
        tri = (a, b, c3)
        if any(
            _in_or_on_triangle(p, tri)
            for p in polygon
            if p not in tri
        ):
            continue
        gx = Fraction(a[0] + b[0] + c3[0], 3)
        gy = Fraction(a[1] + b[1] + c3[1], 3)
        return (gx, gy)
    raise ValueError("no interior point found; polygon is not simple")


def _in_or_on_triangle(p, tri) -> bool:
    a, b, c = tri
    d1 = cross(a, b, p)
    d2 = cross(b, c, p)
    d3 = cross(c, a, p)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)

