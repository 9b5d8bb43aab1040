"""Exact integer plane geometry for planarity validation.

All predicates are exact: inputs are integer lattice points and every
comparison is done in integer arithmetic, so there are no tolerance knobs
anywhere.
"""

from __future__ import annotations


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
        # Touching at one shared endpoint is fine; sharing both is not.
        if len(shared) == 2:
            return True
        (p,) = shared
        seg1 = next(q for q in (a, b) if q != p)
        seg2 = next(q for q in (c, d) if q != p)
        # Only collinear edges running out of p the same way overlap; a far
        # endpoint lying on the other edge is such an overlap.
        return cross(p, seg1, seg2) == 0 and (
            (seg1[0] - p[0]) * (seg2[0] - p[0])
            + (seg1[1] - p[1]) * (seg2[1] - p[1]) > 0)
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

