from itertools import product

from polygrid.geometry import cross, on_segment, segments_cross


def test_segments_cross_basic():
    assert segments_cross((0, 0), (2, 2), (0, 2), (2, 0))
    assert not segments_cross((0, 0), (1, 0), (0, 1), (1, 1))


def test_segments_shared_endpoint_ok():
    assert not segments_cross((0, 0), (1, 0), (1, 0), (1, 1))


def test_segments_collinear_overlap():
    assert segments_cross((0, 0), (2, 0), (1, 0), (3, 0))
    assert segments_cross((0, 0), (2, 0), (0, 0), (1, 0))
    assert not segments_cross((0, 0), (1, 0), (1, 0), (2, 0))


def test_segments_touching_interior():
    # T-junction: endpoint of one segment inside the other.
    assert segments_cross((0, 0), (2, 0), (1, 0), (1, 1))


def _shared_endpoint_cross_with_containment_check(a, b, c, d):
    """The shared-endpoint branch as it was, with its separate test for a
    far endpoint lying on the other segment."""
    (p,) = {a, b} & {c, d}
    seg1 = next(q for q in (a, b) if q != p)
    seg2 = next(q for q in (c, d) if q != p)
    if cross(p, seg1, seg2) == 0:
        dot = ((seg1[0] - p[0]) * (seg2[0] - p[0])
               + (seg1[1] - p[1]) * (seg2[1] - p[1]))
        if dot > 0:
            return True
    return on_segment(seg1, c, d) or on_segment(seg2, a, b)


def test_shared_endpoint_needs_no_containment_check():
    # Every ordered pair of segments on [-2, 2]^2 sharing exactly one
    # endpoint: the collinear-overlap test alone decides them.
    points = list(product(range(-2, 3), repeat=2))
    pairs = 0
    for a, b in product(points, repeat=2):
        if a == b:
            continue
        for shared, c in product((a, b), points):
            if c in (a, b):
                continue
            for seg in ((shared, c), (c, shared)):
                pairs += 1
                assert segments_cross(a, b, *seg) == \
                    _shared_endpoint_cross_with_containment_check(a, b, *seg)
    assert pairs == 55200

