from fractions import Fraction

import pytest

from polygrid.geometry import (BoundaryPointError, interior_point,
                               point_in_polygon, polygon_centroid,
                               segments_cross, signed_area2)

UNIT = [(0, 0), (1, 0), (1, 1), (0, 1)]
L_SHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]


def F(a, b=1):
    return Fraction(a, b)


def test_point_in_unit_square():
    assert point_in_polygon((F(1, 2), F(1, 2)), UNIT)
    assert not point_in_polygon((F(2), F(1, 2)), UNIT)
    assert not point_in_polygon((F(-1), F(1, 2)), UNIT)


def test_point_on_boundary_raises():
    with pytest.raises(BoundaryPointError):
        point_in_polygon((F(0), F(1, 2)), UNIT)
    with pytest.raises(BoundaryPointError):
        point_in_polygon((F(1), F(1)), UNIT)


def test_point_in_polygon_vertex_on_ray():
    # Ray through polygon vertices must not double-count.
    diamond = [(0, 0), (2, -2), (4, 0), (2, 2)]
    assert point_in_polygon((F(2), F(0)), diamond)
    assert not point_in_polygon((F(-1), F(0)), diamond)
    assert not point_in_polygon((F(5), F(0)), diamond)


def test_centroid_unit_square():
    assert polygon_centroid(UNIT) == (F(1, 2), F(1, 2))


def test_interior_point_convex():
    p = interior_point(UNIT)
    assert point_in_polygon(p, UNIT)


def test_interior_point_nonconvex():
    # The centroid of a thin U-shape can fall outside; the fallback must
    # still return a strictly interior point.
    u_shape = [(0, 0), (5, 0), (5, 3), (4, 3), (4, 1), (1, 1), (1, 3),
               (0, 3)]
    p = interior_point(u_shape)
    assert point_in_polygon(p, u_shape)
    p2 = interior_point(L_SHAPE)
    assert point_in_polygon(p2, L_SHAPE)


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


def test_signed_area_orientation():
    assert signed_area2(UNIT) == 2
    assert signed_area2(list(reversed(UNIT))) == -2
