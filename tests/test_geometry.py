from polygrid.geometry import segments_cross, signed_area2

UNIT = [(0, 0), (1, 0), (1, 1), (0, 1)]


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
