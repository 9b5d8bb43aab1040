import pytest

from polygrid import PlanarEmbedding, fixtures, trace_faces
from polygrid.oracle import gen_grid


@pytest.fixture
def square():
    return fixtures.square()


@pytest.fixture
def domino():
    return fixtures.domino()


@pytest.fixture
def grid3():
    return fixtures.grid3()


@pytest.fixture
def grid4():
    return fixtures.grid4()


@pytest.fixture
def fig8():
    return fixtures.fig8()


@pytest.fixture
def twin_nonagons():
    return fixtures.twin_nonagons()


def basis_of(g):
    return trace_faces(g)


@pytest.fixture
def bridged_blocks():
    """Two 3x3 blocks of unit cells joined by one bridge edge, which lies
    on no bounded face."""
    block = gen_grid(4, 4)
    coords = dict(block.coords)
    shift = len(coords)
    coords.update({v + shift: (x + 4, y) for v, (x, y) in block.coords.items()})
    at = {p: v for v, p in coords.items()}
    edges = (list(block.edges)
             + [(u + shift, v + shift) for u, v in block.edges]
             + [(at[(3, 1)], at[(4, 1)])])
    return PlanarEmbedding(coords, edges, name="bridged-blocks")
