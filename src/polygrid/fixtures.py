"""Shared desk-scale fixtures.

Built on demand, so each test gets a fresh embedding.  The lattice
fixtures come from unit cells, planar by construction, and skip the
planarity scan; `twin_nonagons` is drawn from polygon rings and is
validated in full.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from .embedding import PlanarEmbedding
from .oracle import cells_to_embedding


def _polygons_to_embedding(rings: List[Sequence[Tuple[int, int]]],
                           name: str) -> PlanarEmbedding:
    """Straight-line drawing of polygon rings: vertices are the corners,
    numbered in sorted point order, and edges the ring sides (shared sides
    deduplicated).  Validated in full, planarity included."""
    points = sorted({p for ring in rings for p in ring})
    ids = {p: i for i, p in enumerate(points)}
    sides: Set[Tuple[int, int]] = set()
    for ring in rings:
        for i, p in enumerate(ring):
            a, b = ids[ring[i - 1]], ids[p]
            sides.add((min(a, b), max(a, b)))
    return PlanarEmbedding(dict(enumerate(points)), sorted(sides), name=name)


def _lattice_cells(m: int, n: int) -> List[Tuple[int, int]]:
    """The unit cells of gen_grid(m, n): an m x n vertex lattice."""
    return [(cx, cy) for cx in range(m - 1) for cy in range(n - 1)]


def square() -> PlanarEmbedding:
    return cells_to_embedding(_lattice_cells(2, 2), name="square")


def domino() -> PlanarEmbedding:
    """2x3-vertex grid: two unit cells stacked."""
    return cells_to_embedding(_lattice_cells(2, 3), name="domino")


def grid3() -> PlanarEmbedding:
    return cells_to_embedding(_lattice_cells(3, 3), name="grid3")


def grid4() -> PlanarEmbedding:
    return cells_to_embedding(_lattice_cells(4, 4), name="grid4")


def fig8() -> PlanarEmbedding:
    """Two unit squares sharing exactly one vertex."""
    return cells_to_embedding([(0, 0), (1, 1)], name="fig8")


def twin_nonagons() -> PlanarEmbedding:
    """Two 9-gon faces joined through a central 4-gon face.

    The square shares one edge with each nonagon; no interior faces exist,
    so the decomposition sees two empty-interior subbases and a one-face
    co-set.
    """
    left = [(0, 0), (0, 1), (-1, 2), (-2, 2), (-3, 2), (-4, 1), (-4, 0),
            (-3, -1), (-1, -1)]
    right = [(1, 0), (1, 1), (2, 2), (3, 2), (4, 2), (5, 1), (5, 0),
             (4, -1), (2, -1)]
    centre = [(0, 0), (1, 0), (1, 1), (0, 1)]
    return _polygons_to_embedding([left, right, centre], name="twin-nonagons")


ALL = {
    "square": square,
    "domino": domino,
    "grid3": grid3,
    "grid4": grid4,
    "fig8": fig8,
    "twin-nonagons": twin_nonagons,
}
