"""A reference polyomino enumerator for the tests to compare the library's
generator against: grow every shape of one size by every free side,
translate each result to the origin and de-duplicate through a set."""

from typing import Iterator, List, Set, Tuple
from unittest import mock

from polygrid import oracle
from polygrid.embedding import PlanarEmbedding
from polygrid.oracle import Shape, cells_to_embedding


def _canonical(cells: Set[Tuple[int, int]]) -> Shape:
    min_x = min(c[0] for c in cells)
    min_y = min(c[1] for c in cells)
    return tuple(sorted((x - min_x, y - min_y) for x, y in cells))


def reference_shapes(max_faces: int) -> List[List[Shape]]:
    """The translated, sorted cell tuples of every fixed polyomino of 1 to
    `max_faces` cells, one ascending list per cell count, grown level by
    level."""
    by_size = []
    shapes: List[Shape] = [((0, 0),)]
    for k in range(1, max_faces + 1):
        by_size.append(sorted(shapes))
        if k == max_faces:
            break
        grown: Set[Shape] = set()
        for shape in shapes:
            cells = set(shape)
            for cx, cy in cells:
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    cell = (cx + dx, cy + dy)
                    if cell in cells:
                        continue
                    grown.add(_canonical(cells | {cell}))
        shapes = list(grown)
    return by_size


def enumerate_polyominoes_reference(max_faces: int
                                    ) -> Iterator[PlanarEmbedding]:
    """The reference shapes as lattice graphs, named `poly{k}_{i}` like the
    library's."""
    for k, shapes in enumerate(reference_shapes(max_faces), 1):
        for i, shape in enumerate(shapes):
            yield cells_to_embedding(shape, name=f"poly{k}_{i}")


def built_shapes(max_faces: int) -> List[Tuple[str, Shape]]:
    """(name, cells) for every graph `enumerate_polyominoes(max_faces)`
    yields, in order: the cells it hands
    `PlanarEmbedding._from_unit_cells`, read by wrapping that method."""
    built = []
    real = PlanarEmbedding._from_unit_cells

    def recording(cells, name, *shared):
        built.append((name, tuple(cells)))
        return real(cells, name, *shared)

    with mock.patch.object(PlanarEmbedding, "_from_unit_cells", recording):
        names = [g.name for g in oracle.enumerate_polyominoes(max_faces)]
    assert names == [name for name, _ in built]
    return built
