"""Reference rotation and face tracing for the tests to compare the
library's embedding against: a cross-product comparator sort and a dart
walk that looks each step up in the rotation and each face edge up by
`edge_id`, and tells the outer face by its negative signed area."""

import functools
from typing import Dict, Iterable, List, Sequence, Tuple

from polygrid.embedding import (EmbeddingError, Face, FaceBasis,
                                PlanarEmbedding)


def ccw_sort_reference(coords: Dict[int, Tuple[int, int]], v: int,
                       neighbours: Iterable[int]) -> List[int]:
    """The neighbours of v in counterclockwise order from east, by a
    half-plane test and then the sign of a cross product per pair."""
    ox, oy = coords[v]

    def compare(a: int, b: int) -> int:
        ax, ay = coords[a]
        bx, by = coords[b]
        da = (ax - ox, ay - oy)
        db = (bx - ox, by - oy)
        ha = 0 if (da[1] > 0 or (da[1] == 0 and da[0] > 0)) else 1
        hb = 0 if (db[1] > 0 or (db[1] == 0 and db[0] > 0)) else 1
        if ha != hb:
            return ha - hb
        c = da[0] * db[1] - da[1] * db[0]
        if c > 0:
            return -1
        if c < 0:
            return 1
        return 0

    return sorted(neighbours, key=functools.cmp_to_key(compare))


def rotation_reference(g: PlanarEmbedding) -> Dict[int, Tuple[int, ...]]:
    """Each vertex's neighbours, gathered in edge order and sorted by
    `ccw_sort_reference`, keyed in the order of `coords`."""
    neighbours: Dict[int, List[int]] = {v: [] for v in g.coords}
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    return {v: tuple(ccw_sort_reference(g.coords, v, ns))
            for v, ns in neighbours.items()}


def signed_area2(polygon: Sequence[Tuple[int, int]]) -> int:
    """Twice the signed area of the (possibly non-simple) closed walk."""
    total = 0
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


def trace_faces_reference(g: PlanarEmbedding) -> FaceBasis:
    """The faces of g by a dart walk: orbits from the darts in sorted
    order, each step found by `rot.index`, each face edge by `edge_id`."""
    darts = sorted(
        [(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges])
    unused = set(darts)
    orbits: List[List[int]] = []
    for dart in darts:
        if dart not in unused:
            continue
        walk = []
        u, v = dart
        while (u, v) in unused:
            unused.discard((u, v))
            walk.append(u)
            rot = g.rotation[v]
            u, v = v, rot[(rot.index(u) - 1) % len(rot)]
        orbits.append(walk)
    bounded: List[Face] = []
    outer = None
    for walk in orbits:
        poly = [g.coords[w] for w in walk]
        area2 = signed_area2(poly)
        if area2 < 0:
            if outer is not None:
                raise EmbeddingError("multiple outer faces traced")
            outer = walk
            continue
        if len(set(walk)) != len(walk):
            raise EmbeddingError(
                f"bounded face walk revisits a vertex: {walk}")
        edge_ids = frozenset(
            g.edge_id(walk[i], walk[(i + 1) % len(walk)])
            for i in range(len(walk)))
        bounded.append(Face(edges=edge_ids, cycle=tuple(walk)))
    if outer is None:
        raise EmbeddingError("no outer face traced")
    expected = g.size - g.order + 1
    if len(bounded) != expected:
        raise EmbeddingError(
            f"traced {len(bounded)} bounded faces, expected {expected}")
    outer_edges = frozenset(
        g.edge_id(outer[i], outer[(i + 1) % len(outer)])
        for i in range(len(outer)))
    return FaceBasis(faces=tuple(bounded), outer_edges=outer_edges,
                     outer_walk=tuple(outer))
