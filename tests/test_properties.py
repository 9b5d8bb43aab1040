"""Randomised algebraic and structural properties."""

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from polygrid import trace_faces
from polygrid import geometry
from polygrid.embedding import (EmbeddingError, PggParseError,
                                PlanarEmbedding, sym_diff, sym_diff_all)
from polygrid.grinberg import (GrinbergEquation, count_solutions, solvable,
                               solve)
from polygrid.oracle import (cells_to_embedding, enumerate_polyominoes,
                             gen_grid, hamilton_oracle)
from polygrid.structure import BasisGraph

from embedding_reference import rotation_reference, trace_faces_reference
from oracle_reference import set_reference_oracle
from polyomino_reference import built_shapes

edge_sets = st.frozensets(st.integers(min_value=0, max_value=40),
                          max_size=12)


@given(edge_sets, edge_sets)
def test_sym_diff_commutative(a, b):
    assert sym_diff(a, b) == sym_diff(b, a)


@given(edge_sets, edge_sets, edge_sets)
def test_sym_diff_associative(a, b, c):
    assert sym_diff(sym_diff(a, b), c) == sym_diff(a, sym_diff(b, c))


@given(edge_sets)
def test_sym_diff_self_inverse(a):
    assert sym_diff(a, a) == frozenset()
    assert sym_diff(a, frozenset()) == a


@given(st.lists(edge_sets, max_size=6))
def test_sym_diff_all_matches_fold(sets):
    folded = frozenset()
    for s in sets:
        folded = sym_diff(folded, s)
    assert sym_diff_all(sets) == folded


@st.composite
def touching_cells(draw):
    """Up to 12 cells of a 5x5 box, each sharing a side or a corner with an
    earlier one, so the lattice graph is connected and cells that meet at
    one corner make a cut vertex."""
    box = st.integers(min_value=0, max_value=4)
    cells = [draw(st.tuples(box, box))]
    for _ in range(draw(st.integers(min_value=0, max_value=11))):
        near = sorted({(x + dx, y + dy) for x, y in cells
                       for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                       if 0 <= x + dx <= 4 and 0 <= y + dy <= 4}
                      - set(cells))
        cells.append(draw(st.sampled_from(near)))
    return cells


@st.composite
def side_connected_cells(draw):
    """Up to 7 cells anywhere near the origin, each sharing a side with an
    earlier one: a fixed polyomino, not yet translated."""
    near = st.integers(min_value=-5, max_value=5)
    cells = [draw(st.tuples(near, near))]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        sides = sorted({(x + dx, y + dy) for x, y in cells
                        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))}
                       - set(cells))
        cells.append(draw(st.sampled_from(sides)))
    return cells


@functools.lru_cache(maxsize=None)
def polyomino_cell_sets(max_faces):
    return {frozenset(cells) for _, cells in built_shapes(max_faces)}


@given(side_connected_cells())
@settings(max_examples=300)
def test_random_polyomino_is_enumerated(cells):
    # Completeness without the reference enumerator: any shape grown at
    # random, translated to the origin, is one the generator builds.
    min_x = min(x for x, _ in cells)
    min_y = min(y for _, y in cells)
    shape = frozenset((x - min_x, y - min_y) for x, y in cells)
    assert shape in polyomino_cell_sets(7)


@given(touching_cells())
@settings(max_examples=60)
def test_face_count_invariant_random_shapes(cells):
    g = cells_to_embedding(cells, "random")
    basis = trace_faces(g)
    assert len(basis.faces) == g.size - g.order + 1


@given(touching_cells())
@settings(max_examples=40)
def test_weight_bounds_random_shapes(cells):
    g = cells_to_embedding(cells, "random")
    bg = BasisGraph(g, trace_faces(g))
    assert set(bg.weights.values()) <= {1, 2}
    assert sum(bg.weights.values()) == sum(
        bg.face(fid).length for fid in bg.face_ids)


def assert_matches_validated(g):
    """g equals the fully validated embedding of its own drawing, dict
    and list order included."""
    ref = PlanarEmbedding(g.coords, g.edges, g.name)
    assert g.name == ref.name
    assert g.edges == ref.edges
    for attr in ("coords", "rotation", "incident_edge_masks"):
        got, want = getattr(g, attr), getattr(ref, attr)
        assert list(got.items()) == list(want.items()), (g.name, attr)


@given(touching_cells())
@settings(max_examples=200)
def test_unit_cell_path_matches_validated_random_shapes(cells):
    assert_matches_validated(cells_to_embedding(cells, "random"))


def assert_unit_cell_builds_agree(cells, name):
    """The unit-cell graph of cells equals the validated embedding, and
    building it with an interning table that already holds the tuples of
    its translate one cell east changes nothing; return the graph."""
    alone = cells_to_embedding(cells, name)
    assert_matches_validated(alone)
    shared = {}
    PlanarEmbedding._from_unit_cells(
        [(x + 1, y) for x, y in cells], "east", shared)
    interned = PlanarEmbedding._from_unit_cells(cells, name, shared)
    assert interned.edges == alone.edges
    for attr in ("coords", "rotation"):
        assert (list(getattr(interned, attr).items())
                == list(getattr(alone, attr).items())), (name, attr)
    return alone


@given(side_connected_cells())
@settings(max_examples=200)
def test_unit_cell_path_matches_validated_negative_cells(cells):
    assert_unit_cell_builds_agree(cells, "random")


def test_unit_cell_path_matches_validated_ring():
    # Eight cells around a missing one: each inner corner takes one
    # neighbour from each of the four rotation passes, and the middle
    # bounded face is no cell.
    ring = [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
    g = assert_unit_cell_builds_agree(ring, "ring")
    assert (g.order, g.size, len(trace_faces(g).faces)) == (16, 24, 9)


def test_unit_cell_path_matches_validated():
    # Every polyomino of <=8 cells, the decide-grid rectangles, holed
    # grids, a 2x520 strip, and 2x2 blocks joined at a corner, where the
    # corner point exists but no side runs through it.
    def block(x, y):
        return {(x + i, y + j) for i in (0, 1) for j in (0, 1)}

    graphs = list(enumerate_polyominoes(8))
    graphs += [gen_grid(m, n)
               for m, n in ((4, 4), (4, 5), (5, 5), (4, 6), (5, 6))]
    graphs += [gen_grid(5, 6, [(1, 1), (1, 3)]),
               gen_grid(6, 6, [(1, 2), (3, 2)]),
               gen_grid(6, 6, [(1, 1), (2, 1), (2, 2)]),
               gen_grid(7, 5, [(1, 1), (2, 1), (1, 2), (4, 1), (4, 2)]),
               gen_grid(2, 520),
               cells_to_embedding(block(0, 0) | block(2, 2), "corner-blocks"),
               cells_to_embedding(block(2, 0) | block(0, 2),
                                  "corner-blocks2")]
    assert len(graphs) == 3792 + 12
    for g in graphs:
        assert_matches_validated(g)


@given(touching_cells(), st.data())
@settings(max_examples=150, deadline=None)
def test_oracle_matches_set_reference_random_shapes(cells, data):
    # The budget ranges over the whole search, so cut-offs also land
    # inside the subtrees that the table of refuted states skips.
    g = cells_to_embedding(cells, "random")
    full = hamilton_oracle(g)
    assert full == set_reference_oracle(g)
    budget = data.draw(st.integers(min_value=1,
                                   max_value=max(1, full.nodes_explored)))
    assert hamilton_oracle(g, budget) == set_reference_oracle(g, budget)


length_lists = st.lists(st.integers(min_value=3, max_value=9),
                        min_size=1, max_size=10)


@given(length_lists, st.integers(min_value=3, max_value=40))
@settings(max_examples=100)
def test_solve_agrees_with_count(lengths, order):
    eq = GrinbergEquation.from_lengths(lengths, order)
    sols = solve(eq, limit=1 << 12)
    assert len(sols) == count_solutions(eq)
    assert solvable(eq) == bool(sols)
    keys = [tuple(sorted(p.inside)) for p in sols]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for p in sols:
        assert sum(eq.lengths[i] - 2 for i in p.inside) == eq.target
        assert p.inside | p.outside == frozenset(eq.face_ids)
        assert not p.inside & p.outside


def test_faces_are_edge_disjoint_unions():
    # For every polyomino <= 4 cells, XOR of all bounded faces equals the
    # weight-1 (outer boundary) edge set.
    for g in enumerate_polyominoes(4):
        basis = trace_faces(g)
        bg = BasisGraph(g, basis)
        xor_all = sym_diff_all(f.edges for f in basis.faces)
        assert xor_all == bg.boundary_edge_ids()


def test_random_subset_xor_stays_in_cycle_space():
    # Edge-disjoint union of faces always has even degree everywhere.
    rng = random.Random(7)
    for g in enumerate_polyominoes(4):
        basis = trace_faces(g)
        for _ in range(5):
            k = rng.randrange(1, len(basis.faces) + 1)
            chosen = rng.sample(range(len(basis.faces)), k)
            e = sym_diff_all(basis.faces[i].edges for i in chosen)
            deg = {}
            for eid in e:
                for v in g.edges[eid]:
                    deg[v] = deg.get(v, 0) + 1
            assert all(d % 2 == 0 for d in deg.values())


def _pairwise_planarity(coords, edges):
    """Reference: every pair of edges, then every vertex against every
    edge."""
    segs = [(coords[u], coords[v]) for u, v in edges]
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if geometry.segments_cross(*segs[i], *segs[j]):
                raise PggParseError(f"edges {edges[i]} and {edges[j]} cross")
    for vid, p in coords.items():
        for (u, v), (a, b) in zip(edges, segs):
            if vid not in (u, v) and geometry.on_segment(p, a, b):
                raise PggParseError(f"vertex {vid} lies on edge {u} {v}")


@st.composite
def drawings(draw):
    # Small spans make collinear overlaps and vertices on edges common and
    # the cells small; wide spans make long edges.
    span = draw(st.sampled_from([3, 40]))
    coordinate = st.integers(min_value=-span, max_value=span)
    points = draw(st.lists(st.tuples(coordinate, coordinate),
                           min_size=2, max_size=7, unique=True))
    # Points at or next to the midpoint of two others, so that edges from
    # them can overlap collinear edges.
    for i, j in draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                              max_size=3)):
        (ax, ay), (bx, by) = points[i % len(points)], points[j % len(points)]
        mid = ((ax + bx) // 2, (ay + by) // 2)
        if mid not in points:
            points.append(mid)
    # Rays p, p + d, p + 2d, ... with edges from p and from p + d, so that
    # edges at a shared endpoint overlap: two or three on one heading, and
    # at both ends of one edge.
    ray_pairs = []
    for _ in range(draw(st.integers(0, 2))):
        p = draw(st.tuples(coordinate, coordinate))
        d = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(
            lambda d: d != (0, 0)))
        ray = []
        for t in range(draw(st.integers(2, 5))):
            q = (p[0] + t * d[0], p[1] + t * d[1])
            if q not in points:
                points.append(q)
            ray.append(points.index(q))
        for k in (0, 1):
            for far in draw(st.lists(st.sampled_from(ray), max_size=3)):
                ray_pairs.append((ray[k], far))
    ids = draw(st.permutations(range(len(points))))
    coords = dict(zip(ids, points))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=14))
    pairs = draw(st.permutations(
        pairs + [(ids[i], ids[j]) for i, j in ray_pairs]))
    edges, seen = [], set()
    for u, v in pairs:
        if u != v and frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            edges.append((u, v))
    # Unconnected vertices at or next to an edge's midpoint.
    for k in draw(st.lists(st.integers(0, 13), max_size=2)):
        if edges:
            (ax, ay), (bx, by) = (coords[w] for w in edges[k % len(edges)])
            mid = ((ax + bx) // 2, (ay + by) // 2)
            if mid not in coords.values():
                coords[len(coords)] = mid
    return coords, tuple(edges)


def _error(check):
    try:
        check()
    except PggParseError as exc:
        return str(exc)
    return None


@given(drawings())
@settings(max_examples=300)
def test_bucketed_planarity_matches_pairwise_scan(drawing):
    coords, edges = drawing
    g = object.__new__(PlanarEmbedding)
    g.coords, g.edges = coords, edges
    assert _error(g._check_planarity) == _error(
        lambda: _pairwise_planarity(coords, edges))


def _trace(g, tracer):
    try:
        return tracer(g)
    except EmbeddingError as exc:
        return str(exc)


def assert_matches_reference(g):
    """g has the comparator-sorted rotation, and traces to the reference
    faces or fails with the reference error; a tree fails up front."""
    assert list(g.rotation.items()) == list(rotation_reference(g).items())
    got = _trace(g, trace_faces)
    if g.size - g.order + 1 == 0:
        assert got == "graph has no bounded face"
    else:
        assert got == _trace(g, trace_faces_reference)


@given(drawings())
@settings(max_examples=300)
def test_rotation_and_faces_match_reference(drawing):
    # Most drawings cross somewhere; every planar one is checked for its
    # rotation, and every connected planar one is traced.
    coords, edges = drawing
    g = object.__new__(PlanarEmbedding)
    g.coords, g.edges = coords, edges
    try:
        rotation = g._check_planarity()
    except PggParseError:
        return
    assert list(rotation.items()) == list(rotation_reference(g).items())
    try:
        g = PlanarEmbedding(coords, edges)
    except PggParseError:
        return
    assert_matches_reference(g)


@st.composite
def plane_drawings(draw):
    """Touching unit cells drawn three times larger, some split by a
    diagonal and some with an inner point joined to one or more of their
    corners: planar and connected by construction, with slopes off the
    axes, and with pendant edges whose face walk revisits a vertex."""
    cells = draw(touching_cells())
    g = cells_to_embedding(cells, "plane")
    ids = {p: v for v, p in g.coords.items()}
    coords = {v: (3 * x, 3 * y) for v, (x, y) in g.coords.items()}
    edges = list(g.edges)
    for x, y in sorted(set(cells)):
        corners = [ids[x + dx, y + dy]
                   for dx, dy in ((0, 0), (1, 0), (1, 1), (0, 1))]
        kind = draw(st.sampled_from(["none", "diagonal", "star"]))
        if kind == "diagonal":
            k = draw(st.integers(0, 1))
            edges.append((corners[k], corners[k + 2]))
        elif kind == "star":
            inner = len(coords)
            coords[inner] = (3 * x + draw(st.integers(1, 2)),
                             3 * y + draw(st.integers(1, 2)))
            for c in draw(st.lists(st.sampled_from(corners), min_size=1,
                                   max_size=4, unique=True)):
                edges.append(draw(st.sampled_from([(inner, c), (c, inner)])))
    return coords, draw(st.permutations(edges))


@given(plane_drawings())
@settings(max_examples=150)
def test_plane_drawings_match_reference(drawing):
    coords, edges = drawing
    assert_matches_reference(PlanarEmbedding(coords, edges))


def test_lattices_match_reference():
    graphs = list(enumerate_polyominoes(6))
    graphs += [gen_grid(5, 6, [(1, 1), (1, 3)]),
               gen_grid(6, 6, [(1, 2), (3, 2)]),
               gen_grid(6, 6, [(1, 1), (2, 1), (2, 2)]),
               gen_grid(7, 5, [(1, 1), (2, 1), (1, 2), (4, 1), (4, 2)])]
    for g in graphs:
        assert_matches_reference(PlanarEmbedding(g.coords, g.edges, g.name))
