"""Randomised algebraic and structural properties."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from polygrid import trace_faces
from polygrid import geometry
from polygrid.embedding import (PggParseError, PlanarEmbedding, sym_diff,
                                sym_diff_all)
from polygrid.grinberg import (GrinbergEquation, count_solutions, solvable,
                               solve)
from polygrid.oracle import cells_to_embedding, enumerate_polyominoes
from polygrid.structure import BasisGraph

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


cell_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),
              st.integers(min_value=0, max_value=4)),
    min_size=1, max_size=8, unique=True)


def _connected(cells):
    cells = set(cells)
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        x, y = stack.pop()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cells)


@given(cell_lists)
@settings(max_examples=60)
def test_face_count_invariant_random_shapes(cells):
    if not _connected(cells):
        return
    try:
        g = cells_to_embedding(cells, "random")
    except ValueError:
        return      # corner-touching shapes are rejected as non-planar input
    basis = trace_faces(g)
    assert len(basis.faces) == g.size - g.order + 1


@given(cell_lists)
@settings(max_examples=40)
def test_weight_bounds_random_shapes(cells):
    if not _connected(cells):
        return
    try:
        g = cells_to_embedding(cells, "random")
    except ValueError:
        return
    bg = BasisGraph(g, trace_faces(g))
    assert set(bg.weights.values()) <= {1, 2}
    assert sum(bg.weights.values()) == sum(
        bg.face(fid).length for fid in bg.face_ids)


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
    ids = draw(st.permutations(range(len(points))))
    coords = dict(zip(ids, points))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=14))
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
