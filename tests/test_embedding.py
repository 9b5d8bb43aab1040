import collections
import itertools
import math
import re

import pytest

from polygrid import (PggParseError, classify_edge_set, enclosed_faces,
                      fixtures, is_hamilton_cycle, parse_pgg, sym_diff,
                      sym_diff_all, trace_faces, write_pgg)
from polygrid.embedding import (EmbeddingError, PlanarEmbedding,
                                cycle_vertex_walk)
from polygrid.oracle import enumerate_polyominoes, gen_grid, hamilton_oracle
from polygrid.subbases import reduce_to_Gg

from embedding_reference import (rotation_reference, signed_area2,
                                 trace_faces_reference)

SQUARE_PGG = """\
graph square
vertex 1 0 0
vertex 2 1 0
vertex 3 1 1
vertex 4 0 1
edge 1 2
edge 2 3
edge 3 4
edge 4 1
"""


def test_parse_square():
    g = parse_pgg(SQUARE_PGG)
    assert g.name == "square"
    assert g.order == 4
    assert g.size == 4


def test_parse_unknown_vertex_cites_line():
    bad = SQUARE_PGG.replace("edge 4 1", "edge 1 9")
    with pytest.raises(PggParseError) as err:
        parse_pgg(bad)
    assert "unknown vertex 9" in str(err.value)
    assert "line 9" in str(err.value)


def test_parse_self_loop_cites_line():
    bad = SQUARE_PGG.replace("edge 2 3", "edge 2 2")
    with pytest.raises(PggParseError) as err:
        parse_pgg(bad)
    assert str(err.value) == "line 7: self-loop at vertex 2"
    assert err.value.line == 7


def test_parse_duplicate_edge_cites_line():
    bad = SQUARE_PGG.replace("edge 4 1", "edge 2 1")
    with pytest.raises(PggParseError) as err:
        parse_pgg(bad)
    assert str(err.value) == "line 9: duplicate edge 2 1"
    assert err.value.line == 9


def test_parse_unknown_vertex_comes_before_an_earlier_self_loop():
    bad = SQUARE_PGG.replace("edge 2 3", "edge 2 2").replace(
        "edge 4 1", "edge 1 9")
    with pytest.raises(PggParseError) as err:
        parse_pgg(bad)
    assert str(err.value) == "line 9: unknown vertex 9"


# Edges 0 1 and 0 2 overlap along a line out of their shared vertex 0;
# edges 3 4 and 5 6 share no endpoint and cross at (5, 0).
OVERLAP_AND_CROSSING = """\
graph overlap-and-crossing
vertex 0 0 0
vertex 1 1 0
vertex 2 2 0
vertex 3 5 -1
vertex 4 5 1
vertex 5 4 0
vertex 6 6 0
"""


def test_parse_reports_overlap_before_later_crossing():
    # The overlap is edge pair (0, 2), the crossing (1, 3).
    text = OVERLAP_AND_CROSSING + "edge 0 1\nedge 3 4\nedge 0 2\nedge 5 6\n"
    with pytest.raises(PggParseError) as err:
        parse_pgg(text)
    assert str(err.value) == "edges (0, 1) and (0, 2) cross"


def test_parse_reports_crossing_before_later_overlap():
    # The crossing is edge pair (0, 2), the overlap (1, 3).
    text = OVERLAP_AND_CROSSING + "edge 3 4\nedge 0 1\nedge 5 6\nedge 0 2\n"
    with pytest.raises(PggParseError) as err:
        parse_pgg(text)
    assert str(err.value) == "edges (3, 4) and (5, 6) cross"


def test_parse_grid3_counts():
    lines = ["graph grid3"]
    for i, (x, y) in enumerate((x, y) for x in range(3) for y in range(3)):
        lines.append(f"vertex {i} {x} {y}")
    for x in range(3):
        for y in range(3):
            i = x * 3 + y
            if x < 2:
                lines.append(f"edge {i} {i + 3}")
            if y < 2:
                lines.append(f"edge {i} {i + 1}")
    g = parse_pgg("\n".join(lines))
    assert g.order == 9
    assert g.size == 12


def test_parse_duplicate_vertex():
    bad = SQUARE_PGG.replace("vertex 4 0 1", "vertex 1 0 1")
    with pytest.raises(PggParseError, match="duplicate vertex id 1"):
        parse_pgg(bad)


def test_parse_crossing_edges():
    bad = SQUARE_PGG.replace("edge 1 2\nedge 2 3", "edge 1 3\nedge 2 4")
    with pytest.raises(PggParseError, match="cross"):
        parse_pgg(bad)


def test_parse_disconnected():
    text = """\
graph two-parts
vertex 1 0 0
vertex 2 1 0
vertex 3 5 0
vertex 4 6 0
edge 1 2
edge 3 4
"""
    with pytest.raises(PggParseError, match="disconnected"):
        parse_pgg(text)


def test_parse_comments_and_blank_lines():
    text = "# header\n" + SQUARE_PGG.replace("edge 1 2",
                                             "edge 1 2   # side\n")
    g = parse_pgg(text)
    assert g.size == 4


def test_write_roundtrip(grid4):
    again = parse_pgg(write_pgg(grid4))
    assert again.coords == grid4.coords
    assert set(map(frozenset, again.edges)) == set(map(frozenset, grid4.edges))


def test_write_rejects_names_parse_cannot_read(square):
    # parse_pgg reads the name as one token before any `#`: "my square"
    # would not parse again and "sq#1" would read back as "sq".
    for name in ("my square", "sq#1", "", "tab\tname"):
        g = PlanarEmbedding(square.coords, square.edges, name=name)
        with pytest.raises(ValueError, match="cannot be written to .pgg"):
            write_pgg(g)


def test_generator_and_fixture_names_roundtrip():
    graphs = ([make() for make in fixtures.ALL.values()]
              + list(enumerate_polyominoes(4))
              + [gen_grid(4, 5), gen_grid(6, 6, [(1, 1), (1, 2)]),
                 reduce_to_Gg(gen_grid(6, 5)).embedding])
    for g in graphs:
        assert parse_pgg(write_pgg(g)).name == g.name


def test_trace_square(square):
    basis = trace_faces(square)
    assert len(basis.faces) == 1
    assert basis.faces[0].length == 4


def test_trace_domino(domino):
    basis = trace_faces(domino)
    assert [f.length for f in basis.faces] == [4, 4]


def test_trace_grid3(grid3):
    basis = trace_faces(grid3)
    assert len(basis.faces) == 4
    assert all(f.length == 4 for f in basis.faces)


def test_face_count_invariant(square, domino, grid3, grid4, fig8,
                              twin_nonagons):
    for g in (square, domino, grid3, grid4, fig8, twin_nonagons):
        basis = trace_faces(g)
        assert len(basis.faces) == g.size - g.order + 1


def test_rotation_is_ccw_angular_order(grid3):
    import math
    for v, neighbours in grid3.rotation.items():
        ox, oy = grid3.coords[v]
        angles = [math.atan2(grid3.coords[w][1] - oy,
                             grid3.coords[w][0] - ox) % (2 * math.pi)
                  for w in neighbours]
        shifted = angles[angles.index(min(angles)):] + \
            angles[:angles.index(min(angles))]
        assert shifted == sorted(shifted)


def test_rotation_is_exact_for_nearly_equal_slopes():
    # The first two neighbours leave the origin at slopes 1 + 1/10**18 and
    # 1 + 1/(10**18 + 1), which atan2 cannot tell apart.
    coords = {0: (0, 0), 1: (10 ** 18, 10 ** 18 + 1),
              2: (10 ** 18 + 1, 10 ** 18 + 2), 3: (-1, 0), 4: (0, -1)}
    assert math.atan2(*coords[1][::-1]) == math.atan2(*coords[2][::-1])
    g = PlanarEmbedding(coords, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert g.rotation[0] == (2, 1, 3, 4)
    assert g.rotation == rotation_reference(g)


@pytest.mark.parametrize("side, inner, inner_edges, walk", [
    # A pendant edge from a corner into the square.
    (2, {5: (1, 1)}, [(1, 5)], [1, 2, 3, 4, 1, 5]),
    # A unit square hung from a corner by the edge 1-5.
    (4, {5: (1, 1), 6: (2, 1), 7: (2, 2), 8: (1, 2)},
     [(5, 6), (6, 7), (7, 8), (8, 5), (1, 5)],
     [1, 2, 3, 4, 1, 5, 8, 7, 6, 5]),
])
def test_trace_rejects_a_face_walk_that_revisits_a_vertex(side, inner,
                                                          inner_edges, walk):
    coords = {1: (0, 0), 2: (side, 0), 3: (side, side), 4: (0, side)}
    g = PlanarEmbedding({**coords, **inner},
                        [(1, 2), (2, 3), (3, 4), (4, 1)] + inner_edges)
    with pytest.raises(EmbeddingError, match=re.escape(
            f"bounded face walk revisits a vertex: {walk}")):
        trace_faces(g)


def test_signed_area_orientation():
    unit = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert signed_area2(unit) == 2
    assert signed_area2(list(reversed(unit))) == -2


@pytest.mark.parametrize("coords, edges", [
    # A unit square above a pendant edge that leaves the lowest vertex
    # north.
    ({1: (0, 0), 2: (0, 1), 3: (1, 1), 4: (1, 2), 5: (0, 2)},
     [(1, 2), (2, 3), (3, 4), (4, 5), (5, 2)]),
    # ... that leaves it north-west, toward the square's lower right corner.
    ({1: (2, 0), 2: (0, 1), 3: (1, 1), 4: (1, 2), 5: (0, 2)},
     [(1, 3), (2, 3), (3, 4), (4, 5), (5, 2)]),
    # ... that leaves it east, to the square's lower left corner.
    ({1: (0, 0), 2: (1, 0), 3: (2, 0), 4: (2, 1), 5: (1, 1)},
     [(1, 2), (2, 3), (3, 4), (4, 5), (5, 2)]),
    # A triangle whose lowest row is one edge; its left end has only that
    # east edge.
    ({1: (0, 0), 2: (3, 0), 3: (2, 1), 4: (4, 2)},
     [(1, 2), (2, 3), (3, 4), (4, 2)]),
    # Two squares joined at the lowest vertex's only neighbour, east of it.
    ({1: (0, 0), 2: (1, 0), 3: (2, 0), 4: (2, 1), 5: (1, 1), 6: (0, 1),
      7: (0, 2), 8: (1, 2)},
     [(1, 2), (2, 3), (3, 4), (4, 5), (5, 2), (5, 6), (6, 7), (7, 8),
      (8, 5)]),
])
def test_trace_finds_the_outer_face_at_a_pendant_lowest_vertex(coords,
                                                                edges):
    # trace_faces takes as outer face the orbit left of the dart from the
    # lowest-then-leftmost vertex to its last neighbour; the reference
    # takes the orbit of negative area.  Here that vertex has one edge,
    # so both of its darts lie on the outer face.
    g = PlanarEmbedding(coords, edges)
    low = min(g.coords, key=lambda v: g.coords[v][::-1])
    assert g.degree(low) == 1
    basis = trace_faces(g)
    assert basis == trace_faces_reference(g)
    assert low in basis.outer_walk
    assert not any(low in face.vertices for face in basis.faces)


def test_trace_rejects_a_tree():
    for coords, edges in (({1: (0, 0)}, []),
                          ({1: (0, 0), 2: (1, 0)}, [(1, 2)]),
                          ({1: (0, 0), 2: (1, 0), 3: (2, 0)},
                           [(1, 2), (2, 3)])):
        with pytest.raises(EmbeddingError,
                           match="^graph has no bounded face$"):
            trace_faces(PlanarEmbedding(coords, edges))


def test_edge_id_finds_each_edge_from_either_end():
    for g in (parse_pgg(SQUARE_PGG), gen_grid(3, 4)):
        for i, (u, v) in enumerate(g.edges):
            assert g.edge_id(u, v) == g.edge_id(v, u) == i
        edges = {frozenset(e) for e in g.edges}
        u, v = next((u, v) for u, v in itertools.combinations(g.coords, 2)
                    if frozenset((u, v)) not in edges)
        unknown = max(g.coords) + 1
        for pair in ((u, v), (u, u), (u, unknown), (unknown, u)):
            with pytest.raises(KeyError):
                g.edge_id(*pair)


def test_sym_diff_identities(domino):
    basis = trace_faces(domino)
    f1, f2 = basis.faces[0].edges, basis.faces[1].edges
    assert sym_diff(f1, f1) == frozenset()
    assert sym_diff(f1, frozenset()) == f1
    perimeter = sym_diff(f1, f2)
    assert len(perimeter) == 6
    assert perimeter == sym_diff_all([f1, f2])


def test_classify_empty(square):
    assert classify_edge_set(frozenset(), square).tag == "empty"


def test_classify_single_face(square):
    basis = trace_faces(square)
    cls = classify_edge_set(basis.faces[0].edges, square)
    assert cls.tag == "single-cycle"
    assert cls.length == 4


def test_classify_disjoint_cycles():
    from polygrid.oracle import gen_grid
    strip = gen_grid(6, 2)           # 5 unit faces in a row
    basis = trace_faces(strip)
    two = basis.faces[0].edges | basis.faces[2].edges
    cls = classify_edge_set(two, strip)
    assert cls.tag == "disjoint-cycles"
    assert cls.count == 2


def test_classify_other(domino):
    basis = trace_faces(domino)
    broken = frozenset(list(basis.faces[0].edges)[:3])
    assert classify_edge_set(broken, domino).tag == "other"


def test_classify_agrees_with_bruteforce(square, domino):
    # All edge subsets of fixtures with <= 10 edges, against a naive
    # simple-cycle definition.
    for g in (square, domino):
        eids = range(g.size)
        for r in range(g.size + 1):
            for sub in itertools.combinations(eids, r):
                e = frozenset(sub)
                cls = classify_edge_set(e, g)
                assert (cls.tag == "single-cycle") == _is_simple_cycle(e, g)


def _is_simple_cycle(e, g):
    if not e:
        return False
    deg = {}
    for eid in e:
        u, v = g.edges[eid]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    # connected?
    adj = {}
    for eid in e:
        u, v = g.edges[eid]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def test_is_hamilton_cycle(square, domino):
    sb = trace_faces(square)
    assert is_hamilton_cycle(sb.faces[0].edges, square)
    db = trace_faces(domino)
    assert not is_hamilton_cycle(db.faces[0].edges, domino)
    perimeter = db.faces[0].edges ^ db.faces[1].edges
    assert is_hamilton_cycle(perimeter, domino)


def _hamilton_by_classify(e, g):
    """The definition is_hamilton_cycle had before it worked on edge
    masks: every id an edge of g, and e one cycle of |V| edges."""
    if any(not 0 <= eid < g.size for eid in e):
        return False
    c = classify_edge_set(e, g)
    return c.tag == "single-cycle" and c.length == g.order


def _hamilton_check_cases():
    """The oracle's cycles of the polyominoes of <= 7 cells; each with one
    edge dropped, with that edge swapped for each edge off the cycle and
    with an id out of range added in its place; and the empty set."""
    for g in enumerate_polyominoes(7):
        cycle = hamilton_oracle(g).found
        yield g, frozenset()
        if cycle is None:
            continue
        yield g, cycle
        dropped = cycle - {min(cycle)}
        yield g, dropped
        for eid in range(g.size):
            if eid not in cycle:
                yield g, dropped | {eid}
        for bad in (-1, -g.size, g.size, g.size + 5):
            yield g, dropped | {bad}


def test_is_hamilton_cycle_matches_the_classify_definition():
    counts = collections.Counter()
    for g, e in _hamilton_check_cases():
        want = _hamilton_by_classify(e, g)
        assert is_hamilton_cycle(e, g) == want, (g.name, sorted(e))
        counts[want] += 1
    assert counts[True] > 800 and counts[False] > 9000, counts


def test_is_hamilton_cycle_rejects_two_disjoint_squares():
    # |V| edges, two at every vertex, but two components.
    g = gen_grid(4, 2)
    basis = trace_faces(g)
    cells = [next(face.edges for face in basis.faces
                  if min(g.coords[v] for v in face.vertices) == corner)
             for corner in ((0, 0), (2, 0))]
    e = cells[0] | cells[1]
    assert len(e) == g.order
    assert classify_edge_set(e, g).tag == "disjoint-cycles"
    assert not is_hamilton_cycle(e, g)


def test_enclosed_faces_square(square):
    basis = trace_faces(square)
    assert enclosed_faces(basis.faces[0].edges, basis, square) == {0}


def test_enclosed_faces_domino_perimeter(domino):
    basis = trace_faces(domino)
    perimeter = basis.faces[0].edges ^ basis.faces[1].edges
    assert enclosed_faces(perimeter, basis, domino) == {0, 1}


def test_enclosed_faces_grid3_unit(grid3):
    basis = trace_faces(grid3)
    for idx, face in enumerate(basis.faces):
        assert enclosed_faces(face.edges, basis, grid3) == {idx}


def test_span_property_small_fixtures(square, domino, grid3):
    # Every simple cycle equals the XOR of the faces it encloses.
    for g in (square, domino, grid3):
        basis = trace_faces(g)
        for r in range(3, g.size + 1):
            for sub in itertools.combinations(range(g.size), r):
                e = frozenset(sub)
                if classify_edge_set(e, g).tag != "single-cycle":
                    continue
                inside = enclosed_faces(e, basis, g)
                assert sym_diff_all(
                    basis.faces[i].edges for i in sorted(inside)) == e


def _inside_by_ray(point, polygon):
    """Integer ray-crossing test of a point strictly off the polygon."""
    px, py = point
    inside = False
    for (ax, ay), (bx, by) in zip(polygon, polygon[1:] + polygon[:1]):
        if (ay > py) != (by > py):
            # The edge meets the rightward ray iff its crossing lies right
            # of the point: sign of (x_at - px) times (by - ay).
            num = (ax - px) * (by - ay) + (py - ay) * (bx - ax)
            if (num > 0) == (by > ay):
                inside = not inside
    return inside


def _enclosed_by_geometry(c, basis, g):
    """Reference: faces whose vertex average lies inside the cycle.

    Every face of the corpus is convex, so its vertex average (the cell
    centre of a lattice cell) is strictly inside it and off the cycle.
    Coordinates are scaled by the face's length to keep them integral.
    """
    walk = cycle_vertex_walk(c, g)
    out = set()
    for fid, face in enumerate(basis.faces):
        k = face.length
        point = (sum(g.coords[v][0] for v in face.cycle),
                 sum(g.coords[v][1] for v in face.cycle))
        polygon = [(k * g.coords[v][0], k * g.coords[v][1]) for v in walk]
        if _inside_by_ray(point, polygon):
            out.add(fid)
    return frozenset(out)


def _parity_corpus():
    """Every simple cycle of the fixtures, every face boundary, and the
    oracle's Hamilton cycles of the polyominoes of <= 7 cells and of the
    m x n grids for 2 <= m, n <= 10."""
    for make in fixtures.ALL.values():
        g = make()
        basis = trace_faces(g)
        for r in range(1, len(basis.faces) + 1):
            for sub in itertools.combinations(basis.faces, r):
                e = sym_diff_all(f.edges for f in sub)
                if classify_edge_set(e, g).tag == "single-cycle":
                    yield g, basis, e
    graphs = list(enumerate_polyominoes(7)) + [
        gen_grid(m, n) for m in range(2, 11) for n in range(2, 11)]
    for g in graphs:
        basis = trace_faces(g)
        for face in basis.faces:
            yield g, basis, face.edges
        # Odd-order grids have no Hamilton cycle; the oracle would only
        # spend its budget proving it.
        if g.order % 2 == 0:
            found = hamilton_oracle(g).found
            if found is not None:
                yield g, basis, found


def test_enclosed_faces_matches_ray_crossing_reference():
    checked = 0
    for g, basis, e in _parity_corpus():
        inside = enclosed_faces(e, basis, g)
        assert inside == _enclosed_by_geometry(e, basis, g), (g.name, e)
        assert sym_diff_all(basis.faces[i].edges for i in inside) == e
        checked += 1
    assert checked > 10000


def test_enclosed_faces_rejects_non_cycles(domino, fig8):
    basis = trace_faces(fig8)
    touching = sym_diff_all(f.edges for f in basis.faces)
    with pytest.raises(ValueError):
        enclosed_faces(touching, basis, fig8)
    with pytest.raises(ValueError):
        enclosed_faces(frozenset(), trace_faces(domino), domino)


def test_enclosed_faces_names_what_a_non_cycle_is():
    # The message gives classify_edge_set's reading of the edge set.
    g = gen_grid(3, 3)
    lower, upper = (trace_faces(g).faces[fid].edges for fid in (0, 1))
    apart = gen_grid(4, 2)
    far = trace_faces(apart).faces
    for e, graph, tag in ((frozenset(), g, "empty"),
                          (lower | upper, g, "other"),
                          (far[0].edges | far[2].edges, apart,
                           "disjoint-cycles")):
        assert classify_edge_set(e, graph).tag == tag
        with pytest.raises(ValueError,
                           match=f"^edge set is not a single cycle: {tag}$"):
            enclosed_faces(e, trace_faces(graph), graph)


def test_foreign_edge_ids_are_refused(square):
    # A negative id would alias an edge from the end of the edge list,
    # and one past it would index out of range.
    basis = trace_faces(square)
    face = basis.faces[0].edges
    size = square.size
    for eid in (-1, -size, size, size + 7):
        bad = face | {eid}
        with pytest.raises(ValueError, match="not an edge id"):
            classify_edge_set(bad, square)
        with pytest.raises(ValueError, match="not an edge id"):
            enclosed_faces(bad, basis, square)
        with pytest.raises(ValueError, match="not an edge id"):
            cycle_vertex_walk(bad, square)
        assert not is_hamilton_cycle(bad, square)


def test_cycle_vertex_walk_rejects_non_cycles():
    g = gen_grid(3, 2)
    basis = trace_faces(g)
    face = basis.faces[1].edges
    assert cycle_vertex_walk(face, g) == [2, 3, 5, 4]
    # The face's square with a tail at vertex 2: a lollipop.
    lollipop = face | {1}
    assert classify_edge_set(lollipop, g).tag == "other"
    with pytest.raises(ValueError, match="not a single cycle"):
        cycle_vertex_walk(lollipop, g)
    strip = gen_grid(6, 2)
    faces = trace_faces(strip).faces
    with pytest.raises(ValueError, match="not a single cycle"):
        cycle_vertex_walk(faces[0].edges | faces[2].edges, strip)
    with pytest.raises(ValueError, match="not a single cycle"):
        cycle_vertex_walk(frozenset(), g)


def test_edge_face_ids_lists_every_edge(domino, fig8, twin_nonagons):
    for g in (domino, fig8, twin_nonagons):
        basis = trace_faces(g)
        index = basis.edge_face_ids
        assert sorted(index) == list(range(g.size))
        for eid, fids in index.items():
            assert fids == tuple(fid for fid, face in enumerate(basis.faces)
                                 if eid in face.edges)
            assert len(fids) == (1 if eid in basis.outer_edges else 2)
