import random

import pytest

from polygrid import trace_faces
from polygrid.oracle import gen_grid
from polygrid.structure import (CASE_I, CASE_II, BasisGraph, NotRemovableError,
                                boundary_edges, claw_d2_scan,
                                classify_vertex, edge_weights, is_removable,
                                removal)


def vertex_at(g, xy):
    return next(v for v, p in g.coords.items() if p == xy)


def face_containing(bg, vertex_xys):
    wanted = {vertex_at(bg.g, xy) for xy in vertex_xys}
    return next(fid for fid in bg.face_ids
                if bg.face(fid).vertices == wanted)


def test_weights_square(square):
    w = edge_weights(trace_faces(square), square)
    assert sorted(w.values()) == [1, 1, 1, 1]


def test_weights_domino(domino):
    w = edge_weights(trace_faces(domino), domino)
    assert sorted(w.values()) == [1, 1, 1, 1, 1, 1, 2]


def test_weights_grid3(grid3):
    w = edge_weights(trace_faces(grid3), grid3)
    centre = vertex_at(grid3, (1, 1))
    for eid, count in w.items():
        expect = 2 if centre in grid3.edges[eid] else 1
        assert count == expect


def test_weight_sum_equals_length_sum(square, domino, grid3, grid4, fig8,
                                      twin_nonagons):
    for g in (square, domino, grid3, grid4, fig8, twin_nonagons):
        basis = trace_faces(g)
        w = edge_weights(basis, g)
        assert sum(w.values()) == sum(f.length for f in basis.faces)


def test_classify_grid3_centre_interior(grid3):
    basis = trace_faces(grid3)
    assert classify_vertex(vertex_at(grid3, (1, 1)), basis, grid3).tag == \
        "interior"


def test_classify_domino_corner_boundary(domino):
    basis = trace_faces(domino)
    cls = classify_vertex(vertex_at(domino, (0, 0)), basis, domino)
    assert cls.tag == "boundary"
    assert len(cls.cycles_on) == 1


def test_classify_fig8_shared_other(fig8):
    basis = trace_faces(fig8)
    shared = vertex_at(fig8, (1, 1))
    cls = classify_vertex(shared, basis, fig8)
    assert cls.tag == "other"
    assert len(cls.cycles_on) == 2


def test_classification_is_total_and_exclusive(grid4, fig8):
    for g in (grid4, fig8):
        basis = trace_faces(g)
        bg = BasisGraph(g, basis)
        for v in g.coords:
            cls = bg.vertex_class(v)
            assert cls.tag in ("boundary", "interior", "other")
            incident = bg.incident_edges(v)
            all_w2 = all(bg.weights[e] == 2 for e in incident)
            w2 = sum(1 for e in incident if bg.weights[e] == 2)
            bdry = w2 == len(cls.cycles_on) - 1
            assert not (all_w2 and bdry and cls.tag == "other")


def test_boundary_edges(square, domino):
    assert len(boundary_edges(trace_faces(square), square)) == 4
    assert len(boundary_edges(trace_faces(domino), domino)) == 6


def test_boundary_edges_grid4(grid4):
    be = boundary_edges(trace_faces(grid4), grid4)
    assert len(be) == 12
    for eid in be:
        u, v = grid4.edges[eid]
        for w in (u, v):
            x, y = grid4.coords[w]
            assert x in (0, 3) or y in (0, 3)


def test_claw_square_empty(square):
    assert claw_d2_scan(square) == []


def test_claw_domino_case_i(domino):
    reports = claw_d2_scan(domino)
    assert [r.severity for r in reports] == [CASE_I, CASE_I]
    assert all(r.incident_count == 3 and r.d2_count == 2 for r in reports)


def test_claw_fig8_case_ii(fig8):
    reports = claw_d2_scan(fig8)
    assert len(reports) == 1
    r = reports[0]
    assert r.severity == CASE_II
    assert r.incident_count == 4
    assert r.d2_count == 4


def test_claw_scan_matches_naive_double_loop(domino, grid3, grid4, fig8):
    for g in (domino, grid3, grid4, fig8):
        naive = []
        for v in sorted(g.coords):
            if g.degree(v) < 3:
                continue
            d2 = sum(1 for w in g.adjacency[v] if len(g.adjacency[w]) == 2)
            if d2 >= 2:
                naive.append((v, g.degree(v), d2))
        got = [(r.vertex, r.incident_count, r.d2_count)
               for r in claw_d2_scan(g)]
        assert got == naive


def test_removable_grid4_centre(grid4):
    basis = trace_faces(grid4)
    bg = BasisGraph(grid4, basis)
    centre = face_containing(bg, [(1, 1), (2, 1), (2, 2), (1, 2)])
    assert bg.is_removable(centre)
    after = bg.remove_face(centre)
    assert after.edge_ids == bg.edge_ids          # all its edges had w = 2


def test_not_removable_grid3_corner(grid3):
    basis = trace_faces(grid3)
    bg = BasisGraph(grid3, basis)
    for fid in bg.face_ids:
        assert not bg.is_removable(fid)


def test_not_removable_square(square):
    basis = trace_faces(square)
    assert not is_removable(0, basis, square)
    with pytest.raises(NotRemovableError):
        removal(0, basis, square)


def test_forced_removal_allowed(square):
    basis = trace_faces(square)
    after = removal(0, basis, square, force=True)
    assert after.edge_ids == frozenset()
    assert after.face_ids == ()


def test_removal_recount_equivalence(grid4):
    basis = trace_faces(grid4)
    bg = BasisGraph(grid4, basis)
    for fid in bg.face_ids:
        if not bg.is_removable(fid):
            continue
        after = bg.remove_face(fid)
        assert after.order == bg.order
        assert len(after.face_ids) == len(bg.face_ids) - 1
        fresh = BasisGraph(grid4, basis, edge_ids=after.edge_ids,
                           face_ids=after.face_ids)
        assert after.weights == fresh.weights


def _assert_same_structure(bg, fresh):
    assert bg.weights == fresh.weights
    assert bg.order == fresh.order
    for v in bg.g.coords:
        assert bg.degree(v) == fresh.degree(v)
        assert bg.incident_edges(v) == fresh.incident_edges(v)
        assert bg.faces_on_vertex(v) == fresh.faces_on_vertex(v)
        assert bg.vertex_class(v) == fresh.vertex_class(v)


def test_removal_chains_match_fresh_graphs(grid4, twin_nonagons):
    rng = random.Random(7)
    graphs = [grid4, twin_nonagons, gen_grid(4, 5), gen_grid(5, 5),
              gen_grid(5, 6, [(1, 1), (2, 1)])]
    for g in graphs:
        basis = trace_faces(g)
        for _ in range(20):
            bg = BasisGraph(g, basis)
            for _ in range(rng.randint(1, 3)):
                removable = [f for f in bg.face_ids if bg.is_removable(f)]
                if not removable:
                    break
                bg = bg.remove_face(rng.choice(removable))
                _assert_same_structure(bg, BasisGraph(
                    g, basis, edge_ids=bg.edge_ids, face_ids=bg.face_ids))
            if bg.face_ids:
                # A forced removal may isolate vertices, so the order is
                # recounted rather than inherited.
                forced = bg.remove_face(rng.choice(bg.face_ids), force=True)
                _assert_same_structure(forced, BasisGraph(
                    g, basis, edge_ids=forced.edge_ids,
                    face_ids=forced.face_ids))


def test_removal_chain_on_strip():
    strip = gen_grid(5, 2)
    basis = trace_faces(strip)
    bg = BasisGraph(strip, basis)
    # End faces own their two outer corner vertices: not removable.  Middle
    # faces lose only their top/bottom edges; every vertex keeps a shared
    # vertical edge, so they are removable.
    removables = [fid for fid in bg.face_ids if bg.is_removable(fid)]
    assert removables == [1, 2]
    after = bg.remove_face(1)
    assert after.order == bg.order
    assert len(after.edge_ids) == len(bg.edge_ids) - 2
