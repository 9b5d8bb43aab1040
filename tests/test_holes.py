import itertools

import pytest

from polygrid import trace_faces
from polygrid.holes import (CLAW, GLOBAL_HOLE, HAMILTONIAN, NO_SOLUTION,
                            UNVERIFIED, build_context, candidate_Cx, decide,
                            faces_sharing_edge, faces_sharing_only_vertices,
                            find_Ck, is_global_hole)
from polygrid.embedding import is_hamilton_cycle
from polygrid.grinberg import equation_of_graph, solvable
from polygrid.oracle import gen_grid
from polygrid.structure import CASE_I, CASE_II, BasisGraph, claw_d2_scan


def vertex_at(g, xy):
    return next(v for v, p in g.coords.items() if p == xy)


def test_candidate_cx_grid3_empty(grid3):
    bg = BasisGraph(grid3, trace_faces(grid3))
    centre = vertex_at(grid3, (1, 1))
    assert candidate_Cx(bg, centre) == []


def test_candidate_cx_requires_degree_4(domino):
    bg = BasisGraph(domino, trace_faces(domino))
    for v in domino.coords:
        assert candidate_Cx(bg, v) == []


def test_candidate_cx_grid4_centre(grid4):
    bg = BasisGraph(grid4, trace_faces(grid4))
    x = vertex_at(grid4, (1, 1))
    cands = candidate_Cx(bg, x)
    assert cands
    assert cands == sorted(cands)
    centre_face = next(
        fid for fid in bg.face_ids
        if {grid4.coords[v] for v in bg.face(fid).vertices} ==
        {(1, 1), (2, 1), (2, 2), (1, 2)})
    # Removing the centre face deletes no edges (all weight 2) but turns x
    # into a boundary vertex, so the singleton qualifies.
    assert (centre_face,) in cands
    for cx in cands:
        residual = bg.remove_faces(cx)
        assert residual.degree(x) == 4
        assert residual.vertex_class(x).tag == "boundary"


def _replayed_candidate_cx(bg, x, max_size):
    """Reference: replay every face subset from the full graph."""
    if bg.degree(x) < 4:
        return []
    subsets = []
    for size in range(1, max_size + 1):
        subsets.extend(itertools.combinations(bg.face_ids, size))
    out = []
    for subset in sorted(subsets):
        residual = bg
        for fid in subset:
            if not residual.is_removable(fid):
                break
            residual = residual.remove_face(fid)
        else:
            if (residual.degree(x) == 4
                    and residual.vertex_class(x).tag == "boundary"
                    and solvable(equation_of_graph(residual))):
                out.append(subset)
    return out


def test_candidate_cx_matches_replayed_subsets(grid4):
    graphs = [grid4, gen_grid(4, 5), gen_grid(5, 5),
              gen_grid(5, 5, [(1, 1), (1, 2)]),
              gen_grid(5, 6, [(1, 1), (2, 1)]),
              gen_grid(6, 5, [(1, 1), (2, 1), (2, 2)])]
    for g in graphs:
        bg = BasisGraph(g, trace_faces(g))
        for x in sorted(g.coords):
            for max_size in (1, 2, 3):
                assert candidate_Cx(bg, x, max_size) == \
                    _replayed_candidate_cx(bg, x, max_size), (g.name, x)


def test_find_ck_grid4_before_peel(grid4):
    bg = BasisGraph(grid4, trace_faces(grid4))
    x = vertex_at(grid4, (1, 1))
    # Only the centre face qualifies: removable, on x, all edges weight 2,
    # and every corner is an interior vertex.  Faces with weight-1 edges
    # are excluded outright.
    ks = find_Ck(bg, x)
    assert len(ks) == 1
    face = bg.face(ks[0])
    assert all(bg.weights[e] == 2 for e in face.edges)
    assert x in face.vertices


def test_face_neighbour_helpers(grid3):
    bg = BasisGraph(grid3, trace_faces(grid3))
    for fid in bg.face_ids:
        edge_n = faces_sharing_edge(bg, fid)
        corner_n = faces_sharing_only_vertices(bg, fid)
        assert len(edge_n) == 2
        assert len(corner_n) == 1
        assert set(edge_n) | set(corner_n) | {fid} == set(bg.face_ids)
        assert fid not in edge_n and fid not in corner_n


def test_build_context_grid4(grid4):
    bg = BasisGraph(grid4, trace_faces(grid4))
    x = vertex_at(grid4, (1, 1))
    cx = candidate_Cx(bg, x)[0]
    ctx = build_context(bg, x, cx)
    assert ctx.x == x
    assert ctx.cx == cx
    # After removing Cx no residual face on x both is removable and holds
    # an interior vertex: no Ck, hence no hole material.
    if ctx.ck is None:
        assert ctx.cxe == () and ctx.ce == () and ctx.cv == ()


def test_is_global_hole_false_on_grid4(grid4):
    basis = trace_faces(grid4)
    bg = BasisGraph(grid4, basis)
    for x in sorted(grid4.coords):
        if grid4.degree(x) < 4:
            continue
        for cx in candidate_Cx(bg, x):
            ctx = build_context(bg, x, cx)
            assert not is_global_hole(grid4, basis, ctx)


def test_is_global_hole_requires_cx(grid4):
    basis = trace_faces(grid4)
    ctx = build_context(BasisGraph(grid4, basis),
                        vertex_at(grid4, (1, 1)), ())
    assert not is_global_hole(grid4, basis, ctx)


def test_decide_square(square):
    v = decide(square)
    assert v.tag == HAMILTONIAN
    assert is_hamilton_cycle(v.certificate, square)


def test_decide_domino_strict_vs_lenient(domino):
    strict = decide(domino)
    assert strict.tag == CLAW
    assert all(r.severity == CASE_I for r in strict.claw_reports)
    lenient = decide(domino, claw_mode="lenient")
    assert lenient.tag == HAMILTONIAN
    assert is_hamilton_cycle(lenient.certificate, domino)


def test_decide_grid3_no_solution(grid3):
    # Case I vertices exist, but the infeasible equation decides first.
    assert decide(grid3).tag == NO_SOLUTION
    assert decide(grid3, claw_mode="lenient").tag == NO_SOLUTION


def test_decide_fig8_case_ii(fig8):
    v = decide(fig8, claw_mode="lenient")
    assert v.tag == CLAW
    assert v.claw_reports[0].severity == CASE_II


def test_decide_grid4(grid4):
    v = decide(grid4)
    assert v.tag == HAMILTONIAN
    assert is_hamilton_cycle(v.certificate, grid4)


def test_decide_claw_modes(domino, fig8, grid4):
    # Case I claws rule a graph out only under the strict reading; a Case II
    # claw rules it out under both; a claw-free graph has no reports.
    assert decide(domino).tag == CLAW
    assert decide(domino, claw_mode="lenient").tag != CLAW
    assert decide(fig8, claw_mode="lenient").tag == CLAW
    assert claw_d2_scan(grid4) == []


def test_decide_twin_nonagons(twin_nonagons):
    v = decide(twin_nonagons, claw_mode="lenient")
    assert v.tag == HAMILTONIAN
    assert is_hamilton_cycle(v.certificate, twin_nonagons)


def test_decide_rejects_unknown_mode(square, fig8, grid3):
    # fig8 ends at a case-II claw and grid3 at an infeasible equation; the
    # mode is rejected before either.
    for g in (square, fig8, grid3):
        with pytest.raises(ValueError):
            decide(g, claw_mode="medium")


def test_decide_deterministic(grid4):
    a = decide(grid4)
    b = decide(grid4)
    assert a.tag == b.tag
    assert a.certificate == b.certificate


def test_decide_odd_grids_no_solution():
    # Odd-by-odd grids have an odd vertex count; with only quadrilateral
    # faces the equation 2a = |V| - 2 has a parity obstruction.
    for m in (5, 7):
        assert decide(gen_grid(m, m), claw_mode="lenient").tag == NO_SOLUTION


def test_decide_5x6_never_overclaims():
    # 5x6 is Hamiltonian; the pipeline may stop at CriterionUnverified when
    # no tried partition certifies, but it must never return a
    # non-Hamiltonian verdict, and any certificate must be real.
    g = gen_grid(5, 6)
    v = decide(g, claw_mode="lenient", limit=256)
    assert v.tag in (HAMILTONIAN, UNVERIFIED)
    if v.tag == HAMILTONIAN:
        assert is_hamilton_cycle(v.certificate, g)
