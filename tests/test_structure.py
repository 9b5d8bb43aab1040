import random

import pytest

from polygrid import fixtures, trace_faces
from polygrid.embedding import FaceBasis, reach
from polygrid.grinberg import GrinbergEquation, equation_of_graph
from polygrid.oracle import enumerate_polyominoes, gen_grid
from polygrid.structure import (BOUNDARY, CASE_I, CASE_II, INTERIOR, OTHER,
                                BasisGraph, NonTilingBasisError, VertexClass,
                                claw_d2_scan)


def vertex_at(g, xy):
    return next(v for v, p in g.coords.items() if p == xy)


def root(g):
    return BasisGraph(g, trace_faces(g))


def face_containing(bg, vertex_xys):
    wanted = {vertex_at(bg.g, xy) for xy in vertex_xys}
    return next(fid for fid in bg.face_ids
                if bg.face(fid).vertices == wanted)


def test_weights_square(square):
    w = root(square).weights
    assert sorted(w.values()) == [1, 1, 1, 1]


def test_weights_domino(domino):
    w = root(domino).weights
    assert sorted(w.values()) == [1, 1, 1, 1, 1, 1, 2]


def test_weights_grid3(grid3):
    w = root(grid3).weights
    centre = vertex_at(grid3, (1, 1))
    for eid, count in w.items():
        expect = 2 if centre in grid3.edges[eid] else 1
        assert count == expect


def test_edge_on_three_faces_rejected(square):
    basis = trace_faces(square)
    tripled = FaceBasis(faces=basis.faces * 3, outer_edges=basis.outer_edges,
                        outer_walk=basis.outer_walk)
    with pytest.raises(NonTilingBasisError, match="lies on 3 basis faces"):
        BasisGraph(square, tripled)


def test_edge_on_three_faces_named_by_lowest_id(domino):
    basis = trace_faces(domino)
    tripled = FaceBasis(faces=basis.faces * 3, outer_edges=basis.outer_edges,
                        outer_walk=basis.outer_walk)
    fids = [1, 3, 4, 5]
    counts = {}
    for fid in fids:
        for eid in tripled.faces[fid].edges:
            counts[eid] = counts.get(eid, 0) + 1
    eid = min(e for e, count in counts.items() if count > 2)
    u, v = domino.edges[eid]
    with pytest.raises(NonTilingBasisError) as info:
        BasisGraph(domino, tripled, fids)
    assert str(info.value) == \
        f"edge {u} {v} lies on {counts[eid]} basis faces"


def test_weight_sum_equals_length_sum(square, domino, grid3, grid4, fig8,
                                      twin_nonagons):
    for g in (square, domino, grid3, grid4, fig8, twin_nonagons):
        basis = trace_faces(g)
        w = BasisGraph(g, basis).weights
        assert sum(w.values()) == sum(f.length for f in basis.faces)


def test_classify_grid3_centre_interior(grid3):
    assert root(grid3).vertex_class(vertex_at(grid3, (1, 1))).tag == \
        "interior"


def test_classify_domino_corner_boundary(domino):
    bg, v = root(domino), vertex_at(domino, (0, 0))
    assert bg.vertex_class(v).tag == "boundary"
    assert len(bg.faces_on_vertex(v)) == 1


def test_classify_fig8_shared_other(fig8):
    bg, v = root(fig8), vertex_at(fig8, (1, 1))
    assert bg.vertex_class(v).tag == "other"
    assert len(bg.faces_on_vertex(v)) == 2


def test_classification_is_total_and_exclusive(grid4, fig8):
    for g in (grid4, fig8):
        basis = trace_faces(g)
        bg = BasisGraph(g, basis)
        for v in g.coords:
            cls = bg.vertex_class(v)
            assert cls.tag in ("boundary", "interior", "other")
            incident = [e for e in bg.weights if v in g.edges[e]]
            all_w2 = all(bg.weights[e] == 2 for e in incident)
            w2 = sum(1 for e in incident if bg.weights[e] == 2)
            bdry = w2 == len(bg.faces_on_vertex(v)) - 1
            assert not (all_w2 and bdry and cls.tag == "other")


def _counted_class(bg, v):
    """The class by counting the surviving faces on v over the basis's
    faces, as a generator sum, and the weight-2 edges at v."""
    if bg.is_interior(v):
        return VertexClass("interior")
    on_v = sum(bg.face_mask >> fid & 1 for fid, face in
               enumerate(bg.basis.faces) if v in face.vertices)
    w2 = bg.g.incident_edge_masks.get(v, 0) & bg.w2_mask
    return VertexClass("boundary" if w2.bit_count() == on_v - 1
                       else "other")


def test_vertex_class_matches_counted_faces_after_each_removal():
    # The mask reading agrees with the counting one on every vertex of
    # the root and of every single-face removal, and hands out the shared
    # constants only.
    checked = 0
    for g in enumerate_polyominoes(6):
        bg = root(g)
        graphs = [bg] + [bg.remove_face(fid) for fid in bg.face_ids]
        for graph in graphs:
            for v in g.coords:
                cls = graph.vertex_class(v)
                assert cls == _counted_class(graph, v), (g.name, v)
                assert any(cls is c for c in (INTERIOR, BOUNDARY, OTHER))
                checked += 1
    assert checked > 10000


def test_boundary_edges(square, domino):
    assert len(root(square).boundary_edge_ids()) == 4
    assert len(root(domino).boundary_edge_ids()) == 6


def test_boundary_edges_grid4(grid4):
    be = root(grid4).boundary_edge_ids()
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
            d2 = sum(1 for w in g.rotation[v] if len(g.rotation[w]) == 2)
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
    assert after.weights.keys() == bg.weights.keys()  # all its edges had w = 2


def test_not_removable_grid3_corner(grid3):
    basis = trace_faces(grid3)
    bg = BasisGraph(grid3, basis)
    for fid in bg.face_ids:
        assert not bg.is_removable(fid)


def test_not_removable_square(square):
    bg = root(square)
    assert not bg.is_removable(0)
    empty = bg.remove_face(0)
    assert (empty.order, empty.face_ids, empty.edge_mask) == (0, (), 0)
    assert empty.vertices() == [] and empty.weights == {}


def _face_set_state(bg):
    return (bg.face_ids, bg.lengths, bg.face_mask, bg.edge_mask, bg.w2_mask,
            bg.order, bg.vertices())


def test_remove_face_matches_face_set_construction(bridged_blocks):
    # A removal drops the face, the edges only it carried and the vertices
    # they alone reached, so it gives the graph of the remaining faces;
    # the face was removable exactly when the order did not change.
    rng = random.Random(3)
    graphs = ([gen_grid(5, 6, [(1, 1), (2, 1)]),
               gen_grid(6, 6, [(1, 1), (3, 3)]), bridged_blocks]
              + [make() for make in fixtures.ALL.values()]
              + list(enumerate_polyominoes(6)))
    removals = isolating = 0
    for g in graphs:
        basis = trace_faces(g)
        for _ in range(3):
            faces = [fid for fid in range(len(basis.faces))
                     if rng.random() < 0.7]
            bg = BasisGraph(g, basis, faces)
            while faces:
                fid = faces.pop(rng.randrange(len(faces)))
                child = bg.remove_face(fid)
                assert (_face_set_state(child)
                        == _face_set_state(BasisGraph(g, basis, faces)))
                assert bg.is_removable(fid) == (child.order == bg.order)
                removals += 1
                isolating += child.order < bg.order
                bg = child
    assert removals > isolating > 1000


def test_removal_recount_equivalence(grid4):
    basis = trace_faces(grid4)
    bg = BasisGraph(grid4, basis)
    for fid in bg.face_ids:
        if not bg.is_removable(fid):
            continue
        after = bg.remove_face(fid)
        assert after.order == bg.order
        assert len(after.face_ids) == len(bg.face_ids) - 1
        fresh = BasisGraph(grid4, basis, after.face_ids)
        assert after.weights == fresh.weights


def _assert_same_structure(bg, fresh):
    assert bg.weights == fresh.weights
    assert bg.order == fresh.order
    for v in bg.g.coords:
        assert bg.degree(v) == fresh.degree(v)
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
                _assert_same_structure(bg, BasisGraph(g, basis, bg.face_ids))


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
    assert len(after.weights) == len(bg.weights) - 2


def test_removed_face_is_gone(grid4):
    bg = root(grid4)
    centre = face_containing(bg, [(1, 1), (2, 1), (2, 2), (1, 2)])
    after = bg.remove_face(centre)
    assert not after.is_removable(centre)
    with pytest.raises(ValueError, match="not in the surviving basis"):
        after.remove_face(centre)


def test_bridge_kept_by_root_dropped_by_face_set(bridged_blocks):
    g = bridged_blocks
    basis = trace_faces(g)
    bridge = next(eid for eid in range(g.size)
                  if not basis.edge_face_ids[eid])
    bg = BasisGraph(g, basis)
    assert bg.weights[bridge] == 0
    assert len(bg.weights) == g.size
    assert bg.order == g.order
    assert bg.connected()
    faces_only = BasisGraph(g, basis, bg.face_ids)
    assert bridge not in faces_only.weights
    assert len(faces_only.weights) == g.size - 1
    assert faces_only.order == g.order
    assert not faces_only.connected()


class DictModel:
    """The weight-map state the bitsets replaced: the surviving faces and a
    dict from each surviving edge to its weight, every query recounted."""

    def __init__(self, g, basis):
        self.g, self.basis = g, basis
        self.face_ids = set(range(len(basis.faces)))
        self.weights = dict.fromkeys(range(g.size), 0)
        for face in basis.faces:
            for eid in face.edges:
                self.weights[eid] += 1

    @property
    def order(self):
        return len(self.vertices())

    def vertices(self):
        return sorted({v for eid in self.weights for v in self.g.edges[eid]})

    def incident_edges(self, v):
        return [eid for eid in sorted(self.weights) if v in self.g.edges[eid]]

    def faces_on_vertex(self, v):
        return frozenset(fid for fid in self.face_ids
                         if v in self.basis.faces[fid].vertices)

    def vertex_class(self, v):
        incident = [self.weights[eid] for eid in self.incident_edges(v)]
        w2 = incident.count(2)
        if incident and w2 == len(incident):
            return VertexClass("interior")
        if w2 == len(self.faces_on_vertex(v)) - 1:
            return VertexClass("boundary")
        return VertexClass("other")

    def boundary_edge_ids(self):
        return frozenset(e for e, count in self.weights.items() if count == 1)

    def is_removable(self, fid):
        if fid not in self.face_ids:
            return False
        face = self.basis.faces[fid]
        doomed = {eid for eid in face.edges if self.weights[eid] == 1}
        return all(any(eid not in doomed for eid in self.incident_edges(v))
                   for v in face.vertices)

    def remove(self, fid):
        for eid in self.basis.faces[fid].edges:
            self.weights[eid] -= 1
            if self.weights[eid] == 0:
                del self.weights[eid]
        self.face_ids.discard(fid)

    def connected(self):
        adj = {}
        for eid in self.weights:
            u, v = self.g.edges[eid]
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        return not adj or len(reach(adj, next(iter(adj)))) == len(adj)

    def equation(self):
        fids = tuple(sorted(self.face_ids))
        return GrinbergEquation(
            fids, tuple(self.basis.faces[f].length for f in fids), self.order)


def _assert_matches_model(bg, model):
    assert bg.weights == model.weights
    assert list(bg.weights) == sorted(model.weights)
    assert bg.boundary_edge_ids() == model.boundary_edge_ids()
    assert bg.order == model.order
    assert bg.vertices() == model.vertices()
    for v in bg.g.coords:
        assert bg.degree(v) == len(model.incident_edges(v))
        assert bg.faces_on_vertex(v) == model.faces_on_vertex(v)
        assert bg.vertex_class(v) == model.vertex_class(v)
    for fid in range(len(bg.basis.faces)):
        assert bg.is_removable(fid) == model.is_removable(fid)
    assert bg.connected() == model.connected()
    assert equation_of_graph(bg) == model.equation()


def test_mask_state_matches_weight_map_model(grid4, bridged_blocks):
    rng = random.Random(11)
    graphs = [(grid4, 12), (gen_grid(4, 5), 12),
              (gen_grid(5, 6, [(1, 1), (2, 1)]), 12), (bridged_blocks, 12)]
    graphs += [(g, 2) for g in enumerate_polyominoes(6)]
    isolating = 0
    for g, chains in graphs:
        basis = trace_faces(g)
        bridges = [eid for eid in range(g.size)
                   if not basis.edge_face_ids[eid]]
        for _ in range(chains):
            bg, model = BasisGraph(g, basis), DictModel(g, basis)
            _assert_matches_model(bg, model)
            for _ in range(rng.randint(1, 5)):
                if not bg.face_ids:
                    break
                # Half the steps may leave a vertex with no edge.
                faces = bg.face_ids
                if rng.random() < 0.5:
                    faces = [f for f in faces if bg.is_removable(f)] or faces
                fid = rng.choice(faces)
                order = bg.order
                bg = bg.remove_face(fid)
                model.remove(fid)
                isolating += bg.order < order
                _assert_matches_model(bg, model)
                assert all(bg.weights[eid] == 0 for eid in bridges)
    assert isolating > 100
