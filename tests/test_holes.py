import gc
import importlib.util
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from polygrid import fixtures, grinberg, holes, trace_faces
from polygrid.holes import (CLAW, GLOBAL_HOLE, HAMILTONIAN, NO_SOLUTION,
                            UNVERIFIED, build_context, candidate_Cx, decide,
                            hole_contexts, is_global_hole)
from polygrid.embedding import (bit_ids, enclosed_faces, is_hamilton_cycle,
                                sym_diff_all)
from polygrid.grinberg import (equation_of_graph, feasible_without_any,
                               partitions, solvable)
from polygrid.fixtures import _polygons_to_embedding
from polygrid.oracle import enumerate_polyominoes, gen_grid
from polygrid.structure import CASE_I, CASE_II, BasisGraph, claw_d2_scan

from holes_reference import (certificate_reference, decide_reference,
                             hole_contexts_reference)


def vertex_at(g, xy):
    return next(v for v, p in g.coords.items() if p == xy)


def residual_of(bg, cx):
    """Replay the removal of the faces in cx, in order."""
    for fid in cx:
        bg = bg.remove_face(fid)
    return bg


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
        residual = residual_of(bg, cx)
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


def test_candidate_cx_matches_replayed_subsets(grid4, bridged_blocks):
    # The replay has no prune, so this also holds the walk's stop past the
    # last face on x, on faces of length 3 and at bridges too.
    graphs = ([grid4, gen_grid(4, 5), gen_grid(5, 5),
               gen_grid(5, 5, [(1, 1), (1, 2)]),
               gen_grid(5, 6, [(1, 1), (2, 1)]),
               gen_grid(6, 5, [(1, 1), (2, 1), (2, 2)]),
               bridged_blocks]
              + _cut_tilings()
              + list(enumerate_polyominoes(5)))
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
    ks = _scan_find_ck(bg, x)
    assert len(ks) == 1
    assert build_context(bg, x, ()).ck == ks[0]
    face = bg.face(ks[0])
    assert all(bg.weights[e] == 2 for e in face.edges)
    assert x in face.vertices


# Reference scans over every surviving face, which the incidence lookups
# replace.

def _scan_find_ck(bg, x):
    out = []
    for fid in bg.face_ids:
        face = bg.face(fid)
        if x not in face.vertices or not bg.is_removable(fid):
            continue
        if any(bg.weights[eid] == 1 for eid in face.edges):
            continue
        if any(bg.vertex_class(v).tag == "interior" for v in face.vertices):
            out.append(fid)
    return out


def _scan_cxe(bg, x, ck):
    ck_vertices = bg.face(ck).vertices
    return [fid for fid in bg.face_ids
            if fid != ck and bg.face(fid).vertices & ck_vertices == {x}
            and bg.is_removable(fid)]


def _scan_sharing_edge(bg, fid):
    edges = bg.face(fid).edges
    return [other for other in bg.face_ids
            if other != fid and bg.face(other).edges & edges]


def test_incidence_lookups_match_face_scans(grid4, fig8, twin_nonagons):
    rng = random.Random(11)
    graphs = [grid4, fig8, twin_nonagons, gen_grid(5, 5), gen_grid(6, 5),
              gen_grid(5, 6, [(1, 1), (2, 1)]),
              gen_grid(6, 6, [(1, 1), (3, 2)])]
    found_ck = 0
    for g in graphs:
        basis = trace_faces(g)
        for _ in range(12):
            bg = BasisGraph(g, basis)
            for _ in range(rng.randint(0, 4)):
                removable = [f for f in bg.face_ids if bg.is_removable(f)]
                if not removable:
                    break
                bg = bg.remove_face(rng.choice(removable))
            neighbours = basis.edge_neighbour_masks
            for fid in bg.face_ids:
                assert (list(bit_ids(neighbours[fid] & bg.face_mask))
                        == _scan_sharing_edge(bg, fid)), (g.name, fid)
            for x in bg.vertices():
                ks = _scan_find_ck(bg, x)
                ctx = build_context(bg, x, ())
                assert ctx == holes.HoleContext(x, (), ks[0] if ks else None)
                found_ck += bool(ks)
    assert found_ck > 0


def test_build_context_grid4(grid4):
    bg = BasisGraph(grid4, trace_faces(grid4))
    x = vertex_at(grid4, (1, 1))
    cx = candidate_Cx(bg, x)[0]
    ctx = build_context(residual_of(bg, cx), x, cx)
    # After removing Cx no residual face on x both is removable and holds
    # an interior vertex: no Ck, hence no hole material.
    assert ctx == holes.HoleContext(x=x, cx=cx)


def test_is_global_hole_false_on_grid4(grid4):
    bg = BasisGraph(grid4, trace_faces(grid4))
    for x in sorted(grid4.coords):
        if grid4.degree(x) < 4:
            continue
        for cx in candidate_Cx(bg, x):
            residual = residual_of(bg, cx)
            ctx = build_context(residual, x, cx)
            assert not is_global_hole(residual, ctx)


def _reference_peel(residual, ctx):
    """The general peel: strip C_xe and then C_k at ctx.x until no C_k
    remains or C_k cannot be removed, skipping any removal that is not
    removable or would disconnect the residual.  C_k and C_xe come from
    the reference scans, not from ctx."""
    def safe_remove(bg, fid):
        if not bg.is_removable(fid):
            return bg, False
        candidate = bg.remove_face(fid)
        if not candidate.connected():
            return bg, False
        return candidate, True

    ks = _scan_find_ck(residual, ctx.x)
    while ks:
        for fid in _scan_cxe(residual, ctx.x, ks[0]):
            residual, _ = safe_remove(residual, fid)
        residual, done = safe_remove(residual, ks[0])
        if not done:
            return residual
        ks = _scan_find_ck(residual, ctx.x)
    return residual


def _cut_squares(m, n, cut):
    """The rings of an m x n block of unit squares: a square where
    cut(cx, cy) is None, else two triangles split by the rising diagonal
    where it is true and by the falling one where it is false."""
    rings = []
    for cx in range(m):
        for cy in range(n):
            a, b, c, d = (cx, cy), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)
            side = cut(cx, cy)
            if side is None:
                rings.append((a, b, c, d))
            elif side:
                rings += [(a, b, c), (a, c, d)]
            else:
                rings += [(a, b, d), (b, c, d)]
    return rings


def _cut_tilings():
    tilings = {
        "diagonals-one-way": _cut_squares(3, 3, lambda cx, cy: True),
        "diagonals-alternating": _cut_squares(
            3, 3, lambda cx, cy: (cx + cy) % 2 == 0),
        "checkerboard": _cut_squares(
            4, 4, lambda cx, cy: None if (cx + cy) % 2 else True),
    }
    return [_polygons_to_embedding(rings, name)
            for name, rings in tilings.items()]


def _triangle_corners(i, j, up):
    """The lattice corners of triangle-lattice cell (i, j, up)."""
    if up:
        return (i, j), (i + 1, j), (i, j + 1)
    return (i + 1, j), (i + 1, j + 1), (i, j + 1)


def _triangle_patches():
    """Triangle-lattice patches, lattice point (i, j) drawn at (2i + j, j),
    whose inner vertices have degree 6: two parallelograms, and the
    hexagon of radius 2 around a lattice point."""
    def cells(irange, jrange):
        return [(i, j, up) for i in irange for j in jrange
                for up in (True, False)]

    def patch(chosen, name):
        return _polygons_to_embedding(
            [tuple((2 * i + j, j) for i, j in _triangle_corners(*cell))
             for cell in chosen], name)

    hexagon = [cell for cell in cells(range(-2, 2), range(-2, 2))
               if all(max(abs(i), abs(j), abs(i + j)) <= 2
                      for i, j in _triangle_corners(*cell))]
    return [patch(cells(range(2), range(3)), "triangles-2x3"),
            patch(cells(range(3), range(3)), "triangles-3x3"),
            patch(hexagon, "triangles-hexagon")]


def _masks(bg):
    return bg.face_mask, bg.edge_mask, bg.w2_mask


def test_single_ck_removal_matches_the_general_peel(monkeypatch,
                                                    bridged_blocks):
    # The two 6 x 4 grids hold the only infeasible peels found so far, all
    # on connected residuals.
    graphs = ([fixtures.grid4(), gen_grid(5, 6),
               gen_grid(5, 6, [(1, 1), (1, 2), (2, 1)]),
               gen_grid(6, 4, [(1, 1), (2, 1)]),
               gen_grid(4, 6, [(1, 1), (1, 2)])]
              + list(enumerate_polyominoes(6))
              + [make() for make in fixtures.ALL.values()]
              + _cut_tilings()
              + [bridged_blocks])
    handed = []
    solved = set()     # face masks whose equation this search has built
    repeats = []
    real_equation = holes.equation_of_graph

    def capturing(*args):
        residual = args[0]
        if residual.face_mask in solved:
            repeats.append(residual.face_mask)
        solved.add(residual.face_mask)
        handed.append(residual)
        return real_equation(*args)

    monkeypatch.setattr(holes, "equation_of_graph", capturing)
    real_test = holes.is_global_hole
    seen = Counter()

    def checked(*args):
        residual, ctx = args[:2]
        peeled = None if ctx.ck is None else residual.remove_face(ctx.ck)
        known = peeled is not None and peeled.face_mask in solved
        handed.clear()
        hole = real_test(*args)
        if len(residual.faces_on_vertex(ctx.x)) == 2:
            # x carries a bridge the root keeps, so two faces meet there,
            # each with a weight-1 edge at x: neither can be C_k.
            seen["two faces at x"] += 1
            assert ctx.ck is None
        if ctx.ck is not None:
            # The invariants build_context and is_global_hole rely on:
            # no face meets C_k only at x, and no second C_k is left.
            assert _scan_cxe(residual, ctx.x, ctx.ck) == []
            assert _scan_find_ck(peeled, ctx.x) == []
            if not residual.connected():
                seen["ck on a disconnected residual"] += 1
            if not solvable(real_equation(peeled)):
                seen["infeasible peel"] += 1
            seen["peel solved before" if known else "peel solved"] += 1
        # Only the C_k-removed residual's equation is built, and only when
        # this search has not built it yet: the walk has found the
        # residual itself feasible, so without C_k, or when a
        # disconnected residual keeps it, there is no hole.
        expected = [peeled] if peeled is not None and not known else []
        assert [_masks(r) for r in handed] == [_masks(r) for r in expected]
        general = _reference_peel(residual, ctx)
        assert hole == (not solvable(real_equation(general)))
        return hole

    monkeypatch.setattr(holes, "is_global_hole", checked)
    for g in graphs:
        solved.clear()
        for _ in hole_contexts(g, BasisGraph(g, trace_faces(g)), 3):
            seen["contexts"] += 1
    assert repeats == []
    assert seen["contexts"] > 10000
    assert seen["ck on a disconnected residual"] >= 14
    assert seen["infeasible peel"] > 0
    assert seen["two faces at x"] > 0
    assert seen["peel solved"] > 0 and seen["peel solved before"] > 0


def _hamilton_cycles(g):
    """Every Hamilton cycle of g as an edge-id set, each once: a DFS over
    paths from the lowest vertex, keeping one direction of each cycle."""
    start = min(g.coords)
    path, on_path, cycles = [start], {start}, []

    def extend(v):
        if len(path) == g.order:
            if start in g.rotation[v] and path[1] < path[-1]:
                cycles.append(frozenset(g.edge_id(path[i - 1], path[i])
                                        for i in range(len(path))))
            return
        for w in g.rotation[v]:
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(w)
                on_path.discard(w)
                path.pop()

    extend(start)
    return cycles


def test_every_hamilton_cycle_puts_a_global_hole_face_inside():
    # A global hole proves this much: the walk's residuals keep every
    # vertex and removing C_k deletes no edge, so a Hamilton cycle whose
    # inside faces avoided R = C_x + {C_k} would solve the infeasible
    # peeled equation.  The rule's further step, that there is no Hamilton
    # cycle at all, is not checked here.
    seen = Counter()
    for g in list(enumerate_polyominoes(8)) + [gen_grid(4, 5)]:
        basis = trace_faces(g)
        found = [ctx for ctx, hole in
                 hole_contexts(g, BasisGraph(g, basis), 3) if hole]
        if not found:
            continue
        assert g.order <= 20, g.name
        seen["graphs"] += 1
        seen["contexts"] += len(found)
        for cycle in _hamilton_cycles(g):
            assert is_hamilton_cycle(cycle, g)
            inside = enclosed_faces(cycle, basis, g)
            for ctx in found:
                removed = set(ctx.cx) | {ctx.ck}
                assert inside & removed, (g.name, ctx)
                seen["pairs"] += 1
                seen["all inside"] += removed <= inside
    assert seen["graphs"] >= 20 and seen["contexts"] >= 70
    assert seen["pairs"] >= 100 and seen["all inside"] > 0


def test_hole_contexts_calls_each_step_once_per_context(monkeypatch):
    # The search reaches its steps through the module's public names, so a
    # wrapper installed there (as the benchmark tracer does) sees each one
    # exactly once per context: build_context on the residual the walk
    # yields, then the global-hole test on that context.
    calls = Counter()

    def counting(name):
        step = getattr(holes, name)

        def wrapper(*args):
            calls[name] += 1
            return step(*args)
        return wrapper

    for name in ("build_context", "is_global_hole"):
        monkeypatch.setattr(holes, name, counting(name))
    for g in (gen_grid(4, 5), gen_grid(5, 6)):
        calls.clear()
        found = list(hole_contexts(g, BasisGraph(g, trace_faces(g)), 3))
        assert found
        assert calls["build_context"] == len(found), g.name
        assert calls["is_global_hole"] == len(found), g.name


def test_one_search_builds_each_face_sets_equation_once(monkeypatch,
                                                        bridged_blocks):
    # The walks and the global-hole peels share one map from face set to
    # feasibility, so one search builds no face set's equation twice.
    built = []
    real_equation = holes.equation_of_graph

    def recording(*args):
        built.append(args[0].face_mask)
        return real_equation(*args)

    monkeypatch.setattr(holes, "equation_of_graph", recording)
    for g in (gen_grid(5, 6), gen_grid(6, 4, [(1, 1), (2, 1)]),
              bridged_blocks):
        built.clear()
        found = list(hole_contexts(g, BasisGraph(g, trace_faces(g)), 3))
        assert found and built, g.name
        assert len(set(built)) == len(built), g.name


def _hole_clusters(m, n):
    """The 2-3-cell clusters of interior cells that gen_grid(m, n) can
    delete: pairs sharing a side, and triples of which two pairs do."""
    inner = [(cx, cy) for cx in range(1, m - 2) for cy in range(1, n - 2)]

    def side(a, b):
        return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    return [c for k in (2, 3) for c in itertools.combinations(inner, k)
            if sum(side(a, b) for a, b in itertools.combinations(c, 2))
            >= k - 1]


def _decide_grid_holed_grids():
    """The holed grids of the benchmark's decide-grid workload, seeds 1
    and 2."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    graphs = {}
    for seed in (1, 2):
        for g in workloads.DecideGrid().build(seed):
            if "holes" in g.name:
                graphs[g.name] = g
    return list(graphs.values())


def _pruned_walk_corpus():
    """The polyominoes of <= 7 cells and the decide-grid holed grids."""
    graphs = list(enumerate_polyominoes(7)) + _decide_grid_holed_grids()
    assert len(graphs) == 1067 + 22
    return graphs


def test_hole_contexts_match_the_unshared_reference(monkeypatch,
                                                   twin_nonagons):
    # The search shares each face set's removal, residual and feasibility
    # across beginning vertices and peels, tests x once per surviving
    # subset of the faces on x and scans the basis's faces on x for C_k;
    # the reference walks every vertex afresh, tests x at every set and
    # sorts the residual's faces on x for every context.  The search also
    # stops below residuals whose equation is infeasible, where the
    # reference descends and yields nothing; the benchmark's holed grids of
    # odd order have an infeasible root.  The triangle patches have
    # vertices of degree 6, so the test at x is not checked on squares
    # alone.  On 6 x 6 and 6 x 7 the C_x sets also hold faces far from x;
    # 6 x 7 is the grid `polygrid holes` searches in CI, 18,496 contexts at
    # max_cx 3.
    graphs = _pruned_walk_corpus()
    graphs += [gen_grid(m, n) for m in (4, 5) for n in (4, 5, 6)]
    graphs += [gen_grid(6, 6), gen_grid(6, 7), twin_nonagons]
    graphs += _triangle_patches()
    clusters = 0
    for m, n in ((4, 5), (4, 6)):
        for cluster in _hole_clusters(m, n):
            graphs.append(gen_grid(m, n, cluster))
            graphs.append(gen_grid(n, m, [(y, x) for x, y in cluster]))
            clusters += 1
    assert clusters == 4
    seen = []
    real_test = BasisGraph.is_removable

    def recording(self, fid):
        seen.append((self.face_mask, fid))
        return real_test(self, fid)

    holes_found = 0
    for g in graphs:
        bg = BasisGraph(g, trace_faces(g))
        for max_cx in (1, 2, 3):
            expected = list(hole_contexts_reference(g, bg, max_cx))
            seen.clear()
            with monkeypatch.context() as patch:
                patch.setattr(BasisGraph, "is_removable", recording)
                got = list(hole_contexts(g, bg, max_cx))
            assert got == expected, (g.name, max_cx)
            assert len(set(seen)) == len(seen), (g.name, max_cx)
            holes_found += sum(hole for _, hole in got)
    assert holes_found > 0


def test_x_is_tested_once_per_surviving_face_subset(monkeypatch):
    # One walk calls vertex_class(x) at most once for each subset of the
    # faces on x that survives; x's degree and class read nothing else.
    real_class = BasisGraph.vertex_class
    keys = []
    on_x = 0

    def recording(self, v):
        keys.append((v, self.face_mask & on_x))
        return real_class(self, v)

    monkeypatch.setattr(BasisGraph, "vertex_class", recording)
    tested = 0
    for m, n in itertools.product((4, 5), (4, 5, 6)):
        g = gen_grid(m, n)
        bg = BasisGraph(g, trace_faces(g))
        for x in sorted(g.coords):
            on_x = bg.basis.vertex_face_masks[x]
            keys.clear()
            list(holes._cx_walk(bg, x, 3, {}, {}))
            assert len(set(keys)) == len(keys), (g.name, x)
            assert all(v == x for v, _ in keys), (g.name, x)
            tested += len(keys)
    assert tested > 0


def test_the_walk_descends_only_below_feasible_residuals(monkeypatch):
    # Removing a face keeps |V| and removes subset sums, so no extension
    # of an infeasible face set is feasible: the walk must not test or
    # remove a face of any residual but the root whose equation is
    # infeasible.  The unpruned reference walk tests a strict superset of
    # the (face set, face) pairs.
    tested = []
    residuals = []
    real_test = BasisGraph.is_removable
    real_remove = BasisGraph.remove_face

    def testing(self, fid):
        tested.append((self.face_mask, fid))
        residuals.append(self)
        return real_test(self, fid)

    def removing(self, fid):
        residuals.append(self)
        return real_remove(self, fid)

    lib_pairs = ref_pairs = 0
    for g in _pruned_walk_corpus():
        bg = BasisGraph(g, trace_faces(g))
        tested.clear()
        residuals.clear()
        with monkeypatch.context() as patch:
            patch.setattr(BasisGraph, "is_removable", testing)
            patch.setattr(BasisGraph, "remove_face", removing)
            list(hole_contexts(g, bg, 3))
            walked, below = set(tested), residuals[:]
            tested.clear()
            list(hole_contexts_reference(g, bg, 3))
            unpruned = set(tested)
        infeasible = {r.face_mask for r in below
                      if r.face_mask != bg.face_mask
                      and not solvable(equation_of_graph(r))}
        assert not infeasible, g.name
        assert walked <= unpruned, g.name
        lib_pairs += len(walked)
        ref_pairs += len(unpruned)
    assert lib_pairs < ref_pairs // 2, (lib_pairs, ref_pairs)


def test_lenient_decide_removes_fewer_faces_than_the_unpruned_walk(
        monkeypatch):
    # Over the polyominoes of <= 7 cells the pruned walk removes 1,977
    # faces and tests 5,671 for removability; walking below infeasible
    # residuals too, it removed 2,920 and tested 12,153.  Verdicts are the
    # same either way (see the reference tests above).
    calls = Counter()

    def counting(name):
        step = getattr(BasisGraph, name)

        def wrapper(*args):
            calls[name] += 1
            return step(*args)
        monkeypatch.setattr(BasisGraph, name, wrapper)

    counting("remove_face")
    counting("is_removable")
    tags = Counter(decide(g, claw_mode="lenient").tag
                   for g in enumerate_polyominoes(7))
    assert tags == {HAMILTONIAN: 844, NO_SOLUTION: 221, UNVERIFIED: 2}
    assert calls["remove_face"] <= 2200, calls
    assert calls["is_removable"] <= 6000, calls


def test_certificates_match_the_unscreened_reference(twin_nonagons):
    # decide XORs edge masks and skips partitions without |V| edges; the
    # reference checks every partition's frozenset cycle.  Both must hand
    # back the same certificate, or none, at every limit.
    graphs = ([g for g in enumerate_polyominoes(7) if g.order % 2 == 0]
              + [gen_grid(m, n) for m in (2, 3, 4) for n in (4, 5, 6)]
              + [twin_nonagons] + _cut_tilings() + _triangle_patches())
    reached = Counter()
    for g in graphs:
        basis = trace_faces(g)
        eq = equation_of_graph(BasisGraph(g, basis))
        for limit in (1, 4, 64):
            v = decide(g, basis=basis, limit=limit, claw_mode="lenient")
            if v.tag not in (HAMILTONIAN, UNVERIFIED):
                continue
            assert v.certificate == certificate_reference(g, basis, eq,
                                                          limit), g.name
            reached[v.tag] += 1
    assert reached[HAMILTONIAN] > 0 and reached[UNVERIFIED] > 0, reached


def test_decide_draws_no_partition_after_the_certificate(monkeypatch,
                                                         grid4,
                                                         twin_nonagons):
    # decide draws its partitions one at a time, so it builds exactly the
    # ones up to the first that certifies, which the reference finds in
    # the full list.
    drawn = []
    real_partition = grinberg.GrinbergPartition

    def counting(*args):
        drawn.append(args)
        return real_partition(*args)

    graphs = [grid4, twin_nonagons, gen_grid(4, 6), gen_grid(2, 9)]
    graphs += [g for g in enumerate_polyominoes(6) if g.order % 2 == 0]
    certified = unread = 0
    for g in graphs:
        basis = trace_faces(g)
        drawn.clear()
        with monkeypatch.context() as patch:
            patch.setattr(grinberg, "GrinbergPartition", counting)
            v = decide(g, basis=basis, claw_mode="lenient")
        if v.tag != HAMILTONIAN:
            continue
        every = list(partitions(equation_of_graph(BasisGraph(g, basis))))
        cycles = [sym_diff_all(basis.faces[fid].edges for fid in p.inside)
                  for p in every]
        first = next(i for i, cycle in enumerate(cycles)
                     if is_hamilton_cycle(cycle, g))
        assert v.certificate == cycles[first], g.name
        assert len(drawn) == first + 1, g.name
        certified += 1
        unread += min(len(every), 64) - len(drawn)
    assert certified >= 20 and unread > 0


def test_decide_says_how_many_partitions_it_tried():
    # Both polyominoes have 7 partitions, none of which certifies; at a
    # limit the search reaches, the message keeps its old wording.
    polyominoes = {g.name: g for g in enumerate_polyominoes(7)}
    for name in ("poly7_132", "poly7_384"):
        g = polyominoes[name]
        assert len(list(partitions(equation_of_graph(
            BasisGraph(g, trace_faces(g)))))) == 7
        for limit, details in ((64, "none of its 7 partitions certifies"),
                               (8, "none of its 7 partitions certifies"),
                               (7, "none of the first 7 partitions "
                                   "certifies")):
            v = decide(g, limit=limit, claw_mode="lenient")
            assert v.tag == UNVERIFIED, name
            assert v.details == ("criterion claims Hamiltonian but "
                                 + details), (name, limit)
    v = decide(gen_grid(5, 6), claw_mode="lenient")
    assert v.details == ("criterion claims Hamiltonian but none of the "
                         "first 64 partitions certifies")


def test_hole_search_leaves_no_residual_alive():
    # decide on 4x5 stops at its first global hole, with the search still
    # open; the search on 5x6, which decide skips, runs to its end.
    # Neither may leave a residual for the cyclic collector.
    def residuals():
        return [o for o in gc.get_objects() if isinstance(o, BasisGraph)]

    gc.collect()
    before = residuals()
    gc.disable()
    try:
        assert decide(gen_grid(4, 5), claw_mode="lenient").tag == GLOBAL_HOLE
        g = gen_grid(5, 6)
        found = list(hole_contexts(g, BasisGraph(g, trace_faces(g)), 3))
        assert found and not any(hole for _, hole in found)
        left = [r for r in residuals() if not any(r is b for b in before)]
    finally:
        gc.enable()
    assert left == []


def test_skipping_the_hole_search_is_exact(twin_nonagons):
    # decide skips the hole search when the equation stays feasible
    # whichever max_cx + 1 faces are removed.  In both claw modes it must
    # hand back the verdict of the reference, which searches whenever its
    # pipeline gets that far.  Wherever the bound holds, the reference's
    # lenient search runs to its end, so it must have found no hole.
    rng = random.Random(28)
    graphs = list(enumerate_polyominoes(7))
    graphs += [gen_grid(m, n) for m in range(2, 8) for n in range(2, 9)]
    for m, n in ((4, 6), (5, 6), (6, 6), (6, 7)):
        for cluster in rng.sample(_hole_clusters(m, n), 2):
            graphs.append(gen_grid(m, n, cluster))
            graphs.append(gen_grid(n, m, [(y, x) for x, y in cluster]))
    graphs += [twin_nonagons] + _cut_tilings() + _triangle_patches()
    bounded = Counter()
    for g in graphs:
        basis = trace_faces(g)
        bg = BasisGraph(g, basis)
        want = decide_reference(g, basis)
        if feasible_without_any(equation_of_graph(bg), 4):
            assert want["lenient"].tag in (HAMILTONIAN, UNVERIFIED), g.name
            bounded[len(set(bg.lengths)) > 1] += 1
        for mode in ("strict", "lenient"):
            assert decide(g, basis=basis, claw_mode=mode) == want[mode], \
                (g.name, mode)
    # Rectangles, and holed grids whose hole is a hexagon or an octagon.
    assert bounded[False] >= 10 and bounded[True] >= 4, bounded


def test_decide_walks_only_where_the_bound_fails(monkeypatch):
    # Where the bound holds, lenient decide takes no step of the hole
    # search; 4x5 lies outside it and still peels, down to its global hole.
    calls = Counter()

    def counting(owner, name):
        step = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return step(*args)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("remove_face", "is_removable", "vertex_class"):
        counting(BasisGraph, name)
    for name in ("build_context", "is_global_hole"):
        counting(holes, name)
    for g in (gen_grid(5, 6), gen_grid(6, 7)):
        assert decide(g, claw_mode="lenient").tag == UNVERIFIED
        assert not calls, (g.name, calls)
    assert decide(gen_grid(4, 5), claw_mode="lenient").tag == GLOBAL_HOLE
    assert calls["is_global_hole"] > 0 and calls["remove_face"] > 0, calls


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


def test_decide_long_strip():
    # The 2 x 1100 strip's equation has 1099 faces, past the default
    # recursion limit; the partition search runs on its own stack.
    g = gen_grid(2, 1100)
    v = decide(g)
    assert v.tag == HAMILTONIAN
    assert is_hamilton_cycle(v.certificate, g)


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
    # mode and the C_x bound are rejected before either.  The search and
    # candidate_Cx reject the bound too, at any vertex.
    for g in (square, fig8, grid3):
        with pytest.raises(ValueError):
            decide(g, claw_mode="medium")
        with pytest.raises(ValueError, match="max_cx must be >= 1"):
            decide(g, claw_mode="lenient", max_cx=0)
        with pytest.raises(ValueError, match="max_cx must be >= 1"):
            next(hole_contexts(g, BasisGraph(g, trace_faces(g)), 0))
        with pytest.raises(ValueError, match="max_size must be >= 1"):
            candidate_Cx(BasisGraph(g, trace_faces(g)), min(g.coords), 0)


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
