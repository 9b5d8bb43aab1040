import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygrid import trace_faces
from polygrid.embedding import components
from polygrid.oracle import cells_to_embedding, gen_grid
from polygrid.structure import BasisGraph
from polygrid.subbases import (SubbasisDecomposition, SubbasisRecord,
                               _articulation_faces, _face_adjacency,
                               _merge_overlapping, boundary_element_set,
                               check_prop_6_1, decompose, reduce_to_Gg)


def vertex_at(g, xy):
    return next(v for v, p in g.coords.items() if p == xy)


def test_boundary_elements_small(square, domino, grid3):
    for g in (square, domino, grid3):
        basis = trace_faces(g)
        # Every face touches the outer walk in these fixtures.
        assert boundary_element_set(basis, g) == frozenset(
            range(len(basis.faces)))


def test_boundary_elements_grid4(grid4):
    basis = trace_faces(grid4)
    belems = boundary_element_set(basis, grid4)
    assert len(belems) == 8
    centre = next(
        fid for fid in range(9)
        if {grid4.coords[v] for v in basis.faces[fid].vertices} ==
        {(1, 1), (2, 1), (2, 2), (1, 2)})
    assert centre not in belems


def test_decompose_small_single_record(square, domino, grid3):
    for g in (square, domino, grid3):
        dec = decompose(g)
        assert dec.g_count == 1
        assert dec.coset == ()
        rec = dec.records[0]
        assert rec.interior == ()
        assert rec.boundary == dec.boundary_element_faces


def test_decompose_grid4(grid4):
    dec = decompose(grid4)
    assert dec.g_count == 1
    assert dec.coset == ()
    rec = dec.records[0]
    assert len(rec.interior) == 1
    assert len(rec.boundary) == 8
    assert set(rec.boundary) | set(rec.interior) == set(range(9))


def test_decompose_twin_nonagons(twin_nonagons):
    dec = decompose(twin_nonagons)
    assert dec.g_count == 2
    assert len(dec.coset) == 1
    basis = trace_faces(twin_nonagons)
    coset_face = basis.faces[dec.coset[0]]
    assert coset_face.length == 4          # the connector square


def test_decompose_partitions_faces(square, domino, grid3, grid4, fig8,
                                    twin_nonagons):
    for g in (square, domino, grid3, grid4, fig8, twin_nonagons):
        basis = trace_faces(g)
        dec = decompose(g, basis)
        seen = list(dec.coset)
        for rec in dec.records:
            seen.extend(rec.interior)
            seen.extend(rec.boundary)
        assert sorted(seen) == list(range(len(basis.faces)))


def test_reduce_grid4_identity_footprint(grid4):
    red = reduce_to_Gg(grid4)
    # The single interior face is a 4-cycle on a 4-vertex region: the
    # substituted cycle is the face itself, so the embedding is unchanged
    # up to scaling.
    assert red.failed == ()
    assert red.substitutions == ((0, 4),)
    assert red.embedding.order == grid4.order
    assert red.embedding.size == grid4.size


def test_reduce_reports_failed_region():
    g = gen_grid(5, 5)
    red = reduce_to_Gg(g)
    # The 3x3 interior region is itself non-Hamiltonian (odd order), so
    # the record is reported instead of substituted.
    assert red.failed == (0,)
    assert red.substitutions == ()
    # With nothing substituted, G_g is the input graph renamed.
    assert red.embedding.coords == g.coords
    assert list(red.embedding.edges) == list(g.edges)
    assert red.embedding.rotation == g.rotation
    assert red.embedding.name == "grid5x5-reduced"


def test_reduce_with_subdivision():
    g = gen_grid(6, 5)
    red = reduce_to_Gg(g)
    assert red.failed == ()
    assert red.substitutions == ((0, 12),)
    # 4x3 interior region: 12 vertices, 10 on the region perimeter, 2
    # strictly internal; the substituted cycle subdivides perimeter edges.
    assert red.embedding.order == g.order
    assert red.embedding.size < g.size


def test_reduce_idempotent_footprint(grid4):
    once = reduce_to_Gg(grid4)
    again = reduce_to_Gg(once.embedding)
    # After reduction no interior region has strictly internal vertices,
    # so re-reducing substitutes nothing new and drops nothing.
    assert again.failed == ()
    assert again.embedding.order == once.embedding.order
    assert again.embedding.size == once.embedding.size


def test_prop_6_1_agreement(domino, grid3, grid4):
    for g in (domino, grid3, grid4):
        red = reduce_to_Gg(g)
        record = check_prop_6_1(g, red)
        assert record.agree is True


def test_prop_6_1_agreement_with_subdivision():
    g = gen_grid(6, 5)
    red = reduce_to_Gg(g)
    record = check_prop_6_1(g, red)
    assert record.agree is True


def _restart_merge(records):
    """Reference: merge any two overlapping records and start over, until
    no two boundaries overlap."""
    merged = list(records)
    changed = True
    while changed:
        changed = False
        for i in range(len(merged)):
            for j in range(i + 1, len(merged)):
                if set(merged[i].boundary) & set(merged[j].boundary):
                    a, b = merged[i], merged[j]
                    combined = SubbasisRecord(
                        interior=tuple(sorted(set(a.interior + b.interior))),
                        boundary=tuple(sorted(set(a.boundary + b.boundary))))
                    merged = ([m for k, m in enumerate(merged)
                               if k not in (i, j)] + [combined])
                    changed = True
                    break
            if changed:
                break
    return merged


def _key(record):
    return record.boundary + record.interior


def test_merge_overlapping_matches_restart_loop():
    def rec(interior, boundary):
        return SubbasisRecord(interior=tuple(interior),
                              boundary=tuple(boundary))

    cases = [
        [],
        [rec([0], [1, 2])],
        # No overlap: every record stays as it is.
        [rec([0], [1, 2]), rec([3], [4, 5]), rec([6], [7])],
        # A chain: the first and last records overlap only through the
        # middle one.
        [rec([0], [1, 2]), rec([3], [2, 4]), rec([5], [4, 6])],
        # The same chain listed out of order, plus a separate pair.
        [rec([5], [4, 6]), rec([10], [11]), rec([0], [1, 2]),
         rec([12], [11, 13]), rec([3], [2, 4])],
    ]
    rng = random.Random(5)
    for _ in range(200):
        cases.append([
            rec(sorted(rng.sample(range(100, 140), rng.randint(0, 2))),
                sorted(rng.sample(range(30), rng.randint(1, 3))))
            for _ in range(rng.randint(0, 7))])
    merges = 0
    for records in cases:
        got = _merge_overlapping(records)
        want = _restart_merge(records)
        assert sorted(got, key=_key) == sorted(want, key=_key), records
        merges += len(records) - len(got)
    assert merges > 0


def _recount_articulation_faces(adj):
    """Faces whose removal splits their component, found by recounting the
    components once per face."""
    out = set()
    comp_of = {fid: comp for comp in components(adj) for fid in comp}
    for fid in adj:
        comp = comp_of[fid]
        if len(comp) <= 2:
            continue
        rest = {f: adj[f] - {fid} for f in comp if f != fid}
        if len(components(rest)) > 1:
            out.add(fid)
    return out


@st.composite
def face_graphs(draw):
    """Adjacency graphs made of paths, cycles, trees, random parts and
    components of one or two faces, under a random relabelling."""
    pairs, size = [], 0
    for kind in draw(st.lists(st.sampled_from(
            ["path", "cycle", "tree", "random", "small"]),
            min_size=1, max_size=4)):
        n = draw(st.integers(1, 2) if kind == "small"
                 else st.integers(3 if kind == "cycle" else 1, 12))
        if kind in ("path", "cycle", "small"):
            local = [(i, i + 1) for i in range(n - 1)]
            if kind == "cycle":
                local.append((n - 1, 0))
        elif kind == "tree":
            local = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
        else:
            local = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)),
                                  max_size=2 * n))
        pairs += [(size + a, size + b) for a, b in local if a != b]
        size += n
    label = draw(st.permutations(range(size)))
    adj = {label[i]: set() for i in range(size)}
    for a, b in pairs:
        adj[label[a]].add(label[b])
        adj[label[b]].add(label[a])
    return adj


@given(face_graphs())
@settings(max_examples=300)
def test_articulation_faces_match_recount(adj):
    assert _articulation_faces(adj) == _recount_articulation_faces(adj)


def test_articulation_faces_on_a_path_past_the_recursion_limit():
    n = 5000
    adj = {i: {j for j in (i - 1, i + 1) if 0 <= j < n} for i in range(n)}
    assert _articulation_faces(adj) == set(range(1, n - 1))


def _reference_boundary_elements(bg):
    """Faces with a weight-1 edge or a boundary vertex, classifying every
    vertex of the graph."""
    w1 = bg.boundary_edge_ids()
    classes = {v: bg.vertex_class(v).tag for v in bg.vertices()}
    return frozenset(fid for fid in bg.face_ids
                     if bg.face(fid).edges & w1
                     or any(classes[v] == "boundary"
                            for v in bg.face(fid).vertices))


def _reference_decompose(g):
    """decompose with a shrink that reclassifies the whole sub-basis of
    each trial face set."""
    basis = trace_faces(g)
    bg = BasisGraph(g, basis)
    belems = _reference_boundary_elements(bg)
    interior_all = [fid for fid in bg.face_ids if fid not in belems]
    records, used_boundary = [], set()
    for comp in components(_face_adjacency(bg, interior_all)):
        minimal = sorted(belems)
        for fid in sorted(belems, reverse=True):
            trial = [f for f in minimal if f != fid]
            local = BasisGraph(g, basis, tuple(trial) + tuple(comp))
            if not set(comp) & _reference_boundary_elements(local):
                minimal = trial
        records.append(SubbasisRecord(interior=comp, boundary=tuple(minimal)))
        used_boundary |= set(minimal)
    records = _merge_overlapping(records)
    leftover = sorted(belems - used_boundary)
    adj = _face_adjacency(bg, leftover)
    coset = sorted(_articulation_faces(adj))
    free = {fid: ns - set(coset) for fid, ns in adj.items()
            if fid not in coset}
    for comp in components(free):
        records.append(SubbasisRecord(interior=(), boundary=comp))
    records.sort(key=_key)
    return SubbasisDecomposition(
        records=tuple(records), coset=tuple(coset),
        boundary_element_faces=tuple(sorted(belems)))


@st.composite
def grown_cells(draw):
    """A connected cell set of 9-24 cells, grown one cell at a time either
    off the last cell added, which draws tails, or anywhere on the
    frontier, which fills blocks."""
    cells = [(0, 0)]

    def frontier(around):
        return sorted({(cx + dx, cy + dy) for cx, cy in around
                       for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))}
                      - set(cells))

    for _ in range(draw(st.integers(8, 23))):
        tail = draw(st.booleans()) and frontier(cells[-1:])
        cells.append(draw(st.sampled_from(tail or frontier(cells))))
    return cells


@given(grown_cells())
@settings(max_examples=200, deadline=None)
def test_decompose_matches_whole_graph_shrink(cells):
    g = cells_to_embedding(cells, "grown")
    assert decompose(g) == _reference_decompose(g)


def test_decompose_shrink_drops_a_tail():
    # A 3x3 block with a 5-cell tail: the tail's faces do not bound the
    # block's centre face, so the shrink drops them from its record.
    cells = ([(x, y) for x in range(3) for y in range(3)]
             + [(x, 1) for x in range(3, 8)])
    g = cells_to_embedding(cells, "block-tail")
    dec = decompose(g)
    assert dec == _reference_decompose(g)
    assert SubbasisRecord(interior=(4,),
                          boundary=(0, 1, 2, 3, 5, 6, 7, 8)) in dec.records


def test_decompose_shrink_tries_each_boundary_face_once(monkeypatch):
    # The shrink tries each boundary-element face with one removal and
    # tests each trial with vertex_class, past the one call per vertex
    # that finds the boundary elements.  A shrink that stopped going
    # through either would fail here, which a per-vertex count alone
    # cannot show.
    calls = Counter()

    def counting(name):
        real = getattr(BasisGraph, name)

        def wrapper(self, *args):
            calls[name] += 1
            return real(self, *args)
        return wrapper

    for name in ("remove_face", "vertex_class"):
        monkeypatch.setattr(BasisGraph, name, counting(name))
    g = gen_grid(10, 10)
    dec = decompose(g)
    assert len(dec.boundary_element_faces) == 32
    assert calls["remove_face"] == len(dec.boundary_element_faces)
    assert calls["vertex_class"] > g.order


@pytest.mark.parametrize("n", [10, 500, 2000])
def test_decompose_long_strip(n):
    # A 2 x n strip has n - 1 faces in a path: the two end faces are
    # records of their own and the n - 3 between them form the co-set.
    dec = decompose(gen_grid(2, n))
    assert dec.g_count == 2
    assert [r.boundary for r in dec.records] == [(0,), (n - 2,)]
    assert dec.coset == tuple(range(1, n - 2))
