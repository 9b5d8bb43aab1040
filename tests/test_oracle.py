import gc
import itertools
import json
import re
import tracemalloc

import numpy
import pytest

from polygrid import fixtures, oracle, trace_faces
from polygrid.embedding import (PlanarEmbedding, components, is_hamilton_cycle,
                                parse_pgg, write_pgg)
from polygrid.oracle import (GridGenError, OracleResult, cells_to_embedding,
                             compare, enumerate_polyominoes, gen_grid,
                             hamilton_oracle, report_json)

from oracle_reference import set_reference_oracle
from polyomino_reference import enumerate_polyominoes_reference


def relabeled(g: PlanarEmbedding, f) -> PlanarEmbedding:
    """g with vertex v renamed f(v); edges keep their order and ids."""
    return PlanarEmbedding({f(v): p for v, p in g.coords.items()},
                           [(f(u), f(v)) for u, v in g.edges],
                           name=f"{g.name}-relabeled")


def test_oracle_square(square):
    res = hamilton_oracle(square)
    assert res.found is not None
    assert is_hamilton_cycle(res.found, square)
    assert not res.timed_out


def test_oracle_grid3_negative(grid3):
    res = hamilton_oracle(grid3)
    assert res.found is None
    assert not res.timed_out


def test_oracle_fig8_negative(fig8):
    assert hamilton_oracle(fig8).found is None


def test_oracle_grid4(grid4):
    res = hamilton_oracle(grid4)
    assert res.found is not None
    assert is_hamilton_cycle(res.found, grid4)
    assert res.nodes_explored <= 100


def test_oracle_budget_timeout():
    g = gen_grid(7, 7)
    res = hamilton_oracle(g, budget=3)
    assert res.timed_out
    assert res.found is None
    assert res.nodes_explored >= 3


def test_oracle_budget_below_1_rejected(square):
    # A budget below 1 would search no node, yet report a timeout.  The
    # check comes before the early exits, so a path graph raises too.
    path = PlanarEmbedding({0: (0, 0), 1: (1, 0), 2: (2, 0)},
                           [(0, 1), (1, 2)], name="path3")
    for g in (square, path):
        for budget in (0, -5):
            with pytest.raises(ValueError, match="budget must be >= 1"):
                hamilton_oracle(g, budget=budget)


def test_oracle_every_budget_cuts_the_plain_tree():
    # Both grids have odd order, so each search runs to the end; states
    # refuted once come up again (44 times on 5x5, 12 on 3x9) and count
    # their recorded subtree, so each cut-off, including one inside such a
    # subtree, reports budget + 1 nodes as the plain search does.
    for g, total in ((gen_grid(5, 5), 1045), (gen_grid(3, 9), 492)):
        full = hamilton_oracle(g)
        assert full == OracleResult(None, total, False), g.name
        for budget in range(1, total + 2):
            expected = (OracleResult(None, budget + 1, True)
                        if budget < total else full)
            assert hamilton_oracle(g, budget) == expected, (g.name, budget)


def test_oracle_relabeling_invariance(grid4):
    # The answer must not depend on vertex numbering.
    a = hamilton_oracle(grid4)
    b = hamilton_oracle(relabeled(grid4, lambda v: 1000 - v))
    assert (a.found is not None) == (b.found is not None)


def test_oracle_sparse_ids_follow_sorted_order(grid4):
    # Bit i of the search state is the i-th smallest vertex id, so an
    # order-preserving renaming to sparse ids visits the same tree.
    f = lambda v: 3 * v + 1000
    for g in (grid4, gen_grid(5, 7, [(1, 1), (2, 1), (1, 2), (2, 2)])):
        a = hamilton_oracle(g)
        h = relabeled(g, f)
        b = hamilton_oracle(h)
        assert a.found is not None
        assert (b.nodes_explored, b.timed_out) == \
            (a.nodes_explored, a.timed_out)
        assert {frozenset(h.edges[e]) for e in b.found} == \
            {frozenset(map(f, g.edges[e])) for e in a.found}


def test_oracle_matches_set_reference():
    # The 2-3-cell hole clusters of 5x5: its interior cells form a 2x2
    # block, in which any three cells are connected and a pair must share
    # a side.
    inner = [(1, 1), (1, 2), (2, 1), (2, 2)]
    clusters = [c for k in (2, 3) for c in itertools.combinations(inner, k)
                if k == 3 or sum(abs(a - b) for a, b in zip(*c)) == 1]
    graphs = list(enumerate_polyominoes(7))
    graphs += [gen_grid(m, n) for m in (3, 5, 7) for n in (3, 5, 7)
               if m * n <= 35]
    graphs += [gen_grid(5, 5, c) for c in clusters]
    graphs += [gen_grid(m, n) for m in range(2, 7) for n in range(2, 7)
               if m * n % 2 == 0]
    graphs += [gen_grid(2, n) for n in range(2, 41)]
    # Shapes where the current vertex is a cut vertex of the unvisited set,
    # so a flood past its neighbours' neighbours decides the step: two 2x2
    # blocks that meet at one corner, and holes that pinch a corridor to
    # one cell.
    def block(x, y):
        return {(x + i, y + j) for i in (0, 1) for j in (0, 1)}

    graphs += [cells_to_embedding(block(0, 0) | block(2, 2), "corner-blocks"),
               cells_to_embedding(block(2, 0) | block(0, 2), "corner-blocks2")]
    graphs += [gen_grid(5, 6, [(1, 1), (1, 3)]),
               gen_grid(6, 6, [(1, 2), (3, 2)]),
               gen_grid(7, 5, [(1, 1), (2, 1), (1, 2), (4, 1), (4, 2)])]
    cases = [(g, 10 ** 6) for g in graphs]
    cases += [(gen_grid(s, s), b) for s in (5, 6) for b in range(1, 61)]
    assert len(clusters) == 8
    outcomes = set()
    for g, budget in cases:
        expected = set_reference_oracle(g, budget)
        assert hamilton_oracle(g, budget) == expected, (g.name, budget)
        outcomes.add((expected.found is not None, expected.timed_out))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_oracle_too_small():
    path = PlanarEmbedding({0: (0, 0), 1: (1, 0), 2: (2, 0)},
                           [(0, 1), (1, 2)], name="path")
    assert hamilton_oracle(path).found is None


def test_cells_to_embedding_domino():
    g = cells_to_embedding([(0, 0), (1, 0)], name="dom")
    assert g.order == 6
    assert g.size == 7


def test_gen_grid_plain():
    g = gen_grid(4, 4)
    assert g.order == 16
    assert g.size == 24
    assert len(trace_faces(g).faces) == 9


def test_gen_grid_lone_hole_is_noop():
    # A deleted cell keeps every edge shared with a surviving cell, so a
    # lone interior hole changes nothing.
    holed = gen_grid(4, 4, holes={(1, 1)})
    plain = gen_grid(4, 4)
    assert holed.order == plain.order
    assert holed.size == plain.size
    assert "holes" in holed.name


def test_gen_grid_adjacent_holes_remove_material():
    holed = gen_grid(6, 5, holes={(1, 1), (2, 1)})
    plain = gen_grid(6, 5)
    assert holed.size == plain.size - 1
    assert len(trace_faces(holed).faces) == len(trace_faces(plain).faces) - 1


def test_gen_grid_rejects_bad_requests():
    with pytest.raises(GridGenError):
        gen_grid(1, 4)
    with pytest.raises(GridGenError):
        gen_grid(4, 4, holes={(0, 1)})       # touches the rim
    with pytest.raises(GridGenError):
        gen_grid(4, 4, holes={(3, 1)})       # outside the interior band
    # Every interior cell of 6x6 but the centre: the centre cell is cut off.
    ring = {(x, y) for x in (1, 2, 3) for y in (1, 2, 3)} - {(2, 2)}
    with pytest.raises(GridGenError, match="^graph is disconnected$"):
        gen_grid(6, 6, holes=ring)


def test_gen_grid_rejects_non_integer_holes():
    # A float hole passed the range test and removed no cell, so the plain
    # grid came back under a holed name.
    for hole, shown in (((1.5, 1), r"\(1\.5, 1\)"),
                        ((1, "2"), r"\(1, '2'\)")):
        with pytest.raises(
                GridGenError,
                match=f"^hole {shown} has a non-integer coordinate$"):
            gen_grid(6, 6, [hole])
    g = gen_grid(6, 6, [(numpy.int64(1), 1)])
    assert g.name == "grid6x6-holes[1,1]"
    assert g.coords == gen_grid(6, 6, [(1, 1)]).coords


def test_cells_to_embedding_rejects_empty_and_apart():
    with pytest.raises(ValueError, match="^empty graph$"):
        cells_to_embedding([], "none")
    # Neither a side nor a corner in common.
    with pytest.raises(ValueError, match="^graph is disconnected$"):
        cells_to_embedding({(0, 0), (2, 0)}, "apart")


def test_cells_to_embedding_rejects_non_integer_coordinates():
    # A float or text coordinate would reach write_pgg, whose output
    # parse_pgg then rejects.
    for cells, bad in (([(0, 0), (1.0, 0)], r"\(1\.0, 0\)"),
                       ([(0, "1")], r"\(0, '1'\)")):
        with pytest.raises(ValueError,
                           match=f"^cell {bad} has a non-integer coordinate$"):
            cells_to_embedding(cells, "bad")
    # Integer-like types pass and are stored as plain ints; a bool is read
    # as 0 or 1.
    for cells in ([(numpy.int64(1), 0), (0, 0)], [(True, 0), (False, 0)]):
        g = cells_to_embedding(cells, "domino")
        assert g.coords == cells_to_embedding([(0, 0), (1, 0)], "d").coords
        assert all(type(c) is int for p in g.coords.values() for c in p)
        assert write_pgg(parse_pgg(write_pgg(g))) == write_pgg(g)


def test_cells_meeting_at_a_corner_make_one_graph(fig8):
    assert fig8.order == 7
    assert fig8.size == 8
    assert components(fig8.rotation) == [tuple(range(7))]
    cut = next(v for v, p in fig8.coords.items() if p == (1, 1))
    assert fig8.rotation[cut] == tuple(
        next(v for v, p in fig8.coords.items() if p == q)
        for q in ((2, 1), (1, 2), (0, 1), (1, 0)))


def test_polyomino_counts():
    # OEIS A001168, fixed polyominoes by cell count.
    per_size = {}
    for g in enumerate_polyominoes(8):
        k = int(g.name[4:].split("_")[0])
        per_size[k] = per_size.get(k, 0) + 1
    assert per_size == {1: 1, 2: 2, 3: 6, 4: 19, 5: 63, 6: 216, 7: 760,
                        8: 2725}


def test_polyomino_names_deterministic():
    first = [g.name for g in enumerate_polyominoes(4)]
    second = [g.name for g in enumerate_polyominoes(4)]
    assert first == second
    assert len(set(first)) == len(first)


def test_polyomino_size_cap():
    # Checked at the call, before any graph is asked for.
    for max_faces in (11, 0, -3):
        with pytest.raises(ValueError):
            enumerate_polyominoes(max_faces)


def test_polyominoes_match_reference():
    # Redelmeier's growth against the level-by-level grow, translate and
    # de-duplicate enumerator: same graphs in the same order.
    got = list(enumerate_polyominoes(8))
    want = list(enumerate_polyominoes_reference(8))
    assert len(got) == len(want) == 3792
    for g, ref in zip(got, want):
        assert g.name == ref.name
        assert list(g.coords.items()) == list(ref.coords.items()), g.name
        assert g.edges == ref.edges, g.name
        assert list(g.rotation.items()) == list(ref.rotation.items()), g.name


def test_polyomino_growth_leaves_no_state_behind():
    # The growth recurses through a closure; with the cyclic collector off,
    # a closure that outlived its call would keep every shape list (about
    # 2 MB at 8 cells) alive per call.
    gc.disable()
    tracemalloc.start()
    try:
        oracle._fixed_polyominoes(8)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            oracle._fixed_polyominoes(8)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 10 ** 6, grown


def test_shared_tuples_change_no_graph():
    # One enumeration interns its point, edge and rotation tuples; every
    # graph still equals its shape built alone, tuple for tuple.
    graphs = list(enumerate_polyominoes(7))
    shapes = [shape for by_size in oracle._fixed_polyominoes(7)
              for shape in by_size]
    assert len(graphs) == len(shapes) == 1067
    for g, shape in zip(graphs, shapes):
        alone = cells_to_embedding(shape, g.name)
        assert list(g.coords.items()) == list(alone.coords.items()), g.name
        assert g.edges == alone.edges, g.name
        assert list(g.rotation.items()) == list(alone.rotation.items()), \
            g.name
        assert write_pgg(g) == write_pgg(alone), g.name
    # Equal tuples are one object across the enumeration, and no dict is
    # shared between graphs.
    for tuples in ([p for g in graphs for p in g.coords.values()],
                   [e for g in graphs for e in g.edges],
                   [r for g in graphs for r in g.rotation.values()]):
        assert len({id(t) for t in tuples}) == len(set(tuples))
    for attr in ("coords", "rotation"):
        assert len({id(getattr(g, attr)) for g in graphs}) == len(graphs)


def test_rotation_values_are_tuples():
    grid = gen_grid(4, 5, holes=[(1, 1)])
    for g in (grid, parse_pgg(write_pgg(grid)),
              *enumerate_polyominoes(4)):
        assert all(type(r) is tuple for r in g.rotation.values()), g.name


def test_compare_lenient_all_agree():
    report = compare(enumerate_polyominoes(4), claw_mode="lenient")
    totals = report.totals
    assert totals["graphs"] == 28
    assert totals["agree"] == 28
    assert totals["disagree"] == 0
    assert report.candidates == ()


def test_compare_strict_flags_candidates(tmp_path):
    report = compare(enumerate_polyominoes(3), claw_mode="strict",
                     save_dir=tmp_path)
    assert report.totals["disagree"] > 0
    assert report.candidates
    for name in report.candidates:
        saved = tmp_path / f"{name}.pgg"
        assert saved.exists()
        again = parse_pgg(saved.read_text())
        assert again.order > 0


def test_compare_makes_save_dir_only_for_a_candidate(tmp_path, monkeypatch):
    made = []
    real_mkdir = oracle.Path.mkdir

    def mkdir(path, *args, **kwargs):
        made.append(path)
        real_mkdir(path, *args, **kwargs)

    monkeypatch.setattr(oracle.Path, "mkdir", mkdir)
    quiet = tmp_path / "quiet"
    report = compare(enumerate_polyominoes(4), claw_mode="lenient",
                     save_dir=quiet)
    assert report.candidates == ()
    assert not quiet.exists() and made == []
    # The directory is made once per call however many candidates there
    # are.
    loud = tmp_path / "saved"
    report = compare(enumerate_polyominoes(3), claw_mode="strict",
                     save_dir=str(loud))
    assert len(report.candidates) > 1
    assert made == [loud]
    assert sorted(p.name for p in loud.iterdir()) == sorted(
        f"{name}.pgg" for name in report.candidates)


def test_compare_rejects_a_name_that_leaves_save_dir(tmp_path, monkeypatch):
    # The domino disagrees in strict mode, so compare writes it to
    # save_dir under its name.
    domino = fixtures.domino()
    save_dir = tmp_path / "saved"
    for name in ("../escaped", "sub/dir"):
        g = PlanarEmbedding(domino.coords, domino.edges, name=name)
        # Without save_dir no file is written, and the name is kept.
        assert compare([g], claw_mode="strict").candidates == (name,)
        with monkeypatch.context() as m:
            m.setattr(oracle, "decide", lambda *a, **k: pytest.fail(
                "decide ran before the name was checked"))
            with pytest.raises(ValueError, match=re.escape(repr(name))):
                compare([g], claw_mode="strict", save_dir=save_dir)
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_compare_rejects_a_name_write_pgg_cannot_write(tmp_path, monkeypatch):
    # Both dominoes disagree in strict mode; the second name is refused
    # before that graph is decided, not when its candidate is written.
    domino = fixtures.domino()
    real_decide = oracle.decide
    decided = []

    def recording(g, *args, **kwargs):
        decided.append(g.name)
        return real_decide(g, *args, **kwargs)

    monkeypatch.setattr(oracle, "decide", recording)
    for k, bad in enumerate(("a b", "", "x#y", "tab\tname")):
        save_dir = tmp_path / f"saved{k}"
        graphs = [PlanarEmbedding(domino.coords, domino.edges, name=name)
                  for name in ("first", bad)]
        decided.clear()
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            compare(graphs, claw_mode="strict", save_dir=save_dir)
        assert decided == ["first"]
        assert [p.name for p in save_dir.iterdir()] == ["first.pgg"]


def test_compare_empty_stream():
    report = compare([])
    assert report.totals == {"graphs": 0, "agree": 0, "disagree": 0,
                             "inconclusive": 0}


def test_compare_rejects_budget_below_1_before_deciding(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decide ran before the budget was checked")

    monkeypatch.setattr(oracle, "decide", refuse)
    for budget in (0, -1):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            compare(enumerate_polyominoes(2), budget=budget)


def test_report_json_deterministic():
    a = report_json(compare(enumerate_polyominoes(3), claw_mode="lenient"))
    b = report_json(compare(enumerate_polyominoes(3), claw_mode="lenient"))
    assert a == b
    payload = json.loads(a)
    assert set(payload) == {"rows", "totals", "counterexampleCandidates"}
