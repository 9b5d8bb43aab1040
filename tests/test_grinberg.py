import itertools
import random
from collections import Counter

import pytest

from polygrid import trace_faces
from polygrid.embedding import is_hamilton_cycle
from polygrid.grinberg import (GrinbergEquation, check_prop_3_1,
                               count_solutions, equation_of,
                               feasible_without_any, format_equation,
                               partitions, solvable, solve,
                               tutte_reduced_equation,
                               tutte_subbasis_equation,
                               verify_grinberg_identity)
from polygrid.oracle import gen_grid, hamilton_oracle


def test_equation_of_square(square):
    eq = equation_of(trace_faces(square), square)
    assert eq.lengths == (4,)
    assert eq.order == 4
    assert eq.target == 2
    assert eq.values == (2,)


def test_equation_of_grid4(grid4):
    eq = equation_of(trace_faces(grid4), grid4)
    assert eq.lengths == (4,) * 9
    assert eq.order == 16
    assert eq.target == 14


def test_equation_validation():
    with pytest.raises(ValueError):
        GrinbergEquation.from_lengths((4, 2), 6)
    with pytest.raises(ValueError):
        GrinbergEquation((0, 1), (4,), 6)


def test_format_equation():
    assert format_equation(tutte_reduced_equation()) == \
        "25f25 - 2(f25 - 1) = 46"
    assert format_equation(tutte_subbasis_equation()) == \
        "10f10 + 5f5 + 4f4 - 2(f10 + f5 + f4 - 1) = 25"


def test_tutte_reduced_infeasible():
    eq = tutte_reduced_equation()
    # 23a = 44 has no integer solution with a in 0..3.
    assert not solvable(eq)
    assert solve(eq) == []
    assert count_solutions(eq) == 0


def test_tutte_subbasis_feasible():
    eq = tutte_subbasis_equation()
    sols = solve(eq)
    assert solvable(eq)
    assert len(sols) == count_solutions(eq) > 0
    for p in sols:
        assert sum(eq.lengths[i] - 2 for i in p.inside) == eq.target
        # 8a + 3b + 2c = 23 forces the pentagon inside (parity).
        assert 1 in p.inside


def test_solve_square(square):
    eq = equation_of(trace_faces(square), square)
    sols = solve(eq)
    assert len(sols) == 1
    assert sols[0].inside == frozenset({0})
    assert sols[0].outside == frozenset()


def test_solve_grid3_infeasible(grid3):
    eq = equation_of(trace_faces(grid3), grid3)
    # 2a = 7 over quadrilaterals: parity obstruction.
    assert not solvable(eq)
    assert solve(eq) == []


def test_solve_grid4(grid4):
    eq = equation_of(trace_faces(grid4), grid4)
    sols = solve(eq)
    # choose 7 of 9 quadrilaterals
    assert len(sols) == 36
    assert all(len(p.inside) == 7 for p in sols)


def test_solve_lexicographic_and_limit(grid4):
    eq = equation_of(trace_faces(grid4), grid4)
    sols = solve(eq)
    keys = [tuple(sorted(p.inside)) for p in sols]
    assert keys == sorted(keys)
    assert solve(eq, limit=5) == sols[:5]
    with pytest.raises(ValueError):
        solve(eq, limit=0)


def test_solve_is_the_first_partitions():
    # solve is a prefix of the lazy enumeration, at a limit of 1 and past
    # the number of solutions.
    rng = random.Random(7)
    several = 0
    for _ in range(300):
        lengths = [rng.randint(3, 8) for _ in range(rng.randint(0, 9))]
        eq = GrinbergEquation.from_lengths(lengths, rng.randint(0, 30))
        every = list(partitions(eq))
        assert len(every) == count_solutions(eq)
        for limit in (1, len(every) + 1):
            assert solve(eq, limit) == list(itertools.islice(
                partitions(eq), limit)) == every[:limit]
        several += len(every) > 1
    assert several > 20


def test_solve_long_equation_without_recursion():
    # 1101 face values, well past the default recursion limit; only the
    # triangle reaches the target of 1.
    eq = GrinbergEquation.from_lengths([4] * 1100 + [3], 3)
    assert [p.inside for p in solve(eq)] == [frozenset({1100})]


def test_solve_matches_bruteforce():
    eq = GrinbergEquation.from_lengths((5, 4, 4, 3, 6, 3, 4), 12)
    got = {tuple(sorted(p.inside)) for p in solve(eq, limit=1 << 10)}
    want = set()
    for r in range(len(eq.lengths) + 1):
        for sub in itertools.combinations(range(len(eq.lengths)), r):
            if sum(eq.lengths[i] - 2 for i in sub) == eq.target:
                want.add(sub)
    assert got == want
    assert count_solutions(eq) == len(want)


def test_feasible_without_any_matches_bruteforce():
    # Mixed lengths take the path that enumerates several removed-length
    # multisets, which square lattices never reach.  k runs from 0 to past
    # the face count, where removing k faces is not possible.
    rng = random.Random(11)
    seen = Counter()
    for _ in range(400):
        lengths = [rng.randint(3, 8) for _ in range(rng.randint(0, 10))]
        eq = GrinbergEquation.from_lengths(lengths, rng.randint(2, 12))
        for k in range(len(lengths) + 3):
            want = k <= len(lengths) and all(
                solvable(GrinbergEquation.from_lengths(
                    [length for i, length in enumerate(lengths)
                     if i not in gone], eq.order))
                for gone in map(set, itertools.combinations(
                    range(len(lengths)), k)))
            assert feasible_without_any(eq, k) == want, (lengths, eq.order, k)
            kept = len(lengths) - k
            screened = (kept <= 0 or sum(sorted(lengths)[:kept]) - 2 * kept
                        < eq.target)
            seen[want, screened, len(set(lengths)) > 1] += 1
    # Both outcomes past the screen, on mixed lengths.
    assert seen[True, False, True] > 100 and seen[False, False, True] > 100
    with pytest.raises(ValueError, match="k must be >= 0"):
        feasible_without_any(GrinbergEquation.from_lengths((4, 4), 6), -1)


def test_count_solutions_degenerate():
    assert count_solutions(GrinbergEquation.from_lengths((4, 4), 2)) == 0


def test_verify_identity_square(square):
    basis = trace_faces(square)
    chk = verify_grinberg_identity(basis.faces[0].edges, basis, square)
    assert chk.ok
    assert chk.inside_faces == frozenset({0})


def test_verify_identity_domino_perimeter(domino):
    basis = trace_faces(domino)
    perimeter = basis.faces[0].edges ^ basis.faces[1].edges
    chk = verify_grinberg_identity(perimeter, basis, domino)
    assert chk.ok
    assert chk.inside_faces == frozenset({0, 1})


def test_verify_identity_rejects_non_cycle(domino):
    basis = trace_faces(domino)
    with pytest.raises(ValueError):
        verify_grinberg_identity(basis.faces[0].edges, basis, domino)


def test_foreign_edge_ids_are_not_a_hamilton_cycle():
    # -1 would alias the last edge, and an id >= |E| would index past the
    # edge list.
    g = gen_grid(2, 2)
    basis = trace_faces(g)
    assert is_hamilton_cycle(frozenset(range(g.size)), g)
    for foreign in (-1, -g.size, g.size, g.size + 7):
        e = frozenset(range(g.size - 1)) | {foreign}
        assert not is_hamilton_cycle(e, g), foreign
        with pytest.raises(ValueError, match="not a Hamilton cycle"):
            verify_grinberg_identity(e, basis, g)


def test_verify_identity_oracle_grid4(grid4):
    basis = trace_faces(grid4)
    res = hamilton_oracle(grid4)
    assert res.found
    chk = verify_grinberg_identity(res.found, basis, grid4)
    assert chk.inside_residual == 0
    assert chk.full_residual == 0


def test_prop_3_1_domino(domino):
    basis = trace_faces(domino)
    rep = check_prop_3_1(frozenset({0, 1}), basis, domino)
    assert rep.beta_zero
    assert rep.pair_sum == 2
    assert rep.pair_sum_ok
    assert rep.pairwise_violations == ()
    assert rep.higher_order_violations == ()


def test_prop_3_1_fig8_shared_corner(fig8):
    basis = trace_faces(fig8)
    rep = check_prop_3_1(frozenset({0, 1}), basis, fig8)
    # The two squares meet in exactly one vertex: beta = -1.
    assert not rep.beta_zero
    assert rep.beta == -1
    assert rep.pairwise_violations == ((0, 1, 1),)


def test_prop_3_1_grid3_all_faces(grid3):
    basis = trace_faces(grid3)
    rep = check_prop_3_1(frozenset({0, 1, 2, 3}), basis, grid3)
    # Four quadrilaterals around the centre vertex: the diagonal pairs meet
    # in a single vertex and the centre lies on all four faces, so the
    # correction does not cancel -- consistent with grid3 having no
    # Hamilton cycle.
    assert rep.beta == 1
    assert not rep.beta_zero
    assert len(rep.pairwise_violations) == 2
    assert len(rep.higher_order_violations) == 1
    assert not rep.pair_sum_ok


def test_prop_3_1_zero_on_real_cycles():
    for m, n in ((2, 2), (2, 3), (4, 4), (4, 5)):
        g = gen_grid(m, n)
        res = hamilton_oracle(g)
        if not res.found:
            continue
        basis = trace_faces(g)
        chk = verify_grinberg_identity(res.found, basis, g)
        rep = check_prop_3_1(chk.inside_faces, basis, g)
        assert rep.beta_zero
        assert rep.pair_sum == 2 * (len(chk.inside_faces) - 1)


def test_prop_3_1_empty_subset_rejected(square):
    with pytest.raises(ValueError):
        check_prop_3_1(frozenset(), trace_faces(square), square)
