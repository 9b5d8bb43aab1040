"""A reference hole search, certificate loop and decision for the tests to
compare the library's against.  Each beginning vertex's C_x walk tests,
removes and solves every face set it reaches afresh, sharing nothing with
the walks from other vertices, and tests x at every set; C_k is found by a
sorted scan of the residual's faces on x; every partition's cycle is built
from edge frozensets and checked as a Hamilton cycle, whatever its size;
and the decision runs the hole search whenever its pipeline reaches it."""

from typing import Dict, Iterator, Optional, Tuple

from polygrid.embedding import (EdgeSet, FaceBasis, PlanarEmbedding,
                                is_hamilton_cycle, sym_diff_all)
from polygrid.grinberg import (GrinbergEquation, equation_of_graph,
                               solvable, solve)
from polygrid.holes import (CLAW, GLOBAL_HOLE, HAMILTONIAN, NO_SOLUTION,
                            UNVERIFIED, HoleContext, Verdict, hole_contexts,
                            is_global_hole)
from polygrid.structure import CASE_II, BasisGraph, claw_d2_scan


def cx_walk_reference(bg: BasisGraph, x: int, max_size: int) -> Iterator[
        Tuple[Tuple[int, ...], BasisGraph]]:
    """The qualifying C_x sets with their residuals, in lexicographic
    order, by a depth-first walk over ascending face ids that descends
    past the last face on x only where x already qualifies."""
    if bg.degree(x) < 4 or max_size < 1:
        return
    fids = bg.face_ids
    last = max(bg.faces_on_vertex(x), default=-1)

    def walk(residual: BasisGraph, cx: Tuple[int, ...], start: int):
        for k in range(start, len(fids)):
            fid = fids[k]
            if not residual.is_removable(fid):
                continue
            child = residual.remove_face(fid)
            subset = cx + (fid,)
            at_x = (child.degree(x) == 4
                    and child.vertex_class(x).tag == "boundary")
            if at_x and solvable(equation_of_graph(child)):
                yield subset, child
            if len(subset) < max_size and (at_x or fid < last):
                yield from walk(child, subset, k + 1)

    yield from walk(bg, (), 0)


def build_context_reference(residual: BasisGraph, x: int,
                            cx: Tuple[int, ...]) -> HoleContext:
    """The hole context of a C_x set: C_k is the first surviving face on x,
    by ascending id, with no weight-1 edge and an interior vertex."""
    w2 = residual.w2_mask
    masks = residual.basis.edge_masks
    for ck in sorted(residual.faces_on_vertex(x)):
        if (not masks[ck] & ~w2 and any(
                residual.is_interior(v) for v in residual.face(ck).vertices)):
            return HoleContext(x=x, cx=cx, ck=ck)
    return HoleContext(x=x, cx=cx)


def hole_contexts_reference(g: PlanarEmbedding, bg: BasisGraph,
                            max_cx: int) -> Iterator[
                                Tuple[HoleContext, bool]]:
    """Every hole context with its global-hole test, in search order:
    ascending beginning vertex, then the lexicographic order of the C_x
    sets."""
    for x in sorted(g.coords):
        for cx, residual in cx_walk_reference(bg, x, max_cx):
            ctx = build_context_reference(residual, x, cx)
            yield ctx, is_global_hole(residual, ctx)


def certificate_reference(g: PlanarEmbedding, basis: FaceBasis,
                          eq: GrinbergEquation,
                          limit: int) -> Optional[EdgeSet]:
    """The first of the first `limit` solution partitions whose inside
    faces XOR to a Hamilton cycle, as that cycle; None if there is none."""
    for partition in solve(eq, limit=limit):
        cycle = sym_diff_all(basis.faces[fid].edges
                             for fid in sorted(partition.inside))
        if is_hamilton_cycle(cycle, g):
            return cycle
    return None


def decide_reference(g: PlanarEmbedding, basis: FaceBasis, limit: int = 64,
                     max_cx: int = 3) -> Dict[str, Verdict]:
    """decide's verdict in each claw mode, by its pipeline with the hole
    search run whenever the pipeline reaches it, whatever the equation.
    Both modes read the one search: they differ only in whether Case I
    claws end the pipeline before it."""
    reports = tuple(claw_d2_scan(g))
    case2 = tuple(r for r in reports if r.severity == CASE_II)
    if case2:
        verdict = Verdict(CLAW, claw_reports=case2,
                          details="claw(d2) case II present")
        return {"strict": verdict, "lenient": verdict}
    bg = BasisGraph(g, basis)
    eq = equation_of_graph(bg)
    if not solvable(eq):
        verdict = Verdict(NO_SOLUTION, details="equation has no solution")
        return {"strict": verdict, "lenient": verdict}
    hole = next((ctx for ctx, is_hole in hole_contexts(g, bg, max_cx)
                 if is_hole), None)
    if hole is not None:
        searched = Verdict(GLOBAL_HOLE, hole=hole,
                           details=f"global hole at vertex {hole.x}")
    else:
        cycle = certificate_reference(g, basis, eq, limit)
        tried = len(solve(eq, limit=limit))
        which = f"its {tried}" if tried < limit else f"the first {limit}"
        searched = (Verdict(HAMILTONIAN, certificate=cycle)
                    if cycle is not None else
                    Verdict(UNVERIFIED, details=(
                        f"criterion claims Hamiltonian but none of {which} "
                        f"partitions certifies")))
    strict = (Verdict(CLAW, claw_reports=reports,
                      details="claw(d2) case I present (strict reading)")
              if reports else searched)
    return {"strict": strict, "lenient": searched}
