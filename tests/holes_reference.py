"""A reference hole search for the tests to compare the library's against:
each beginning vertex's C_x walk tests, removes and solves every face set
it reaches afresh, sharing nothing with the walks from other vertices."""

from typing import Iterator, Tuple

from polygrid.embedding import PlanarEmbedding
from polygrid.grinberg import equation_of_graph, solvable
from polygrid.holes import HoleContext, build_context, is_global_hole
from polygrid.structure import BasisGraph


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


def hole_contexts_reference(g: PlanarEmbedding, bg: BasisGraph,
                            max_cx: int) -> Iterator[
                                Tuple[HoleContext, bool]]:
    """Every hole context with its global-hole test, in search order:
    ascending beginning vertex, then the lexicographic order of the C_x
    sets."""
    for x in sorted(g.coords):
        for cx, residual in cx_walk_reference(bg, x, max_cx):
            ctx = build_context(residual, x, cx)
            yield ctx, is_global_hole(residual, ctx)
