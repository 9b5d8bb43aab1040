"""Non-Hamiltonian hole search and the Hamiltonicity criterion.

The criterion pipeline: claw(d2) scan, equation feasibility, bounded search
for globally non-Hamiltonian holes via the peeling procedure, then an
attempt to certify Hamiltonicity by XOR-ing inside faces of solution
partitions.  A Hamiltonian verdict always carries an independently verified
cycle; when the criterion claims Hamiltonian but no tried partition
certifies, the verdict is CriterionUnverified rather than a bare claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Set, Tuple

from .embedding import (EdgeSet, FaceBasis, PlanarEmbedding, is_hamilton_cycle,
                        sym_diff_all, trace_faces)
from .grinberg import equation_of_graph, solvable, solve
from .structure import CASE_II, BasisGraph, ClawReport, claw_d2_scan

HAMILTONIAN = "Hamiltonian"
NO_SOLUTION = "NonHamiltonianNoSolution"
GLOBAL_HOLE = "NonHamiltonianGlobalHole"
CLAW = "NonHamiltonianClaw"
UNVERIFIED = "CriterionUnverified"


@dataclass(frozen=True)
class HoleContext:
    x: int
    cx: Tuple[int, ...]
    ck: Optional[int] = None
    cxe: Tuple[int, ...] = ()
    ce: Tuple[int, ...] = ()
    cv: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Verdict:
    tag: str
    certificate: Optional[EdgeSet] = None
    claw_reports: Tuple[ClawReport, ...] = ()
    hole: Optional[HoleContext] = None
    details: str = ""


# -- hole context search -----------------------------------------------------

def _cx_walk(bg: BasisGraph, x: int,
             max_size: int) -> Iterator[Tuple[Tuple[int, ...], BasisGraph]]:
    """The qualifying C_x sets with their residuals, in lexicographic order.

    A depth-first walk over ascending face ids: each set extends its
    prefix's residual by one removal, and a face that is not removable at
    its turn prunes every set that extends it.  Preorder over the walk is
    the lexicographic order of the sets.
    """
    if bg.degree(x) < 4 or max_size < 1:
        return
    fids = bg.face_ids

    def walk(residual: BasisGraph, cx: Tuple[int, ...], start: int):
        for k in range(start, len(fids)):
            fid = fids[k]
            if not residual.is_removable(fid):
                continue
            child = residual.remove_face(fid)
            subset = cx + (fid,)
            if (child.degree(x) == 4
                    and child.vertex_class(x).tag == "boundary"
                    and solvable(equation_of_graph(child))):
                yield subset, child
            if len(subset) < max_size:
                yield from walk(child, subset, k + 1)

    yield from walk(bg, (), 0)


def candidate_Cx(bg: BasisGraph, x: int,
                 max_size: int = 3) -> List[Tuple[int, ...]]:
    """Face-index sets whose sequential removal turns x into a boundary
    vertex of degree 4 while the residual equation stays feasible.

    Every prefix of a set (in ascending index order) must be removable at
    its turn.  Results in lexicographic order.
    """
    return [cx for cx, _ in _cx_walk(bg, x, max_size)]


def find_Ck(bg: BasisGraph, x: int) -> List[int]:
    """Removable faces on x containing an interior vertex and no weight-1
    edge, in the residual graph."""
    out = []
    for fid in sorted(bg.faces_on_vertex(x)):
        face = bg.face(fid)
        if not bg.is_removable(fid):
            continue
        if any(bg.weights[eid] == 1 for eid in face.edges):
            continue
        if not any(bg.vertex_class(v).tag == "interior"
                   for v in face.vertices):
            continue
        out.append(fid)
    return out


def _edge_neighbours(bg: BasisGraph, fid: int) -> Set[int]:
    """Surviving faces other than fid that share an edge with it."""
    return {other for eid in bg.face(fid).edges
            for other in bg.faces_on_edge(eid) if other != fid}


def faces_sharing_edge(bg: BasisGraph, fid: int) -> List[int]:
    return sorted(_edge_neighbours(bg, fid))


def faces_sharing_only_vertices(bg: BasisGraph, fid: int) -> List[int]:
    touching = {other for v in bg.face(fid).vertices
                for other in bg.faces_on_vertex(v)}
    return sorted(touching - _edge_neighbours(bg, fid) - {fid})


def _cxe_for(bg: BasisGraph, x: int, ck: int) -> List[int]:
    """Removable faces meeting Ck exactly at the common vertex x."""
    ck_vertices = bg.face(ck).vertices
    return [fid for fid in sorted(bg.faces_on_vertex(x))
            if bg.face(fid).vertices & ck_vertices == {x}
            and bg.is_removable(fid)]


def _first_ck(residual: BasisGraph,
              x: int) -> Tuple[Optional[int], Tuple[int, ...]]:
    """The first Ck at x and its Cxe, or (None, ()) when there is no Ck."""
    ks = find_Ck(residual, x)
    if not ks:
        return None, ()
    return ks[0], tuple(_cxe_for(residual, x, ks[0]))


def _context_of(residual: BasisGraph, x: int,
                cx: Tuple[int, ...]) -> HoleContext:
    ck, cxe = _first_ck(residual, x)
    ce: Tuple[int, ...] = ()
    cv: Tuple[int, ...] = ()
    if ck is not None:
        ce = tuple(f for f in faces_sharing_edge(residual, ck)
                   if residual.is_removable(f))
        cv = tuple(faces_sharing_only_vertices(residual, ck))
    return HoleContext(x=x, cx=cx, ck=ck, cxe=cxe, ce=ce, cv=cv)


def build_context(bg: BasisGraph, x: int,
                  cx: Tuple[int, ...]) -> HoleContext:
    return _context_of(bg.remove_faces(cx), x, cx)


# -- peeling and the hole search --------------------------------------------

def _safe_remove(bg: BasisGraph, fid: int) -> Tuple[BasisGraph, bool]:
    """Remove fid unless it is not removable or would disconnect."""
    if not bg.is_removable(fid):
        return bg, False
    candidate = bg.remove_face(fid)
    if not candidate.connected():
        return bg, False
    return candidate, True


def peel_from(residual: BasisGraph, ctx: HoleContext) -> BasisGraph:
    """Strip Cxe and then Ck at ctx.x, starting from the context's pair,
    until no Ck remains or Ck cannot be removed; removals that would
    disconnect the residual are skipped.

    ctx must be the context of residual itself.
    """
    ck, cxe = ctx.ck, ctx.cxe
    while ck is not None:
        for fid in cxe:
            residual, _ = _safe_remove(residual, fid)
        residual, done = _safe_remove(residual, ck)
        if not done:
            return residual
        ck, cxe = _first_ck(residual, ctx.x)
    return residual


def _peels_to_hole(residual: BasisGraph, ctx: HoleContext) -> bool:
    """Whether peeling from ctx drives a feasible C_x residual infeasible."""
    return not solvable(equation_of_graph(peel_from(residual, ctx)))


def is_global_hole(g: PlanarEmbedding, basis: FaceBasis,
                   ctx: HoleContext) -> bool:
    """True when the fully peeled residual starting from ctx has an
    infeasible equation."""
    if not ctx.cx:
        return False
    residual = BasisGraph(g, basis).remove_faces(ctx.cx)
    if not solvable(equation_of_graph(residual)):
        return False
    return _peels_to_hole(residual, _context_of(residual, ctx.x, ctx.cx))


def hole_contexts(g: PlanarEmbedding, bg: BasisGraph,
                  max_cx: int) -> Iterator[Tuple[HoleContext, bool]]:
    """Every hole context the criterion searches, with its global-hole
    test, in search order: ascending beginning vertex of degree >= 4, then
    the lexicographic order of the C_x sets.

    Each context is built and peeled from the residual the C_x walk
    already holds, whose equation the walk has found feasible.
    """
    for x in sorted(g.coords):
        if g.degree(x) < 4:
            continue
        for cx, residual in _cx_walk(bg, x, max_cx):
            ctx = _context_of(residual, x, cx)
            yield ctx, _peels_to_hole(residual, ctx)


# -- the decision ------------------------------------------------------------

def decide(g: PlanarEmbedding, basis: Optional[FaceBasis] = None,
           limit: int = 64, claw_mode: str = "strict",
           max_cx: int = 3) -> Verdict:
    """Full criterion pipeline; pure and deterministic.

    Order matters: a Case II claw always decides first; an infeasible
    equation decides next (the trusted necessity direction); under the
    strict claw reading a Case I report then rules the graph out; then the
    bounded hole search; finally certificate attempts over solution
    partitions.
    """
    if claw_mode not in ("strict", "lenient"):
        raise ValueError(f"unknown claw mode {claw_mode!r}")
    reports = tuple(claw_d2_scan(g))
    case2 = tuple(r for r in reports if r.severity == CASE_II)
    if case2:
        return Verdict(CLAW, claw_reports=case2,
                       details="claw(d2) case II present")
    if basis is None:
        basis = trace_faces(g)
    bg = BasisGraph(g, basis)
    eq = equation_of_graph(bg)
    if not solvable(eq):
        return Verdict(NO_SOLUTION, details="equation has no solution")
    if claw_mode == "strict" and reports:
        return Verdict(CLAW, claw_reports=reports,
                       details="claw(d2) case I present (strict reading)")
    for ctx, hole in hole_contexts(g, bg, max_cx):
        if hole:
            return Verdict(GLOBAL_HOLE, hole=ctx,
                           details=f"global hole at vertex {ctx.x}")
    for partition in solve(eq, limit=limit):
        cycle = sym_diff_all(basis.faces[fid].edges
                             for fid in sorted(partition.inside))
        if is_hamilton_cycle(cycle, g):
            return Verdict(HAMILTONIAN, certificate=cycle)
    return Verdict(
        UNVERIFIED,
        details=(f"criterion claims Hamiltonian but none of the first "
                 f"{limit} partitions certifies"))
