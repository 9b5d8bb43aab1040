"""Non-Hamiltonian hole search and the Hamiltonicity criterion.

The criterion pipeline: claw(d2) scan, equation feasibility, bounded search
for globally non-Hamiltonian holes via the peeling procedure, then an
attempt to certify Hamiltonicity by XOR-ing inside faces of solution
partitions.  A Hamiltonian verdict always carries an independently verified
cycle; when the criterion claims Hamiltonian but no tried partition
certifies, the verdict is CriterionUnverified rather than a bare claim.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

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

def candidate_Cx(bg: BasisGraph, x: int,
                 max_size: int = 3) -> List[Tuple[int, ...]]:
    """Face-index sets whose sequential removal turns x into a boundary
    vertex of degree 4 while the residual equation stays feasible.

    Every prefix of a set (in ascending index order) must be removable at
    its turn.  Results in lexicographic order.
    """
    if bg.degree(x) < 4:
        return []
    out = []
    fids = bg.face_ids
    subsets = []
    for size in range(1, max_size + 1):
        subsets.extend(itertools.combinations(fids, size))
    for subset in sorted(subsets):
        residual = bg
        ok = True
        for fid in subset:
            if not residual.is_removable(fid):
                ok = False
                break
            residual = residual.remove_face(fid)
        if not ok:
            continue
        if residual.degree(x) != 4:
            continue
        if residual.vertex_class(x).tag != "boundary":
            continue
        if not solvable(equation_of_graph(residual)):
            continue
        out.append(subset)
    return out


def find_Ck(bg: BasisGraph, x: int) -> List[int]:
    """Removable faces on x containing an interior vertex and no weight-1
    edge, in the residual graph."""
    out = []
    for fid in bg.face_ids:
        face = bg.face(fid)
        if x not in face.vertices:
            continue
        if not bg.is_removable(fid):
            continue
        if any(bg.weights[eid] == 1 for eid in face.edges):
            continue
        if not any(bg.vertex_class(v).tag == "interior"
                   for v in face.vertices):
            continue
        out.append(fid)
    return out


def faces_sharing_edge(bg: BasisGraph, fid: int) -> List[int]:
    edges = bg.face(fid).edges
    return [other for other in bg.face_ids
            if other != fid and bg.face(other).edges & edges]


def faces_sharing_only_vertices(bg: BasisGraph, fid: int) -> List[int]:
    face = bg.face(fid)
    out = []
    for other in bg.face_ids:
        if other == fid:
            continue
        o = bg.face(other)
        if o.edges & face.edges:
            continue
        if o.vertices & face.vertices:
            out.append(other)
    return out


def _cxe_for(bg: BasisGraph, x: int, ck: int) -> List[int]:
    """Removable faces meeting Ck exactly at the common vertex x."""
    ck_vertices = bg.face(ck).vertices
    out = []
    for fid in bg.face_ids:
        if fid == ck:
            continue
        face = bg.face(fid)
        if face.vertices & ck_vertices == {x} and bg.is_removable(fid):
            out.append(fid)
    return out


def build_context(bg: BasisGraph, x: int,
                  cx: Tuple[int, ...]) -> HoleContext:
    residual = bg.remove_faces(cx)
    ks = find_Ck(residual, x)
    ck = ks[0] if ks else None
    cxe: Tuple[int, ...] = ()
    ce: Tuple[int, ...] = ()
    cv: Tuple[int, ...] = ()
    if ck is not None:
        cxe = tuple(_cxe_for(residual, x, ck))
        ce = tuple(f for f in faces_sharing_edge(residual, ck)
                   if residual.is_removable(f))
        cv = tuple(faces_sharing_only_vertices(residual, ck))
    return HoleContext(x=x, cx=cx, ck=ck, cxe=cxe, ce=ce, cv=cv)


# -- peeling and the hole search --------------------------------------------

def _safe_remove(bg: BasisGraph, fid: int) -> Tuple[BasisGraph, bool]:
    """Remove fid unless it is not removable or would disconnect."""
    if not bg.is_removable(fid):
        return bg, False
    candidate = bg.remove_face(fid)
    if not candidate.connected():
        return bg, False
    return candidate, True


def peel_from(residual: BasisGraph, x: int) -> BasisGraph:
    """Strip Cxe and then Ck at x until no Ck remains or Ck cannot be
    removed; removals that would disconnect the residual are skipped."""
    while True:
        ks = find_Ck(residual, x)
        if not ks:
            return residual
        ck = ks[0]
        for fid in _cxe_for(residual, x, ck):
            residual, _ = _safe_remove(residual, fid)
        residual, done = _safe_remove(residual, ck)
        if not done:
            return residual


def is_global_hole(g: PlanarEmbedding, basis: FaceBasis,
                   ctx: HoleContext) -> bool:
    """True when the fully peeled residual starting from ctx has an
    infeasible equation."""
    if not ctx.cx:
        return False
    residual = BasisGraph(g, basis).remove_faces(ctx.cx)
    if not solvable(equation_of_graph(residual)):
        return False
    return not solvable(equation_of_graph(peel_from(residual, ctx.x)))


def hole_contexts(g: PlanarEmbedding, bg: BasisGraph,
                  max_cx: int) -> Iterator[Tuple[HoleContext, bool]]:
    """Every hole context the criterion searches, with its global-hole
    test, in search order: ascending beginning vertex of degree >= 4, then
    the lexicographic order of candidate_Cx."""
    for x in sorted(g.coords):
        if g.degree(x) < 4:
            continue
        for cx in candidate_Cx(bg, x, max_size=max_cx):
            ctx = build_context(bg, x, cx)
            yield ctx, is_global_hole(g, bg.basis, ctx)


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
