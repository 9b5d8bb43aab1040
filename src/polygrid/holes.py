"""Non-Hamiltonian hole search and the Hamiltonicity criterion.

The criterion pipeline: claw(d2) scan, equation feasibility, bounded search
for globally non-Hamiltonian holes by peeling C_k, then an attempt to
certify Hamiltonicity by XOR-ing inside faces of solution partitions.  A
Hamiltonian verdict always carries an independently verified cycle; when
the criterion claims Hamiltonian but no tried partition certifies, the
verdict is CriterionUnverified rather than a bare claim.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from .embedding import (EdgeSet, FaceBasis, PlanarEmbedding, bit_ids,
                        is_hamilton_cycle, trace_faces)
# `solve` is unused here, but the benchmark tracer wraps `holes.solve` by
# name.
from .grinberg import (equation_of_graph, feasible_without_any, partitions,
                       solvable, solve)
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


@dataclass(frozen=True)
class Verdict:
    tag: str
    certificate: Optional[EdgeSet] = None
    claw_reports: Tuple[ClawReport, ...] = ()
    hole: Optional[HoleContext] = None
    details: str = ""


# -- hole context search -----------------------------------------------------

# (surviving-face mask, face id) -> the child residual, or None when the
# face is not removable
_Removals = Dict[Tuple[int, int], Optional[BasisGraph]]
# surviving-face mask -> whether that face set's equation is feasible
_Feasible = Dict[int, bool]


def _cx_walk(bg: BasisGraph, x: int, max_size: int, table: _Removals,
             feasible: _Feasible
             ) -> Iterator[Tuple[Tuple[int, ...], BasisGraph]]:
    """The qualifying C_x sets with their residuals, in lexicographic order.

    A depth-first walk over ascending face ids, on an explicit stack of
    (residual, C_x set, face positions left) frames: each set extends its
    prefix's residual by one removal, and a face that is not removable at
    its turn prunes every set that extends it.  A frame that descends
    pushes its child and resumes once the child is exhausted and popped,
    so preorder over the walk is the lexicographic order of the sets.

    Past the last face on x, a removal takes a face without x, which has
    no edge at x and changes neither its degree nor its class.  So the
    walk descends past it only where x already qualifies, and a residual
    in which x does not qualify loops only over the faces up to it: each
    walk step hands its qualification down.

    Whether a face is removable and the residual its removal leaves
    depend on the face set alone, not on x, and so does the residual's
    feasibility, since every residual keeps bg's vertex count.  So
    `table` maps (surviving-face mask, face id) to the child residual, or
    None when the face is not removable, and `feasible` maps a face mask
    to its equation's feasibility, solved the first time a walk needs it.
    The walks of one search share both, and each face set is tested,
    removed and solved at most once.

    The walk does not descend below a residual whose equation is
    infeasible.  The prune is exact: each removal keeps the vertex count,
    and so the equation's target, and takes a face away, which adds no
    subset sum, so every extension of an infeasible face set is
    infeasible too, and the walk yields only feasible residuals.  So the
    walk solves, through `feasible`, each child it would yield or descend
    into.

    Whether x qualifies, a degree-4 boundary vertex, reads only the edges
    at x, and each lies on no face or on faces that hold x: a bridge is
    never deleted, and a face edge survives while one of its faces does
    and has weight 2 while both do.  So the test depends only on the
    surviving faces on x, and `qualifies` memoises it by that mask for
    this walk, the root's included: `vertex_class(x)` runs once per
    surviving subset of the faces on x.
    """
    if bg.degree(x) < 4:
        return
    fids = bg.face_ids
    on_x = bg.basis.vertex_face_masks.get(x, 0)
    last = (bg.face_mask & on_x).bit_length() - 1
    up_to_last = bisect_right(fids, last)

    def test_at_x(residual: BasisGraph) -> bool:
        return (residual.degree(x) == 4
                and residual.vertex_class(x).tag == "boundary")

    at_root = test_at_x(bg)
    qualifies = {bg.face_mask & on_x: at_root}
    stack = [(bg, (), iter(range(len(fids) if at_root else up_to_last)))]
    while stack:
        residual, cx, positions = stack[-1]
        for k in positions:
            fid = fids[k]
            key = (residual.face_mask, fid)
            if key in table:
                child = table[key]
            else:
                child = table[key] = (residual.remove_face(fid)
                                      if residual.is_removable(fid) else None)
            if child is None:
                continue
            subset = cx + (fid,)
            faces_at_x = child.face_mask & on_x
            at_x = qualifies.get(faces_at_x)
            if at_x is None:
                at_x = qualifies[faces_at_x] = test_at_x(child)
            descend = len(subset) < max_size and (at_x or fid < last)
            if not (at_x or descend):
                continue
            faces = child.face_mask
            ok = feasible.get(faces)
            if ok is None:
                ok = feasible[faces] = solvable(equation_of_graph(child))
            if not ok:
                continue
            if at_x:
                yield subset, child
            if descend:
                stack.append((child, subset, iter(
                    range(k + 1, len(fids) if at_x else up_to_last))))
                break
        else:
            stack.pop()


def candidate_Cx(bg: BasisGraph, x: int,
                 max_size: int = 3) -> List[Tuple[int, ...]]:
    """Face-index sets whose sequential removal turns x into a boundary
    vertex of degree 4 while the residual equation stays feasible.

    Every prefix of a set (in ascending index order) must be removable at
    its turn.  Results in lexicographic order.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    return [cx for cx, _ in _cx_walk(bg, x, max_size, {}, {})]


def build_context(residual: BasisGraph, x: int,
                  cx: Tuple[int, ...]) -> HoleContext:
    """The hole context of a C_x set, given the residual after removing it.

    C_k is the first face on x that holds an interior vertex and no
    weight-1 edge of the residual, so its removal deletes no edge and it
    is removable.  That is all the global-hole test reads: on every
    residual the C_x walk yields, C_xe is empty (see `is_global_hole`).
    The surviving faces on x are read, ascending, from the basis's face
    mask of x.
    """
    w2 = residual.w2_mask
    basis = residual.basis
    masks = basis.edge_masks
    for ck in bit_ids(residual.face_mask & basis.vertex_face_masks.get(x, 0)):
        if not masks[ck] & ~w2 and any(
                residual.is_interior(v) for v in residual.face(ck).vertices):
            return HoleContext(x=x, cx=cx, ck=ck)
    return HoleContext(x=x, cx=cx)


# -- the global-hole test and the hole search --------------------------------

def is_global_hole(residual: BasisGraph, ctx: HoleContext,
                   feasible: Optional[_Feasible] = None) -> bool:
    """Whether peeling ctx's C_k from residual leaves an infeasible
    equation.

    residual must be a residual the C_x walk yielded for ctx: its
    equation is feasible and x is a degree-4 boundary vertex in it.  Then
    one removal is the whole peel.  The surviving faces at x form one
    arc: k faces across k + 1 of its edges, each end face with a weight-1
    edge at x, and a weight-0 bridge, which the root keeps, on each of
    the other 3 - k edges.  A C_k has no weight-1 edge, so only the
    middle face of a three-face arc can be C_k; at a bridge the arc has
    at most two faces, each an end, and there is none.  Both other faces
    share an edge with C_k, so C_xe is empty.  Once C_k is gone, both
    faces left at x have a weight-1 edge there, so there is no second
    C_k.  A peel step never leaves a disconnected residual, and removing
    C_k deletes no edge, so C_k is removed exactly when the residual is
    already connected.  Without C_k, or with it kept, the peeled residual
    is the feasible residual itself, so there is no hole.

    The peel keeps the vertex count, so its feasibility depends on its
    face set alone: it is read from `feasible`, the walk's map from face
    mask to feasibility (a fresh dict when left out), and only on a miss
    is C_k removed and the equation solved.  That happens before the
    residual is flooded, so a feasible peel costs no flood.
    """
    if ctx.ck is None:
        return False
    if feasible is None:
        feasible = {}
    faces = residual.face_mask & ~(1 << ctx.ck)
    ok = feasible.get(faces)
    if ok is None:
        ok = feasible[faces] = solvable(
            equation_of_graph(residual.remove_face(ctx.ck)))
    return not ok and residual.connected()


def hole_contexts(bg: BasisGraph,
                  max_cx: int) -> Iterator[Tuple[HoleContext, bool]]:
    """Every hole context the criterion searches in the graph `bg.g`, with
    its global-hole test, in search order: ascending beginning vertex of
    degree >= 4, then the lexicographic order of the C_x sets.

    Each context is built and tested on the residual the C_x walk
    already holds, whose equation the walk has found feasible.  The walks
    from all beginning vertices and the global-hole peels share one table
    of residuals and one map of feasibility, keyed by face set, so each
    face set is removed and solved at most once per search.  Nothing in
    the search refers back to itself, so both are freed with the
    generator, whether it ends or is dropped half way.
    """
    if max_cx < 1:
        raise ValueError("max_cx must be >= 1")
    table: _Removals = {}
    feasible: _Feasible = {}
    for x in sorted(bg.g.coords):
        for cx, residual in _cx_walk(bg, x, max_cx, table, feasible):
            ctx = build_context(residual, x, cx)
            yield ctx, is_global_hole(residual, ctx, feasible)


# -- the decision ------------------------------------------------------------

def decide(g: PlanarEmbedding, basis: Optional[FaceBasis] = None,
           limit: int = 64, claw_mode: str = "strict",
           max_cx: int = 3) -> Verdict:
    """Full criterion pipeline; pure and deterministic.

    Order matters: a Case II claw always decides first; an infeasible
    equation decides next (the trusted necessity direction); under the
    strict claw reading a Case I report then rules the graph out; then the
    bounded hole search; finally certificate attempts over the first
    `limit` solution partitions, drawn one at a time, so none is built
    after the one that certifies.  A partition's cycle is the XOR of its
    inside faces' edge masks; one without exactly |V| edges cannot be a
    Hamilton cycle and is skipped, and the others are checked with
    `is_hamilton_cycle`.  When the equation has fewer than `limit`
    partitions, an unverified verdict says how many there were.

    The hole search is skipped when the equation stays feasible whichever
    `max_cx + 1` faces are removed (`feasible_without_any`).  The skip is
    exact: a global hole needs an infeasible peel, a peel removes a C_x
    set and C_k, at most `max_cx + 1` faces, and keeps |V| (no step
    isolates a vertex), and removing faces never adds a subset sum.  On
    an m x n grid it applies exactly when (m - 2)(n - 2) >= 8 and mn is
    even.
    """
    if claw_mode not in ("strict", "lenient"):
        raise ValueError(f"unknown claw mode {claw_mode!r}")
    if max_cx < 1:
        raise ValueError("max_cx must be >= 1")
    if limit < 1:
        raise ValueError("limit must be >= 1")
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
    if not feasible_without_any(eq, max_cx + 1):
        for ctx, hole in hole_contexts(bg, max_cx):
            if hole:
                return Verdict(GLOBAL_HOLE, hole=ctx,
                               details=f"global hole at vertex {ctx.x}")
    masks = basis.edge_masks
    tried = 0
    for partition in islice(partitions(eq), limit):
        tried += 1
        cycle_mask = 0
        for fid in partition.inside:
            cycle_mask ^= masks[fid]
        if cycle_mask.bit_count() != g.order:
            continue
        cycle = frozenset(bit_ids(cycle_mask))
        if is_hamilton_cycle(cycle, g):
            return Verdict(HAMILTONIAN, certificate=cycle)
    which = f"its {tried}" if tried < limit else f"the first {limit}"
    return Verdict(
        UNVERIFIED,
        details=(f"criterion claims Hamiltonian but none of {which} "
                 f"partitions certifies"))
