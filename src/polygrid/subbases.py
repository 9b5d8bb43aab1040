"""Boundary-element sets, independent subbases and the reduced graph.

A face is a boundary element when it touches a boundary (weight-1) edge or
a boundary vertex.  Faces that are not boundary elements form interior
regions; each region together with the minimal boundary-element set that
bounds it is one subbasis record.  Boundary-element faces left over after
minimal sets are assigned split into further (empty-interior) records,
except for articulation faces of their adjacency graph, which form the
co-set.  Reduction replaces each Hamiltonian interior region by a single
cycle of the same order drawn on the region footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .embedding import (FaceBasis, PlanarEmbedding, bit_ids, components,
                        cycle_vertex_walk, trace_faces)
from .holes import HAMILTONIAN, decide
from .structure import BasisGraph


@dataclass(frozen=True)
class SubbasisRecord:
    interior: Tuple[int, ...]      # strictly interior faces (may be empty)
    boundary: Tuple[int, ...]      # the bounding minimal boundary-element set


@dataclass(frozen=True)
class SubbasisDecomposition:
    records: Tuple[SubbasisRecord, ...]
    coset: Tuple[int, ...]
    boundary_element_faces: Tuple[int, ...]

    @property
    def g_count(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class ReducedGraph:
    embedding: PlanarEmbedding
    substitutions: Tuple[Tuple[int, int], ...]   # (record index, cycle order)
    failed: Tuple[int, ...]                      # records not proven Hamiltonian


@dataclass(frozen=True)
class AgreementRecord:
    original_hamiltonian: Optional[bool]
    reduced_hamiltonian: Optional[bool]

    @property
    def agree(self) -> Optional[bool]:
        if self.original_hamiltonian is None or self.reduced_hamiltonian is None:
            return None
        return self.original_hamiltonian == self.reduced_hamiltonian


# -- boundary-element machinery ----------------------------------------------

def boundary_element_set(basis: FaceBasis,
                         g: PlanarEmbedding) -> FrozenSet[int]:
    """Faces touching any boundary vertex or any weight-1 edge."""
    return _boundary_elements(BasisGraph(g, basis))


def _boundary_elements(bg: BasisGraph) -> FrozenSet[int]:
    weight1 = bg.edge_mask & ~bg.w2_mask
    masks = bg.basis.edge_masks
    boundary = {v for v in bg.vertices()
                if bg.vertex_class(v).tag == "boundary"}
    return frozenset(
        fid for fid in bg.face_ids
        if masks[fid] & weight1 or bg.face(fid).vertices & boundary)


def _face_adjacency(bg: BasisGraph,
                    fids: Sequence[int]) -> Dict[int, Set[int]]:
    """Edge-sharing neighbours of each given face among the given faces."""
    members = sum(1 << fid for fid in fids)
    neighbours = bg.basis.edge_neighbour_masks
    return {fid: set(bit_ids(neighbours[fid] & members)) for fid in fids}


def _bounds(local: BasisGraph, comp_edges: int,
            comp_vertices: Sequence[int]) -> bool:
    """True when, within the sub-basis `local`, no face of the component
    is a boundary element: none of the component's edges has weight 1 and
    none of its vertices is a boundary vertex."""
    return not (comp_edges & ~local.w2_mask
                or any(local.vertex_class(v).tag == "boundary"
                       for v in comp_vertices))


def decompose(g: PlanarEmbedding,
              basis: Optional[FaceBasis] = None) -> SubbasisDecomposition:
    if basis is None:
        basis = trace_faces(g)
    bg = BasisGraph(g, basis)
    belems = _boundary_elements(bg)
    interior_all = [fid for fid in bg.face_ids if fid not in belems]
    records: List[SubbasisRecord] = []
    used_boundary: Set[int] = set()
    for comp in components(_face_adjacency(bg, interior_all)):
        own = BasisGraph(g, basis, comp)
        comp_edges, comp_vertices = own.edge_mask, own.vertices()
        # Greedy shrinking: remove boundary faces in descending index while
        # the remaining sub-basis still bounds the component.
        local = BasisGraph(g, basis, sorted(belems) + list(comp))
        for fid in sorted(belems, reverse=True):
            trial = local.remove_face(fid)
            if _bounds(trial, comp_edges, comp_vertices):
                local = trial
        minimal = [fid for fid in local.face_ids if fid in belems]
        records.append(SubbasisRecord(interior=comp,
                                      boundary=tuple(minimal)))
        used_boundary |= set(minimal)
    # Overlapping minimal sets are merged into a single record.
    records = _merge_overlapping(records)
    leftover = sorted(belems - used_boundary)
    adj = _face_adjacency(bg, leftover)
    coset = _articulation_faces(adj)
    free = {fid: ns - coset for fid, ns in adj.items() if fid not in coset}
    for comp in components(free):
        records.append(SubbasisRecord(interior=(), boundary=comp))
    records.sort(key=lambda r: (r.boundary + r.interior))
    return SubbasisDecomposition(
        records=tuple(records), coset=tuple(sorted(coset)),
        boundary_element_faces=tuple(sorted(belems)))


def _merge_overlapping(
        records: List[SubbasisRecord]) -> List[SubbasisRecord]:
    """One record per component of the "boundaries overlap" relation,
    carrying the union of its records' interiors and boundaries."""
    boundaries = [set(r.boundary) for r in records]
    overlaps = {i: {j for j, other in enumerate(boundaries)
                    if j != i and mine & other}
                for i, mine in enumerate(boundaries)}
    return [SubbasisRecord(
        interior=tuple(sorted({f for i in comp for f in records[i].interior})),
        boundary=tuple(sorted({f for i in comp for f in records[i].boundary})))
        for comp in components(overlaps)]


def _articulation_faces(adj: Dict[int, Set[int]]) -> Set[int]:
    """Faces whose removal disconnects their adjacency component, by one
    Hopcroft-Tarjan low-link search on an explicit stack, so a long path of
    faces cannot exhaust the recursion limit."""
    out: Set[int] = set()
    disc: Dict[int, int] = {}
    low: Dict[int, int] = {}
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        children = 0
        stack = [(root, None, iter(adj[root]))]
        while stack:
            fid, parent, todo = stack[-1]
            for other in todo:
                if other not in disc:
                    disc[other] = low[other] = len(disc)
                    stack.append((other, fid, iter(adj[other])))
                    break
                if other != parent:
                    low[fid] = min(low[fid], disc[other])
            else:
                stack.pop()
                if parent is None:
                    continue
                low[parent] = min(low[parent], low[fid])
                if parent == root:
                    children += 1
                elif low[fid] >= disc[parent]:
                    out.add(parent)
        if children >= 2:
            out.add(root)
    return out


# -- reduction ---------------------------------------------------------------

def reduce_to_Gg(g: PlanarEmbedding,
                 decomposition: Optional[SubbasisDecomposition] = None,
                 basis: Optional[FaceBasis] = None) -> ReducedGraph:
    """Replace each Hamiltonian interior region by one cycle of equal order.

    Each region is decided under the lenient claw reading.  Records whose
    interior region cannot be certified Hamiltonian are reported in
    `failed`; per the subbasis argument any such record already settles
    the whole graph as non-Hamiltonian.  A region's edges are its faces'
    edges, its internal edges those of weight 2 and its perimeter those
    of weight 1; ValueError when a substituted region's perimeter is not
    one cycle.
    """
    if basis is None:
        basis = trace_faces(g)
    if decomposition is None:
        decomposition = decompose(g, basis)
    failed: List[int] = []
    regions = []       # (record idx, perimeter walk, region graph)
    for idx, rec in enumerate(decomposition.records):
        if not rec.interior:
            continue
        local = BasisGraph(g, basis, rec.interior)
        sub = PlanarEmbedding(
            {v: g.coords[v] for v in local.vertices()},
            [g.edges[e] for e in bit_ids(local.edge_mask)],
            name=f"{g.name}-g{idx}")
        verdict = decide(sub, claw_mode="lenient")
        if verdict.tag != HAMILTONIAN:
            failed.append(idx)
            continue
        perimeter = frozenset(bit_ids(local.edge_mask & ~local.w2_mask))
        regions.append((idx, cycle_vertex_walk(perimeter, g), local))
    reduced = _substitute_regions(g, regions)
    return ReducedGraph(
        embedding=reduced,
        substitutions=tuple((idx, local.order) for idx, _, local in regions),
        failed=tuple(failed))


def _substitute_regions(g: PlanarEmbedding, regions) -> PlanarEmbedding:
    """Drop each region's internal edges and the vertices off its
    perimeter, and subdivide its perimeter edges, the first ones once
    more, until the perimeter cycle has the region's order."""
    drop_vertices: Set[int] = set()
    drop_edges = 0
    subdivided = []    # (u, v, new vertices on the perimeter edge u-v)
    for _, walk, local in regions:
        drop_vertices |= set(local.vertices()).difference(walk)
        drop_edges |= local.w2_mask
        each, extra = divmod(max(local.order - len(walk), 0), len(walk))
        for i, u in enumerate(walk):
            count = each + (i < extra)
            if count:
                v = walk[(i + 1) % len(walk)]
                drop_edges |= 1 << g.edge_id(u, v)
                subdivided.append((u, v, count))
    # Scale so subdivided perimeter edges land on lattice points.
    scale = max((count + 1 for _, _, count in subdivided), default=1)
    coords = {v: (x * scale, y * scale)
              for v, (x, y) in g.coords.items() if v not in drop_vertices}
    edges = [g.edges[e] for e in range(g.size)
             if not drop_edges >> e & 1
             and not (set(g.edges[e]) & drop_vertices)]
    next_id = max(g.coords) + 1
    for u, v, count in subdivided:
        ax, ay = g.coords[u]
        bx, by = g.coords[v]
        chain = [u]
        for t in range(1, count + 1):
            coords[next_id] = (ax * scale + t * (bx - ax),
                               ay * scale + t * (by - ay))
            chain.append(next_id)
            next_id += 1
        chain.append(v)
        edges += zip(chain, chain[1:])
    return PlanarEmbedding(coords, edges, name=f"{g.name}-reduced")


def check_prop_6_1(g: PlanarEmbedding, reduced: ReducedGraph,
                   budget: int = 10 ** 6) -> AgreementRecord:
    """Oracle audit of 'G and G_g have the same Hamiltonicity'."""
    from .oracle import hamilton_oracle
    orig = hamilton_oracle(g, budget=budget)
    red = hamilton_oracle(reduced.embedding, budget=budget)
    return AgreementRecord(
        original_hamiltonian=None if orig.timed_out else orig.found is not None,
        reduced_hamiltonian=None if red.timed_out else red.found is not None)
