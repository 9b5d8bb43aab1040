"""Edge weights, boundary/interior vertices, claw(d2) scanning and
removable-cycle bookkeeping.

A `BasisGraph` is the face basis with some faces removed, held as integer
bitsets of the surviving faces, the surviving edges and the weight-2
edges; removals return a new graph, so they can be chained without
mutating anything.  A vertex's class is read from these bitsets and the
basis's per-vertex face bitsets, and is one of three shared constants.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional

from .embedding import Face, FaceBasis, PlanarEmbedding, bit_ids

CASE_I = "case-i"
CASE_II = "case-ii"


class NonTilingBasisError(ValueError):
    """An edge belongs to more than two basis faces."""


@dataclass(frozen=True)
class VertexClass:
    tag: str                       # "boundary" | "interior" | "other"


# The three classes `BasisGraph.vertex_class` returns, built once.
INTERIOR = VertexClass("interior")
BOUNDARY = VertexClass("boundary")
OTHER = VertexClass("other")


@dataclass(frozen=True)
class ClawReport:
    vertex: int
    incident_count: int
    d2_count: int
    severity: str                  # CASE_I (= 2) or CASE_II (>= 3)


class BasisGraph:
    """The face basis with some faces removed.

    Its state is three bitsets (bit i is face or edge i), the aligned
    `face_ids` (ascending) and `lengths` of the surviving faces, and
    `order`.  `face_mask` holds the surviving faces, `edge_mask` the
    surviving edges and `w2_mask` those on two surviving faces; the others
    have weight 1, or 0 for a bridge.  Built with no face set, every face
    and every edge survives, bridges included; built with a face set, only
    those faces and their edges survive.  Removing a face deletes only its
    weight-1 edges, since another face still uses the others, and any
    vertex left with no edge, so on a face-set graph it gives the graph of
    the remaining faces.  A face is removable when its removal keeps the
    order.
    """

    def __init__(self, g: PlanarEmbedding, basis: FaceBasis,
                 face_ids: Optional[Iterable[int]] = None):
        self.g = g
        self.basis = basis
        self.face_ids = (basis.face_ids() if face_ids is None
                         else tuple(sorted(set(face_ids))))
        self.lengths = tuple(basis.faces[fid].length
                             for fid in self.face_ids)
        masks = basis.edge_masks
        faces = covered = w2 = over = 0
        for fid in self.face_ids:
            mask = masks[fid]
            over |= w2 & mask
            w2 |= covered & mask
            covered |= mask
            faces |= 1 << fid
        if over:
            eid = (over & -over).bit_length() - 1
            u, v = g.edges[eid]
            count = sum(masks[fid] >> eid & 1 for fid in self.face_ids)
            raise NonTilingBasisError(
                f"edge {u} {v} lies on {count} basis faces")
        self.face_mask = faces
        self.edge_mask = (1 << g.size) - 1 if face_ids is None else covered
        self.w2_mask = w2
        # The root keeps every edge, and every vertex of a connected graph
        # with an edge has one.
        self.order = (g.order if face_ids is None
                      else len(self.vertices()))

    # -- derived structure ---------------------------------------------------

    def face(self, fid: int) -> Face:
        return self.basis.faces[fid]

    def vertices(self) -> List[int]:
        """The non-isolated vertices, ascending."""
        edges = self.edge_mask
        return sorted(v for v, mask in self.g.incident_edge_masks.items()
                      if mask & edges)

    def degree(self, v: int) -> int:
        return (self.g.incident_edge_masks.get(v, 0)
                & self.edge_mask).bit_count()

    def faces_on_vertex(self, v: int) -> FrozenSet[int]:
        return frozenset(bit_ids(
            self.face_mask & self.basis.vertex_face_masks.get(v, 0)))

    def is_interior(self, v: int) -> bool:
        """Whether v has a surviving edge and all of them have weight 2."""
        incident = self.g.incident_edge_masks.get(v, 0) & self.edge_mask
        return bool(incident) and not incident & ~self.w2_mask

    def vertex_class(self, v: int) -> VertexClass:
        """`INTERIOR`, else `BOUNDARY` when v has one weight-2 edge fewer
        than surviving faces on it, else `OTHER`: popcounts of v's
        incident-edge mask and of its face mask against the graph's."""
        incident = self.g.incident_edge_masks.get(v, 0) & self.edge_mask
        w2 = incident & self.w2_mask
        if incident and w2 == incident:
            return INTERIOR
        on_v = self.face_mask & self.basis.vertex_face_masks.get(v, 0)
        return BOUNDARY if w2.bit_count() == on_v.bit_count() - 1 else OTHER

    @property
    def weights(self) -> Dict[int, int]:
        """w(e), the number of surviving faces on e, for each surviving
        edge in ascending order; a fresh dict derived from the masks."""
        covered = 0
        for fid in self.face_ids:
            covered |= self.basis.edge_masks[fid]
        edges, w2 = self.edge_mask, self.w2_mask
        return {eid: (covered >> eid & 1) + (w2 >> eid & 1)
                for eid in range(self.g.size) if edges >> eid & 1}

    def boundary_edge_ids(self) -> FrozenSet[int]:
        return frozenset(eid for eid, w in self.weights.items() if w == 1)

    def connected(self) -> bool:
        """Whether the surviving edges form one component: a flood from
        the lowest edge that reaches the edges at each reached edge's
        endpoints."""
        edges = self.edge_mask
        incident = self.g.incident_edge_masks
        ends = self.g.edges
        reached = todo = edges & -edges
        while todo:
            low = todo & -todo
            todo ^= low
            u, v = ends[low.bit_length() - 1]
            new = (incident[u] | incident[v]) & edges & ~reached
            reached |= new
            todo |= new
        return reached == edges

    # -- removal -------------------------------------------------------------

    def _isolated_by(self, fid: int) -> int:
        """How many vertices deleting the face's weight-1 edges leaves with
        no edge."""
        doomed = self.basis.edge_masks[fid] & ~self.w2_mask
        if not doomed:
            return 0
        kept = self.edge_mask & ~doomed
        incident = self.g.incident_edge_masks
        count = 0
        for v in self.face(fid).vertices:
            if not incident[v] & kept:
                count += 1
        return count

    def is_removable(self, fid: int) -> bool:
        """A surviving face is removable when deleting its weight-1 edges
        isolates no vertex (graph order unchanged)."""
        return bool(self.face_mask >> fid & 1) and not self._isolated_by(fid)

    def remove_face(self, fid: int) -> "BasisGraph":
        """The graph without the face, its weight-1 edges and the vertices
        they alone reached."""
        if not self.face_mask >> fid & 1:
            raise ValueError(f"face {fid} is not in the surviving basis")
        mask = self.basis.edge_masks[fid]
        k = bisect_left(self.face_ids, fid)
        child = object.__new__(BasisGraph)
        child.g, child.basis = self.g, self.basis
        child.order = self.order - self._isolated_by(fid)
        child.face_ids = self.face_ids[:k] + self.face_ids[k + 1:]
        child.lengths = self.lengths[:k] + self.lengths[k + 1:]
        child.face_mask = self.face_mask & ~(1 << fid)
        child.edge_mask = self.edge_mask & ~(mask & ~self.w2_mask)
        child.w2_mask = self.w2_mask & ~mask
        return child

    def __repr__(self):
        return (f"BasisGraph({self.g.name!r}, "
                f"edges={self.edge_mask.bit_count()}, "
                f"faces={len(self.face_ids)})")


def claw_d2_scan(g: PlanarEmbedding) -> List[ClawReport]:
    """All vertices with >= 3 incident edges of which >= 2 lead to degree-2
    endvertices, sorted by vertex id."""
    reports = []
    for v in sorted(g.coords):
        neighbours = g.rotation[v]
        if len(neighbours) < 3:
            continue
        d2 = sum(1 for w in neighbours if len(g.rotation[w]) == 2)
        if d2 >= 2:
            severity = CASE_I if d2 == 2 else CASE_II
            reports.append(ClawReport(v, len(neighbours), d2, severity))
    return reports

