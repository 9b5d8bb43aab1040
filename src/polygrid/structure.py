"""Edge weights, boundary/interior vertices, claw(d2) scanning and
removable-cycle bookkeeping.

The `BasisGraph` wrapper bundles an embedding with a surviving subset of
edges and basis faces, so removals can be chained without mutating anything.
Removing a face deletes only its weight-1 edges; shared edges survive
because another face still uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .embedding import Face, FaceBasis, PlanarEmbedding, reach

CASE_I = "case-i"
CASE_II = "case-ii"


class NonTilingBasisError(ValueError):
    """An edge belongs to more than two basis faces."""


class NotRemovableError(ValueError):
    """Removal was asked for a face whose removal isolates a vertex."""


@dataclass(frozen=True)
class VertexClass:
    tag: str                       # "boundary" | "interior" | "other"
    cycles_on: FrozenSet[int]      # basis faces containing the vertex


@dataclass(frozen=True)
class ClawReport:
    vertex: int
    incident_count: int
    d2_count: int
    severity: str                  # CASE_I (= 2) or CASE_II (>= 3)


class BasisGraph:
    """An embedding together with its surviving edges and basis faces.

    A graph made by `remove_face` derives its weights from its parent's
    and inherits the parent's order.
    """

    def __init__(self, g: PlanarEmbedding, basis: FaceBasis,
                 edge_ids: Optional[FrozenSet[int]] = None,
                 face_ids: Optional[Tuple[int, ...]] = None):
        self.g = g
        self.basis = basis
        self.edge_ids = (frozenset(range(g.size))
                         if edge_ids is None else frozenset(edge_ids))
        self.face_ids = (basis.face_ids() if face_ids is None
                         else tuple(sorted(face_ids)))
        self._face_set = frozenset(self.face_ids)
        self._adjacency: Optional[Dict[int, List[int]]] = None
        self._weights: Optional[Dict[int, int]] = None
        self._order: Optional[int] = None

    # -- derived structure ---------------------------------------------------

    def face(self, fid: int) -> Face:
        return self.basis.faces[fid]

    @property
    def adjacency(self) -> Dict[int, List[int]]:
        if self._adjacency is None:
            adj: Dict[int, List[int]] = {}
            for eid in self.edge_ids:
                u, v = self.g.edges[eid]
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
            self._adjacency = adj
        return self._adjacency

    @property
    def order(self) -> int:
        """Number of non-isolated vertices."""
        if self._order is None:
            self._order = len(self.adjacency)
        return self._order

    def degree(self, v: int) -> int:
        edge_ids = self.edge_ids
        return sum(1 for eid in self.g.incident_edge_ids.get(v, ())
                   if eid in edge_ids)

    @property
    def weights(self) -> Dict[int, int]:
        """w(e): number of surviving basis faces containing each surviving
        edge."""
        if self._weights is None:
            w = {eid: 0 for eid in self.edge_ids}
            for fid in self.face_ids:
                for eid in self.face(fid).edges:
                    if eid in w:
                        w[eid] += 1
            for eid, count in w.items():
                if count > 2:
                    u, v = self.g.edges[eid]
                    raise NonTilingBasisError(
                        f"edge {u} {v} lies on {count} basis faces")
            self._weights = w
        return self._weights

    def faces_on_vertex(self, v: int) -> FrozenSet[int]:
        face_set = self._face_set
        return frozenset(fid for fid in self.basis.vertex_face_ids.get(v, ())
                         if fid in face_set)

    def faces_on_edge(self, eid: int) -> FrozenSet[int]:
        face_set = self._face_set
        return frozenset(fid for fid in self.basis.edge_face_ids[eid]
                         if fid in face_set)

    def incident_edges(self, v: int) -> List[int]:
        edge_ids = self.edge_ids
        return [eid for eid in self.g.incident_edge_ids.get(v, ())
                if eid in edge_ids]

    def vertex_class(self, v: int) -> VertexClass:
        cycles_on = self.faces_on_vertex(v)
        incident = self.incident_edges(v)
        w = self.weights
        w2 = sum(1 for eid in incident if w[eid] == 2)
        if incident and all(w[eid] == 2 for eid in incident):
            return VertexClass("interior", cycles_on)
        if all(w[eid] <= 2 for eid in incident) and w2 == len(cycles_on) - 1:
            return VertexClass("boundary", cycles_on)
        return VertexClass("other", cycles_on)

    def boundary_edge_ids(self) -> FrozenSet[int]:
        return frozenset(
            eid for eid, count in self.weights.items() if count == 1)

    def face_lengths(self) -> Tuple[int, ...]:
        return tuple(self.face(fid).length for fid in self.face_ids)

    def connected(self) -> bool:
        adj = self.adjacency
        return not adj or len(reach(adj, next(iter(adj)))) == len(adj)

    # -- removal -------------------------------------------------------------

    def _doomed(self, fid: int) -> FrozenSet[int]:
        """The face's weight-1 edges, which its removal deletes."""
        w = self.weights
        return frozenset(eid for eid in self.face(fid).edges if w[eid] == 1)

    def is_removable(self, fid: int) -> bool:
        """A face is removable when deleting its weight-1 edges isolates no
        vertex (graph order unchanged)."""
        if fid not in self._face_set:
            return False
        doomed = self._doomed(fid)
        for v in self.face(fid).vertices:
            if all(eid in doomed for eid in self.incident_edges(v)):
                return False
        return True

    def remove_face(self, fid: int) -> "BasisGraph":
        if fid not in self._face_set:
            raise ValueError(f"face {fid} is not in the surviving basis")
        if not self.is_removable(fid):
            raise NotRemovableError(
                f"face {fid} is not removable (a vertex would be isolated)")
        doomed = self._doomed(fid)
        child = BasisGraph(
            self.g, self.basis,
            edge_ids=self.edge_ids - doomed,
            face_ids=tuple(f for f in self.face_ids if f != fid))
        weights = dict(self.weights)
        for eid in self.face(fid).edges:
            if eid in doomed:
                del weights[eid]
            else:
                weights[eid] -= 1
        child._weights = weights
        child._order = self.order
        return child

    def remove_faces(self, fids: Iterable[int]) -> "BasisGraph":
        bg = self
        for fid in fids:
            bg = bg.remove_face(fid)
        return bg

    def restrict_to_faces(self, fids: Iterable[int]) -> "BasisGraph":
        """Subgraph carried by the given faces only."""
        fids = tuple(sorted(set(fids)))
        edge_ids = frozenset().union(
            *(self.face(fid).edges for fid in fids)) if fids else frozenset()
        return BasisGraph(self.g, self.basis,
                          edge_ids=frozenset(edge_ids), face_ids=fids)

    def __repr__(self):
        return (f"BasisGraph({self.g.name!r}, edges={len(self.edge_ids)}, "
                f"faces={len(self.face_ids)})")


# -- spec-level operations ---------------------------------------------------

def edge_weights(basis: FaceBasis, g: PlanarEmbedding) -> Dict[int, int]:
    return BasisGraph(g, basis).weights


def classify_vertex(v: int, basis: FaceBasis,
                    g: PlanarEmbedding) -> VertexClass:
    return BasisGraph(g, basis).vertex_class(v)


def boundary_edges(basis: FaceBasis, g: PlanarEmbedding) -> FrozenSet[int]:
    return BasisGraph(g, basis).boundary_edge_ids()


def claw_d2_scan(g: PlanarEmbedding) -> List[ClawReport]:
    """All vertices with >= 3 incident edges of which >= 2 lead to degree-2
    endvertices, sorted by vertex id."""
    reports = []
    for v in sorted(g.coords):
        neighbours = g.adjacency[v]
        if len(neighbours) < 3:
            continue
        d2 = sum(1 for w in neighbours if g.degree(w) == 2)
        if d2 >= 2:
            severity = CASE_I if d2 == 2 else CASE_II
            reports.append(ClawReport(v, len(neighbours), d2, severity))
    return reports


def is_removable(fid: int, basis: FaceBasis, g: PlanarEmbedding) -> bool:
    return BasisGraph(g, basis).is_removable(fid)


def removal(fid: int, basis: FaceBasis, g: PlanarEmbedding) -> BasisGraph:
    return BasisGraph(g, basis).remove_face(fid)
