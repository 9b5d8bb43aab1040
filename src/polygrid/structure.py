"""Edge weights, boundary/interior vertices, claw(d2) scanning and
removable-cycle bookkeeping.

A `BasisGraph` is the face basis with some faces removed, held as the
surviving faces and the weight of each surviving edge; removals return a
new graph, so they can be chained without mutating anything.
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
    """The face basis with some faces removed.

    Its state is the surviving faces, `weights` and `order`.  `weights`
    maps each surviving edge to w(e), the number of surviving faces on it,
    so its keys are the surviving edges.  Built with no face set, every
    face and every edge survives, bridges at weight 0; built with a face
    set, only those faces and their edges survive.  Removing a face deletes
    only its weight-1 edges, because another face still uses the others.
    A graph made by `remove_face` keeps its parent's order, since a
    removal isolates no vertex.
    """

    def __init__(self, g: PlanarEmbedding, basis: FaceBasis,
                 face_ids: Optional[Iterable[int]] = None):
        self.g = g
        self.basis = basis
        self.face_ids = (basis.face_ids() if face_ids is None
                         else tuple(sorted(set(face_ids))))
        self._face_set = frozenset(self.face_ids)
        w = dict.fromkeys(range(g.size), 0) if face_ids is None else {}
        for fid in self.face_ids:
            for eid in self.face(fid).edges:
                w[eid] = w.get(eid, 0) + 1
        for eid, count in w.items():
            if count > 2:
                u, v = g.edges[eid]
                raise NonTilingBasisError(
                    f"edge {u} {v} lies on {count} basis faces")
        self.weights: Dict[int, int] = w
        self.order = len(self.vertices())

    # -- derived structure ---------------------------------------------------

    def face(self, fid: int) -> Face:
        return self.basis.faces[fid]

    def vertices(self) -> List[int]:
        """The non-isolated vertices, ascending."""
        edges = self.g.edges
        return sorted({v for eid in self.weights for v in edges[eid]})

    def degree(self, v: int) -> int:
        return len(self.incident_edges(v))

    def faces_on_vertex(self, v: int) -> FrozenSet[int]:
        face_set = self._face_set
        return frozenset(fid for fid in self.basis.vertex_face_ids.get(v, ())
                         if fid in face_set)

    def faces_on_edge(self, eid: int) -> FrozenSet[int]:
        face_set = self._face_set
        return frozenset(fid for fid in self.basis.edge_face_ids[eid]
                         if fid in face_set)

    def incident_edges(self, v: int) -> List[int]:
        w = self.weights
        return [eid for eid in self.g.incident_edge_ids.get(v, ())
                if eid in w]

    def vertex_class(self, v: int) -> VertexClass:
        cycles_on = self.faces_on_vertex(v)
        w = self.weights
        incident = [w[eid] for eid in self.incident_edges(v)]
        w2 = incident.count(2)
        if incident and w2 == len(incident):
            return VertexClass("interior", cycles_on)
        if w2 == len(cycles_on) - 1:
            return VertexClass("boundary", cycles_on)
        return VertexClass("other", cycles_on)

    def boundary_edge_ids(self) -> FrozenSet[int]:
        return frozenset(
            eid for eid, count in self.weights.items() if count == 1)

    def face_lengths(self) -> Tuple[int, ...]:
        return tuple(self.face(fid).length for fid in self.face_ids)

    def connected(self) -> bool:
        adj: Dict[int, List[int]] = {}
        for eid in self.weights:
            u, v = self.g.edges[eid]
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        return not adj or len(reach(adj, next(iter(adj)))) == len(adj)

    # -- removal -------------------------------------------------------------

    def _isolates(self, fid: int) -> bool:
        """Whether deleting the face's weight-1 edges isolates a vertex."""
        face = self.face(fid)
        w = self.weights
        doomed = {eid for eid in face.edges if w[eid] == 1}
        incident = self.g.incident_edge_ids
        return any(all(eid in doomed or eid not in w for eid in incident[v])
                   for v in face.vertices)

    def is_removable(self, fid: int) -> bool:
        """A surviving face is removable when deleting its weight-1 edges
        isolates no vertex (graph order unchanged)."""
        return fid in self._face_set and not self._isolates(fid)

    def remove_face(self, fid: int) -> "BasisGraph":
        if fid not in self._face_set:
            raise ValueError(f"face {fid} is not in the surviving basis")
        if self._isolates(fid):
            raise NotRemovableError(
                f"face {fid} is not removable (a vertex would be isolated)")
        weights = dict(self.weights)
        for eid in self.face(fid).edges:
            if weights[eid] == 1:
                del weights[eid]
            else:
                weights[eid] -= 1
        child = object.__new__(BasisGraph)
        child.g, child.basis, child.order = self.g, self.basis, self.order
        child.face_ids = tuple(f for f in self.face_ids if f != fid)
        child._face_set = self._face_set - {fid}
        child.weights = weights
        return child

    def __repr__(self):
        return (f"BasisGraph({self.g.name!r}, edges={len(self.weights)}, "
                f"faces={len(self.face_ids)})")


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

