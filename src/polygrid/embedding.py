"""Planar embedding model, `.pgg` parsing, face tracing and cycle algebra.

A graph is given as a straight-line plane drawing on integer coordinates.
The rotation system is derived from the geometry (counterclockwise angular
order of neighbours), faces are traced by next-edge-in-rotation walking,
and cycles are GF(2) vectors over edge ids represented as frozensets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from . import geometry

EdgeSet = FrozenSet[int]

EMPTY_EDGESET: EdgeSet = frozenset()


class PggParseError(ValueError):
    """Parse or validation failure for a `.pgg` input, with a line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmbeddingError(ValueError):
    """The drawing is valid but is not a polygon-tiling plane graph."""


class PlanarEmbedding:
    """A connected simple plane graph drawn with straight integer-coordinate
    edges.  Immutable after construction."""

    def __init__(self, coords: Dict[int, Tuple[int, int]],
                 edges: Sequence[Tuple[int, int]], name: str = "graph"):
        self.name = name
        self.coords = dict(coords)
        self.edges = tuple((u, v) for u, v in edges)
        self._validate()
        self.adjacency: Dict[int, List[int]] = {v: [] for v in self.coords}
        for u, v in self.edges:
            self.adjacency[u].append(v)
            self.adjacency[v].append(u)
        # Rotation: neighbours in counterclockwise angular order.
        self.rotation: Dict[int, List[int]] = {
            v: self._ccw_sort(v, ns) for v, ns in self.adjacency.items()
        }
        self.edge_index: Dict[Tuple[int, int], int] = {}
        for i, (u, v) in enumerate(self.edges):
            self.edge_index[(u, v)] = i
            self.edge_index[(v, u)] = i

    # -- construction helpers ------------------------------------------------

    def _validate(self):
        seen = set()
        for u, v in self.edges:
            if u not in self.coords:
                raise PggParseError(f"unknown vertex {u}")
            if v not in self.coords:
                raise PggParseError(f"unknown vertex {v}")
            if u == v:
                raise PggParseError(f"self-loop at vertex {u}")
            key = frozenset((u, v))
            if key in seen:
                raise PggParseError(f"duplicate edge {u} {v}")
            seen.add(key)
        positions = {}
        for vid, p in self.coords.items():
            if p in positions:
                raise PggParseError(
                    f"vertices {positions[p]} and {vid} share position {p}")
            positions[p] = vid
        self._check_planarity()
        self._check_connected()

    def _check_planarity(self):
        """Reject crossing edges and vertices on foreign edges.

        Segments are bucketed into square cells whose side is the longest
        edge extent, so each segment's bounding box touches at most four
        cells and only segments sharing a cell are compared.  Pairs are
        tested in ascending (i, j) order, then each vertex, in the order of
        `coords`, against the edges of its own cell in edge order, so the
        first error is the one a scan of all pairs would report.
        """
        segs = [(self.coords[u], self.coords[v]) for u, v in self.edges]
        side = max([1] + [max(abs(a[0] - b[0]), abs(a[1] - b[1]))
                          for a, b in segs])
        cells: Dict[Tuple[int, int], List[int]] = {}
        seg_cells: List[List[Tuple[int, int]]] = []
        for i, (a, b) in enumerate(segs):
            touched = [(cx, cy)
                       for cx in range(min(a[0], b[0]) // side,
                                       max(a[0], b[0]) // side + 1)
                       for cy in range(min(a[1], b[1]) // side,
                                       max(a[1], b[1]) // side + 1)]
            for cell in touched:
                cells.setdefault(cell, []).append(i)
            seg_cells.append(touched)
        for i, (a, b) in enumerate(segs):
            later = sorted({j for cell in seg_cells[i] for j in cells[cell]
                            if j > i})
            for j in later:
                c, d = segs[j]
                if geometry.segments_cross(a, b, c, d):
                    raise PggParseError(
                        f"edges {self.edges[i]} and {self.edges[j]} cross")
        # A vertex sitting in the interior of an unrelated edge also breaks
        # the drawing even though no two segments cross.
        for vid, p in self.coords.items():
            for i in cells.get((p[0] // side, p[1] // side), ()):
                u, v = self.edges[i]
                if vid in (u, v):
                    continue
                if geometry.on_segment(p, *segs[i]):
                    raise PggParseError(
                        f"vertex {vid} lies on edge {u} {v}")

    def _check_connected(self):
        if not self.coords:
            raise PggParseError("empty graph")
        adj: Dict[int, List[int]] = {v: [] for v in self.coords}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        if len(reach(adj, next(iter(self.coords)))) != len(self.coords):
            raise PggParseError("graph is disconnected")

    def _ccw_sort(self, v: int, neighbours: Iterable[int]) -> List[int]:
        ox, oy = self.coords[v]

        def compare(a: int, b: int) -> int:
            ax, ay = self.coords[a]
            bx, by = self.coords[b]
            da = (ax - ox, ay - oy)
            db = (bx - ox, by - oy)
            ha = 0 if (da[1] > 0 or (da[1] == 0 and da[0] > 0)) else 1
            hb = 0 if (db[1] > 0 or (db[1] == 0 and db[0] > 0)) else 1
            if ha != hb:
                return ha - hb
            c = da[0] * db[1] - da[1] * db[0]
            if c > 0:
                return -1
            if c < 0:
                return 1
            return 0

        return sorted(neighbours, key=functools.cmp_to_key(compare))

    # -- basic queries -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coords)

    @property
    def size(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edge_id(self, u: int, v: int) -> int:
        return self.edge_index[(u, v)]

    @functools.cached_property
    def incident_edge_ids(self) -> Dict[int, Tuple[int, ...]]:
        """Ids of the edges at each vertex, ascending."""
        out: Dict[int, List[int]] = {v: [] for v in self.coords}
        for eid, (u, v) in enumerate(self.edges):
            out[u].append(eid)
            out[v].append(eid)
        return {v: tuple(eids) for v, eids in out.items()}

    def __repr__(self):
        return (f"PlanarEmbedding({self.name!r}, |V|={self.order}, "
                f"|E|={self.size})")


# -- parsing -----------------------------------------------------------------

def parse_pgg(text: str) -> PlanarEmbedding:
    """Parse the line-oriented `.pgg` format into a validated embedding."""
    name = None
    coords: Dict[int, Tuple[int, int]] = {}
    edges: List[Tuple[int, int]] = []
    edge_lines: List[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "graph":
            if name is not None:
                raise PggParseError("duplicate graph line", lineno)
            if len(parts) != 2:
                raise PggParseError("expected: graph <name>", lineno)
            name = parts[1]
        elif kind == "vertex":
            if name is None:
                raise PggParseError("graph line must come first", lineno)
            if len(parts) != 4:
                raise PggParseError("expected: vertex <id> <x> <y>", lineno)
            try:
                vid, x, y = (int(p) for p in parts[1:])
            except ValueError:
                raise PggParseError("vertex fields must be integers", lineno)
            if vid in coords:
                raise PggParseError(f"duplicate vertex id {vid}", lineno)
            coords[vid] = (x, y)
        elif kind == "edge":
            if name is None:
                raise PggParseError("graph line must come first", lineno)
            if len(parts) != 3:
                raise PggParseError("expected: edge <u> <v>", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise PggParseError("edge fields must be integers", lineno)
            edges.append((u, v))
            edge_lines.append(lineno)
        else:
            raise PggParseError(f"unknown directive {kind!r}", lineno)
    if name is None:
        raise PggParseError("missing graph line")
    for (u, v), lineno in zip(edges, edge_lines):
        if u not in coords:
            raise PggParseError(f"unknown vertex {u}", lineno)
        if v not in coords:
            raise PggParseError(f"unknown vertex {v}", lineno)
    try:
        return PlanarEmbedding(coords, edges, name=name)
    except PggParseError:
        raise
    except ValueError as exc:
        raise PggParseError(str(exc))


def write_pgg(g: PlanarEmbedding) -> str:
    lines = [f"graph {g.name}"]
    for vid in sorted(g.coords):
        x, y = g.coords[vid]
        lines.append(f"vertex {vid} {x} {y}")
    for u, v in g.edges:
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


# -- faces -------------------------------------------------------------------

@dataclass(frozen=True)
class Face:
    """A bounded face: its edge set and its vertex walk in trace order."""
    edges: EdgeSet
    cycle: Tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.cycle)

    @functools.cached_property
    def vertices(self) -> FrozenSet[int]:
        return frozenset(self.cycle)


@dataclass(frozen=True)
class FaceBasis:
    """The bounded faces of the embedding, the polygon-tiling cycle basis."""
    faces: Tuple[Face, ...]
    outer_edges: EdgeSet
    outer_walk: Tuple[int, ...]

    def __len__(self):
        return len(self.faces)

    def face_ids(self) -> Tuple[int, ...]:
        return tuple(range(len(self.faces)))

    @functools.cached_property
    def vertex_face_ids(self) -> Dict[int, Tuple[int, ...]]:
        """Ids of the faces on each vertex, ascending."""
        out: Dict[int, List[int]] = {}
        for fid, face in enumerate(self.faces):
            for v in face.cycle:
                out.setdefault(v, []).append(fid)
        return {v: tuple(fids) for v, fids in out.items()}


def trace_faces(g: PlanarEmbedding) -> FaceBasis:
    """Trace all faces by rotation-system walking.

    Bounded faces come out as counterclockwise simple cycles; the unique
    clockwise (negative area) orbit is the outer face and is kept aside.
    The basis size always equals |E| - |V| + 1.
    """
    darts = sorted(
        [(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges])
    unused = set(darts)
    orbits: List[List[int]] = []
    for dart in darts:
        if dart not in unused:
            continue
        walk = []
        u, v = dart
        while (u, v) in unused:
            unused.discard((u, v))
            walk.append(u)
            rot = g.rotation[v]
            u, v = v, rot[(rot.index(u) - 1) % len(rot)]
        orbits.append(walk)
    bounded: List[Face] = []
    outer = None
    for walk in orbits:
        poly = [g.coords[w] for w in walk]
        area2 = geometry.signed_area2(poly)
        if area2 < 0:
            if outer is not None:
                raise EmbeddingError("multiple outer faces traced")
            outer = walk
            continue
        if len(set(walk)) != len(walk):
            raise EmbeddingError(
                f"bounded face walk revisits a vertex: {walk}")
        edge_ids = frozenset(
            g.edge_id(walk[i], walk[(i + 1) % len(walk)])
            for i in range(len(walk)))
        bounded.append(Face(edges=edge_ids, cycle=tuple(walk)))
    if outer is None:
        raise EmbeddingError("no outer face traced")
    expected = g.size - g.order + 1
    if len(bounded) != expected:
        raise EmbeddingError(
            f"traced {len(bounded)} bounded faces, expected {expected}")
    outer_edges = frozenset(
        g.edge_id(outer[i], outer[(i + 1) % len(outer)])
        for i in range(len(outer)))
    return FaceBasis(faces=tuple(bounded), outer_edges=outer_edges,
                     outer_walk=tuple(outer))


# -- GF(2) algebra -----------------------------------------------------------

def sym_diff(a: EdgeSet, b: EdgeSet) -> EdgeSet:
    return a ^ b

def sym_diff_all(sets: Iterable[EdgeSet]) -> EdgeSet:
    acc = frozenset()
    for s in sets:
        acc = acc ^ s
    return acc


# -- connectivity ------------------------------------------------------------

def reach(adj: Mapping[int, Iterable[int]], start: int) -> Set[int]:
    """Vertices reachable from start in the graph with adjacency adj."""
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


# -- cycle classification ----------------------------------------------------

@dataclass(frozen=True)
class CycleClass:
    tag: str                    # "empty" | "single-cycle" | "disjoint-cycles" | "other"
    length: int = 0             # cycle length when tag == "single-cycle"
    count: int = 0              # component count when tag == "disjoint-cycles"


def classify_edge_set(e: EdgeSet, g: PlanarEmbedding) -> CycleClass:
    """Degree-and-connectivity analysis of the subgraph touched by e."""
    if not e:
        return CycleClass("empty")
    deg: Dict[int, int] = {}
    adj: Dict[int, List[int]] = {}
    for eid in e:
        u, v = g.edges[eid]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(d != 2 for d in deg.values()):
        return CycleClass("other")
    components = 0
    seen: Set[int] = set()
    for start in adj:
        if start not in seen:
            components += 1
            seen |= reach(adj, start)
    if components == 1:
        return CycleClass("single-cycle", length=len(e))
    return CycleClass("disjoint-cycles", count=components)


def is_hamilton_cycle(e: EdgeSet, g: PlanarEmbedding) -> bool:
    c = classify_edge_set(e, g)
    return c.tag == "single-cycle" and c.length == g.order


def cycle_vertex_walk(e: EdgeSet, g: PlanarEmbedding) -> List[int]:
    """Order the vertices of a single cycle by walking it.

    Starts at the smallest touched vertex, toward its smaller neighbour;
    deterministic for golden output.
    """
    adj: Dict[int, List[int]] = {}
    for eid in e:
        u, v = g.edges[eid]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = min(adj)
    walk = [start]
    prev = None
    cur = start
    while True:
        nxt = min(w for w in adj[cur] if w != prev) if prev is None else next(
            w for w in adj[cur] if w != prev)
        if nxt == start:
            break
        walk.append(nxt)
        prev, cur = cur, nxt
    return walk


def enclosed_faces(c: EdgeSet, basis: FaceBasis,
                   g: PlanarEmbedding) -> FrozenSet[int]:
    """Indices of bounded faces lying strictly inside the single cycle c."""
    cls = classify_edge_set(c, g)
    if cls.tag != "single-cycle":
        raise ValueError(f"edge set is not a single cycle: {cls.tag}")
    walk = cycle_vertex_walk(c, g)
    polygon = [g.coords[v] for v in walk]
    inside = set()
    for idx, face in enumerate(basis.faces):
        rep = geometry.interior_point([g.coords[v] for v in face.cycle])
        if geometry.point_in_polygon(rep, polygon):
            inside.add(idx)
    return frozenset(inside)
