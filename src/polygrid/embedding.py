"""Planar embedding model, `.pgg` parsing, face tracing and cycle algebra.

A graph is given as a straight-line plane drawing on integer coordinates.
A `PlanarEmbedding` holds its `coords` and `edges`, the `rotation` (each
vertex's neighbours in counterclockwise angular order as a tuple, the
one neighbour map) and the incident-edge masks, the one edge index,
which `edge_id`, `trace_faces` and `BasisGraph` read.  Every drawing is
checked for planarity except a set of unit cells, which
`PlanarEmbedding._from_unit_cells` builds planar by construction; graphs
built there with one interning table share their equal point, edge and
rotation tuples, while each keeps its own dicts.  A drawing whose edges
are all unit axis-parallel segments, a grid graph, needs no segment
test: the check files each edge in one of four direction slots, east,
north, west or south, at each end, and reads the rotation off the slots
in that order.  Any other drawing, or one with two edges in one slot,
goes through the general check, which files each edge under both ends by
one exact direction key; sorting those keys gives the rotation and finds
edges that overlap at a common vertex, and segment pairs in shared grid
cells are tested only for edges with no common endpoint, so a scaled
lattice, whose cells each hold the edges of one vertex, tests none.
Faces are traced by following each dart to the next one in the rotation,
and a `FaceBasis` keeps per-edge and per-vertex face indexes, the latter
as bitsets.  Cycles are GF(2) vectors over edge ids represented as
frozensets.  One walk along an edge set's bitset, `_cycles`, answers
every question about it: `is_hamilton_cycle`, `classify_edge_set`,
`cycle_vertex_walk` and `enclosed_faces` all read its cycles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from . import geometry

EdgeSet = FrozenSet[int]


class PggParseError(ValueError):
    """Parse or validation failure for a `.pgg` input, with a line number,
    or with the index of the offending edge when the drawing is checked
    apart from its text."""

    def __init__(self, message: str, line: Optional[int] = None,
                 edge: Optional[int] = None):
        self.line = line
        self.edge = edge
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
        self._link(self._validate())

    @classmethod
    def _from_unit_cells(cls, cells: Iterable[Tuple[int, int]], name: str,
                         shared: Optional[Dict[tuple, tuple]] = None
                         ) -> "PlanarEmbedding":
        """The lattice graph of a set of unit cells, built without the
        planarity check and its direction sort.

        Vertices are the cell corners, numbered in sorted point order, and
        edges the cell sides as ascending (i, j) pairs in sorted order.
        One pass over the points emits the sides and files each under its
        kind: an up side from i is the edge to i + 1, an across side the
        pair (i, j) with j to the east.  Unit axis-parallel sides meet only
        at corners, so the drawing is planar, and a vertex has at most one
        neighbour each way.  Its rotation is therefore filled by four
        passes over the two side lists, east (across, from i), north (up,
        from i), west (across, from j) and south (up, from i + 1), the
        order of the direction keys in `_check_planarity`.  The result
        equals `PlanarEmbedding(g.coords, g.edges)`.

        `shared`, when given, interns the point, edge and rotation tuples:
        each is replaced by the equal tuple already in it, or added, so
        graphs built with one table refer to one object per distinct
        tuple.  Tuples are immutable, so sharing them changes no graph.
        """
        cells = {(x, y) for x, y in cells}
        # (x, y) is in `across` when the side to (x + 1, y) exists (a cell
        # above or below it), and in `up` when the side to (x, y + 1) does
        # (a cell to its right or left).
        across = cells | {(x, y + 1) for x, y in cells}
        up = cells | {(x + 1, y) for x, y in cells}
        points = sorted(across | up | {(x + 1, y + 1) for x, y in cells})
        ids = {p: i for i, p in enumerate(points)}
        edges: List[Tuple[int, int]] = []
        up_sides: List[int] = []
        across_sides: List[Tuple[int, int]] = []
        for i, p in enumerate(points):
            # (x, y + 1) is the next point after p = (x, y), and (x + 1, y)
            # comes later still, so edges come out sorted.
            if p in up:
                up_sides.append(i)
                edges.append((i, i + 1))
            if p in across:
                side = (i, ids[(p[0] + 1, p[1])])
                across_sides.append(side)
                edges.append(side)
        rot: List[List[int]] = [[] for _ in points]
        for i, j in across_sides:
            rot[i].append(j)
        for i in up_sides:
            rot[i].append(i + 1)
        for i, j in across_sides:
            rot[j].append(i)
        for i in up_sides:
            rot[i + 1].append(i)
        rotation: Iterable[Tuple[int, ...]] = map(tuple, rot)
        if shared is not None:
            keep = shared.setdefault
            points = [keep(p, p) for p in points]
            edges = [keep(e, e) for e in edges]
            rotation = [keep(r, r) for r in rotation]
        g = cls.__new__(cls)
        g.name = name
        g.coords = dict(enumerate(points))
        g.edges = tuple(edges)
        g._link(dict(enumerate(rotation)))
        return g

    # -- construction helpers ------------------------------------------------

    def _link(self, rotation: Dict[int, Tuple[int, ...]]):
        """Store `rotation`, the one neighbour map (each vertex's
        neighbours in counterclockwise order), and reject an empty or
        disconnected graph."""
        if not self.coords:
            raise PggParseError("empty graph")
        if len(reach(rotation, next(iter(self.coords)))) != len(self.coords):
            raise PggParseError("graph is disconnected")
        self.rotation = rotation

    def _validate(self) -> Dict[int, Tuple[int, ...]]:
        """Check the drawing: known endpoints, no self-loop, duplicate edge
        or shared position, and planarity; return the rotation.  An error
        about one edge names its index as `edge`; unknown endpoints are
        reported before any self-loop or duplicate."""
        coords = self.coords
        for i, (u, v) in enumerate(self.edges):
            if u not in coords or v not in coords:
                raise PggParseError(
                    f"unknown vertex {v if u in coords else u}", edge=i)
        seen = set()
        for i, (u, v) in enumerate(self.edges):
            if u == v:
                raise PggParseError(f"self-loop at vertex {u}", edge=i)
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise PggParseError(f"duplicate edge {u} {v}", edge=i)
            seen.add(key)
        positions = {}
        for vid, p in coords.items():
            if p in positions:
                raise PggParseError(
                    f"vertices {positions[p]} and {vid} share position {p}")
            positions[p] = vid
        return self._check_planarity()

    def _check_planarity(self) -> Dict[int, Tuple[int, ...]]:
        """Reject overlapping or crossing edges and vertices on foreign
        edges; return the rotation.

        A unit lattice drawing, every edge a unit axis-parallel segment
        (|dx| + |dy| == 1), takes `_unit_rotation`: each edge is filed in
        one of four direction slots, east, north, west or south, at each
        end, and the rotation is read off the slots.  That is exact.  Two
        distinct unit lattice segments meet only at a shared endpoint, and
        no unit segment has a lattice point in its interior, so such a
        drawing has no crossing, overlap or vertex on a foreign edge to
        find.  E, N, W, S is the order the direction keys below sort to,
        and the rotation keeps the order of `coords`, with tuple values,
        so it is the one the general check returns.  Any other edge, or
        two edges leaving one vertex in the same slot, sends the drawing
        through the general check unchanged; a shared slot needs a
        repeated edge or a shared position, which `_validate` rejects
        first.

        Each edge is filed under both ends by the exact key of its
        direction there, counterclockwise from east: `(0, 0)` east,
        `(1, -dx/dy)` for dy > 0, `(2, 0)` west and `(3, -dx/dy)` for
        dy < 0, the slope a `Fraction`, or the int 0 for a vertical edge,
        which sorts and compares as `Fraction(0)` does.  Sorting a
        vertex's entries by key and edge index gives its rotation.
        Positions are distinct, so two edges at a common vertex overlap
        exactly when they leave it on the same key, and the first two
        entries of a run of equal keys are its smallest (i, j).

        Edges are filed into square cells whose side is the longest edge
        extent, so each segment's bounding box touches at most four cells,
        those of its corners, and only the two cells of its ends when
        these share a row or a column (an axis-parallel edge, say).  The
        candidate pairs are collected cell by cell: the pairs of edges
        with no common endpoint.  The sorted pairs are tested until one
        crosses or passes the smallest overlap, and the smaller of the two
        is reported.  Then each vertex, in the order of `coords`, is tested
        against the edges of its own cell that do not end at it, in edge
        order, so the first error is the one a scan of all pairs would
        report.
        """
        edges = self.edges
        rotation = _unit_rotation(self.coords, edges)
        if rotation is not None:
            return rotation
        segs = [(self.coords[u], self.coords[v]) for u, v in edges]
        leaving: Dict[int, List[tuple]] = {v: [] for v in self.coords}
        side = 1            # the longest edge extent, at least 1
        for i, ((u, v), (a, b)) in enumerate(zip(edges, segs)):
            dx, dy = b[0] - a[0], b[1] - a[1]
            if dx > side or -dx > side or dy > side or -dy > side:
                side = max(dx, -dx, dy, -dy)
            if dy:
                half = 1 if dy > 0 else 3
                slope = Fraction(-dx, dy) if dx else 0
            else:
                half, slope = (0 if dx > 0 else 2), 0
            leaving[u].append(((half, slope), i, v))
            leaving[v].append((((half + 2) % 4, slope), i, u))
        best = None
        for entries in leaving.values():
            entries.sort()
            for (key, i, _), (key2, j, _) in zip(entries, entries[1:]):
                if key == key2 and (best is None or (i, j) < best):
                    best = (i, j)
        cell_of = {vid: (x // side, y // side)
                   for vid, (x, y) in self.coords.items()}
        cells: Dict[Tuple[int, int], List[int]] = {}
        for i, (u, v) in enumerate(edges):
            # No extent exceeds the side, so the box spans at most two
            # cells a way: those of the corners, which are the two end
            # cells when these share a row or a column.
            cu, cv = cell_of[u], cell_of[v]
            if cu == cv:
                touched = (cu,)
            elif cu[0] == cv[0] or cu[1] == cv[1]:
                touched = (cu, cv)
            else:
                touched = (cu, cv, (cu[0], cv[1]), (cv[0], cu[1]))
            for cell in touched:
                cells.setdefault(cell, []).append(i)
        pairs: Set[Tuple[int, int]] = set()
        for members in cells.values():
            for k, i in enumerate(members):
                u, v = edges[i]
                for j in members[k + 1:]:
                    if u not in edges[j] and v not in edges[j]:
                        pairs.add((i, j))
        for i, j in sorted(pairs):
            if best is not None and (i, j) > best:
                break
            if geometry.segments_cross(*segs[i], *segs[j]):
                best = (i, j)
                break
        if best is not None:
            i, j = best
            raise PggParseError(f"edges {edges[i]} and {edges[j]} cross")
        # A vertex sitting in the interior of an unrelated edge also breaks
        # the drawing even though no two segments cross.
        for vid, p in self.coords.items():
            for i in cells.get(cell_of[vid], ()):
                u, v = edges[i]
                if vid in (u, v):
                    continue
                if geometry.on_segment(p, *segs[i]):
                    raise PggParseError(
                        f"vertex {vid} lies on edge {u} {v}")
        return {v: tuple([w for _, _, w in entries])
                for v, entries in leaving.items()}

    # -- basic queries -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coords)

    @property
    def size(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def edge_id(self, u: int, v: int) -> int:
        """The id of edge uv, the one bit the incident-edge masks of two
        distinct ends share in a simple graph; KeyError if there is none."""
        masks = self.incident_edge_masks
        shared = masks[u] & masks[v] if u != v else 0
        if not shared:
            raise KeyError((u, v))
        return shared.bit_length() - 1

    @functools.cached_property
    def incident_edge_masks(self) -> Dict[int, int]:
        """The edges at each vertex as a bitset: bit i is edge i."""
        out = dict.fromkeys(self.coords, 0)
        for eid, (u, v) in enumerate(self.edges):
            out[u] |= 1 << eid
            out[v] |= 1 << eid
        return out

    def __repr__(self):
        return (f"PlanarEmbedding({self.name!r}, |V|={self.order}, "
                f"|E|={self.size})")


# The direction slot of a unit axis-parallel edge, by its (dx, dy):
# east, north, west and south, counterclockwise from east.
_UNIT_SLOTS = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


def _unit_rotation(coords: Mapping[int, Tuple[int, int]],
                   edges: Sequence[Tuple[int, int]]
                   ) -> Optional[Dict[int, Tuple[int, ...]]]:
    """The rotation of a drawing whose edges are all unit axis-parallel
    segments, or None for any other (see `_check_planarity`).

    Each edge is filed in its direction slot at one end and in the
    opposite slot at the other.  The first edge that is not such a
    segment, or that finds its slot at either end taken, gives None.
    """
    slots = {v: [None, None, None, None] for v in coords}
    slot_of = _UNIT_SLOTS.get
    for u, v in edges:
        (x, y), (x2, y2) = coords[u], coords[v]
        s = slot_of((x2 - x, y2 - y))
        if s is None:
            return None
        at_u, at_v = slots[u], slots[v]
        if at_u[s] is not None or at_v[s ^ 2] is not None:
            return None
        at_u[s] = v
        at_v[s ^ 2] = u     # s ^ 2 is the opposite slot
    return {v: tuple([w for w in ws if w is not None])
            for v, ws in slots.items()}


# -- parsing -----------------------------------------------------------------

def parse_pgg(text: str) -> PlanarEmbedding:
    """Parse the line-oriented `.pgg` format into a validated embedding.

    Each line is split once on whitespace, after cutting a `#` comment
    when the line holds one."""
    name = None
    coords: Dict[int, Tuple[int, int]] = {}
    edges: List[Tuple[int, int]] = []
    edge_lines: List[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
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
                vid, x, y = int(parts[1]), int(parts[2]), int(parts[3])
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
    try:
        return PlanarEmbedding(coords, edges, name=name)
    except PggParseError as exc:
        if exc.edge is None:
            raise
        raise PggParseError(str(exc), edge_lines[exc.edge]) from None
    except ValueError as exc:
        raise PggParseError(str(exc))


def check_pgg_name(name: str) -> None:
    """ValueError unless `write_pgg` can write name: `parse_pgg` reads it
    as one whitespace-free token before any `#`."""
    if not name or any(c.isspace() or c == "#" for c in name):
        raise ValueError(f"graph name {name!r} cannot be written to .pgg "
                         f"(empty, or holds whitespace or '#')")


def write_pgg(g: PlanarEmbedding) -> str:
    check_pgg_name(g.name)
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

    def face_ids(self) -> Tuple[int, ...]:
        return tuple(range(len(self.faces)))

    @functools.cached_property
    def edge_masks(self) -> Tuple[int, ...]:
        """The edges of each face as a bitset: bit i is edge i."""
        return tuple(sum(1 << eid for eid in face.edges)
                     for face in self.faces)

    @functools.cached_property
    def vertex_face_masks(self) -> Dict[int, int]:
        """The faces on each vertex as a bitset: bit i is face i.  A vertex
        on no bounded face has no entry."""
        out: Dict[int, int] = {}
        get = out.get
        for fid, face in enumerate(self.faces):
            bit = 1 << fid
            for v in face.cycle:
                out[v] = get(v, 0) | bit
        return out

    @functools.cached_property
    def edge_face_ids(self) -> Dict[int, Tuple[int, ...]]:
        """Ids of the faces on each edge, ascending: two on an inner edge,
        one on an outer edge and none on a bridge."""
        out: Dict[int, List[int]] = {eid: [] for eid in self.outer_edges}
        for fid, face in enumerate(self.faces):
            for eid in face.edges:
                out.setdefault(eid, []).append(fid)
        return {eid: tuple(fids) for eid, fids in out.items()}

    @functools.cached_property
    def edge_neighbour_masks(self) -> Tuple[int, ...]:
        """The other faces sharing an edge with each face, as a bitset:
        the two faces of each inner edge, since no edge lies on more."""
        out = [0] * len(self.faces)
        for fids in self.edge_face_ids.values():
            if len(fids) == 2:
                a, b = fids
                out[a] |= 1 << b
                out[b] |= 1 << a
        return tuple(out)


def trace_faces(g: PlanarEmbedding) -> FaceBasis:
    """Trace all faces by rotation-system walking.

    The dart u->v is followed by v->w, where w comes just before u in
    `rotation[v]`; one map takes each dart to that w and to its edge id,
    read from the incident-edge masks.  Orbits start from the darts in
    sorted order, and each traces the face on the left of its darts, so
    bounded faces come out as counterclockwise simple cycles.  The outer
    face is the orbit through the dart from the lowest-then-leftmost
    vertex to the last neighbour in its rotation, and is kept aside: all
    of that vertex's neighbours lie in directions from 0 up to but not
    including 180 degrees, so the face left of that dart holds the
    directions below the vertex, which are outside every bounded face.
    The basis size always equals |E| - |V| + 1, and a tree, which has no
    bounded face, is rejected before tracing.
    """
    expected = g.size - g.order + 1
    if expected == 0:
        raise EmbeddingError("graph has no bounded face")
    masks = g.incident_edge_masks
    step: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for v, rot in g.rotation.items():
        for k, u in enumerate(rot):
            step[u, v] = rot[k - 1], (masks[u] & masks[v]).bit_length() - 1
    low = min((y, x, v) for v, (x, y) in g.coords.items())[2]
    outer_dart = (low, g.rotation[low][-1])
    bounded: List[Face] = []
    outer = outer_edges = None
    for dart in sorted(step):
        if dart not in step:
            continue
        walk: List[int] = []
        edge_ids: List[int] = []
        u, v = dart
        while (u, v) in step:
            w, eid = step.pop((u, v))
            walk.append(u)
            edge_ids.append(eid)
            u, v = v, w
        if outer is None and outer_dart not in step:
            outer, outer_edges = walk, edge_ids
            continue
        if len(set(walk)) != len(walk):
            raise EmbeddingError(
                f"bounded face walk revisits a vertex: {walk}")
        bounded.append(Face(edges=frozenset(edge_ids), cycle=tuple(walk)))
    if len(bounded) != expected:
        raise EmbeddingError(
            f"traced {len(bounded)} bounded faces, expected {expected}")
    return FaceBasis(faces=tuple(bounded), outer_edges=frozenset(outer_edges),
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

def bit_ids(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def components(adj: Mapping[int, Iterable[int]]) -> List[Tuple[int, ...]]:
    """Connected components of adj, each ascending, ordered by their
    smallest vertex."""
    seen: Set[int] = set()
    comps = []
    for start in sorted(adj):
        if start not in seen:
            comp = reach(adj, start)
            seen |= comp
            comps.append(tuple(sorted(comp)))
    return comps


# -- cycle classification ----------------------------------------------------

@dataclass(frozen=True)
class CycleClass:
    tag: str                    # "empty" | "single-cycle" | "disjoint-cycles" | "other"
    length: int = 0             # cycle length when tag == "single-cycle"
    count: int = 0              # component count when tag == "disjoint-cycles"


def _edge_mask(e: EdgeSet, g: PlanarEmbedding) -> int:
    """The edges of e as a bitset; ValueError when an id in e is not an
    edge id of g (a negative one included)."""
    size = g.size
    mask = 0
    for eid in e:
        if not 0 <= eid < size:
            raise ValueError(f"{eid} is not an edge id of {g.name}")
        mask |= 1 << eid
    return mask


def _cycles(mask: int, g: PlanarEmbedding) -> Optional[List[List[int]]]:
    """The cycles the edges of mask form, each as its vertex walk, or None
    when a vertex they touch does not have exactly two of them.

    Each walk starts at the first end of the lowest edge not yet walked,
    leaves it by that edge, and at each vertex it reaches takes the edge
    of mask not yet walked, until it is back at its start.  A vertex with
    two mask edges is entered and left once, so the walk goes once round
    one cycle and finds one edge to take at each vertex, and every edge
    of mask is walked unless a vertex without two of them is met first.
    """
    incident = g.incident_edge_masks
    ends = g.edges
    walks = []
    left = mask
    while left:
        start = v = ends[(left & -left).bit_length() - 1][0]
        walk = []
        while True:
            at = incident[v]
            if (at & mask).bit_count() != 2:
                return None
            walk.append(v)
            out = at & left
            out &= -out
            left ^= out
            a, b = ends[out.bit_length() - 1]
            v = b if a == v else a
            if v == start:
                break
        walks.append(walk)
    return walks


def classify_edge_set(e: EdgeSet, g: PlanarEmbedding) -> CycleClass:
    """Degree-and-connectivity analysis of the subgraph touched by e, read
    from its `_cycles`; ValueError when an id in e is not an edge id of
    g."""
    walks = _cycles(_edge_mask(e, g), g)
    if walks is None:
        return CycleClass("other")
    if not walks:
        return CycleClass("empty")
    if len(walks) == 1:
        return CycleClass("single-cycle", length=len(e))
    return CycleClass("disjoint-cycles", count=len(walks))


def is_hamilton_cycle(e: EdgeSet, g: PlanarEmbedding) -> bool:
    """Whether e is one cycle through every vertex of g; False when any id
    in e is not an edge id of g (a negative one included).

    On the edge mask of e: it must hold |V| edges and form one cycle,
    which then passes every vertex.
    """
    try:
        mask = _edge_mask(e, g)
    except ValueError:
        return False
    if mask.bit_count() != g.order:
        return False
    walks = _cycles(mask, g)
    return walks is not None and len(walks) == 1


def cycle_vertex_walk(e: EdgeSet, g: PlanarEmbedding) -> List[int]:
    """Order the vertices of a single cycle by walking it.

    Starts at the smallest touched vertex, toward its smaller neighbour;
    deterministic for golden output.  ValueError when e is not one cycle.
    """
    walks = _cycles(_edge_mask(e, g), g)
    if walks is None or len(walks) != 1:
        raise ValueError("edge set is not a single cycle")
    walk = walks[0]
    k = walk.index(min(walk))
    walk = walk[k:] + walk[:k]
    if walk[-1] < walk[1]:
        walk[1:] = walk[:0:-1]
    return walk


def enclosed_faces(c: EdgeSet, basis: FaceBasis,
                   g: PlanarEmbedding) -> FrozenSet[int]:
    """Indices of bounded faces lying strictly inside the single cycle c.

    c is read by `classify_edge_set`: anything but one cycle is a
    ValueError with its tag, and so is an id that is not an edge id of g.
    Then a parity fill over the faces: the outer face is outside, and
    stepping across an edge to a neighbouring face switches between
    inside and outside exactly when the edge lies on c.
    """
    tag = classify_edge_set(c, g).tag
    if tag != "single-cycle":
        raise ValueError(f"edge set is not a single cycle: {tag}")
    edge_faces = basis.edge_face_ids
    inside: Dict[int, bool] = {}
    stack: List[int] = []
    for eid in basis.outer_edges:
        for fid in edge_faces[eid]:
            if fid not in inside:
                inside[fid] = eid in c
                stack.append(fid)
    while stack:
        fid = stack.pop()
        for eid in basis.faces[fid].edges:
            for other in edge_faces[eid]:
                if other not in inside:
                    inside[other] = inside[fid] != (eid in c)
                    stack.append(other)
    return frozenset(fid for fid, flag in inside.items() if flag)
