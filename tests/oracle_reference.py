"""A reference Hamilton oracle for the tests to compare the library's
search against."""

from typing import Dict, List, Optional, Set

from polygrid.embedding import PlanarEmbedding
from polygrid.oracle import OracleResult


class _Budget(Exception):
    pass


def set_reference_oracle(g: PlanarEmbedding,
                         budget: int = 10 ** 6) -> OracleResult:
    """The oracle's search on sets and lists, rechecking every unvisited
    vertex at every node: the reference the bitset search must match node
    for node."""
    n = g.order
    vertices = sorted(g.coords)
    if n < 3 or any(g.degree(v) < 2 for v in vertices):
        return OracleResult(None, 0, False)
    adj = {v: sorted(g.rotation[v]) for v in vertices}
    forced: Dict[int, Set[int]] = {v: set() for v in vertices}
    for v in vertices:
        if len(adj[v]) == 2:
            for w in adj[v]:
                forced[v].add(w)
                forced[w].add(v)
    if any(len(f) > 2 for f in forced.values()):
        return OracleResult(None, 0, False)
    start = vertices[0]
    nodes = 0

    def reachable_ok(current: int, visited: Set[int]) -> bool:
        unvisited = [v for v in vertices if v not in visited]
        if not unvisited:
            return True
        allowed = set(unvisited) | {current, start}
        seen = {current}
        stack = [current]
        while stack:
            for w in adj[stack.pop()]:
                if w in allowed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if any(v not in seen for v in unvisited) or start not in seen:
            return False
        for v in unvisited:
            free = sum(1 for w in adj[v]
                       if w not in visited or w in (current, start))
            if free < 2:
                return False
        return True

    def extend(current: int, visited: Set[int],
               path: List[int]) -> Optional[List[int]]:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _Budget
        if len(path) == n:
            return path if start in adj[current] else None
        must = sorted(w for w in forced[current] if w not in visited)
        candidates = must if must else adj[current]
        for w in candidates:
            if w in visited:
                continue
            visited.add(w)
            path.append(w)
            if reachable_ok(w, visited):
                result = extend(w, visited, path)
                if result is not None:
                    return result
            path.pop()
            visited.remove(w)
        return None

    try:
        found = extend(start, {start}, [start])
    except _Budget:
        return OracleResult(None, nodes, True)
    if found is None:
        return OracleResult(None, nodes, False)
    return OracleResult(frozenset(
        g.edge_id(found[i], found[(i + 1) % n]) for i in range(n)),
        nodes, False)
