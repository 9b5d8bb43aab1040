"""Grinberg-equation construction, feasibility solving and verification.

The equation over the bounded-face basis reads

    sum(i * f_i) - 2 * (sum(f_i) - 1) = |V|

for the faces chosen inside, equivalently sum(i - 2) over inside faces
= |V| - 2.  Feasibility is a subset-sum problem over the per-face values
(i - 2), solved by dynamic programming with deterministic lexicographic
enumeration of solutions.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from .embedding import (EdgeSet, FaceBasis, PlanarEmbedding, enclosed_faces,
                        is_hamilton_cycle)
from .structure import BasisGraph


@dataclass(frozen=True)
class GrinbergEquation:
    face_ids: Tuple[int, ...]
    lengths: Tuple[int, ...]       # aligned with face_ids
    order: int                     # |V|

    def __post_init__(self):
        if self.lengths and min(self.lengths) < 3:
            raise ValueError("face lengths must be >= 3")
        if len(self.face_ids) != len(self.lengths):
            raise ValueError("face_ids and lengths must align")

    @property
    def target(self) -> int:
        return self.order - 2

    @functools.cached_property
    def values(self) -> Tuple[int, ...]:
        return tuple(l - 2 for l in self.lengths)

    @classmethod
    def from_lengths(cls, lengths: Sequence[int],
                     order: int) -> "GrinbergEquation":
        return cls(tuple(range(len(lengths))), tuple(lengths), order)


@dataclass(frozen=True)
class GrinbergPartition:
    inside: FrozenSet[int]
    outside: FrozenSet[int]


@dataclass(frozen=True)
class BetaReport:
    pairwise_violations: Tuple[Tuple[int, int, int], ...]   # (i, j, |Vi & Vj|)
    higher_order_violations: Tuple[Tuple[Tuple[int, ...], int], ...]
    pair_sum: int                  # sum of |Vi & Vj| over pairs with size 2
    beta: int                      # signed inclusion-exclusion correction
    beta_zero: bool
    pair_sum_expected: int         # 2 * (|f| - 1), equation (3.4)

    @property
    def pair_sum_ok(self) -> bool:
        return self.pair_sum == self.pair_sum_expected


@dataclass(frozen=True)
class GrinbergCheck:
    inside_faces: FrozenSet[int]
    inside_residual: int           # sum(i-2) inside minus (|V| - 2)
    full_residual: int             # two-sided identity incl. the outer face

    @property
    def ok(self) -> bool:
        return self.inside_residual == 0 and self.full_residual == 0


# -- construction ------------------------------------------------------------

def equation_of(basis: FaceBasis, g: PlanarEmbedding) -> GrinbergEquation:
    bg = BasisGraph(g, basis)
    return equation_of_graph(bg)


def equation_of_graph(bg: BasisGraph) -> GrinbergEquation:
    """The equation of the graph's surviving faces.

    It skips `GrinbergEquation`'s checks, which the hole search would
    otherwise run on every residual: a `BasisGraph`'s faces are traced
    cycles of a simple graph, so each has at least 3 sides, and its
    `face_ids` and `lengths` are built and sliced together.
    """
    eq = object.__new__(GrinbergEquation)
    fields = eq.__dict__
    fields["face_ids"], fields["lengths"], fields["order"] = (
        bg.face_ids, bg.lengths, bg.order)
    return eq


def format_equation(eq: GrinbergEquation) -> str:
    """Render in the sum(i f_i) - 2(sum f_i - 1) = |V| shape, grouped by
    face length in descending order."""
    counts = Counter(eq.lengths)
    sizes = sorted(counts, reverse=True)
    lhs = " + ".join(f"{i}f{i}" for i in sizes)
    inner = " + ".join(f"f{i}" for i in sizes)
    return f"{lhs} - 2({inner} - 1) = {eq.order}"


# -- solving -----------------------------------------------------------------

def _suffix_reachable(values: Sequence[int], target: int) -> List[int]:
    """reach[j] has bit s set when some subset of values[j:] sums to
    s <= target; requires target >= 0."""
    mask = (1 << (target + 1)) - 1
    reach = [0] * len(values) + [1]
    for j in range(len(values) - 1, -1, -1):
        nxt = reach[j + 1]
        reach[j] = (nxt | (nxt << values[j])) & mask
    return reach


def solvable(eq: GrinbergEquation) -> bool:
    """Whether some subset of the face values sums to the target, by one
    fold over the lengths; subset sums do not depend on the order of the
    faces, so it agrees with `solve`'s suffix table.  It skips the cached
    `values`, whose first read takes a lock on CPython 3.11."""
    target = eq.target
    if target <= 0:
        return False
    mask = (1 << (target + 1)) - 1
    reach = 1
    for length in eq.lengths:
        reach = (reach | reach << (length - 2)) & mask
    return bool(reach >> target & 1)


def partitions(eq: GrinbergEquation) -> Iterator[GrinbergPartition]:
    """Every inside/outside partition satisfying the equation, drawn
    lazily in lexicographic order of the chosen face-index tuples; none
    when the equation is infeasible.
    """
    values = eq.values
    target = eq.target
    if target <= 0:
        return
    n = len(values)
    reach = _suffix_reachable(values, target)
    if not reach[0] >> target & 1:
        return
    everything = frozenset(eq.face_ids)

    # Depth-first on an explicit stack, so a long equation cannot exhaust
    # the recursion limit; taking values[j] is pushed last, so it is
    # explored before skipping it and the order stays lexicographic.
    stack = [(0, target, ())]
    while stack:
        j, remaining, chosen = stack.pop()
        if remaining == 0:
            inside = frozenset(eq.face_ids[k] for k in chosen)
            yield GrinbergPartition(inside, everything - inside)
            continue
        if j == n or not reach[j] >> remaining & 1:
            continue
        stack.append((j + 1, remaining, chosen))
        rest = remaining - values[j]
        if rest >= 0 and reach[j + 1] >> rest & 1:
            stack.append((j + 1, rest, chosen + (j,)))


def solve(eq: GrinbergEquation, limit: int = 64) -> List[GrinbergPartition]:
    """The first `limit` of `partitions(eq)`, as a list; an empty result
    means the equation is infeasible.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return list(islice(partitions(eq), limit))


def count_solutions(eq: GrinbergEquation) -> int:
    """Exact number of satisfying subsets, by positional DP."""
    if eq.target <= 0:
        return 0
    counts: Dict[int, int] = {0: 1}
    for v in eq.values:
        nxt = dict(counts)
        for s, c in counts.items():
            if s + v <= eq.target:
                nxt[s + v] = nxt.get(s + v, 0) + c
        counts = nxt
    return counts.get(eq.target, 0)


# -- verification against the theorem ---------------------------------------

def check_prop_3_1(subset: FrozenSet[int], basis: FaceBasis,
                   g: PlanarEmbedding) -> BetaReport:
    """Vertex-intersection audit of a candidate Hamiltonian face subset.

    Pairwise intersections of size other than 0 or 2 and vertices shared by
    three or more faces are reported individually; beta itself is recovered
    exactly from |union V| = sum|Vi| - pairSum + beta.
    """
    if not subset:
        raise ValueError("subset must be non-empty")
    fids = sorted(subset)
    vsets = {fid: basis.faces[fid].vertices for fid in fids}
    pair_sum = 0
    pairwise = []
    for a_idx in range(len(fids)):
        for b_idx in range(a_idx + 1, len(fids)):
            i, j = fids[a_idx], fids[b_idx]
            size = len(vsets[i] & vsets[j])
            if size == 2:
                pair_sum += 2
            elif size != 0:
                pairwise.append((i, j, size))
    multiplicity: Dict[int, List[int]] = {}
    for fid in fids:
        for v in vsets[fid]:
            multiplicity.setdefault(v, []).append(fid)
    higher = tuple(
        (tuple(fs), v)
        for v, fs in sorted(multiplicity.items())
        if len(fs) >= 3)
    union_size = len(multiplicity)
    total = sum(len(vsets[fid]) for fid in fids)
    beta = union_size - total + pair_sum
    return BetaReport(
        pairwise_violations=tuple(pairwise),
        higher_order_violations=higher,
        pair_sum=pair_sum,
        beta=beta,
        beta_zero=(beta == 0),
        pair_sum_expected=2 * (len(fids) - 1))


def verify_grinberg_identity(h: EdgeSet, basis: FaceBasis,
                             g: PlanarEmbedding) -> GrinbergCheck:
    """Partition the bounded faces by a concrete Hamilton cycle and check
    both forms of the identity exactly."""
    if not is_hamilton_cycle(h, g):
        raise ValueError("edge set is not a Hamilton cycle of the graph")
    inside = enclosed_faces(h, basis, g)
    inside_sum = sum(basis.faces[fid].length - 2 for fid in inside)
    inside_residual = inside_sum - (g.order - 2)
    outside_sum = sum(
        basis.faces[fid].length - 2
        for fid in range(len(basis.faces)) if fid not in inside)
    outer_len = len(basis.outer_walk)
    full_residual = inside_sum - outside_sum - (outer_len - 2)
    return GrinbergCheck(inside, inside_residual, full_residual)


# -- worked fixtures from the Tutte-graph reduction --------------------------

def tutte_reduced_equation() -> GrinbergEquation:
    """Three 25-cycles lapped over each other; 46 vertices."""
    return GrinbergEquation.from_lengths((25, 25, 25), 46)


def tutte_subbasis_equation() -> GrinbergEquation:
    """One independent subbasis of the Tutte graph: 25 vertices, 8 faces
    with one 10-gon, one pentagon and six quadrilaterals.

    The multiset is pinned by the printed equation shape plus Euler's
    formula and the handshake over face lengths for a 25-vertex subbasis
    with a 25-edge perimeter.
    """
    return GrinbergEquation.from_lengths((10, 5, 4, 4, 4, 4, 4, 4), 25)
