"""Span and count wrappers installed on polygrid's module boundaries.

The tracer replaces module globals that one polygrid module calls in
another (for example ``polygrid.holes.solvable``), the module attributes the
benchmark itself calls (``polygrid.embedding.parse_pgg``), and a few
``BasisGraph`` / ``PlanarEmbedding`` methods.  Nothing under ``src/`` is
edited: ``uninstall`` puts every original back.

A span's self time is its duration minus the time of the spans it caused.
Every span feeds a per-name aggregate (calls, total, self); the first
``SPAN_CAP`` spans are also kept in memory as flat integer records and are
written out by ``dump``.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from polygrid import embedding, grinberg, holes, oracle, structure, subbases

LAYERS = ("embedding", "structure", "grinberg", "holes", "subbases", "oracle")

SPAN_FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "request")
SPAN_CAP = 200_000          # spans kept for the dump; aggregates count all


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.aggregate: Dict[str, List[int]] = {}   # name -> [calls, total_ns, self_ns]
        self.counts: Counter = Counter()
        self.stack: List[List[int]] = []            # [span id, child ns]
        self.spans = array("q")
        self.dropped = 0
        self.next_id = 0
        self.request = -1      # index of the graph being run; -1 in set-up
        self.root_ns = 0
        self._patches: List[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span; `after(counts, args, result)` adds counters."""
        if name not in self.aggregate:
            self.aggregate[name] = [0, 0, 0]
            self.names.append(name)
        stat = self.aggregate[name]
        name_idx = self.names.index(name)
        stack = self.stack
        counts = self.counts
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if failed:
                    counts[name + ".errors"] += 1
                    counts[name + ".error_ns"] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.root_ns += duration
                if len(tracer.spans) < SPAN_CAP * len(SPAN_FIELDS):
                    tracer.spans.extend(
                        (span_id, parent, name_idx, start, end, tracer.request))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def patch(self, target, attr: str, wrapper: Callable) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, wrapper)

    def install(self) -> None:
        for targets, attr, name, after in _SPANS:
            for target in targets:
                self.patch(target, attr,
                           self.span(name, getattr(target, attr), after))
        for target, attr, name in _COUNTERS:
            self.patch(target, attr, self.counter(name, getattr(target, attr)))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- reporting -----------------------------------------------------------

    def self_ns(self, name: str) -> int:
        return self.aggregate.get(name, (0, 0, 0))[2]

    def calls(self, name: str) -> int:
        return self.aggregate.get(name, (0, 0, 0))[0]

    def snapshot(self) -> Tuple[Dict[str, List[int]], Dict[str, int]]:
        return ({k: list(v) for k, v in self.aggregate.items()},
                dict(self.counts))

    def dump(self, path) -> None:
        """Write the kept spans, the aggregates and the counters as JSON."""
        width = len(SPAN_FIELDS)
        spans = [list(self.spans[i:i + width])
                 for i in range(0, len(self.spans), width)]
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "names": self.names,
                       "spans": spans, "dropped": self.dropped,
                       "aggregate": self.aggregate,
                       "counts": dict(self.counts)}, fh)


def layer_self_ns(aggregate: Dict[str, List[int]]) -> Dict[str, int]:
    """Self time per layer: a span belongs to the layer its name starts with."""
    out = {layer: 0 for layer in LAYERS}
    for name, (_, _, self_ns) in aggregate.items():
        out[name.split(".", 1)[0]] += self_ns
    return out


# -- counters fed from results ----------------------------------------------

def _after_validate(counts, args, result):
    counts["embedding.validate.edges"] += len(args[0].edges)


def _after_solvable(counts, args, result):
    if not result:
        counts["grinberg.solvable.infeasible"] += 1


def _after_solve(counts, args, result):
    counts["grinberg.solve.partitions"] += len(result)


def _after_candidate_cx(counts, args, result):
    counts["holes.cx_sets"] += len(result)


def _after_global_hole(counts, args, result):
    if result:
        counts["holes.is_global_hole.hits"] += 1


def _after_certificate(counts, args, result):
    # decide's only is_hamilton_cycle call is the certificate check.
    counts["holes.certificate.tries"] += 1
    if result:
        counts["holes.certificate.hits"] += 1


def _after_decide(counts, args, result):
    counts["holes.verdict." + result.tag] += 1


def _after_oracle(counts, args, result):
    counts["oracle.nodes"] += result.nodes_explored
    if result.timed_out:
        counts["oracle.timeouts"] += 1


def _after_compare(counts, args, result):
    counts["oracle.candidates_written"] += len(result.candidates)


# (modules or classes whose attribute is replaced, attribute, span, counters)
_SPANS = (
    ((embedding,), "parse_pgg", "embedding.parse_pgg", None),
    ((embedding, oracle), "write_pgg", "embedding.write_pgg", None),
    ((embedding.PlanarEmbedding,), "_validate", "embedding.validate",
     _after_validate),
    ((embedding, holes, oracle), "trace_faces", "embedding.trace_faces", None),
    ((grinberg, oracle), "is_hamilton_cycle", "embedding.is_hamilton_cycle",
     None),
    ((holes,), "is_hamilton_cycle", "embedding.is_hamilton_cycle",
     _after_certificate),
    ((grinberg,), "enclosed_faces", "embedding.enclosed_faces", None),
    ((structure, holes), "claw_d2_scan", "structure.claw_d2_scan", None),
    ((structure.BasisGraph,), "vertex_class", "structure.vertex_class", None),
    ((grinberg, holes), "equation_of_graph", "grinberg.equation_of_graph",
     None),
    ((grinberg, holes, oracle), "solvable", "grinberg.solvable",
     _after_solvable),
    ((grinberg, holes), "solve", "grinberg.solve", _after_solve),
    ((grinberg,), "verify_grinberg_identity", "grinberg.verify_identity",
     None),
    ((holes, oracle), "decide", "holes.decide", _after_decide),
    ((holes,), "candidate_Cx", "holes.candidate_Cx", _after_candidate_cx),
    ((holes,), "build_context", "holes.build_context", None),
    ((holes,), "is_global_hole", "holes.is_global_hole", _after_global_hole),
    ((subbases,), "decompose", "subbases.decompose", None),
    ((oracle,), "hamilton_oracle", "oracle.hamilton_oracle", _after_oracle),
    ((oracle,), "compare", "oracle.compare", _after_compare),
    ((oracle,), "gen_grid", "oracle.gen_grid", None),
)

# Hot BasisGraph methods: counted only, since a span per call would cost
# more than the call itself.
_COUNTERS = (
    (structure.BasisGraph, "remove_face", "structure.remove_face.calls"),
    (structure.BasisGraph, "is_removable", "structure.is_removable.calls"),
)
