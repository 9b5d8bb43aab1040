#!/usr/bin/env python3
"""polygrid benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  Each workload builds a seeded corpus (the set-up,
timed several times), then drives the library as a closed loop with one
graph in flight, repeating rounds over the corpus until ``--seconds`` have
passed.  Output checks run between graphs, outside the timed region.  Set-up
and graph times are scaled to a reference machine speed (see speed.py).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see tracing.py).  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  ``--workload all``
(the default) runs every workload in turn, each in its own process.

Exit codes: 0 correct, 1 an output check failed, 2 no library to benchmark,
3 a soundness assertion fired inside the library.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BASELINE = HERE / "baseline.json"

WORKLOAD_NAMES = ("audit-poly", "decide-grid", "embed-large", "oracle-refute")
DEFAULT_SEED = 1
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


# -- statistics --------------------------------------------------------------

def percentile(sorted_values: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n - max(1, math.ceil(p / 100 * n)) >= 10:
            best = p
    return best


def digest(rows: list) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- measurement -------------------------------------------------------------

class Round:
    def __init__(self):
        self.attempted = 0          # library calls made in the round
        self.failed = 0             # of which raised
        self.starts_ns: List[int] = []
        self.ends_ns: List[int] = []
        self.latencies_ns: List[int] = []
        self.rows: list = []
        self.problems: List[str] = []


def measure_rounds(wl, corpus, seconds: float, calls, check_cycle,
                   tracer=None, speed=None) -> List[Round]:
    """Rounds over the corpus until `seconds` have passed.  The first round
    is always whole; later ones stop at the deadline, except in a traced
    run, whose per-layer figures are per whole round.  Only the library
    calls of each graph are inside the clock, less the calibration loops
    of `speed` run during them."""
    clock = time.perf_counter_ns
    rounds: List[Round] = []
    deadline = time.perf_counter() + seconds
    while True:
        rnd = Round()
        attempted, failed = calls.attempted, calls.failed_total
        for i, item in enumerate(corpus):
            if rounds and tracer is None and time.perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.request += 1
            start = clock()
            row, cycles = wl.run(item, calls)
            end = clock()
            rnd.starts_ns.append(start)
            rnd.ends_ns.append(end)
            rnd.latencies_ns.append(
                end - start - (speed.busy_ns(start) if speed else 0))
            rnd.rows.append(row)
            rnd.problems += wl.check(item, row)
            for cycle, g in cycles:
                if not check_cycle(cycle, g):
                    rnd.problems.append(
                        f"{g.name}: returned cycle is not a Hamilton cycle")
        rnd.attempted = calls.attempted - attempted
        rnd.failed = calls.failed_total - failed
        rounds.append(rnd)
        if time.perf_counter() >= deadline:
            return rounds


def compare_rows(reference: list, rounds: List[Round], what: str) -> List[str]:
    problems = []
    for r, rnd in enumerate(rounds):
        for i, (want, got) in enumerate(zip(reference, rnd.rows)):
            if json.dumps(want) != json.dumps(got):
                problems.append(f"{what} round {r} graph {i} differs: "
                                f"{got!r} != {want!r}")
                break
    return problems


def build_timed(wl, seed: int, repeats: int, tiny: bool, speed=None):
    """The corpus and each build's (start_ns, end_ns, net duration in ns),
    where the net duration leaves out the calibration loops of `speed`."""
    spans = []
    corpus = None
    for _ in range(repeats):
        start = time.perf_counter_ns()
        corpus = wl.build(seed, tiny=tiny)
        end = time.perf_counter_ns()
        spans.append((start, end,
                      end - start - (speed.busy_ns(start) if speed else 0)))
    return corpus, spans


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- reporting ---------------------------------------------------------------

def emit(out, workload: str, name: str, value, unit: str, note: str = ""):
    if isinstance(value, float):
        shown = f"{value:.6g}"
    else:
        shown = str(value)
    out.write(f"{workload:14s} {name:42s} {shown:>14s} {unit:6s} {note}\n")


def recorded_digest(workload: str, seed: int) -> Optional[str]:
    try:
        baseline = json.loads(BASELINE.read_text())
    except (OSError, ValueError):
        return None
    return baseline.get("verdict_digests", {}).get(workload, {}).get(str(seed))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, out=sys.stdout) -> dict:
    """Run one workload and print its report; returns the result object."""
    import speed as speed_module
    import tracing
    import workloads
    from polygrid.embedding import is_hamilton_cycle

    wl = workloads.WORKLOADS[name]()
    calls = workloads.Calls()
    scratch = OUT / f"{name}-seed{seed}-{os.getpid()}"
    tracer = tracing.Tracer() if trace else None
    speed = wl.speed = None if trace else speed_module.Speed()
    problems: List[str] = []
    out.write(f"# workload {name} seed {seed} seconds {seconds:g} "
              f"trace {int(trace)}\n")

    with speed or contextlib.nullcontext():
        if tracer is None:
            corpus, setup_spans = build_timed(wl, seed, wl.setup_repeats,
                                              tiny, speed)
        else:
            tracer.install()
            try:
                corpus, _ = build_timed(wl, seed, 1, tiny)
            finally:
                tracer.uninstall()
            setup_snapshot = tracer.snapshot()
        wl.start(scratch)
        try:
            if tracer is None:
                rounds = measure_rounds(wl, corpus, seconds, calls,
                                        is_hamilton_cycle, speed=speed)
            else:
                # Untraced and traced rounds alternate, so a change in
                # the machine's speed during the run hits both alike.  The
                # untraced rounds are the reference for the overhead and
                # the verdicts.
                reference, rounds = [], []
                tracer.root_ns = traced_wall_ns = 0
                deadline = time.perf_counter() + seconds
                while not rounds or time.perf_counter() < deadline:
                    reference += measure_rounds(wl, corpus, 0, calls,
                                                is_hamilton_cycle)
                    tracer.install()
                    start = time.perf_counter_ns()
                    try:
                        rounds += measure_rounds(wl, corpus, 0, calls,
                                                 is_hamilton_cycle, tracer)
                    finally:
                        tracer.uninstall()
                    traced_wall_ns += time.perf_counter_ns() - start
                problems += compare_rows(reference[0].rows, reference[1:],
                                         "untraced repeat")
                problems += compare_rows(reference[0].rows, rounds,
                                         "traced run versus untraced:")
                problems += [p for rnd in reference for p in rnd.problems]
        finally:
            problems += wl.finish()
            shutil.rmtree(scratch, ignore_errors=True)
    rss = peak_rss_mb()

    first = rounds[0].rows
    problems += compare_rows(first, rounds[1:], "repeat")
    for rnd in rounds:
        problems += rnd.problems
    verdict_digest = digest(first)
    # Calls are counted in the first untraced round, which is always whole.
    # Every later round must reproduce its rows, failures included, so it
    # only repeats those calls; and how many rounds fit in the run depends
    # on the machine's speed, which the counts should not.
    counted = rounds[0] if tracer is None else reference[0]

    if tracer is None:
        metrics = end_to_end_metrics(
            best_latencies(rounds, speed),
            [ns * speed.factor(start, end) for start, end, ns in setup_spans],
            rss)
        unscaled = end_to_end_metrics(
            best_latencies(rounds), [ns for _, _, ns in setup_spans], rss)
        graphs = (f"n={len(corpus)} graphs, each the best of its runs in "
                  f"{len(rounds)} rounds")
        factors = sorted(speed.factor(start, end) for rnd in rounds
                         for start, end in zip(rnd.starts_ns, rnd.ends_ns))
        out.write(f"# speed: {len(speed.loop_ns)} calibration loops, median "
                  f"{statistics.median(speed.loop_ns) / 1e6:.3f} ms "
                  f"(reference {speed_module.REFERENCE_LOOP_NS / 1e6:g} ms); "
                  f"graph scale factors {factors[0]:.3f}.."
                  f"{factors[-1]:.3f}, median "
                  f"{statistics.median(factors):.3f}\n")
        notes = {
            "setup_s": f"median of n={len(setup_spans)} set-ups",
            "graphs_per_s": graphs,
            "latency_p50_ms": graphs,
            "latency_tail_ms": f"p{tail_percentile(len(corpus)):g} {graphs}",
            "peak_rss_mb": "n=1",
        }
        for key, (value, unit) in metrics.items():
            if key != "peak_rss_mb":
                notes[key] += f"; unscaled {unscaled[key][0]:.6g}"
            emit(out, name, key, value, unit, notes[key])
        emit(out, name, "error_ratio", counted.failed / counted.attempted,
             "ratio", f"{counted.failed} of {counted.attempted} calls of a "
             f"round raised")
        for line in wl.landmarks(corpus, best_latencies(rounds)):
            out.write(f"# landmark {line}\n")
    else:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{name}-seed{seed}.json"
        tracer.dump(trace_path)
        metrics = per_layer_metrics(tracer, setup_snapshot, rounds,
                                    reference, traced_wall_ns)
        for key, (value, unit) in metrics.items():
            emit(out, name, key, value, unit)
        out.write(f"# spans written to {trace_path.relative_to(ROOT)} "
                  f"({tracer.dropped} beyond the cap not kept)\n")
    for kind, where in sorted(calls.first_failure.items()):
        out.write(f"# {calls.failed[kind]} x {kind} in all rounds, first: "
                  f"{where}\n")
    recorded = recorded_digest(name, seed)
    match = ("" if recorded is None else
             " (recorded: same)" if recorded == verdict_digest else
             " (recorded: DIFFERENT)")
    out.write(f"# verdict_digest {name} seed {seed} {verdict_digest}{match}\n")
    for problem in problems[:20]:
        out.write(f"# CHECK FAILED: {problem}\n")
    return {
        "correct": not problems,
        "attempted": counted.attempted,
        "failed": counted.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "verdict_digest": verdict_digest,
    }


def best_latencies(rounds: List[Round], speed=None) -> List[float]:
    """Each graph's best time, scaled by `speed` if given; the last round
    may cover only a prefix."""
    def ns(r, i):
        if speed is None:
            return r.latencies_ns[i]
        return r.latencies_ns[i] * speed.factor(r.starts_ns[i], r.ends_ns[i])
    return [min(ns(r, i) for r in rounds if i < len(r.latencies_ns))
            for i in range(len(rounds[0].latencies_ns))]


def end_to_end_metrics(best_ns: List[float], setup_ns: List[float],
                       rss: float) -> Dict[str, tuple]:
    """Latency samples are per graph: each graph's best time over the
    rounds (see best_latencies).  Other processes on a shared machine only
    ever slow a graph down, so the best of several rounds is the steadiest
    estimate of the program's own cost."""
    best = sorted(best_ns)
    return {
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
        "graphs_per_s": (len(best) / (sum(best) / 1e9), "1/s"),
        "latency_p50_ms": (percentile(best, 50) / 1e6, "ms"),
        "latency_tail_ms": (
            percentile(best, tail_percentile(len(best))) / 1e6, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


# -- per-layer metrics -------------------------------------------------------

# Spans reported by self time, and those also reported by call count.
SELF_MS_SPANS = (
    "embedding.parse_pgg", "embedding.validate", "embedding.trace_faces",
    "embedding.is_hamilton_cycle", "embedding.enclosed_faces",
    "structure.claw_d2_scan", "structure.vertex_class", "grinberg.solvable",
    "grinberg.solve", "grinberg.verify_identity", "holes.decide",
    "holes.candidate_Cx", "holes.build_context", "holes.is_global_hole",
    "subbases.decompose", "oracle.hamilton_oracle", "oracle.compare")
CALLS_SPANS = (
    "embedding.is_hamilton_cycle", "structure.vertex_class",
    "grinberg.solvable", "holes.candidate_Cx", "holes.is_global_hole",
    "oracle.hamilton_oracle")
# Tracer counters reported under their own names.
COUNTERS = (
    "embedding.validate.edges", "structure.remove_face.calls",
    "structure.is_removable.calls", "grinberg.solve.partitions",
    "holes.cx_sets", "holes.certificate.tries", "oracle.nodes",
    "oracle.timeouts", "oracle.candidates_written")


def per_layer_metrics(tracer, setup_snapshot, rounds: List[Round],
                      reference: List[Round],
                      traced_wall_ns: int) -> Dict[str, tuple]:
    """Each figure covers one traced set-up plus one traced round (the
    mean over the traced rounds)."""
    import tracing
    import workloads

    agg0, counts0 = setup_snapshot

    def per_pass(total, at_setup):
        return at_setup + (total - at_setup) / len(rounds)

    def calls(name):
        return per_pass(tracer.calls(name), agg0.get(name, (0, 0, 0))[0])

    def self_ms(name):
        return per_pass(tracer.self_ns(name),
                        agg0.get(name, (0, 0, 0))[2]) / 1e6

    def count(name):
        return per_pass(tracer.counts.get(name, 0), counts0.get(name, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    m: Dict[str, tuple] = {}
    for name in SELF_MS_SPANS:
        m[f"{name}.self_ms"] = (self_ms(name), "ms")
    for name in CALLS_SPANS:
        m[f"{name}.calls"] = (calls(name), "count")
    for name in COUNTERS:
        m[name] = (count(name), "count")
    m["oracle.errors"] = (count("oracle.hamilton_oracle.errors"), "count")
    for tag in workloads.VERDICT_TAGS:
        m[f"holes.verdict.{tag}"] = (count(f"holes.verdict.{tag}"), "count")
    m["grinberg.solvable.infeasible_ratio"] = (ratio(
        count("grinberg.solvable.infeasible"), calls("grinberg.solvable")),
        "ratio")
    m["holes.is_global_hole.hit_ratio"] = (ratio(
        count("holes.is_global_hole.hits"), calls("holes.is_global_hole")),
        "ratio")
    m["holes.certificate.hit_ratio"] = (ratio(
        count("holes.certificate.hits"), count("holes.certificate.tries")),
        "ratio")
    # Searches that raised return no node count, so their time is left out.
    searched_ms = (self_ms("oracle.hamilton_oracle")
                   - count("oracle.hamilton_oracle.error_ns") / 1e6)
    m["oracle.us_per_node"] = (
        ratio(searched_ms * 1e3, count("oracle.nodes")), "us")
    at_setup = tracing.layer_self_ns(agg0)
    for layer, ns in tracing.layer_self_ns(tracer.aggregate).items():
        m[f"{layer}.self_ms"] = (per_pass(ns, at_setup[layer]) / 1e6, "ms")
    m["trace_overhead"] = (ratio(
        statistics.median(sum(r.latencies_ns) for r in rounds),
        statistics.median(sum(r.latencies_ns) for r in reference)), "ratio")
    m["span_coverage"] = (ratio(tracer.root_ns, traced_wall_ns), "ratio")
    return m


# -- command line ------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines() or [""]
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            sys.stdout.write(proc.stdout)
            merged["correct"] = False
            continue
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # Metrics depend on the run length (each latency is a best over the
    # rounds that fit), so the default is the length the figures in
    # BENCHMARK.json and baseline.json are for.
    parser.add_argument(
        "--seconds", type=float,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
        help="measuring time per workload (default: run_seconds of "
             "BENCHMARK.json, the length the recorded figures are for)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polygrid" / "__init__.py").is_file():
        print(f"perfbench: no polygrid sources under {SRC}; run it inside a "
              f"full checkout", file=sys.stderr)
        return 2
    # Let a terminated run clean up its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except AssertionError as exc:
        print(f"perfbench: soundness assertion in the library: {exc}",
              file=sys.stderr)
        return 3
    result.pop("verdict_digest")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
