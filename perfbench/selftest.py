#!/usr/bin/env python3
"""Self-test of the benchmark harness on a tiny corpus.

    python3 perfbench/selftest.py

For every workload it runs the harness twice untraced and once traced on a
tiny seeded corpus (seconds in all).  It checks that every metric
BENCHMARK.json names is printed with its unit, that the result object has
the keys correct, attempted, failed and metrics, that the run's own output
checks pass and that the verdict digest and the attempted and failed
counts repeat, traced and untraced alike.  It also checks the failure accounting and the tail-percentile rule.
Exit code 1 on failure.
"""

from __future__ import annotations

import io
import json
import sys

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics", "verdict_digest"}


def check_printed(text: str, declared: list) -> list:
    printed = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 4 and not line.startswith("#"):
            printed[parts[1]] = parts[3]
    return [f"{m['name']} not printed with unit {m['unit']}"
            for m in declared if printed.get(m["name"]) != m["unit"]]


def check_workload(name: str, bench: dict) -> list:
    failures = []
    digests = []
    counts = []
    for trace in (False, False, True):
        out = io.StringIO()
        result = run.run_workload(name, seed=7, seconds=0, trace=trace,
                                  tiny=True, out=out)
        declared = bench["per_layer" if trace else "end_to_end"]
        what = f"{name} trace={int(trace)}"
        if set(result) != RESULT_KEYS:
            failures.append(f"{what}: result keys {sorted(result)}")
        if set(result["metrics"]) != {m["name"] for m in declared}:
            failures.append(f"{what}: metrics differ from BENCHMARK.json")
        for m in declared:
            got = result["metrics"].get(m["name"], {})
            if got.get("unit") != m["unit"] or \
                    not isinstance(got.get("value"), (int, float)):
                failures.append(f"{what}: bad metric {m['name']}: {got}")
        failures += [f"{what}: {p}" for p in
                     check_printed(out.getvalue(), declared)]
        if not result["correct"] or result["attempted"] < 1:
            failures.append(f"{what}: output checks failed:\n{out.getvalue()}")
        digests.append(result["verdict_digest"])
        counts.append((result["attempted"], result["failed"]))
    if len(set(digests)) != 1:
        failures.append(f"{name}: verdict digest does not repeat: {digests}")
    if len(set(counts)) != 1:
        failures.append(f"{name}: attempted and failed do not repeat: {counts}")
    return failures


def check_accounting() -> list:
    import workloads
    failures = []
    calls = workloads.Calls()
    result, failure = calls(lambda: 1 // 0)
    if (result, failure) != (None, "raised:ZeroDivisionError") or \
            (calls.attempted, calls.failed_total) != (1, 1):
        failures.append("Calls does not count a raising call")
    try:
        calls(lambda: (_ for _ in ()).throw(AssertionError("soundness")))
        failures.append("Calls swallowed an AssertionError")
    except AssertionError:
        pass
    for n, p in ((39, 50), (40, 75), (100, 90), (481, 95), (1000, 99)):
        if run.tail_percentile(n) != p:
            failures.append(f"tail_percentile({n}) != {p}")
    return failures


def main() -> int:
    if not (run.SRC / "polygrid" / "__init__.py").is_file():
        print("selftest: no polygrid sources to test against", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = check_accounting()
    for name in run.WORKLOAD_NAMES:
        failures += check_workload(name, bench)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
