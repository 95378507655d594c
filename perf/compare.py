#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``python perf/compare.py A.json B.json``.

Each file holds one JSON document per line, as ``perf/bench.py --out FILE``
appends them; a file with several lines is a set of runs.  One row is printed
per (workload, end-to-end metric) with a verdict.

Host metrics (times, memory) are compared by their medians over the set,
against the bound from ``BENCHMARK.json``:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  a side's own run-to-run spread (distance between the
                quartiles of its runs, as a share of their median) is wider
                than the bound, so the two medians cannot be told apart.

Simulated metrics (``sim_*``) repeat exactly for a seed, so they are compared
run by run on the seeds both sets have: ``ok`` when every pair agrees to
1e-9 (either direction: a simulated result that moved is a different
simulation, not a gain), ``worse`` otherwise, ``unresolved`` when the sets
share no seed.

Exits 1 when any row is ``worse``.  This is the check behind "two sets of
runs of the same code agree", and the before/after table of a later change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
EXACT = 1e-9


def load_runs(path: str) -> dict[tuple[str, str], list[tuple[int | None, float]]]:
    """``{(workload, metric): [(seed, value) per run]}`` from a ``--out`` file."""
    values: dict[tuple[str, str], list[tuple[int | None, float]]] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            for workload, result in run["workloads"].items():
                for metric, entry in result["metrics"].items():
                    values.setdefault((workload, metric), []).append(
                        (run.get("seed"), entry["value"])
                    )
    return values


def spread(values: list[float]) -> float | None:
    """Interquartile distance over the median; ``None`` below four runs."""
    if len(values) < 4:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else None


def compare_medians(a: list[float], b: list[float], metric: dict) -> dict:
    median_a, median_b = statistics.median(a), statistics.median(b)
    loss = median_b - median_a if metric["better"] == "lower" else median_a - median_b
    change = loss / abs(median_a) if median_a else 0.0
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if any(s > metric["bound"] for s in spreads):
        verdict = "unresolved"
    elif change > metric["bound"]:
        verdict = "worse"
    else:
        verdict = "ok"
    return {"a": median_a, "b": median_b, "worse_by": change, "bound": metric["bound"],
            "spread": max(spreads) if spreads else None, "verdict": verdict}


def compare_by_seed(a: list[tuple], b: list[tuple]) -> dict:
    """Run-by-run comparison of a metric that is exact for a seed."""
    by_seed_a, by_seed_b = dict(a), dict(b)
    shared = sorted(seed for seed in by_seed_a if seed is not None and seed in by_seed_b)
    moved = [
        abs(by_seed_b[seed] - by_seed_a[seed]) / (abs(by_seed_a[seed]) or 1.0)
        for seed in shared
    ]
    if not shared:
        verdict = "unresolved"
    else:
        verdict = "ok" if max(moved) <= EXACT else "worse"
    return {"a": statistics.median(v for _, v in a), "b": statistics.median(v for _, v in b),
            "worse_by": max(moved, default=0.0), "bound": EXACT, "spread": None,
            "verdict": verdict, "seeds": len(shared)}


def compare(a: dict, b: dict, benchmark: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            if metric["name"].startswith("sim_"):
                row = compare_by_seed(a[key], b[key])
            else:
                row = compare_medians([v for _, v in a[key]], [v for _, v in b[key]], metric)
            rows.append({"workload": workload, "metric": metric["name"],
                         "unit": metric["unit"], "runs": (len(a[key]), len(b[key])), **row})
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK.read_text())
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), benchmark)
    print(f"{'workload':20s} {'metric':20s} {'A':>12s} {'B':>12s} {'unit':6s} "
          f"{'runs':>7s} {'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    for row in rows:
        shown_spread = "-" if row["spread"] is None else f"{row['spread']:.3f}"
        verdict = row["verdict"]
        if "seeds" in row:
            verdict += f" (exact, {row['seeds']} shared seeds)"
        print(f"{row['workload']:20s} {row['metric']:20s} {row['a']:12.4f} {row['b']:12.4f} "
              f"{row['unit']:6s} {row['runs'][0]:3d}/{row['runs'][1]:<3d} "
              f"{row['worse_by']:+9.3f} {row['bound']:6.2g} {shown_spread:>7s}  {verdict}")
    if not rows:
        print("no (workload, metric) pair is present in both files", file=sys.stderr)
        return 2
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
