"""Record the benchmark's rows in a committed BENCH_<label>.json.

    python3 tools/bench_rows.py LABEL [--checkout DIR]

Runs `bench/run.py` of the checkout (by default the one this script sits
in) on every workload that its BENCHMARK.json lists, at seeds 1 and 1009:
three untraced runs of the file's `run_seconds` each for the end-to-end
metrics (their median, and every run), and one traced run for the
per-layer metrics and the deterministic work counters.  The file is
written at the root of the repository this script sits in, so a parent
commit unpacked elsewhere is recorded with `--checkout`.  Then each
metric is printed with its ratio (new / old) against the newest earlier
BENCH_*.json, by the time each file records.

Wall-clock rows depend on the machine; the file records its platform.
A gain is claimed from alternating pairs of runs, not from two files.
"""

from __future__ import annotations

import argparse
import datetime
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 1009)   # the default seed and the held-out one
RUNS = 3            # untraced runs per row: their median is the row


def bench_run(checkout: str, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, dict]:
    """One `bench/run.py` run: its JSON result and its counter lines."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    counters = {}
    for line in lines:
        if line.startswith("counter\t"):
            _, name, value = line.split("\t")
            counters[name] = int(value)
    return json.loads(lines[-1]), counters


def record(checkout: str, spec: dict) -> dict:
    seconds = spec["run_seconds"]
    rows = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            untraced = [bench_run(checkout, workload, seed, seconds, 0)[0]
                        for _ in range(RUNS)]
            traced, counters = bench_run(checkout, workload, seed, seconds, 1)
            end_to_end = {}
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]]["value"]
                          for r in untraced]
                end_to_end[metric["name"]] = {
                    "median": statistics.median(values), "runs": values,
                    "unit": metric["unit"], "better": metric["better"]}
            per_layer = {m["name"]: traced["metrics"][m["name"]]["value"]
                         for m in spec["per_layer"]
                         if m["name"] in traced["metrics"]}
            rows[f"{workload} seed {seed}"] = {
                "correct": all(r["correct"] for r in untraced + [traced]),
                "attempted": sum(r["attempted"] for r in untraced),
                "failed": sum(r["failed"] for r in untraced),
                "end_to_end": end_to_end,
                "per_layer": per_layer,
                "counters": counters,
            }
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {row['median']:.4g}"
                for name, row in end_to_end.items()), flush=True)
    return rows


def flat(rows: dict) -> dict:
    """(row, metric) -> value, over every kind of metric."""
    out = {}
    for row, data in rows.items():
        for name, value in data["end_to_end"].items():
            out[(row, name)] = value["median"]
        for kind in ("per_layer", "counters"):
            for name, value in data[kind].items():
                out[(row, name)] = value
    return out


def newest_before(recorded: str, exclude: str) -> str | None:
    """The BENCH_*.json recorded last before `recorded`, if any."""
    best = None
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        if os.path.abspath(path) == os.path.abspath(exclude):
            continue
        with open(path, encoding="utf-8") as fh:
            when = json.load(fh)["recorded"]
        if when < recorded and (best is None or when > best[0]):
            best = (when, path)
    return best and best[1]


def print_ratios(new: dict, old: dict, old_label: str):
    print(f"ratios new / old, against {old_label}:")
    before = flat(old["rows"])
    for key, value in flat(new["rows"]).items():
        base = before.get(key)
        if base is None:
            continue
        ratio = f"{value / base:.3f}" if base else "n/a"
        print(f"  {key[0]:<28} {key[1]:<36} {base:>12.5g} -> "
              f"{value:<12.5g} {ratio}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--checkout", default=ROOT)
    args = ap.parse_args(argv)
    with open(os.path.join(args.checkout, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)

    recorded = datetime.datetime.now(datetime.timezone.utc).isoformat()
    out = {
        "label": args.label,
        "recorded": recorded,
        "machine": f"{platform.machine()} {platform.processor()}".strip(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seconds": spec["run_seconds"],
        "runs": RUNS,
        "rows": record(args.checkout, spec),
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    earlier = newest_before(recorded, path)
    if earlier:
        with open(earlier, encoding="utf-8") as fh:
            print_ratios(out, json.load(fh), os.path.basename(earlier))
    return 0


if __name__ == "__main__":
    sys.exit(main())
