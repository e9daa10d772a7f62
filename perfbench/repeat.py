"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads fig5_surface,wide_table]
                                [--out summary.json] [--against earlier.json]

Runs go seed by seed, each seed through every workload, from the current
directory (a checkout root).  For every workload and end-to-end metric it
prints the median, the quartiles from ``statistics.quantiles(values, n=4)``
and their distance as a share of the median, next to the metric's bound in
BENCHMARK.json; the benchmark is steady when every spread (setup_s aside) is
below a third of its bound.  With ``--against`` it also prints how far each
median moved from an earlier summary, as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a range a-b or a comma list, >= 2 seeds")
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    parser.add_argument("--against", default=None,
                        help="an earlier --out file: also show how far each median moved")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")

    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    results = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            result = run_once(name, seed, bench["run_seconds"])
            results[name].append(result)
            print(f"seed {seed} {name}: correct={result['correct']} failed={result['failed']}"
                  f"/{result['attempted']}", file=sys.stderr, flush=True)

    summary = {}
    for name, runs in results.items():
        summary[name] = {"correct": all(r["correct"] for r in runs), "metrics": {}}
        print(f"\n{name}: {len(runs)} runs, all correct: {summary[name]['correct']}")
        print(f"  {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
              f"{'bound':>5} {'steady':>6} {'moved':>7}")
        for metric in runs[0]["metrics"]:
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            summary[name]["metrics"][metric] = stats
            bound = bounds[metric]
            steady = "-" if metric == "setup_s" else ("yes" if stats["spread"] < bound / 3
                                                      else "NO")
            moved = ""
            if name in earlier:
                before = earlier[name]["metrics"][metric]["median"]
                moved = f"{(stats['median'] - before) / before:+7.3f}"
            print(f"  {metric:14} {stats['median']:12.6g} {stats['q1']:12.6g} "
                  f"{stats['q3']:12.6g} {stats['spread']:7.4f} {bound:5} {steady:>6} {moved}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
