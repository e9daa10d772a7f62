"""Smoke test of the benchmark itself, run from a checkout root:

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced (``--seconds 0``: a
single repetition).  It asserts that the last line holds exactly the contract
keys, that the outputs passed their checks, that every metric of
BENCHMARK.json is printed with its unit, and that the checker caught all
three corruptions of the run's own output (flipped w sign, injected
#ERR:NUMERIC with exit code 3, dropped row).
Then it runs the benchmark in a directory holding only BENCHMARK.json and
the benchmark, where it must exit nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from measure import WORKLOADS

HERE = Path(__file__).resolve().parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def smoke(workload: str, trace: int, units: dict) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != KEYS:
        problems.append(f"{where}: keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != units:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(printed) ^ set(units))}")
    if "all detected" not in proc.stdout:
        problems.append(f"{where}: checker self-test did not detect every corruption")
    return problems


def bare_directory_fails(work: Path) -> list[str]:
    with tempfile.TemporaryDirectory(dir=work) as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "wide_table", "--seed", "0",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    return []


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = smoke(workload, trace, units[trace])
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    work = Path(".perfbench_work")
    work.mkdir(exist_ok=True)
    problems += bare_directory_fails(work)
    for problem in problems:
        print(problem)
    print("selftest " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
