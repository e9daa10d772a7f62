"""Benchmark of xxz-engine: one workload per run, checked, with its metrics.

Run from the root of a checkout; the program is taken from ``src/``:

    python3 perfbench/run.py --workload fig5_surface --seed 1 --seconds 20 --trace 0

Workloads: fig5_surface and wide_table (see BENCHMARK.json for why each
one).  ``--trace 0`` times the workload with nothing attached and prints
the end-to-end metrics; ``--trace 1`` runs the same commands in this process
through ``xxz_engine.cli.main``, with every public function in
``spans.TRACED`` wrapped, and prints the per-layer metrics.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it are the same numbers for people, with sample
counts, machine facts and the checker's self-test.  Full results and the
spans of a traced run are written under ``.perfbench_work/`` in the checkout.

The benchmark never sets XXZ_ENGINE_THREADS (it removes it from the program's
environment), so the sweep pool runs at its default size.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import asdict
from pathlib import Path

from measure import WORKLOADS, InProcessRunner, Measured, SubprocessRunner, measure, spawn
from spans import TRACED, Tracer

#: Fresh interpreters timed for setup_s before each repetition; the first
#: repetition is preceded by one more, untimed, that fills the bytecode cache.
SETUP_PER_REP = 2

#: The final JSON line lists a per-layer metric only if a correct run can make
#: it nonzero: a call count when some workload calls the function, a time only
#: when every workload does (a time reading exactly 0 s on every run is
#: refused).  The printed table covers all of ``TRACED``.  The #ERR cell counts
#: are 0 whenever the run is correct, so they are printed but not listed.
UNCALLED = ("dynamics.relaxation_time", "cycles.evaluate_cycle")
COUNTED = tuple(fn for fn in TRACED if fn not in UNCALLED)
TIMED_EVERYWHERE = tuple(fn for fn in COUNTED
                         if fn not in ("steady.gibbs_state", "sweep.project_panel"))

ERROR_CODES = ("NONUNIQUE", "CLOSEDFORM", "NUMERIC", "DOMAIN")


def spread(values) -> float | None:
    """Interquartile range as a share of the median (None below two samples)."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("XXZ_ENGINE_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


FACTS_CODE = (
    "import json, platform, numpy, xxz_engine.sweep as s; "
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__, "
    "'sweep_worker_count': s.worker_count(), 'module_file': s.__file__}))"
)


def machine_facts(root: Path, env: dict) -> dict:
    probe = subprocess.run([sys.executable, "-c", FACTS_CODE], env=env, cwd=root,
                           capture_output=True, text=True, timeout=120, check=True)
    facts = json.loads(probe.stdout)
    facts.update(
        nproc=len(os.sched_getaffinity(0)),
        os_cpu_count=os.cpu_count(),
        cpu_model=_cpu_model(),
        git_commit=_git_commit(root),
        caller_set_XXZ_ENGINE_THREADS="XXZ_ENGINE_THREADS" in os.environ,
    )
    return facts


class SetupSampler:
    """Wall times of fresh interpreters importing xxz_engine.cli.

    Called before each repetition, so that the samples spread over the run.
    """

    def __init__(self, root: Path, env: dict, log):
        self.cmd = [sys.executable, "-c", "import xxz_engine.cli"]
        self.root, self.env, self.log = root, env, log
        self.samples = []
        self._import()  # the first import compiles bytecode and warms the file cache

    def _import(self) -> float:
        code, wall, _ = spawn(self.cmd, subprocess.DEVNULL, self.log, self.env, self.root)
        if code != 0:
            raise RuntimeError(f"importing xxz_engine.cli failed with exit code {code}")
        return wall

    def __call__(self):
        self.samples += [self._import() for _ in range(SETUP_PER_REP)]


def err_cells_per_rep(measured: Measured) -> dict:
    """Failed sweep cells (rows marked #ERR) per error code, per repetition."""
    cells = measured.verdict.err_cells
    codes = ERROR_CODES + tuple(sorted(set(cells) - set(ERROR_CODES)))
    return {code: cells.get(code, 0) / len(measured.rep_walls) for code in codes}


def end_to_end(setup: list, measured: Measured, rows_per_rep: int) -> dict:
    """name -> (value, unit, note); the note gives the samples behind each value."""
    walls = measured.rep_walls
    wall = statistics.median(walls)
    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} imports"),
        "wall_s": (wall, "s", f"median of {len(walls)} repetitions"),
        "cells_per_s": (rows_per_rep / wall, "1/s", f"{rows_per_rep} rows / wall_s"),
        "peak_rss_mb": (measured.peak_rss_kb / 1024.0, "MB",
                        f"max over {len(walls)} program processes"),
    }


def traced(name: str, seed: int, seconds: float, root: Path, work: Path, log):
    """Per-layer metrics from an in-process run with the public functions wrapped."""
    os.environ.pop("XXZ_ENGINE_THREADS", None)
    sys.path.insert(0, str(root / "src"))
    import xxz_engine.cli
    import xxz_engine.sweep

    workload = WORKLOADS[name](seed, work)
    runner = InProcessRunner(xxz_engine.cli, log)
    # Untraced repetitions in the same process for a quarter of the time, then
    # traced ones for the rest; each part makes at least one repetition.
    plain = measure(workload, runner, seconds / 4)
    untraced_wall = statistics.median(plain.rep_walls)
    tracer = Tracer()
    tracer.install()
    try:
        measured = measure(workload, runner, seconds * 3 / 4)
    finally:
        tracer.uninstall()
    totals = tracer.totals(threading.main_thread().ident)
    tracer.write(work / f"spans_{name}.csv")

    reps = len(measured.rep_walls)
    wall = sum(measured.rep_walls) / reps
    table = {}
    for fn in TRACED:
        calls = totals.calls.get(fn, 0)
        table[fn] = {
            "calls": calls // reps if calls % reps == 0 else calls / reps,
            "self_s": totals.self_s.get(fn, 0.0) / reps,
            "self_cpu_s": totals.self_cpu_s.get(fn, 0.0) / reps,
        }
    layer = {
        "trace.overhead_frac": (statistics.median(measured.rep_walls) / untraced_wall - 1.0,
                                "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.remainder_s": (wall - totals.main_self_s / reps, "s"),
        "sweep.workers": (xxz_engine.sweep.worker_count(), "count"),
        "cli.render_table.bytes": (tracer.rendered_bytes / reps, "bytes"),
    }
    for fn in COUNTED:
        layer[f"{fn}.calls"] = (table[fn]["calls"], "count")
    for fn in TIMED_EVERYWHERE:
        layer[f"{fn}.self_s"] = (table[fn]["self_s"], "s")
        layer[f"{fn}.self_cpu_s"] = (table[fn]["self_cpu_s"], "s")
    detail = {
        "reps": reps,
        "untraced_wall_s": untraced_wall,
        "main_thread_self_s": totals.main_self_s / reps,
        "pool_thread_self_s": totals.pool_self_s / reps,
        "pool_thread_self_cpu_s": totals.pool_self_cpu_s / reps,
        "functions": table,
        "err_cells_per_rep": err_cells_per_rep(measured),
    }
    # The untraced repetitions' outputs were checked too, and count as attempted.
    measured.verdict.add(plain.verdict)
    return measured, layer, detail


def _print_traced(detail: dict, layer: dict):
    print(f"{'function':36} {'calls/rep':>10} {'self_s':>10} {'self_cpu_s':>10} {'us/call':>9}")
    for fn, row in detail["functions"].items():
        per_call = 1e6 * row["self_s"] / row["calls"] if row["calls"] else 0.0
        print(f"{fn:36} {row['calls']:>10} {row['self_s']:>10.4f} "
              f"{row['self_cpu_s']:>10.4f} {per_call:>9.1f}")
    wall, remainder = layer["trace.wall_s"][0], layer["trace.remainder_s"][0]
    print(f"accounting per repetition (n={detail['reps']}): main-thread self "
          f"{detail['main_thread_self_s']:.4f} s + remainder {remainder:.4f} s = "
          f"traced wall {wall:.4f} s; pool threads self {detail['pool_thread_self_s']:.4f} s, "
          f"cpu {detail['pool_thread_self_cpu_s']:.4f} s; untraced wall "
          f"{detail['untraced_wall_s']:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that a running program call is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "xxz_engine" / "cli.py").is_file():
        print(f"error: no program at {root / 'src' / 'xxz_engine'}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work"
    (work / "results").mkdir(parents=True, exist_ok=True)
    env = child_env(root)

    with open(work / "program.stderr", "w", encoding="utf-8") as log:
        facts = machine_facts(root, env)
        if not Path(facts["module_file"]).resolve().is_relative_to(root / "src"):
            print(f"error: imported {facts['module_file']}, not the checkout's program",
                  file=sys.stderr)
            return 2
        if args.trace:
            measured, metrics, detail = traced(args.workload, args.seed, args.seconds,
                                               root, work, log)
            metrics = {k: (v, u, "") for k, (v, u) in metrics.items()}
        else:
            setup = SetupSampler(root, env, log)
            workload = WORKLOADS[args.workload](args.seed, work)
            measured = measure(workload, SubprocessRunner(root, env, log), args.seconds,
                               before_rep=setup)
            metrics = end_to_end(setup.samples, measured,
                                 WORKLOADS[args.workload].rows_per_rep)
            detail = {
                "err_cells_per_rep": err_cells_per_rep(measured),
                "setup_samples_s": setup.samples,
                "rep_walls_s": measured.rep_walls,
                "spread_within_run": {
                    "setup": spread(setup.samples),
                    "rep_wall": spread(measured.rep_walls),
                },
            }

    verdict = measured.verdict
    correct = (verdict.failed == 0 and verdict.attempted > 0
               and measured.self_tested and not measured.undetected)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    if args.trace:
        _print_traced(detail, {k: v[:2] for k, v in metrics.items()})
    for key, (value, unit, note) in metrics.items():
        print(f"{key:40} {value:>16.6g} {unit:6} {note}")
    print(f"{'err_frac':40} {verdict.failed / max(verdict.attempted, 1):>16.6g} ratio  "
          f"{verdict.failed} failed of {verdict.attempted} attempted")
    print(f"{'sweep.err_cells':40} per repetition: "
          + " ".join(f"{code}={n:g}" for code, n in detail["err_cells_per_rep"].items()))
    for reason in verdict.reasons:
        print(f"failure: {reason}")
    if measured.self_tested:
        print("checker self-test (flipped w, #ERR:NUMERIC, dropped row): "
              + ("all detected" if not measured.undetected
                 else "NOT DETECTED: " + ", ".join(measured.undetected)))
    else:
        print("checker self-test: not run, no output passed the checks")

    result = {
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    record = {
        "args": vars(args), "machine": facts, "result": result, "detail": detail,
        "err_frac": verdict.failed / max(verdict.attempted, 1),
        "verdict": asdict(verdict), "self_test_undetected": measured.undetected,
    }
    path = work / "results" / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="ascii")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
