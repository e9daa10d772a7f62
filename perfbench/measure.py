"""Repetition loop, program runners and the two workloads.

A runner executes one CLI command line and returns (exit code, wall seconds,
peak RSS in KiB).  ``SubprocessRunner`` starts a fresh interpreter per call,
as a user's shell would; ``InProcessRunner`` calls ``xxz_engine.cli.main`` in
this process, which is how the traced run sees inside the program.  The
workloads are written against the runner, so the traced run executes exactly
the commands the untraced run times.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads as wl

#: A single program call that runs longer than this is killed and counts as failed.
CALL_TIMEOUT_S = 150.0


def spawn(cmd, stdout, stderr, env, cwd, timeout=CALL_TIMEOUT_S) -> tuple[int, float, int]:
    """Run ``cmd`` to completion: (exit code, wall seconds, peak RSS KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env, cwd=cwd)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class SubprocessRunner:
    """``python -m xxz_engine.cli <argv>`` in a fresh interpreter."""

    def __init__(self, root: Path, env: dict, log):
        self.root, self.env, self.log = root, env, log

    def __call__(self, argv, stdout):
        cmd = [sys.executable, "-m", "xxz_engine.cli", *argv]
        return spawn(cmd, stdout, self.log, self.env, self.root)


class InProcessRunner:
    """``xxz_engine.cli.main(argv)`` in this process, looked up at each call."""

    def __init__(self, cli_module, log):
        self.cli, self.log = cli_module, log

    def __call__(self, argv, stdout):
        start = time.perf_counter()
        with redirect_stdout(stdout), redirect_stderr(self.log):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments
                code = exc.code if isinstance(exc.code, int) else 2
        stdout.flush()
        return code, time.perf_counter() - start, 0


@dataclass
class Rep:
    """One program call: the workload's whole operation."""

    wall: float
    rss_kb: int
    output: object  # everything the checks look at


@dataclass
class Measured:
    rep_walls: list = field(default_factory=list)
    peak_rss_kb: int = 0
    verdict: checks.Verdict = field(default_factory=checks.Verdict)
    self_tested: bool = False
    undetected: list = field(default_factory=list)


def _digest(output) -> str:
    """Fingerprint of a repetition's output, hashed item by item."""
    hasher = hashlib.sha256()
    for item in output:
        hasher.update(repr(item).encode())
    return hasher.hexdigest()


def measure(workload, runner, seconds: float, before_rep=None) -> Measured:
    """Repeat the workload while one more repetition fits in ``seconds``.

    A run makes at least one repetition.  It starts another only if, judged
    by the median repetition so far, the summed repetition times would end
    less than half a repetition past ``seconds``, so that a slow machine
    makes fewer repetitions instead of a longer run.
    ``before_rep()``, if given, runs before each repetition, outside its
    timing.  Every repetition's output is checked outside the timed region.
    Outputs identical to an earlier repetition's reuse its verdict.  The
    checker's self-test runs once, on the first output that passes the
    checks.  Only one repetition's output is alive at a time, so that the
    memory of an in-process workload does not depend on how many
    repetitions fit.
    """
    out = Measured()
    verdicts = {}
    while True:
        if before_rep is not None:
            before_rep()
        rep = workload.rep(runner)
        out.rep_walls.append(rep.wall)
        out.peak_rss_kb = max(out.peak_rss_kb, rep.rss_kb)
        digest = _digest(rep.output)
        if digest not in verdicts:
            verdicts[digest] = workload.check(rep.output)
            if not out.self_tested and verdicts[digest].failed == 0:
                out.undetected = workload.self_test(rep.output)
                out.self_tested = True
        out.verdict.add(verdicts[digest])
        del rep
        if sum(out.rep_walls) + statistics.median(out.rep_walls) / 2 > seconds:
            return out


class Fig5Surface:
    """``figure fig5``: 241 x 121 asymmetric-GQOC cells, panels w and eta."""

    name = "fig5_surface"
    rows_per_rep = 241 * 121

    def __init__(self, seed: int, work: Path):
        self.out = work / "fig5"

    def rep(self, runner) -> Rep:
        panels = [self.out / f"fig5_{panel}.csv" for panel in ("work", "efficiency")]
        for path in panels:
            path.unlink(missing_ok=True)
        with open(self.out.with_suffix(".stdout"), "w") as sink:
            code, wall, rss = runner(["figure", "fig5", "--out", str(self.out)], sink)
        texts = tuple(p.read_text(encoding="ascii") if p.exists() else "" for p in panels)
        return Rep(wall, rss, (code,) + texts)

    def _table(self, output):
        return checks.fig5_table(checks.parse_csv(output[1]), checks.parse_csv(output[2]))

    def check(self, output) -> checks.Verdict:
        return checks.check_sweep(output[0], self._table(output), checks.check_fig5)

    def self_test(self, output) -> list:
        return checks.undetected(checks.table_mutations(self._table(output)),
                                 lambda code, table: checks.check_sweep(code, table,
                                                                        checks.check_fig5))


class WideTable:
    """``sweep`` to stdout: 601 x 11 grid, all three cycles, all 31 columns."""

    name = "wide_table"
    rows_per_rep = 601 * 11 * 3

    def __init__(self, seed: int, work: Path):
        self.axes = wl.wide_axes(seed)
        self.config = wl.write_wide_config(work, seed)
        self.csv = work / "wide_table.csv"

    def rep(self, runner) -> Rep:
        with open(self.csv, "w") as sink:
            code, wall, rss = runner(["sweep", "--config", str(self.config)], sink)
        return Rep(wall, rss, (code, self.csv.read_text(encoding="ascii")))

    def _check(self, table) -> checks.Verdict:
        return checks.check_wide(table, self.axes)

    def check(self, output) -> checks.Verdict:
        return checks.check_sweep(output[0], checks.parse_csv(output[1]), self._check)

    def self_test(self, output) -> list:
        return checks.undetected(checks.table_mutations(checks.parse_csv(output[1])),
                                 lambda code, table: checks.check_sweep(code, table,
                                                                        self._check))


WORKLOADS = {w.name: w for w in (Fig5Surface, WideTable)}
