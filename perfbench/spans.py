"""Span tracing of the program's public functions, from the benchmark's side.

``Tracer.install`` replaces each function named in ``TRACED`` with a timing
wrapper wherever a module of the package holds a reference to it: ``from .x
import y`` binds names per module, so the wrapper must replace, for example,
``xxz_engine.cycles.steady_state_solve`` as well as
``xxz_engine.steady.steady_state_solve``.  Nothing inside the program changes.

Each thread keeps its own stack of open spans, because the default sweep runs
on a thread pool.  A span's self time is its duration minus the durations of
the spans it directly encloses on the same thread; its self CPU time is the
same difference of thread CPU time.  A pool thread's spans therefore do not
subtract from the main-thread span (``sweep.run_sweep``) that waits for them.
Spans stay in memory until ``write`` puts them in a CSV file.
"""

from __future__ import annotations

import sys
import threading
import time
from array import array
from dataclasses import dataclass, field

#: The public functions timed by the traced run, as ``<module>.<function>``.
TRACED = (
    "model.eigenenergies",
    "model.transition_table",
    "baths.transition_rates",
    "steady.steady_state_solve",
    "steady.gibbs_state",
    "dynamics.flows_at",
    "dynamics.relaxation_time",
    "cycles.stage_states",
    "cycles.cycle_result_from_stages",
    "cycles.stage_entropy_production",
    "cycles.evaluate_cycle",
    "sweep.run_sweep",
    "sweep.project_panel",
    "cli.render_table",
    "cli.main",
)


@dataclass
class Totals:
    """Per-function sums plus the main-thread and pool-thread self-time sums."""

    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    self_cpu_s: dict = field(default_factory=dict)
    main_self_s: float = 0.0
    pool_self_s: float = 0.0
    pool_self_cpu_s: float = 0.0


#: Values stored per span, flat in one array per thread.
_FIELDS = 6  # name index, parent name index (-1: none on this thread), start, end, self, self cpu


PACKAGE = "xxz_engine"


class Tracer:
    def __init__(self):
        self.rendered_bytes = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[tuple[int, array]] = []
        self._replaced: list[tuple[object, str, object]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], array("d"))  # (stack of open frames, finished spans)
            self._local.state = state
            with self._lock:
                self._buffers.append((threading.get_ident(), state[1]))
        return state

    def _wrap(self, index: int, fn):
        perf, cpu, state = time.perf_counter, time.thread_time, self._state
        counts_bytes = TRACED[index] == "cli.render_table"

        def traced(*args, **kwargs):
            stack, spans = state()
            frame = [0.0, 0.0, index]  # child wall, child cpu, name index
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            c0 = cpu()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                c1 = cpu()
                stack.pop()
                wall, used = t1 - t0, c1 - c0
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += used
                spans.extend((index, parent, t0, t1, wall - frame[0], used - frame[1]))
            if counts_bytes:
                self.rendered_bytes += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every TRACED function in every loaded module of the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for index, qualname in enumerate(TRACED):
            module_name, func = qualname.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func)
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._replaced.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    def _spans(self):
        """(thread, name, parent, start, end, self_s, self_cpu_s) for every span."""
        with self._lock:
            buffers = list(self._buffers)
        for thread, flat in buffers:
            for i in range(0, len(flat), _FIELDS):
                name, parent, start, end, self_wall, self_cpu = flat[i:i + _FIELDS]
                yield (thread, TRACED[int(name)], TRACED[int(parent)] if parent >= 0 else "",
                       start, end, self_wall, self_cpu)

    def totals(self, main_thread: int) -> Totals:
        out = Totals()
        for thread, name, _, _, _, self_wall, self_cpu in self._spans():
            out.calls[name] = out.calls.get(name, 0) + 1
            out.self_s[name] = out.self_s.get(name, 0.0) + self_wall
            out.self_cpu_s[name] = out.self_cpu_s.get(name, 0.0) + self_cpu
            if thread == main_thread:
                out.main_self_s += self_wall
            else:
                out.pool_self_s += self_wall
                out.pool_self_cpu_s += self_cpu
        return out

    def write(self, path):
        """All spans as CSV, times in seconds of ``time.perf_counter``."""
        with open(path, "w", encoding="ascii") as handle:
            handle.write("thread,name,parent,start,end,self_s,self_cpu_s\n")
            for span in self._spans():
                handle.write("%d,%s,%s,%.9f,%.9f,%.9f,%.9f\n" % span)
