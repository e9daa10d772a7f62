"""Deterministic grid sweeps over cycle parameters, plus figure presets.

``COLUMNS`` maps each output column to how its value is read off an
evaluated cycle; the output vocabulary, its shorthand groups, the figure
panels and the ``cycle`` subcommand's row derive from it, and
``cycle_cells`` is the one function that turns a spec into cells.  The
``pi*`` columns cost two flux evaluations and are computed only when
requested; a failure of the entropy production marks only them.

A sweep evaluates every point of one or two linearly spaced axes (at most
``MAX_GRID_POINTS``) for the selected cycles, one row per (point, cycle),
row-major over the axes with cycles innermost.  Points run serially: the
evaluation holds the interpreter lock, so a thread pool only made sweeps
slower; ``XXZ_ENGINE_THREADS`` is validated but changes nothing.  A point
whose evaluation fails gets ``#ERR:<code>`` cells; its neighbors do not.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import NamedTuple

from .cycles import (
    CycleKind,
    CycleSpec,
    CycleResult,
    StageState,
    cycle_result_from_stages,
    finite_number,
    stage_entropy_production,
    stage_states,
)
from .steady import SteadyStateError

#: CycleSpec fields that may serve as sweep axes.
AXIS_NAMES = ("B", "T_M", "dT", "delta_c", "delta_h", "kappa")

#: Largest number of grid points a sweep accepts, checked before any is made.
MAX_GRID_POINTS = 10**7


class _Evaluated(NamedTuple):
    """One evaluated cycle, which every output column is read from."""

    stage_c: StageState
    stage_h: StageState
    result: CycleResult
    pi12: float | str | None  # the pi* values are None unless requested
    pi34: float | str | None
    pi_total: float | str | None


def _stage_value(path: str, i: int):
    read = attrgetter(path)
    return lambda evaluated: read(evaluated)[i - 1]


#: Per-stage column groups: populations and energies of levels 1..4 at the
#: end of stage 1-2 (``_c``) and of stage 3-4 (``_h``).
_STAGE_GROUPS = {
    f"{group}_{side}": {
        f"{letter}{i}_{side}": _stage_value(f"stage_{side}.{path}", i) for i in (1, 2, 3, 4)
    }
    for group, letter, path in (("p", "P", "populations.p"), ("E", "E", "eigen.energies"))
    for side in ("c", "h")
}

_HEATS_WORK_XI = ("q12", "q34", "w", "eta", "xi12", "xi34")
_FLAGS = ("positive_work", "unity")
_PI_COLUMNS = ("pi12", "pi34", "pi_total")
_PI_SET = frozenset(_PI_COLUMNS)

#: Every per-cycle output column, in output order, with how its value is
#: read off an evaluated cycle.
COLUMNS = {
    **{name: attrgetter(f"result.{name}") for name in _HEATS_WORK_XI},
    "xi_diff": lambda evaluated: evaluated.result.xi34 - evaluated.result.xi12,
    **{name: attrgetter(f"result.{name}") for name in _FLAGS},
    **{name: attrgetter(name) for name in _PI_COLUMNS},
    **{name: read for group in _STAGE_GROUPS.values() for name, read in group.items()},
}

#: Every per-cycle output column a sweep can emit.
OUTPUT_KEYS = tuple(COLUMNS)

#: Shorthand groups accepted in output selections.
OUTPUT_GROUPS = {
    **{group: tuple(columns) for group, columns in _STAGE_GROUPS.items()},
    "flags": _FLAGS,
}


@dataclass(frozen=True)
class SweepAxis:
    """One linearly spaced sweep axis over a CycleSpec field."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown sweep axis {self.name!r}; pick from {AXIS_NAMES}")
        for key in ("start", "stop"):
            value = finite_number(getattr(self, key), f"axis {self.name!r} {key}")
            object.__setattr__(self, key, float(value))
        count = self.count
        integral = isinstance(count, int) or (isinstance(count, float) and count.is_integer())
        if isinstance(count, bool) or not integral:
            raise ValueError(f"axis {self.name!r} count must be an integer, got {count!r}")
        object.__setattr__(self, "count", int(count))
        if self.count < 2:
            raise ValueError(f"axis {self.name!r} needs count >= 2, got {self.count}")

    def values(self) -> list[float]:
        span = self.count - 1
        return [
            self.start * (1.0 - i / span) + self.stop * (i / span)
            for i in range(self.count)
        ]


def expand_outputs(outputs) -> tuple[str, ...]:
    """Resolve group shorthands and validate output column names."""
    resolved: list[str] = []
    for key in outputs:
        if key in OUTPUT_GROUPS:
            resolved.extend(OUTPUT_GROUPS[key])
        elif key in COLUMNS:
            resolved.append(key)
        else:
            raise ValueError(f"unknown output column {key!r}")
    if not resolved:
        raise ValueError("output selection is empty")
    return tuple(resolved)


#: Columns of the ``cycle`` subcommand's row, after its echo of the spec.
CYCLE_COLUMNS = expand_outputs(_HEATS_WORK_XI + ("flags", "p_c", "p_h"))


@dataclass(frozen=True)
class SweepConfig:
    """A sweep: base spec template, axes, cycle kinds and output columns."""

    base: CycleSpec
    axes: tuple[SweepAxis, ...]
    cycles: tuple[CycleKind, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("sweeps take one or two axes")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("axis parameter names must be unique")
        points = math.prod(axis.count for axis in self.axes)
        if points > MAX_GRID_POINTS:
            raise ValueError(f"the sweep grid has {points} points; the limit is {MAX_GRID_POINTS}")
        for name in ("cycles", "outputs"):
            if isinstance(getattr(self, name), str):
                raise ValueError(f"sweep {name} must be a sequence of names, not a string")
        if not self.cycles:
            raise ValueError("at least one cycle kind is required")
        object.__setattr__(self, "cycles", tuple(CycleKind(c) for c in self.cycles))
        object.__setattr__(self, "outputs", expand_outputs(self.outputs))

    def columns(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes) + ("cycle",) + self.outputs

    def grid(self):
        """Iterator over axis-value tuples in row-major order (first axis outermost)."""
        return itertools.product(*(axis.values() for axis in self.axes))


@dataclass(frozen=True)
class SweepTable:
    """Sweep results: header names plus one value tuple per (point, cycle)."""

    columns: tuple[str, ...]
    rows: list[tuple]


def _error_code(exc: Exception) -> str:
    return exc.code if isinstance(exc, SteadyStateError) else "DOMAIN"


def _entropy_cells(stage_c: StageState, stage_h: StageState) -> tuple:
    """(pi12, pi34, pi_total), or their ``#ERR`` markers if Pi alone fails."""
    try:
        pi12 = stage_entropy_production(stage_c)
        pi34 = stage_entropy_production(stage_h)
    except (ValueError, ArithmeticError) as exc:
        return (f"#ERR:{_error_code(exc)}",) * 3
    return pi12, pi34, pi12 + pi34


def cycle_cells(spec: CycleSpec, columns: tuple[str, ...]) -> tuple:
    """The cells of the output ``columns`` for one cycle evaluation, in order.

    The entropy production is computed only when a ``pi*`` column is
    requested, and its failure marks only the ``pi*`` cells: heats, work
    and populations do not depend on it.
    """
    stage_c, stage_h = stage_states(spec)
    result = cycle_result_from_stages(spec, stage_c, stage_h)
    if not _PI_SET.isdisjoint(columns):
        pi = _entropy_cells(stage_c, stage_h)
    else:
        pi = (None, None, None)
    evaluated = _Evaluated(stage_c, stage_h, result, *pi)
    return tuple([COLUMNS[name](evaluated) for name in columns])


def worker_count() -> int:
    """Validate XXZ_ENGINE_THREADS (an integer >= 0); sweeps run serially, so 1."""
    raw = os.environ.get("XXZ_ENGINE_THREADS", "0")
    try:
        requested = int(raw)
    except ValueError as exc:
        raise ValueError(f"XXZ_ENGINE_THREADS must be an integer, got {raw!r}") from exc
    if requested < 0:
        raise ValueError(f"XXZ_ENGINE_THREADS must be >= 0, got {requested}")
    return 1


def run_sweep(config: SweepConfig) -> SweepTable:
    """Evaluate the whole grid; rows in deterministic row-major order."""
    worker_count()
    names = tuple(axis.name for axis in config.axes)
    rows: list[tuple] = []
    for values in config.grid():
        overrides = dict(zip(names, values))
        for kind in config.cycles:
            try:
                cells = cycle_cells(replace(config.base, kind=kind, **overrides), config.outputs)
            except (SteadyStateError, ValueError, ArithmeticError) as exc:
                cells = (f"#ERR:{_error_code(exc)}",) * len(config.outputs)
            rows.append(values + (kind.value,) + cells)
    return SweepTable(columns=config.columns(), rows=rows)


# --------------------------------------------------------------------------
# Figure presets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FigurePanel:
    """One CSV panel: a column projection (and optional cycle filter) of a run."""

    name: str
    columns: tuple[str, ...]
    cycle: CycleKind | None = None


@dataclass(frozen=True)
class FigureRun:
    """One sweep execution backing one or more panels of a figure preset."""

    key: str
    config: SweepConfig
    panels: tuple[FigurePanel, ...]


@dataclass(frozen=True)
class FigurePreset:
    name: str
    runs: tuple[FigureRun, ...]


FIGURE_NAMES = ("fig2", "fig3", "fig4", "fig5", "figEP")

_PRESET_MEAN_TEMPERATURES = (0.21, 1.2, 6.0)


def _preset_base(T_M: float, dT: float) -> CycleSpec:
    return CycleSpec(
        kind=CycleKind.QOC,
        B=0.0,
        delta_c=0.10,
        delta_h=0.99,
        kappa=0.05,
        T_M=T_M,
        dT=dT,
        J=1.0,
        T_floor=0.005,
    )


#: The B axis shared by every preset except fig5.
_B_AXIS = SweepAxis(name="B", start=-3.0, stop=3.0, count=601)


def _per_temperature(name: str, cycles, outputs, leading) -> FigurePreset:
    """One B sweep and one panel per preset mean temperature, at dT = 2 T_M."""
    runs = []
    for tm in _PRESET_MEAN_TEMPERATURES:
        config = SweepConfig(
            base=_preset_base(tm, 2.0 * tm), axes=(_B_AXIS,), cycles=cycles, outputs=outputs,
        )
        panel = FigurePanel(name=f"tm{tm:g}", columns=leading + outputs)
        runs.append(FigureRun(key=panel.name, config=config, panels=(panel,)))
    return FigurePreset(name=name, runs=tuple(runs))


def figure_preset(name: str) -> FigurePreset:
    """Grid/parameter presets reproducing the reference data sets.

    Grid resolutions are desk-scale artifact choices; the physical
    parameters (delta_c = 0.10, delta_h = 0.99, kappa = 0.05, cold floor
    0.005, dT = 2 T_M except for the fig5 gradient axis) are fixed.
    """
    asym, sym, qoc = CycleKind.GQOC_ASYM, CycleKind.GQOC_SYM, CycleKind.QOC
    if name == "fig2":
        return _per_temperature(name, (asym, sym, qoc), ("xi_diff", "w"), ("B", "cycle"))
    if name == "fig4":
        return _per_temperature(name, (asym, qoc), ("w", "q12", "q34", "eta"), ("B", "cycle"))
    if name == "figEP":
        return _per_temperature(name, (asym,), ("pi12", "pi34", "pi_total"), ("B",))
    if name == "fig3":
        config = SweepConfig(
            base=_preset_base(1.2, 2.4),
            axes=(_B_AXIS,),
            cycles=(asym, sym, qoc),
            outputs=("w", "p_c", "p_h", "E_c", "E_h"),
        )
        population_columns = ("B",) + expand_outputs(("p_c", "p_h"))
        panels = (
            FigurePanel(name="work", columns=("B", "cycle", "w")),
            FigurePanel(
                name="energies",
                columns=("B",) + expand_outputs(("E_c", "E_h")),
                cycle=qoc,  # spectra do not depend on the cycle kind
            ),
            FigurePanel(name="pop_gqoc_asym", columns=population_columns, cycle=asym),
            FigurePanel(name="pop_gqoc_sym", columns=population_columns, cycle=sym),
            FigurePanel(name="pop_qoc", columns=population_columns, cycle=qoc),
        )
        return FigurePreset(name=name, runs=(FigureRun(key="main", config=config, panels=panels),))

    if name == "fig5":
        config = SweepConfig(
            base=_preset_base(6.0, 12.0),
            axes=(
                SweepAxis(name="B", start=-3.0, stop=3.0, count=241),
                SweepAxis(name="dT", start=0.0, stop=12.0, count=121),
            ),
            cycles=(asym,),
            outputs=("w", "eta"),
        )
        panels = (
            FigurePanel(name="work", columns=("B", "dT", "w")),
            FigurePanel(name="efficiency", columns=("B", "dT", "eta")),
        )
        return FigurePreset(name=name, runs=(FigureRun(key="surface", config=config, panels=panels),))

    raise ValueError(f"unknown figure preset {name!r}; pick from {FIGURE_NAMES}")


def project_panel(table: SweepTable, panel: FigurePanel) -> SweepTable:
    """Select a panel's columns (and cycle rows) out of a full sweep table."""
    indices = [table.columns.index(c) for c in panel.columns]
    rows = table.rows
    if panel.cycle is not None:
        cycle_index = table.columns.index("cycle")
        rows = [r for r in rows if r[cycle_index] == panel.cycle.value]
    return SweepTable(
        columns=tuple(panel.columns),
        rows=[tuple(r[i] for i in indices) for r in rows],
    )
