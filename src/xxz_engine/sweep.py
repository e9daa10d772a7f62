"""Deterministic grid sweeps over cycle parameters, plus figure presets.

A sweep evaluates every grid point of up to two linearly spaced parameter
axes for a selected set of cycles and emits one row per (point, cycle) in
row-major order over the axes (first axis outermost, cycles innermost).
Points are evaluated serially: the evaluation is pure Python and holds
the interpreter lock, so a thread pool only made sweeps slower.
``XXZ_ENGINE_THREADS`` is still validated but no longer changes anything.
A point whose evaluation fails produces a row whose output cells carry
``#ERR:<code>`` markers; the neighbors are unaffected.  A failure of the
entropy production alone marks only the ``pi*`` cells.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .cycles import (
    CycleKind,
    CycleSpec,
    CycleResult,
    cycle_result_from_stages,
    stage_entropy_production,
    stage_states,
)
from .steady import SteadyStateError

#: CycleSpec fields that may serve as sweep axes.
AXIS_NAMES = ("B", "T_M", "dT", "delta_c", "delta_h", "kappa")

_PI_COLUMNS = ("pi12", "pi34", "pi_total")

_POPULATION_COLUMNS = tuple(
    f"P{i}_{stage}" for stage in ("c", "h") for i in (1, 2, 3, 4)
)
_ENERGY_COLUMNS = tuple(
    f"E{i}_{stage}" for stage in ("c", "h") for i in (1, 2, 3, 4)
)

#: Every per-cycle output column a sweep can emit.
OUTPUT_KEYS = (
    "q12", "q34", "w", "eta", "xi12", "xi34", "xi_diff",
    "positive_work", "unity",
) + _PI_COLUMNS + _POPULATION_COLUMNS + _ENERGY_COLUMNS

#: Shorthand groups accepted in output selections.
OUTPUT_GROUPS = {
    "p_c": tuple(f"P{i}_c" for i in (1, 2, 3, 4)),
    "p_h": tuple(f"P{i}_h" for i in (1, 2, 3, 4)),
    "E_c": tuple(f"E{i}_c" for i in (1, 2, 3, 4)),
    "E_h": tuple(f"E{i}_h" for i in (1, 2, 3, 4)),
    "flags": ("positive_work", "unity"),
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
        elif key in OUTPUT_KEYS:
            resolved.append(key)
        else:
            raise ValueError(f"unknown output column {key!r}")
    if not resolved:
        raise ValueError("output selection is empty")
    return tuple(resolved)


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
        if not self.cycles:
            raise ValueError("at least one cycle kind is required")
        object.__setattr__(self, "cycles", tuple(CycleKind(c) for c in self.cycles))
        object.__setattr__(self, "outputs", expand_outputs(self.outputs))

    def columns(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes) + ("cycle",) + self.outputs

    def grid(self) -> list[tuple[float, ...]]:
        """Axis-value tuples in row-major order (first axis outermost)."""
        if len(self.axes) == 1:
            return [(v,) for v in self.axes[0].values()]
        outer, inner = self.axes[0].values(), self.axes[1].values()
        return [(u, v) for u in outer for v in inner]


@dataclass(frozen=True)
class SweepTable:
    """Sweep results: header names plus one value tuple per (point, cycle)."""

    columns: tuple[str, ...]
    rows: list[tuple]


def _error_code(exc: Exception) -> str:
    return exc.code if isinstance(exc, SteadyStateError) else "DOMAIN"


def _cycle_fields(spec: CycleSpec) -> dict:
    """All canonical output fields for one (grid point, cycle) evaluation.

    A failure of the entropy production only marks the ``pi*`` fields:
    heats, work and populations do not depend on it.
    """
    stage_c, stage_h = stage_states(spec)
    result: CycleResult = cycle_result_from_stages(spec, stage_c, stage_h)
    fields = {
        "q12": result.q12,
        "q34": result.q34,
        "w": result.w,
        "eta": result.eta,
        "xi12": result.xi12,
        "xi34": result.xi34,
        "xi_diff": result.xi34 - result.xi12,
        "positive_work": result.positive_work,
        "unity": result.unity,
    }
    try:
        pi12 = stage_entropy_production(stage_c)
        pi34 = stage_entropy_production(stage_h)
        fields.update(pi12=pi12, pi34=pi34, pi_total=pi12 + pi34)
    except (ValueError, ArithmeticError) as exc:
        fields.update(dict.fromkeys(_PI_COLUMNS, f"#ERR:{_error_code(exc)}"))
    for i in (1, 2, 3, 4):
        fields[f"P{i}_c"] = result.p_c.probability(i)
        fields[f"P{i}_h"] = result.p_h.probability(i)
        fields[f"E{i}_c"] = stage_c.eigen.energy(i)
        fields[f"E{i}_h"] = stage_h.eigen.energy(i)
    return fields


def _evaluate_point(config: SweepConfig, values: tuple[float, ...]) -> list[tuple]:
    rows = []
    overrides = dict(zip((a.name for a in config.axes), values))
    for kind in config.cycles:
        prefix = values + (kind.value,)
        try:
            spec = replace(config.base, kind=kind, **overrides)
            fields = _cycle_fields(spec)
            rows.append(prefix + tuple(fields[k] for k in config.outputs))
        except (SteadyStateError, ValueError, ArithmeticError) as exc:
            marker = f"#ERR:{_error_code(exc)}"
            rows.append(prefix + (marker,) * len(config.outputs))
    return rows


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
    rows: list[tuple] = []
    for values in config.grid():
        rows.extend(_evaluate_point(config, values))
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


def _b_axis(count: int = 601) -> SweepAxis:
    return SweepAxis(name="B", start=-3.0, stop=3.0, count=count)


def _tm_key(T_M: float) -> str:
    return f"tm{T_M:g}"


def figure_preset(name: str) -> FigurePreset:
    """Grid/parameter presets reproducing the reference data sets.

    Grid resolutions are desk-scale artifact choices; the physical
    parameters (delta_c = 0.10, delta_h = 0.99, kappa = 0.05, cold floor
    0.005, dT = 2 T_M except for the fig5 gradient axis) are fixed.
    """
    if name == "fig2":
        runs = []
        for tm in _PRESET_MEAN_TEMPERATURES:
            key = _tm_key(tm)
            config = SweepConfig(
                base=_preset_base(tm, 2.0 * tm),
                axes=(_b_axis(),),
                cycles=(CycleKind.GQOC_ASYM, CycleKind.GQOC_SYM, CycleKind.QOC),
                outputs=("xi_diff", "w"),
            )
            panel = FigurePanel(name=key, columns=("B", "cycle", "xi_diff", "w"))
            runs.append(FigureRun(key=key, config=config, panels=(panel,)))
        return FigurePreset(name=name, runs=tuple(runs))

    if name == "fig3":
        config = SweepConfig(
            base=_preset_base(1.2, 2.4),
            axes=(_b_axis(),),
            cycles=(CycleKind.GQOC_ASYM, CycleKind.GQOC_SYM, CycleKind.QOC),
            outputs=("w", "p_c", "p_h", "E_c", "E_h"),
        )
        population_columns = ("B",) + tuple(
            f"P{i}_{s}" for s in ("c", "h") for i in (1, 2, 3, 4)
        )
        panels = (
            FigurePanel(name="work", columns=("B", "cycle", "w")),
            FigurePanel(
                name="energies",
                columns=("B",) + tuple(f"E{i}_{s}" for s in ("c", "h") for i in (1, 2, 3, 4)),
                cycle=CycleKind.QOC,  # spectra do not depend on the cycle kind
            ),
            FigurePanel(name="pop_gqoc_asym", columns=population_columns, cycle=CycleKind.GQOC_ASYM),
            FigurePanel(name="pop_gqoc_sym", columns=population_columns, cycle=CycleKind.GQOC_SYM),
            FigurePanel(name="pop_qoc", columns=population_columns, cycle=CycleKind.QOC),
        )
        return FigurePreset(name=name, runs=(FigureRun(key="main", config=config, panels=panels),))

    if name == "fig4":
        runs = []
        for tm in _PRESET_MEAN_TEMPERATURES:
            key = _tm_key(tm)
            config = SweepConfig(
                base=_preset_base(tm, 2.0 * tm),
                axes=(_b_axis(),),
                cycles=(CycleKind.GQOC_ASYM, CycleKind.QOC),
                outputs=("w", "q12", "q34", "eta"),
            )
            panel = FigurePanel(name=key, columns=("B", "cycle", "w", "q12", "q34", "eta"))
            runs.append(FigureRun(key=key, config=config, panels=(panel,)))
        return FigurePreset(name=name, runs=tuple(runs))

    if name == "fig5":
        config = SweepConfig(
            base=_preset_base(6.0, 12.0),
            axes=(
                SweepAxis(name="B", start=-3.0, stop=3.0, count=241),
                SweepAxis(name="dT", start=0.0, stop=12.0, count=121),
            ),
            cycles=(CycleKind.GQOC_ASYM,),
            outputs=("w", "eta"),
        )
        panels = (
            FigurePanel(name="work", columns=("B", "dT", "w")),
            FigurePanel(name="efficiency", columns=("B", "dT", "eta")),
        )
        return FigurePreset(name=name, runs=(FigureRun(key="surface", config=config, panels=panels),))

    if name == "figEP":
        runs = []
        for tm in _PRESET_MEAN_TEMPERATURES:
            key = _tm_key(tm)
            config = SweepConfig(
                base=_preset_base(tm, 2.0 * tm),
                axes=(_b_axis(),),
                cycles=(CycleKind.GQOC_ASYM,),
                outputs=("pi12", "pi34", "pi_total"),
            )
            panel = FigurePanel(name=key, columns=("B", "pi12", "pi34", "pi_total"))
            runs.append(FigureRun(key=key, config=config, panels=(panel,)))
        return FigurePreset(name=name, runs=tuple(runs))

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
