"""Command-line surface and stable output formats.

Every subcommand writes machine-consumable CSV on stdout (or to the file
given with --out): exactly one header line plus data rows, floats with 12
significant digits, missing values (undefined efficiency) as empty fields
and failed cells as ``#ERR:<code>``.  Everything that is not data --
warnings, diagnostics, error messages -- goes to stderr.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure (sweeps still emit their table, with error-marked rows).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .baths import BathParams, transition_rates
from .cycles import CycleKind, CycleSpec, stage_entropy_production, stage_states
from .dynamics import evolve_populations, relaxation_time
from .model import SystemParams, eigenenergies, transition_table
from .steady import (
    ClosedFormInapplicableError,
    PopulationVector,
    SteadyStateError,
    generator_matrix,
    steady_state_closed_form,
    steady_state_solve,
)
from .sweep import (
    CYCLE_COLUMNS,
    FIGURE_NAMES,
    SweepAxis,
    SweepConfig,
    SweepTable,
    cycle_cells,
    figure_preset,
    project_panel,
    run_sweep,
)

#: Significant digits in every numeric output cell.
FLOAT_DIGITS = 12


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        return value
    return format(float(value), f".{FLOAT_DIGITS}g")


def render_table(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(format_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_text(path: str | Path, text: str):
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write(text)


def _check_epsilon(epsilon: float, allow_any: bool) -> float:
    if not allow_any and epsilon not in (0.0, 1.0):
        raise ValueError(
            "only epsilon 0 (symmetric) and 1 (asymmetric) are validated "
            "configurations; pass --allow-any-epsilon to explore in between"
        )
    return epsilon


def _system_args(parser: argparse.ArgumentParser):
    parser.add_argument("--B", type=float, required=True, help="magnetic field (units of J)")
    parser.add_argument("--J", type=float, default=1.0, help="interqubit coupling (default 1)")
    parser.add_argument("--delta", type=float, default=0.0, help="anisotropy")


def _bath_args(parser: argparse.ArgumentParser):
    parser.add_argument("--kappa", type=float, required=True, help="ohmic coupling constant")
    parser.add_argument("--epsilon", type=float, required=True,
                        help="coupling asymmetry: 0 symmetric, 1 asymmetric")
    parser.add_argument("--TL", type=float, required=True, help="left reservoir temperature")
    parser.add_argument("--TR", type=float, required=True, help="right reservoir temperature")
    parser.add_argument("--allow-any-epsilon", action="store_true",
                        help="accept epsilon strictly between 0 and 1")


def _cycle_args(parser: argparse.ArgumentParser):
    parser.add_argument("--kind", required=True,
                        choices=[k.value for k in CycleKind], help="cycle type")
    parser.add_argument("--B", type=float, required=True)
    parser.add_argument("--J", type=float, default=1.0)
    parser.add_argument("--delta-c", type=float, required=True, dest="delta_c")
    parser.add_argument("--delta-h", type=float, required=True, dest="delta_h")
    parser.add_argument("--kappa", type=float, required=True)
    parser.add_argument("--tm", type=float, required=True, help="mean reservoir temperature")
    parser.add_argument("--dt", type=float, required=True, help="temperature gradient")
    parser.add_argument("--t-floor", type=float, default=0.005, dest="t_floor",
                        help="cold reservoir floor (default 0.005)")


def _spec_from_args(args) -> CycleSpec:
    return CycleSpec(
        kind=CycleKind(args.kind),
        B=args.B,
        delta_c=args.delta_c,
        delta_h=args.delta_h,
        kappa=args.kappa,
        T_M=args.tm,
        dT=args.dt,
        J=args.J,
        T_floor=args.t_floor,
    )


def _rates_from_args(args):
    """(transition table, rates) of the system and baths on the command line."""
    epsilon = _check_epsilon(args.epsilon, args.allow_any_epsilon)
    eigen = eigenenergies(SystemParams(B=args.B, J=args.J, delta=args.delta))
    table = transition_table(eigen, epsilon)
    baths = BathParams(T_L=args.TL, T_R=args.TR, kappa=args.kappa)
    return table, transition_rates(table, baths)


def _cmd_eigensystem(args, out) -> int:
    eigen = eigenenergies(SystemParams(B=args.B, J=args.J, delta=args.delta))
    table = transition_table(eigen, 0.0)  # gaps do not depend on epsilon
    columns = ("E1", "E2", "E3", "E4", "omega13", "omega14", "omega23", "omega24")
    row = eigen.energies + tuple(t.omega for t in table)
    out.write(render_table(columns, [row]))
    return 0


def _cmd_rates(args, out) -> int:
    table, (left, right) = _rates_from_args(args)
    columns = ("pair", "upper", "lower", "omega", "degenerate",
               "emission_L", "absorption_L", "emission_R", "absorption_R",
               "emission_total", "absorption_total")
    rows = []
    for t in table:
        u, l = t.upper - 1, t.lower - 1
        rows.append((f"{t.pair[0]}-{t.pair[1]}", t.upper, t.lower, t.omega, t.degenerate,
                     left[l][u], left[u][l], right[l][u], right[u][l],
                     left[l][u] + right[l][u], left[u][l] + right[u][l]))
    out.write(render_table(columns, rows))
    return 0


def _cmd_steady(args, out) -> int:
    _, rates = _rates_from_args(args)
    if args.method == "solve":
        p = steady_state_solve(rates)
        out.write(render_table(("P1", "P2", "P3", "P4"), [p.p]))
        return 0
    if args.method == "closed":
        p = steady_state_closed_form(rates)
        out.write(render_table(("P1", "P2", "P3", "P4"), [p.p]))
        return 0
    solved = steady_state_solve(rates)
    columns = ("method", "P1", "P2", "P3", "P4", "max_abs_deviation")
    rows = [("solve",) + solved.p + (None,)]
    status = 0
    try:
        closed = steady_state_closed_form(rates)
        deviation = max(abs(a - b) for a, b in zip(closed.p, solved.p))
        rows.append(("closed",) + closed.p + (deviation,))
    except ClosedFormInapplicableError as exc:
        print(f"closed form inapplicable: {exc}", file=sys.stderr)
        rows.append(("closed",) + ("#ERR:CLOSEDFORM",) * 4 + (None,))
        status = 3
    out.write(render_table(columns, rows))
    return status


def _cmd_cycle(args, out) -> int:
    spec = _spec_from_args(args)
    cells = cycle_cells(spec, CYCLE_COLUMNS)
    for label, stage in zip(("1-2", "3-4"), stage_states(spec)):
        if stage.rates is not None:
            tau = relaxation_time(generator_matrix(stage.rates))
            print(f"stage {label} relaxation timescale: {tau:.6g}", file=sys.stderr)
    echo = ("kind", "B", "J", "delta_c", "delta_h", "kappa", "T_M", "dT", "T_floor")
    row = (spec.kind.value,) + tuple(getattr(spec, name) for name in echo[1:]) + cells
    out.write(render_table(echo + CYCLE_COLUMNS, [row]))
    return 0


def _cmd_relax(args, out) -> int:
    _, rates = _rates_from_args(args)
    if args.p0 is None:
        p0 = PopulationVector(p=(0.25, 0.25, 0.25, 0.25))
    else:
        parts = [float(x) for x in args.p0.split(",")]
        if len(parts) != 4:
            raise ValueError("--p0 takes four comma-separated probabilities")
        p0 = PopulationVector(p=tuple(parts))
    trajectory = evolve_populations(rates, p0, t_end=args.t_end, dt=args.step)
    columns = ("t", "P1", "P2", "P3", "P4")
    rows = [
        (trajectory.times[i],) + tuple(trajectory.populations[i])
        for i in range(len(trajectory))
    ]
    out.write(render_table(columns, rows))
    return 0


def _cmd_entropy(args, out) -> int:
    spec = _spec_from_args(args)
    stage_c, stage_h = stage_states(spec)
    pi12 = stage_entropy_production(stage_c)
    pi34 = stage_entropy_production(stage_h)
    out.write(render_table(("pi12", "pi34", "pi_total"), [(pi12, pi34, pi12 + pi34)]))
    return 0


_SWEEP_KEYS = ("base", "axes", "cycles", "outputs")
_AXIS_KEYS = ("name", "start", "stop", "count", "spacing")


def _reject_unknown_keys(doc: dict, allowed: tuple[str, ...], where: str):
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}; allowed: {list(allowed)}")


def _json_list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"sweep config {key!r} must be a JSON list, got {value!r}")
    return value


def sweep_config_from_dict(doc: dict) -> SweepConfig:
    """Build a SweepConfig from the documented JSON layout; unknown keys are errors."""
    if not isinstance(doc, dict):
        raise ValueError("sweep config must be a JSON object")
    _reject_unknown_keys(doc, _SWEEP_KEYS, "sweep config")
    axes = []
    for axis_doc in _json_list(doc, "axes"):
        if not isinstance(axis_doc, dict):
            raise ValueError(f"each axis must be a JSON object, got {axis_doc!r}")
        _reject_unknown_keys(axis_doc, _AXIS_KEYS, "axis")
        spacing = axis_doc.get("spacing", "linear")
        if spacing != "linear":
            raise ValueError(f"only linear axis spacing is supported, got {spacing!r}")
        axes.append(SweepAxis(
            name=axis_doc["name"],
            start=axis_doc["start"],
            stop=axis_doc["stop"],
            count=axis_doc["count"],
        ))
    base_doc = doc.get("base", {})
    if not isinstance(base_doc, dict):
        raise ValueError(f"sweep config 'base' must be a JSON object, got {base_doc!r}")
    base_doc = dict(base_doc)
    kind = base_doc.pop("kind", CycleKind.QOC.value)
    for axis in axes:  # axis-covered fields may be omitted from the base
        base_doc.setdefault(axis.name, axis.start)
    try:
        base = CycleSpec(kind=CycleKind(kind), **base_doc)
    except TypeError as exc:
        raise ValueError(f"bad sweep base: {exc}") from exc
    return SweepConfig(
        base=base,
        axes=tuple(axes),
        cycles=tuple(_json_list(doc, "cycles")),
        outputs=tuple(_json_list(doc, "outputs")),
    )


def sweep_config_to_dict(config: SweepConfig) -> dict:
    """The JSON layout ``sweep_config_from_dict`` reads back."""
    return {
        "base": dict(asdict(config.base), kind=config.base.kind.value),
        "axes": [asdict(axis) for axis in config.axes],
        "cycles": [c.value for c in config.cycles],
        "outputs": list(config.outputs),
    }


def _table_status(table: SweepTable) -> int:
    for row in table.rows:
        for cell in row:
            if isinstance(cell, str) and cell.startswith("#ERR:"):
                return 3
    return 0


def _cmd_sweep(args, out) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    config = sweep_config_from_dict(doc)
    table = run_sweep(config)
    text = render_table(table.columns, table.rows)
    if args.out is None:
        out.write(text)
    else:
        _write_text(args.out, text)
        print(f"wrote {len(table.rows)} rows to {args.out}", file=sys.stderr)
    return _table_status(table)


def _cmd_figure(args, out) -> int:
    preset = figure_preset(args.name)
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    status = 0
    for run in preset.runs:
        table = run_sweep(run.config)
        status = max(status, _table_status(table))
        for panel in run.panels:
            projected = project_panel(table, panel)
            path = directory / f"{preset.name}_{panel.name}.csv"
            _write_text(path, render_table(projected.columns, projected.rows))
            print(f"wrote {path}", file=sys.stderr)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxz-engine",
        description="Quantum Otto machines on a two-qubit XXZ working substance: "
                    "spectra, dissipator rates, steady states, cycle thermodynamics, "
                    "entropy production and parameter sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigensystem", help="closed-form energies and canonical gaps")
    _system_args(p)
    p.set_defaults(func=_cmd_eigensystem)

    p = sub.add_parser("rates", help="emission/absorption rates as CSV")
    _system_args(p)
    _bath_args(p)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("steady", help="stationary populations")
    _system_args(p)
    _bath_args(p)
    p.add_argument("--method", choices=("solve", "closed", "both"), default="solve")
    p.set_defaults(func=_cmd_steady)

    p = sub.add_parser("cycle", help="one full cycle evaluation")
    _cycle_args(p)
    p.set_defaults(func=_cmd_cycle)

    p = sub.add_parser("relax", help="fixed-step relaxation trajectory as CSV")
    _system_args(p)
    _bath_args(p)
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.add_argument("--dt", type=float, required=True, dest="step",
                   help="integrator step size")
    p.add_argument("--p0", default=None,
                   help="initial populations 'p1,p2,p3,p4' (default uniform)")
    p.set_defaults(func=_cmd_relax)

    p = sub.add_parser("entropy", help="stage entropy production rates")
    _cycle_args(p)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("sweep", help="run a JSON-configured parameter sweep")
    p.add_argument("--config", required=True, help="sweep config JSON path")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("figure", help="emit the preset data sets, one CSV per panel")
    p.add_argument("name", choices=FIGURE_NAMES)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except SteadyStateError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
