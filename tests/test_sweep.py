"""Sweep engine: grids, ordering, error isolation, presets, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from xxz_engine import (
    ClosedFormInapplicableError,
    CycleKind,
    CycleSpec,
    NonUniqueSteadyStateError,
    SteadyStateError,
    SweepAxis,
    SweepConfig,
    evaluate_cycle,
    figure_preset,
    project_panel,
    run_sweep,
)
from xxz_engine import sweep as sweep_module


def small_config(**overrides):
    base = CycleSpec(
        kind=CycleKind.QOC, B=0.0, delta_c=0.10, delta_h=0.99,
        kappa=0.05, T_M=1.2, dT=2.4,
    )
    fields = dict(
        base=base,
        axes=(SweepAxis(name="B", start=-1.0, stop=1.0, count=5),),
        cycles=(CycleKind.QOC, CycleKind.GQOC_ASYM),
        outputs=("w", "eta"),
    )
    fields.update(overrides)
    return SweepConfig(**fields)


def test_axis_values_hit_endpoints_exactly():
    axis = SweepAxis(name="B", start=-3.0, stop=3.0, count=601)
    values = axis.values()
    assert len(values) == 601
    assert values[0] == -3.0 and values[-1] == 3.0
    assert values[300] == pytest.approx(0.0, abs=1e-15)


def test_rows_are_row_major_with_cycles_innermost():
    table = run_sweep(small_config())
    assert table.columns == ("B", "cycle", "w", "eta")
    assert len(table.rows) == 5 * 2
    fields = [row[0] for row in table.rows]
    assert fields == sorted(fields)  # outer axis is monotone
    kinds = [row[1] for row in table.rows[:2]]
    assert kinds == ["qoc", "gqoc-asym"]


def test_two_axis_grid_order():
    config = small_config(
        axes=(
            SweepAxis(name="B", start=0.0, stop=1.0, count=2),
            SweepAxis(name="dT", start=0.0, stop=2.4, count=3),
        ),
        cycles=(CycleKind.GQOC_ASYM,),
    )
    table = run_sweep(config)
    assert [row[:2] for row in table.rows] == [
        (0.0, 0.0), (0.0, 1.2), (0.0, 2.4), (1.0, 0.0), (1.0, 1.2), (1.0, 2.4)
    ]


def test_output_groups_expand():
    config = small_config(outputs=("w", "p_c"))
    assert config.outputs == ("w", "P1_c", "P2_c", "P3_c", "P4_c")


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(cycles=())
    for field, value in (("outputs", "w"), ("outputs", "eta"), ("cycles", "qoc")):
        with pytest.raises(ValueError, match=f"sweep {field} must be a sequence"):
            small_config(**{field: value})
    with pytest.raises(ValueError):
        small_config(outputs=("nonsense",))
    with pytest.raises(ValueError):
        small_config(axes=())
    with pytest.raises(ValueError):
        small_config(
            axes=(
                SweepAxis(name="B", start=0, stop=1, count=2),
                SweepAxis(name="B", start=0, stop=1, count=2),
            )
        )
    with pytest.raises(ValueError):
        SweepAxis(name="volume", start=0, stop=1, count=2)
    with pytest.raises(ValueError):
        SweepAxis(name="B", start=0, stop=1, count=1)


def test_invalid_points_become_error_rows():
    # delta_c sweeps past delta_h at the last two points
    config = small_config(
        axes=(SweepAxis(name="delta_c", start=0.50, stop=1.50, count=4),),
        cycles=(CycleKind.QOC,),
    )
    table = run_sweep(config)
    values = [row[2] for row in table.rows]
    assert isinstance(values[0], float) and isinstance(values[1], float)
    assert values[2] == "#ERR:DOMAIN" and values[3] == "#ERR:DOMAIN"


def test_failed_point_does_not_disturb_neighbors(monkeypatch):
    real = sweep_module.cycle_cells

    def flaky(spec, columns):
        if spec.B == 0.0:
            raise RuntimeError("injected")
        return real(spec, columns)

    clean = run_sweep(small_config(cycles=(CycleKind.QOC,)))
    monkeypatch.setattr(sweep_module, "cycle_cells", flaky)
    with pytest.raises(RuntimeError):
        run_sweep(small_config(cycles=(CycleKind.QOC,)))

    for error, code in (
        (ValueError, "DOMAIN"),
        (ArithmeticError, "DOMAIN"),
        (SteadyStateError, "NUMERIC"),
        (NonUniqueSteadyStateError, "NONUNIQUE"),
        (ClosedFormInapplicableError, "CLOSEDFORM"),
    ):
        def marked(spec, columns, error=error):
            if spec.B == 0.0:
                raise error("injected")
            return real(spec, columns)

        monkeypatch.setattr(sweep_module, "cycle_cells", marked)
        table = run_sweep(small_config(cycles=(CycleKind.QOC,)))
        assert table.rows[2][2:] == (f"#ERR:{code}",) * 2
        for good, row in zip(clean.rows[:2] + clean.rows[3:], table.rows[:2] + table.rows[3:]):
            assert good == row


def test_entropy_failure_marks_only_pi_cells():
    # T_floor = 0 with dT = 2 T_M puts the cold reservoir at T = 0: the
    # steady states and the work exist, the entropy flux does not
    base = CycleSpec(
        kind=CycleKind.GQOC_ASYM, B=0.0, delta_c=0.10, delta_h=0.99,
        kappa=0.05, T_M=1.2, dT=2.4, T_floor=0.0,
    )
    config = small_config(
        base=base,
        cycles=(CycleKind.GQOC_ASYM, CycleKind.QOC),
        outputs=("w", "eta", "pi12"),
    )
    for row in run_sweep(config).rows:
        B, kind, w, _, pi12 = row
        if kind == "qoc":  # gibbs_state rejects T = 0 by contract
            assert row[2:] == ("#ERR:DOMAIN",) * 3
            continue
        assert w == evaluate_cycle(replace(base, B=B)).w
        assert pi12 == "#ERR:DOMAIN"


def test_entropy_production_only_computed_when_requested(monkeypatch):
    clean = run_sweep(small_config(outputs=("w", "eta", "p_c", "E_h", "flags")))

    def forbidden(stage):
        raise AssertionError("entropy production computed for a sweep without pi* columns")

    monkeypatch.setattr(sweep_module, "stage_entropy_production", forbidden)
    assert run_sweep(small_config(outputs=("w", "eta", "p_c", "E_h", "flags"))).rows == clean.rows


def test_schedule_independence(monkeypatch):
    config = small_config()
    monkeypatch.setenv("XXZ_ENGINE_THREADS", "1")
    serial = run_sweep(config)
    monkeypatch.setenv("XXZ_ENGINE_THREADS", "7")
    threaded = run_sweep(config)
    assert serial.rows == threaded.rows


def test_thread_env_validation(monkeypatch):
    monkeypatch.setenv("XXZ_ENGINE_THREADS", "banana")
    with pytest.raises(ValueError):
        run_sweep(small_config())
    monkeypatch.setenv("XXZ_ENGINE_THREADS", "-2")
    with pytest.raises(ValueError):
        run_sweep(small_config())


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        figure_preset("fig9")


def test_fig5_preset_shape():
    preset = figure_preset("fig5")
    assert len(preset.runs) == 1
    config = preset.runs[0].config
    assert [a.name for a in config.axes] == ["B", "dT"]
    assert (config.axes[0].count, config.axes[1].count) == (241, 121)
    assert config.cycles == (CycleKind.GQOC_ASYM,)
    assert config.base.T_M == 6.0
    assert set(config.outputs) == {"w", "eta"}
    names = [p.name for p in preset.runs[0].panels]
    assert names == ["work", "efficiency"]


def test_fig2_preset_emits_both_parameterizations():
    preset = figure_preset("fig2")
    assert [run.key for run in preset.runs] == ["tm0.21", "tm1.2", "tm6"]
    for run in preset.runs:
        assert run.config.outputs == ("xi_diff", "w")
        assert run.config.base.dT == 2.0 * run.config.base.T_M
        panel = run.panels[0]
        assert "B" in panel.columns and "xi_diff" in panel.columns
        assert len(run.config.cycles) == 3


def test_figep_preset_reports_both_stages_and_total():
    preset = figure_preset("figEP")
    for run in preset.runs:
        assert run.config.outputs == ("pi12", "pi34", "pi_total")
        assert run.config.cycles == (CycleKind.GQOC_ASYM,)


def test_panel_projection_filters_and_projects():
    preset = figure_preset("fig3")
    run = preset.runs[0]
    config = SweepConfig(
        base=run.config.base,
        axes=(SweepAxis(name="B", start=-1.0, stop=1.0, count=3),),
        cycles=run.config.cycles,
        outputs=run.config.outputs,
    )
    table = run_sweep(config)
    pop_panel = next(p for p in run.panels if p.name == "pop_qoc")
    projected = project_panel(table, pop_panel)
    assert projected.columns[0] == "B"
    assert len(projected.rows) == 3  # one cycle's rows only
    work_panel = next(p for p in run.panels if p.name == "work")
    assert len(project_panel(table, work_panel).rows) == 9
