"""The array kernel against the scalar single-stage functions, and sweeps in chunks."""

import math
import warnings

import numpy as np
import pytest

from xxz_engine import (
    BathParams,
    CycleKind,
    CycleSpec,
    SteadyStateError,
    SweepAxis,
    SweepConfig,
    SystemParams,
    eigenenergies,
    evaluate_cycle,
    gibbs_state,
    run_sweep,
    stage_entropy_production,
    steady_state_solve,
    transition_rates,
    transition_table,
)
from xxz_engine import sweep as sweep_module
from xxz_engine.batch import ERROR_CELLS, FIELDS, REASONS, evaluate
from xxz_engine.cycles import batch_stages, cycle_result_from_stages
from xxz_engine.sweep import OUTPUT_KEYS, cycle_cells

KINDS = tuple(CycleKind)


def _points(rng, count):
    """Seeded cycle points: level crossings B = +-(delta + J), B = 0, the 0.005
    cold floor and T_floor = 0, dT in {0, 2 T_M}, kappa up to 1e5."""
    points = []
    for index in range(count):
        delta_c = rng.uniform(0.02, 0.6)
        delta_h = delta_c + rng.uniform(0.05, 1.0)
        T_M = rng.uniform(0.05, 8.0)
        B = (0.0, delta_c + 1.0, -(delta_c + 1.0), delta_h + 1.0, -(delta_h + 1.0),
             rng.uniform(-3.0, 3.0))[index % 6]
        points.append(dict(
            B=B, delta_c=delta_c, delta_h=delta_h,
            kappa=10.0 ** rng.uniform(-3.0, 5.0) if index % 3 == 0 else rng.uniform(0.01, 0.1),
            T_M=T_M, dT=2.0 * T_M if index % 4 else 0.0, J=1.0,
            T_floor=0.0 if index % 7 == 0 else 0.005,
        ))
    return points


def _reference_stages(kind, point):
    """(eigen, rates, populations) of both stages from the scalar functions."""
    t_hot = point["T_M"] + point["dT"] / 2.0
    t_cold = max(point["T_M"] - point["dT"] / 2.0, point["T_floor"])
    stages = []
    for delta, T_L, T_R in ((point["delta_c"], t_hot, t_cold), (point["delta_h"], t_cold, t_hot)):
        eigen = eigenenergies(SystemParams(B=point["B"], J=point["J"], delta=delta))
        if kind is CycleKind.QOC:
            stages.append((eigen, None, gibbs_state(eigen, T_R)))
            continue
        table = transition_table(eigen, kind.epsilon)
        rates = transition_rates(table, BathParams(T_L=T_L, T_R=T_R, kappa=point["kappa"]))
        stages.append((eigen, rates, steady_state_solve(rates)))
    return stages


def _bits(value):
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_kernel_matches_scalar_reference(kind, rng):
    points = _points(rng, 240)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # kappa above the Markov regime
        batch = evaluate(kind.epsilon, {name: [p[name] for p in points] for name in FIELDS},
                         pi=True)
    checked = 0
    for i, point in enumerate(points):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # kappa above the Markov regime
            try:
                reference = _reference_stages(kind, point)
            except (ValueError, SteadyStateError) as exc:
                # the kernel fails the row with the same class
                assert batch.reason[i] != 0, (point, exc)
                code = getattr(exc, "code", "DOMAIN")
                assert ERROR_CELLS[batch.reason[i]] == f"#ERR:{code}", (point, exc)
                continue
        assert batch.reason[i] == 0, (point, batch.error(i))
        checked += 1
        stages = batch_stages(batch, i)
        for s, (eigen, rates, populations) in enumerate(reference):
            assert stages[s].eigen.energies == eigen.energies
            if rates is not None:
                for got, ref in zip(np.ravel(stages[s].rates), np.ravel(rates)):
                    assert abs(got - ref) <= 1e-14 * abs(ref), (point, got, ref)
            for got, ref in zip(stages[s].populations.p, populations.p):
                if ref >= 1e-290:
                    assert abs(got - ref) <= 1e-12 * ref, (point, got, ref)
                else:
                    assert abs(got - ref) <= 1e-290, (point, got, ref)

        # the scalar cycle assembly on the kernel's own stages: bit for bit
        spec = CycleSpec(kind=kind, **point)
        result = cycle_result_from_stages(spec, *stages)
        eta = batch.eta[i]
        expected = (result.q12, result.q34, result.w, result.eta, result.xi12, result.xi34,
                    result.positive_work, result.unity)
        got = (batch.q12[i], batch.q34[i], batch.w[i], None if math.isnan(eta) else eta,
               batch.xi12[i], batch.xi34[i], batch.positive_work[i], batch.unity[i])
        assert [_bits(v) for v in expected] == [_bits(v.item() if hasattr(v, "item") else v)
                                                for v in got], point
        try:
            pi12, pi34 = (stage_entropy_production(stage) for stage in stages)
        except ValueError:
            assert not batch.pi_ok[i], point
            continue
        assert batch.pi_ok[i]
        assert [_bits(v) for v in (pi12, pi34, pi12 + pi34)] == [
            _bits(v) for v in batch.pi[:, i].tolist()], point
    assert checked > 150


def test_kernel_rows_raise_the_scalar_exceptions():
    spec = dict(B=1.5, delta_c=0.1, delta_h=0.99, kappa=0.05, T_M=1.2, dT=2.4)
    with pytest.warns(UserWarning), pytest.raises(SteadyStateError, match="not finite"):
        evaluate_cycle(CycleSpec(kind="gqoc-asym", **dict(spec, kappa=1e308)))
    with pytest.raises(ValueError, match="positive temperature"):
        evaluate_cycle(CycleSpec(kind="qoc", T_floor=0.0, **spec))
    with pytest.raises(ValueError, match="kappa must be positive"):
        evaluate_cycle(CycleSpec(kind="gqoc-sym", **dict(spec, kappa=-1.0)))
    with pytest.raises(ValueError, match="E3 and E4 degenerate"):
        evaluate_cycle(CycleSpec(kind="qoc", J=1e-12, **spec))
    # every reason formats its message and names a class the CLI maps to exit 2 or 3
    batch = evaluate(None, dict(spec, J=1.0, T_floor=0.005))
    for reason, (error, _) in enumerate(REASONS[1:], start=1):
        exc = batch._replace(reason=np.array([reason])).error(0)
        assert type(exc) is error and str(exc)
        assert isinstance(exc, (ValueError, SteadyStateError))


def test_kernel_kappa_warning_names_the_caller():
    spec = CycleSpec(kind="gqoc-asym", B=0.5, delta_c=0.1, delta_h=0.99, kappa=0.5,
                     T_M=1.2, dT=2.4)
    with pytest.warns(UserWarning, match="kappa = 0.5 exceeds") as record:
        evaluate_cycle(spec)
    assert record[0].filename == __file__
    config = SweepConfig(base=spec, axes=(SweepAxis(name="B", start=0.0, stop=1.0, count=2),),
                         cycles=(CycleKind.GQOC_ASYM,), outputs=("w",))
    with pytest.warns(UserWarning, match="kappa = 0.5 exceeds") as record:
        run_sweep(config)
    assert record[0].filename == __file__


def test_sweep_chunks_match_single_point_cells():
    base = CycleSpec(kind="qoc", B=0.0, delta_c=0.10, delta_h=0.99, kappa=0.05,
                     T_M=1.2, dT=2.4)
    config = SweepConfig(
        base=base,
        axes=(SweepAxis(name="B", start=-3.0, stop=3.0, count=70),
              SweepAxis(name="dT", start=0.0, stop=2.4, count=70)),
        cycles=(CycleKind.GQOC_ASYM, CycleKind.QOC),
        outputs=OUTPUT_KEYS,
    )
    assert 70 * 70 > sweep_module.CHUNK_POINTS
    table = run_sweep(config)
    assert len(table.rows) == 2 * 70 * 70
    boundary = 2 * sweep_module.CHUNK_POINTS
    for row in table.rows[:2] + table.rows[boundary - 2:boundary + 2] + table.rows[-2:]:
        B, dT, kind = row[:3]
        spec = CycleSpec(kind=kind, B=B, delta_c=0.10, delta_h=0.99, kappa=0.05, T_M=1.2, dT=dT)
        assert row[3:] == cycle_cells(spec, OUTPUT_KEYS)
    for row in table.rows:
        assert {type(cell) for cell in row} <= {float, bool, str, type(None)}
