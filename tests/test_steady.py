"""Generator assembly, steady-state solver/closed-form/Gibbs cross-checks."""

import warnings

import numpy as np
import pytest

from xxz_engine import (
    ClosedFormInapplicableError,
    CycleKind,
    CycleSpec,
    NonUniqueSteadyStateError,
    PopulationVector,
    SteadyStateError,
    SystemParams,
    eigenenergies,
    generator_matrix,
    gibbs_state,
    stage_populations,
    steady_state_closed_form,
    steady_state_solve,
)
from xxz_engine.batch import tree_steady_state

from conftest import build_rates, synthetic_rates


def test_zero_rates_give_zero_generator():
    m = generator_matrix(synthetic_rates()).matrix
    assert np.all(m == 0.0)


def test_generator_columns_sum_to_exact_zero(rng):
    for _ in range(50):
        _, rates = build_rates(
            B=rng.uniform(-3, 3),
            delta=rng.uniform(0.05, 1),
            T_L=rng.uniform(0.005, 12),
            T_R=rng.uniform(0.005, 12),
            kappa=rng.uniform(0.01, 0.1),
            epsilon=float(rng.integers(0, 2)),
        )
        m = generator_matrix(rates).matrix
        scale = max(np.abs(m).max(), 1.0)
        assert np.abs(m.sum(axis=0)).max() <= 1e-15 * scale
        off = m - np.diag(np.diag(m))
        assert np.all(off >= 0.0)


def test_single_pair_pure_decay_generator():
    rates = synthetic_rates(p13=dict(eL=0.6, eR=0.4))  # total emission 1, no absorption
    m = generator_matrix(rates).matrix
    p = np.array([1.0, 0.0, 0.0, 0.0])
    dp = m @ p
    assert dp[0] == -1.0  # state 1 decays
    assert dp[2] == 1.0  # state 3 collects
    assert dp[1] == dp[3] == 0.0


def test_equal_temperatures_recover_gibbs(rng):
    worst = 0.0
    for _ in range(100):
        B = rng.uniform(-3, 3)
        delta = rng.uniform(0.05, 1)
        T = rng.uniform(0.1, 10)
        for epsilon in (0.0, 1.0):
            eigen, rates = build_rates(B=B, delta=delta, T_L=T, T_R=T, epsilon=epsilon)
            solved = steady_state_solve(rates).as_array()
            thermal = gibbs_state(eigen, T).as_array()
            worst = max(worst, np.abs(solved - thermal).max())
    assert worst < 1e-10


def test_asymmetric_high_gradient_pins_singlet():
    _, rates = build_rates(B=0.5, delta=0.1, T_L=2.4, T_R=0.005, kappa=0.05, epsilon=1.0)
    populations = steady_state_solve(rates)
    assert populations.probability(3) > 0.99


def test_symmetric_high_gradient_stays_mixed():
    _, rates = build_rates(B=0.5, delta=0.1, T_L=2.4, T_R=0.005, kappa=0.05, epsilon=0.0)
    populations = steady_state_solve(rates)
    assert populations.probability(3) < 0.99


def test_all_zero_rates_is_non_unique():
    with pytest.raises(NonUniqueSteadyStateError):
        steady_state_solve(synthetic_rates())


def test_disconnected_level_graph_is_non_unique():
    # epsilon = 1, both reservoirs at T = 0 and B = delta + J: the (1,3) gap
    # closes, its rates vanish, and states 1 and 3 become separate sinks.
    _, rates = build_rates(B=1.10, delta=0.10, T_L=0.0, T_R=0.0, kappa=0.05, epsilon=1.0)
    with pytest.raises(NonUniqueSteadyStateError):
        steady_state_solve(rates)


@pytest.mark.parametrize("kind, T_M, dT, kappa, ref_kappa", [
    (CycleKind.GQOC_ASYM, 6.0, 12.0, 1e5, 0.05),  # strong coupling
    (CycleKind.GQOC_SYM, 1e7, 1.0, 0.05, 5e-5),  # hot reservoirs
])
def test_residual_check_scales_with_the_rates(kind, T_M, dT, kappa, ref_kappa):
    # the populations do not depend on kappa, but the residual max|M P|
    # grows with the rate scale: large rates must not be rejected
    def populations(kappa):
        spec = CycleSpec(kind=kind, B=1.5, delta_c=0.1, delta_h=0.99,
                         kappa=kappa, T_M=T_M, dT=dT)
        return [p for stage in stage_populations(spec) for p in stage.p]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # kappa above the weak-coupling warning
        scaled = populations(kappa)
    for got, ref in zip(scaled, populations(ref_kappa)):
        assert got == pytest.approx(ref, rel=1e-12)


def test_overflowed_rates_are_a_numerical_failure():
    spec = CycleSpec(kind=CycleKind.GQOC_ASYM, B=1.5, delta_c=0.1, delta_h=0.99,
                     kappa=1e308, T_M=6.0, dT=12.0)
    with pytest.warns(UserWarning), pytest.raises(SteadyStateError, match="not finite") as excinfo:
        stage_populations(spec)
    assert excinfo.value.code == "NUMERIC"


def test_solver_is_deterministic():
    _, rates = build_rates(B=0.7, delta=0.3, T_L=1.7, T_R=0.2, epsilon=1.0)
    first = steady_state_solve(rates)
    second = steady_state_solve(rates)
    assert first.p == second.p  # bit-stable across calls


def test_residual_and_closed_form_agreement_on_random_grid(rng):
    worst_residual = 0.0
    worst_gap = 0.0
    applicable = 0
    for _ in range(1000):
        _, rates = build_rates(
            B=rng.uniform(-3, 3),
            delta=rng.uniform(0.05, 1),
            T_L=rng.uniform(0.005, 12),
            T_R=rng.uniform(0.005, 12),
            kappa=rng.uniform(0.01, 0.1),
            epsilon=float(rng.integers(0, 2)),
        )
        solved = steady_state_solve(rates)
        m = generator_matrix(rates).matrix
        worst_residual = max(worst_residual, np.abs(m @ solved.as_array()).max())
        try:
            closed = steady_state_closed_form(rates)
        except ClosedFormInapplicableError:
            continue
        applicable += 1
        worst_gap = max(
            worst_gap, np.abs(closed.as_array() - solved.as_array()).max()
        )
    assert worst_residual < 1e-12
    assert worst_gap < 1e-9
    assert applicable > 600  # the frozen corner of the grid legitimately opts out


def test_closed_form_matches_gibbs_at_equal_temperatures():
    eigen, rates = build_rates(B=0.4, delta=0.6, T_L=1.1, T_R=1.1, epsilon=0.0)
    closed = steady_state_closed_form(rates).as_array()
    thermal = gibbs_state(eigen, 1.1).as_array()
    assert np.abs(closed - thermal).max() < 1e-9


def test_closed_form_rejects_vanishing_denominators():
    with pytest.raises(ClosedFormInapplicableError):
        steady_state_closed_form(synthetic_rates())


def test_gibbs_high_temperature_is_maximally_mixed():
    eigen = eigenenergies(SystemParams(B=0.5, J=1.0, delta=0.1))
    populations = gibbs_state(eigen, 1e6).as_array()
    assert np.abs(populations - 0.25).max() < 1e-5


def test_gibbs_low_temperature_freezes_into_ground_state():
    eigen = eigenenergies(SystemParams(B=0.5, J=1.0, delta=0.1))
    populations = gibbs_state(eigen, 0.005)
    assert populations.probability(3) > 1.0 - 1e-8
    for state in (1, 2, 4):
        assert populations.probability(state) < 1e-8


def test_gibbs_ratio_identity(rng):
    for _ in range(50):
        eigen = eigenenergies(
            SystemParams(B=rng.uniform(-2, 2), J=1.0, delta=rng.uniform(0, 1))
        )
        T = rng.uniform(0.5, 5)
        populations = gibbs_state(eigen, T)
        expected = np.exp((eigen.energy(3) - eigen.energy(1)) / T)
        assert populations.probability(1) / populations.probability(3) == pytest.approx(
            expected, rel=1e-12
        )


def test_gibbs_rejects_nonpositive_temperature():
    eigen = eigenenergies(SystemParams(B=0.0, J=1.0, delta=0.0))
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            gibbs_state(eigen, bad)


def test_population_vector_validation():
    with pytest.raises(ValueError):
        PopulationVector(p=(0.5, 0.5, 0.5, -0.5))
    with pytest.raises(ValueError):
        PopulationVector(p=(0.3, 0.3, 0.3, 0.3))
    PopulationVector(p=(0.25, 0.25, 0.25, 0.25))  # valid


def _oracle_populations(mpmath, rates):
    """Row-replaced LU solve of the same float rates at 400 digits."""
    with mpmath.workdps(400):
        m = mpmath.zeros(4, 4)
        for r in range(4):
            for c in range(4):
                m[r, c] = mpmath.mpf(rates.left[r][c] + rates.right[r][c])
        for col in range(4):
            m[col, col] = -sum(m[row, col] for row in range(4) if row != col)
            m[0, col] = mpmath.mpf(1)
        return list(mpmath.lu_solve(m, mpmath.matrix([1, 0, 0, 0])))


def test_deep_freeze_keeps_relative_accuracy(rng):
    # tiny populations must match a high-precision oracle componentwise in
    # relative terms, not just come out with the right magnitude
    mpmath = pytest.importorskip("mpmath")
    frozen = dict(B=0.5, delta=0.1, T_L=0.42, T_R=0.005, kappa=0.05, epsilon=1.0)
    _, rates = build_rates(**frozen)
    for state in (1, 2, 4):
        assert 0.0 < steady_state_solve(rates).probability(state) < 1e-40
    cases = [frozen]
    for index in range(200):
        delta = rng.uniform(0.05, 1)
        crossing = (delta + 1.0) * (1 if index % 2 else -1)
        cases.append(dict(
            B=crossing if index % 5 == 0 else rng.uniform(-3, 3),
            delta=delta,
            T_L=0.005 if index % 3 == 0 else rng.uniform(0.005, 12),
            T_R=0.005 if index % 4 < 2 else rng.uniform(0.005, 12),
            kappa=rng.uniform(0.01, 0.1),
            epsilon=float(index % 2),
        ))
    rate_sets = [build_rates(**case)[1] for case in cases]
    # the array kernel's tree on the same float rates, all cases at once
    kernel, reasons = tree_steady_state(np.array(rate_sets, dtype=float))
    assert not reasons.any()
    smallest = 1.0
    for case, rates, batched in zip(cases, rate_sets, kernel.tolist()):
        solved = steady_state_solve(rates).p
        for got, got_batched, ref in zip(solved, batched, _oracle_populations(mpmath, rates)):
            smallest = min(smallest, float(ref))
            for value in (got, got_batched):
                if ref >= 1e-290:
                    assert abs((value - ref) / ref) <= 1e-12, (case, value, ref)
                else:
                    assert abs(value - ref) <= 1e-290, (case, value, ref)
    assert smallest < 1e-90  # the cases reach the deeply frozen regime
