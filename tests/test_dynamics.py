"""Heat currents, entropy bookkeeping and the fixed-step integrator."""

import numpy as np
import pytest

from xxz_engine import (
    IntegrationStabilityError,
    PopulationVector,
    entropy_balance_along,
    entropy_flux,
    entropy_production_steady,
    evolve_populations,
    generator_matrix,
    gibbs_state,
    heat_currents,
    relaxation_time,
    shannon_entropy,
    spectral_gap,
    steady_state_solve,
)

from conftest import build_rates, synthetic_rates


def _random_config(rng, t_low=0.005, t_high=12.0):
    return dict(
        B=rng.uniform(-3, 3),
        delta=rng.uniform(0.05, 1),
        T_L=rng.uniform(t_low, t_high),
        T_R=rng.uniform(t_low, t_high),
        kappa=rng.uniform(0.01, 0.1),
        epsilon=float(rng.integers(0, 2)),
    )


def test_equilibrium_heat_currents_vanish():
    eigen, rates = build_rates(B=0.4, delta=0.3, T_L=1.2, T_R=1.2, epsilon=0.0)
    thermal = gibbs_state(eigen, 1.2)
    q_l, q_r = heat_currents(rates, thermal, eigen)
    assert abs(q_l) < 1e-12 and abs(q_r) < 1e-12


def test_steady_state_currents_balance(rng):
    worst = 0.0
    for _ in range(100):
        eigen, rates = build_rates(**_random_config(rng))
        populations = steady_state_solve(rates)
        q_l, q_r = heat_currents(rates, populations, eigen)
        worst = max(worst, abs(q_l + q_r))
    assert worst < 1e-10


def test_pure_decay_releases_gap_energy():
    # single pair (1,3), emission 1 split evenly over the sides, gap 0.1
    from xxz_engine import SystemParams, eigenenergies

    rates = synthetic_rates(p13=dict(eL=0.5, eR=0.5))
    eigen = eigenenergies(SystemParams(B=1.0, J=1.0, delta=0.10))  # E1 - E3 = 0.1
    excited = PopulationVector(p=(1.0, 0.0, 0.0, 0.0))
    q_l, q_r = heat_currents(rates, excited, eigen)
    assert q_l + q_r == pytest.approx(-0.1, abs=1e-15)


def test_entropy_flux_values():
    assert entropy_flux(0.0, 0.0, 1.0, 2.0) == 0.0
    q = 0.3
    phi = entropy_flux(-q, q, 0.5, 2.0)  # heat q enters from the hot right side
    assert phi == pytest.approx(q * (1 / 0.5 - 1 / 2.0))
    assert phi > 0.0
    with pytest.raises(ValueError):
        entropy_flux(0.1, -0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        entropy_flux(0.1, -0.1, 1.0, -2.0)


def test_entropy_production_zero_at_equilibrium():
    eigen, rates = build_rates(B=0.7, delta=0.4, T_L=0.9, T_R=0.9, epsilon=1.0)
    assert abs(entropy_production_steady(rates, eigen, 0.9, 0.9)) < 1e-12


def test_entropy_production_scales_linearly_with_kappa():
    eigen, slow = build_rates(B=0.5, delta=0.1, T_L=2.4, T_R=0.8, kappa=0.05, epsilon=1.0)
    _, fast = build_rates(B=0.5, delta=0.1, T_L=2.4, T_R=0.8, kappa=0.10, epsilon=1.0)
    pi_slow = entropy_production_steady(slow, eigen, 2.4, 0.8)
    pi_fast = entropy_production_steady(fast, eigen, 2.4, 0.8)
    assert pi_fast / pi_slow == pytest.approx(2.0, rel=1e-10)


def test_entropy_production_nonnegative(rng):
    for _ in range(100):
        config = _random_config(rng)
        eigen, rates = build_rates(**config)
        pi = entropy_production_steady(rates, eigen, config["T_L"], config["T_R"])
        assert pi > -1e-12


def test_evolution_holds_fixed_point():
    eigen, rates = build_rates(B=0.6, delta=0.2, T_L=1.9, T_R=0.4, epsilon=1.0)
    steady = steady_state_solve(rates)
    m = generator_matrix(rates).matrix
    dt = 0.05 / np.abs(np.diag(m)).max()
    trajectory = evolve_populations(rates, steady, t_end=50 * dt, dt=dt)
    drift = np.abs(trajectory.populations - steady.as_array()).max()
    assert drift < 1e-10


def test_evolution_converges_to_steady_state(rng):
    for _ in range(5):
        eigen, rates = build_rates(**_random_config(rng, t_low=0.5))
        steady = steady_state_solve(rates)
        m = generator_matrix(rates).matrix
        gap = spectral_gap(m)
        dt = 0.05 / np.abs(np.diag(m)).max()
        weights = rng.random(4)
        start = PopulationVector(p=tuple(weights / weights.sum()))
        trajectory = evolve_populations(rates, start, t_end=50.0 / gap, dt=dt)
        assert np.abs(trajectory.final().as_array() - steady.as_array()).max() < 1e-8
        sums = trajectory.populations.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12


def test_zero_generator_keeps_populations_frozen():
    rates = synthetic_rates()
    start = PopulationVector(p=(0.4, 0.3, 0.2, 0.1))
    trajectory = evolve_populations(rates, start, t_end=1.0, dt=0.1)
    assert np.all(trajectory.populations == start.as_array())


def test_stability_guard():
    _, rates = build_rates(B=0.5, delta=0.1, T_L=2.4, T_R=0.005, epsilon=1.0)
    m = generator_matrix(rates).matrix
    bad_dt = 0.2 / np.abs(np.diag(m)).max()
    start = PopulationVector(p=(0.25, 0.25, 0.25, 0.25))
    with pytest.raises(IntegrationStabilityError):
        evolve_populations(rates, start, t_end=10 * bad_dt, dt=bad_dt)
    with pytest.raises(ValueError):
        evolve_populations(rates, start, t_end=0.0, dt=0.1)


def test_entropy_balance_along_equilibrium_trajectory():
    eigen, rates = build_rates(B=0.3, delta=0.5, T_L=1.4, T_R=1.4, epsilon=0.0)
    thermal = gibbs_state(eigen, 1.4)
    m = generator_matrix(rates).matrix
    dt = 0.05 / np.abs(np.diag(m)).max()
    trajectory = evolve_populations(rates, thermal, t_end=30 * dt, dt=dt)
    balance = entropy_balance_along(trajectory, rates, eigen, 1.4, 1.4)
    assert np.abs(balance).max() < 1e-9


def test_entropy_balance_tail_matches_steady_value():
    eigen, rates = build_rates(B=0.5, delta=0.1, T_L=2.4, T_R=0.8, kappa=0.05, epsilon=1.0)
    m = generator_matrix(rates).matrix
    gap = spectral_gap(m)
    dt = 0.03 / np.abs(np.diag(m)).max()
    start = PopulationVector(p=(0.25, 0.25, 0.25, 0.25))
    trajectory = evolve_populations(rates, start, t_end=50.0 / gap, dt=dt)
    balance = entropy_balance_along(trajectory, rates, eigen, 2.4, 0.8)
    steady_pi = entropy_production_steady(rates, eigen, 2.4, 0.8)
    assert balance[-1, 2] == pytest.approx(steady_pi, abs=1e-6)
    assert balance[:, 2].min() > -1e-8  # second law along the relaxation


def test_shannon_entropy_basics():
    assert shannon_entropy(PopulationVector(p=(1.0, 0.0, 0.0, 0.0))) == 0.0
    uniform = shannon_entropy(PopulationVector(p=(0.25, 0.25, 0.25, 0.25)))
    assert uniform == pytest.approx(np.log(4.0), rel=1e-14)


def test_spectral_gap_single_pair():
    rates = synthetic_rates(p13=dict(eL=0.3, aL=0.1))
    m = generator_matrix(rates).matrix
    assert spectral_gap(m) == pytest.approx(0.4, rel=1e-12)
    assert relaxation_time(m) == pytest.approx(2.5, rel=1e-12)
    with pytest.raises(ValueError):
        spectral_gap(generator_matrix(synthetic_rates()).matrix)
