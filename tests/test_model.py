"""Spectrum, Hamiltonian oracle and transition-table tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from xxz_engine import (
    COUPLED_PAIRS,
    DegenerateCouplingError,
    SystemParams,
    eigenenergies,
    hamiltonian_matrix,
    transition_table,
)

finite_fields = st.floats(-3.0, 3.0, allow_nan=False)
finite_deltas = st.floats(0.0, 1.0, allow_nan=False)
couplings = st.floats(0.5, 2.0, allow_nan=False)


def ground_state_index(eigen) -> int:
    """1-based index of the minimal-energy state; ties break to the lowest index."""
    best = 1
    for state in (2, 3, 4):
        if eigen.energy(state) < eigen.energy(best):
            best = state
    return best


def test_zero_field_zero_anisotropy_energies():
    eigen = eigenenergies(SystemParams(B=0.0, J=1.0, delta=0.0))
    assert eigen.energies == (0.0, 0.0, -1.0, 1.0)


def test_example_energies_and_diagonalization_oracle():
    params = SystemParams(B=1.0, J=1.0, delta=0.10)
    eigen = eigenenergies(params)
    assert eigen.energies == pytest.approx((-0.95, 1.05, -1.05, 0.95), abs=1e-15)
    oracle = np.sort(np.linalg.eigvalsh(hamiltonian_matrix(params)))
    assert np.allclose(np.sort(eigen.as_array()), oracle, atol=1e-12, rtol=0.0)


def test_field_sign_swap_exchanges_product_states():
    plus = eigenenergies(SystemParams(B=1.0, J=1.0, delta=0.10))
    minus = eigenenergies(SystemParams(B=-1.0, J=1.0, delta=0.10))
    assert minus.energy(1) == plus.energy(2)
    assert minus.energy(2) == plus.energy(1)
    assert minus.energy(3) == plus.energy(3)
    assert minus.energy(4) == plus.energy(4)


def test_hamiltonian_eigenvalue_multisets():
    h0 = hamiltonian_matrix(SystemParams(B=0.0, J=1.0, delta=0.0))
    assert np.allclose(np.sort(np.linalg.eigvalsh(h0)), [-1.0, 0.0, 0.0, 1.0], atol=1e-14)
    h1 = hamiltonian_matrix(SystemParams(B=1.0, J=1.0, delta=0.10))
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(h1)), [-1.05, -0.95, 0.95, 1.05], atol=1e-12
    )


@given(finite_fields, couplings, finite_deltas)
def test_hamiltonian_is_traceless(B, J, delta):
    h = hamiltonian_matrix(SystemParams(B=B, J=J, delta=delta))
    assert abs(np.trace(h)) < 1e-14


def test_closed_form_matches_diagonalization_on_random_grid(rng):
    worst = 0.0
    for _ in range(1000):
        params = SystemParams(
            B=rng.uniform(-3, 3), J=rng.uniform(0.5, 2), delta=rng.uniform(0, 1)
        )
        closed = np.sort(eigenenergies(params).as_array())
        numeric = np.sort(np.linalg.eigvalsh(hamiltonian_matrix(params)))
        worst = max(worst, np.abs(closed - numeric).max())
    assert worst < 1e-12


@given(finite_fields, couplings, finite_deltas)
def test_energy_sum_and_gap_identities(B, J, delta):
    eigen = eigenenergies(SystemParams(B=B, J=J, delta=delta))
    scale = max(1.0, abs(B), abs(J), abs(delta))
    assert abs(sum(eigen.energies)) < 4e-15 * scale
    assert eigen.energy(1) - eigen.energy(3) == pytest.approx(delta + J - B, abs=1e-13)
    assert eigen.energy(2) - eigen.energy(4) == pytest.approx(delta - J + B, abs=1e-13)


def test_transition_table_canonical_orientation():
    eigen = eigenenergies(SystemParams(B=1.0, J=1.0, delta=0.10))
    table = transition_table(eigen, 1.0)
    t13, t14, _, _ = table
    assert (t13.upper, t13.lower) == (1, 3)
    assert t13.omega == pytest.approx(0.10, abs=1e-14)
    # E1 < E4 here, so the stored orientation flips
    assert (t14.upper, t14.lower) == (4, 1)
    assert t14.omega == pytest.approx(1.90, abs=1e-14)


def test_left_weights():
    eigen = eigenenergies(SystemParams(B=0.5, J=1.0, delta=0.10))
    asym = transition_table(eigen, 1.0)
    t13, t14, t23, t24 = asym
    assert t13.left_weight == 0.0
    assert t23.left_weight == 0.0
    assert t14.left_weight == 2.0
    assert t24.left_weight == 2.0
    sym = transition_table(eigen, 0.0)
    for entry in sym:
        assert entry.left_weight == 0.5
        assert entry.right_weight == 0.5


@given(finite_fields, couplings, finite_deltas, st.sampled_from([0.0, 1.0]))
def test_table_gaps_nonnegative_and_pairs_fixed(B, J, delta, epsilon):
    table = transition_table(eigenenergies(SystemParams(B=B, J=J, delta=delta)), epsilon)
    assert tuple(t.pair for t in table) == COUPLED_PAIRS
    for entry in table:
        assert entry.omega >= 0.0
        assert {entry.upper, entry.lower} == set(entry.pair)


def test_degenerate_flag_at_level_crossing():
    # B = delta + J puts E1 exactly on E3
    eigen = eigenenergies(SystemParams(B=1.10, J=1.0, delta=0.10))
    table = transition_table(eigen, 1.0)
    t13, _, t23, _ = table
    assert t13.degenerate
    assert not t23.degenerate


def test_ground_state_index():
    assert ground_state_index(eigenenergies(SystemParams(B=0.0, J=1.0, delta=0.10))) == 3
    assert ground_state_index(eigenenergies(SystemParams(B=2.0, J=1.0, delta=0.10))) == 1
    # exact tie E1 = E3 breaks to the lower index
    tied = eigenenergies(SystemParams(B=1.10, J=1.0, delta=0.10))
    assert tied.energy(1) == tied.energy(3)
    assert ground_state_index(tied) == 1


def test_rejects_degenerate_coupling():
    with pytest.raises(DegenerateCouplingError):
        SystemParams(B=0.0, J=1e-10, delta=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rejects_nonfinite_parameters(bad):
    with pytest.raises(ValueError):
        SystemParams(B=bad, J=1.0, delta=0.0)


@pytest.mark.parametrize("epsilon", [-0.1, 1.1, math.nan])
def test_rejects_epsilon_outside_unit_interval(epsilon):
    eigen = eigenenergies(SystemParams(B=0.0, J=1.0, delta=0.0))
    with pytest.raises(ValueError):
        transition_table(eigen, epsilon)
