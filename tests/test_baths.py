"""Bose occupation, rate construction and aggregate-limit tests."""

import math

import pytest
from hypothesis import given, strategies as st

from xxz_engine import (
    BathParams,
    SystemParams,
    bose_occupation,
    eigenenergies,
    transition_rates,
    transition_table,
)

from conftest import build_rates

# frozen from a 30-digit evaluation of 1/(exp(omega/T) - 1)
BOSE_1_1 = 0.581976706869326424
BOSE_21_24 = 0.714860005257567


def side_rates(table, matrix):
    """(transition, emission, absorption) per coupled pair, read off one
    reservoir's jump-rate matrix in the pair's energy orientation."""
    for t in table:
        u, l = t.upper - 1, t.lower - 1
        yield t, matrix[l][u], matrix[u][l]


def table_and_rates(B, delta, T_L, T_R, kappa=0.05, epsilon=1.0):
    """(transition table, rates) for one system/bath configuration."""
    table = transition_table(eigenenergies(SystemParams(B=B, J=1.0, delta=delta)), epsilon)
    return table, transition_rates(table, BathParams(T_L=T_L, T_R=T_R, kappa=kappa))


def high_gradient_aggregates(table, baths: BathParams) -> dict[str, float]:
    """Deviation of the rate aggregates from their cold-left-reservoir limits.

    In the asymmetric configuration with the left reservoir cold (the stage
    3-4 layout), the aggregates lose their left-temperature dependence as
    T_L -> 0: absorption reduces to the right-side rate on every pair, and
    total emission reduces to the right-side rate plus the temperature-
    independent left-side term left_weight * kappa * omega on the pairs
    involving state 4 (the left weight vanishes on the state-3 pairs).
    Returns the absolute deviation per aggregate, keyed ``"A_ij"`` /
    ``"E_ij"``; all zero at T_L = 0 exactly, and suppressed by the Bose
    tail exp(-omega/T_L) for small T_L.

    Only defined for the epsilon = 1 table (left weights 0 and 2).
    """
    if any(t.left_weight != (2.0 if t.pair[1] == 4 else 0.0) for t in table):
        raise ValueError("high-gradient aggregate check requires epsilon = 1")
    rates = transition_rates(table, baths)
    left = side_rates(table, rates.left)
    right = side_rates(table, rates.right)
    report = {}
    for (t, e_l, a_l), (_, e_r, a_r) in zip(left, right):
        i, j = t.pair
        a_limit = a_r
        e_limit = e_r
        if j == 4 and not t.degenerate:
            e_limit += 2.0 * baths.kappa * t.omega  # left weight (1+1)^2/2
        report[f"A_{i}{j}"] = abs((a_l + a_r) - a_limit)
        report[f"E_{i}{j}"] = abs((e_l + e_r) - e_limit)
    return report


def test_bose_zero_temperature():
    assert bose_occupation(1.0, 0.0) == 0.0


def test_bose_unit_point():
    assert bose_occupation(1.0, 1.0) == pytest.approx(BOSE_1_1, rel=1e-14)


def test_bose_hot_stage_gap():
    # omega23 at B=1, delta=0.1 against the floored hot-stage temperature
    assert bose_occupation(2.1, 2.4) == pytest.approx(BOSE_21_24, rel=1e-13)


def test_bose_rejects_nonpositive_omega():
    with pytest.raises(ValueError):
        bose_occupation(0.0, 1.0)
    with pytest.raises(ValueError):
        bose_occupation(-1.0, 1.0)


def test_bose_extreme_ratio_does_not_overflow():
    assert bose_occupation(1.0, 1e-6) == 0.0  # exp(-1e6) underflows cleanly
    assert bose_occupation(1e-9, 1e3) == pytest.approx(1e12, rel=1e-6)


@given(st.floats(1e-6, 50.0), st.floats(1e-3, 100.0))
def test_detailed_balance_ratio(omega, T):
    if omega / T > 600.0:  # keep the reference exponential representable
        return
    n = bose_occupation(omega, T)
    if n == 0.0:
        return
    assert (1.0 + n) / n == pytest.approx(math.exp(omega / T), rel=1e-12)


@given(st.floats(0.1, 5.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
def test_bose_monotone_in_temperature(omega, t_low, t_high):
    lo, hi = sorted((t_low, t_high))
    assert bose_occupation(omega, lo) <= bose_occupation(omega, hi)


def test_rates_scale_exactly_linearly_in_kappa():
    _, base = build_rates(B=0.7, delta=0.3, T_L=1.5, T_R=0.4, kappa=0.05, epsilon=0.0)
    _, doubled = build_rates(B=0.7, delta=0.3, T_L=1.5, T_R=0.4, kappa=0.10, epsilon=0.0)
    for a, b in zip(base, doubled):  # left, then right
        for row_a, row_b in zip(a, b):
            for rate_a, rate_b in zip(row_a, row_b):
                assert rate_b == 2.0 * rate_a


def test_detailed_balance_per_pair_and_side(rng=None):
    import numpy as np

    rng = np.random.default_rng(4242)
    for _ in range(50):
        t_l, t_r = rng.uniform(0.05, 12, size=2)
        table, rates = table_and_rates(
            B=rng.uniform(-3, 3), delta=rng.uniform(0.05, 1),
            T_L=t_l, T_R=t_r, kappa=rng.uniform(0.01, 0.1),
            epsilon=float(rng.integers(0, 2)),
        )
        for matrix, T in ((rates.left, t_l), (rates.right, t_r)):
            for entry, emission, absorption in side_rates(table, matrix):
                if absorption == 0.0 or entry.degenerate:
                    continue
                assert emission / absorption == pytest.approx(
                    math.exp(entry.omega / T), rel=1e-12
                )


def test_rates_monotone_in_temperature():
    _, cold = build_rates(B=0.5, delta=0.1, T_L=0.5, T_R=0.5, epsilon=0.0)
    _, hot = build_rates(B=0.5, delta=0.1, T_L=2.0, T_R=2.0, epsilon=0.0)
    for row_a, row_b in zip(cold.left, hot.left):
        for rate_a, rate_b in zip(row_a, row_b):
            assert rate_b >= rate_a


def test_asymmetric_coupling_silences_left_singlet_rates():
    for t_l, t_r in ((2.4, 0.005), (0.3, 7.0)):
        _, rates = build_rates(B=0.5, delta=0.1, T_L=t_l, T_R=t_r, epsilon=1.0)
        for i in (0, 1):  # states 1 and 2 against the singlet, state 3
            assert rates.left[2][i] == 0.0
            assert rates.left[i][2] == 0.0


def test_zero_temperature_right_absorption_vanishes():
    table, rates = table_and_rates(B=0.5, delta=0.1, T_L=2.4, T_R=0.0, epsilon=1.0)
    for _, _, absorption in side_rates(table, rates.right):
        assert absorption == 0.0


def test_cold_emission_example():
    # gamma_13^(R,e) at B=1: kappa*(B_cr - B)/2 up to the frozen Bose tail
    _, rates = build_rates(B=1.0, delta=0.1, T_L=2.4, T_R=0.005, kappa=0.05, epsilon=1.0)
    rate = rates.right[2][0]  # E1 > E3 here: emission is the jump 1 -> 3
    assert rate == pytest.approx(0.00250000000515288, rel=1e-9)
    assert abs(rate - 0.0025) < 1e-10


def test_symmetric_sides_match_at_equal_temperature():
    _, rates = build_rates(B=0.4, delta=0.2, T_L=1.3, T_R=1.3, epsilon=0.0)
    for row_l, row_r in zip(rates.left, rates.right):
        for rate_l, rate_r in zip(row_l, row_r):
            assert rate_l == pytest.approx(rate_r, rel=1e-15)


def test_degenerate_entry_uses_analytic_limit():
    # B = delta + J makes omega13 exactly zero
    table, rates = table_and_rates(B=1.10, delta=0.10, T_L=0.8, T_R=0.3, kappa=0.05, epsilon=0.0)
    assert table[0].degenerate
    assert rates.left[2][0] == 0.5 * 0.05 * 0.8
    assert rates.left[0][2] == rates.left[2][0]
    assert rates.right[2][0] == 0.5 * 0.05 * 0.3


def test_small_gap_rates_approach_degenerate_limit():
    # at omega = 1e-6 and T = 100 the relative gap to w*kappa*T is omega/(2T) ~ 5e-9
    delta, J = 0.10, 1.0
    omega = 1e-6
    eigen = eigenenergies(SystemParams(B=delta + J - omega, J=J, delta=delta))
    table = transition_table(eigen, 0.0)
    entry = table[0]  # the pair (1, 3), E1 above E3
    assert not entry.degenerate
    for T in (100.0, 300.0):
        rates = transition_rates(table, BathParams(T_L=T, T_R=T, kappa=0.05))
        limit = 0.5 * 0.05 * T
        got = rates.left[0][2]
        assert got == pytest.approx(limit, rel=1e-8)
        assert rates.left[2][0] == pytest.approx(limit, rel=1e-8)


def test_high_gradient_aggregates_zero_at_cold_left():
    eigen = eigenenergies(SystemParams(B=1.0, J=1.0, delta=0.99))
    table = transition_table(eigen, 1.0)
    report = high_gradient_aggregates(
        table, BathParams(T_L=0.0, T_R=12.0, kappa=0.05)
    )
    assert set(report) == {f"{k}_{i}{j}" for k in "AE" for i, j in ((1, 3), (1, 4), (2, 3), (2, 4))}
    assert all(v == 0.0 for v in report.values())


def test_high_gradient_aggregates_bose_tail_bound():
    eigen = eigenenergies(SystemParams(B=1.0, J=1.0, delta=0.10))  # omega14 = 1.9
    table = transition_table(eigen, 1.0)
    kappa = 0.05
    report = high_gradient_aggregates(
        table, BathParams(T_L=0.005, T_R=2.4, kappa=kappa)
    )
    # each residual is the left-bath Bose tail of its own gap
    for entry in table:
        i, j = entry.pair
        bound = entry.left_weight * kappa * entry.omega * bose_occupation(entry.omega, 0.005)
        assert report[f"A_{i}{j}"] <= bound * (1.0 + 1e-12)
        assert report[f"E_{i}{j}"] <= bound * (1.0 + 1e-12)
    # for the 1.9 gap that tail is exp(-380), far below any representable scale
    assert report["A_14"] < 1e-100
    assert report["E_14"] < 1e-100


def test_high_gradient_aggregates_requires_asymmetric_coupling():
    eigen = eigenenergies(SystemParams(B=1.0, J=1.0, delta=0.10))
    table = transition_table(eigen, 0.0)
    with pytest.raises(ValueError):
        high_gradient_aggregates(table, BathParams(T_L=0.0, T_R=2.4, kappa=0.05))


@given(
    st.floats(-3.0, 3.0), st.floats(0.0, 1.0), st.floats(0.0, 12.0), st.floats(0.0, 12.0),
    st.sampled_from([0.0, 1.0]),
)
def test_only_bath_coupled_jumps_have_rates(B, delta, T_L, T_R, epsilon):
    _, rates = build_rates(B=B, delta=delta, T_L=T_L, T_R=T_R, epsilon=epsilon)
    for matrix in rates:
        for r, c in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 0), (2, 3), (3, 2)):
            assert matrix[r][c] == 0.0


def test_large_kappa_warns_but_constructs():
    with pytest.warns(UserWarning):
        BathParams(T_L=1.0, T_R=1.0, kappa=0.3)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(T_L=-1.0, T_R=1.0, kappa=0.05),
        dict(T_L=1.0, T_R=1.0, kappa=0.0),
        dict(T_L=1.0, T_R=1.0, kappa=-0.1),
        dict(T_L=1.0, T_R=-1.0, kappa=0.05),
        dict(T_L=math.inf, T_R=1.0, kappa=0.05),
    ],
)
def test_invalid_bath_params(kwargs):
    with pytest.raises(ValueError):
        BathParams(**kwargs)
