"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from xxz_engine import (
    BathParams,
    RateSet,
    SystemParams,
    eigenenergies,
    transition_rates,
    transition_table,
)

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


def build_rates(B, delta, T_L, T_R, kappa=0.05, epsilon=1.0, J=1.0):
    """(eigen, rates) for one system/bath configuration."""
    eigen = eigenenergies(SystemParams(B=B, J=J, delta=delta))
    table = transition_table(eigen, epsilon)
    baths = BathParams(T_L=T_L, T_R=T_R, kappa=kappa)
    return eigen, transition_rates(table, baths)


def synthetic_rates(**per_pair):
    """RateSet with hand-picked rates; unmentioned pairs get all-zero rates.

    Keys are pair labels like ``p13``; values are dicts with any of
    upper, lower, eL, aL, eR, aR.  Emission moves population upper -> lower,
    absorption lower -> upper; (upper, lower) defaults to the pair (i, j).
    """
    left = [[0.0] * 4 for _ in range(4)]
    right = [[0.0] * 4 for _ in range(4)]
    for i, j in ((1, 3), (1, 4), (2, 3), (2, 4)):
        given = per_pair.get(f"p{i}{j}", {})
        u, l = given.get("upper", i) - 1, given.get("lower", j) - 1
        left[l][u], left[u][l] = given.get("eL", 0.0), given.get("aL", 0.0)
        right[l][u], right[u][l] = given.get("eR", 0.0), given.get("aR", 0.0)
    return RateSet(left=tuple(map(tuple, left)), right=tuple(map(tuple, right)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
