"""Population dynamics, heat currents and entropy bookkeeping.

Heat current convention: Qdot_nu > 0 means energy flows from reservoir nu
into the system.  The entropy balance reads

    dS/dt = Pi - Phi,      Phi = -Qdot_L/T_L - Qdot_R/T_R,

with S the Shannon entropy of the populations (the von Neumann entropy of
the diagonal state: coherences decouple from the populations and die out,
so the diagonal is the whole story here), Phi the entropy flux into the
reservoirs and Pi >= 0 the entropy production rate.  At a steady state
dS/dt = 0 and Pi = Phi; the adiabatic strokes of the cycles hold the
populations fixed and produce no entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baths import RateSet
from .model import COUPLED_PAIRS, EigenSystem
from .steady import PopulationVector, generator_matrix, steady_state_solve

#: Stability guard for the fixed-step integrator: reject dt * max|M_ii| above this.
STABILITY_LIMIT = 0.1

#: Snapshot entries in (-CLIP_NEGATIVE, 0) are integration roundoff; clip to 0.
CLIP_NEGATIVE = 1e-14


#: The bath-coupled pairs as 0-based state indices.
_PAIRS = tuple((i - 1, j - 1) for i, j in COUPLED_PAIRS)


class IntegrationStabilityError(ValueError):
    """The requested step size violates the explicit-integrator stability guard."""


@dataclass(frozen=True)
class Trajectory:
    """Population snapshots along a relaxation, times strictly increasing from 0."""

    times: np.ndarray
    populations: np.ndarray  # shape (len(times), 4), rows normalized

    def __post_init__(self):
        t, p = self.times, self.populations
        if t.ndim != 1 or p.shape != (t.size, 4):
            raise ValueError("times and populations shapes are inconsistent")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("times must increase strictly from 0")
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise ValueError("trajectory populations outside [0, 1]")
        if np.abs(p.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("trajectory populations must stay normalized")
        t.setflags(write=False)
        p.setflags(write=False)

    def __len__(self) -> int:
        return self.times.size

    def population(self, index: int) -> PopulationVector:
        return PopulationVector(p=tuple(float(x) for x in self.populations[index]))

    def final(self) -> PopulationVector:
        return self.population(len(self) - 1)


@dataclass(frozen=True)
class ThermoFlows:
    """Heat currents per reservoir plus the entropy flux and production rate."""

    qdot_L: float
    qdot_R: float
    phi: float
    pi: float


def heat_currents(
    rates: RateSet, populations: PopulationVector, eigen: EigenSystem
) -> tuple[float, float]:
    """Heat current from each reservoir into the system.

    Per coupled pair (i, j) and side, with k that side's jump-rate matrix,
    the net flux i -> j is k[j][i] P_i - k[i][j] P_j, and each jump i -> j
    takes E_i - E_j from the system into the reservoir, so
    Qdot_nu = sum_pairs (E_j - E_i) * (k[j][i] P_i - k[i][j] P_j).
    Requires the RateSet and EigenSystem to come from the same system
    parameters.
    """
    left, right = rates
    energies, p = eigen.energies, populations.p
    q_left = 0.0
    q_right = 0.0
    for i, j in _PAIRS:
        gain = energies[j] - energies[i]
        q_left += gain * (left[j][i] * p[i] - left[i][j] * p[j])
        q_right += gain * (right[j][i] * p[i] - right[i][j] * p[j])
    return q_left, q_right


def entropy_flux(qdot_L: float, qdot_R: float, T_L: float, T_R: float) -> float:
    """Entropy flow rate from the system into the reservoirs."""
    if T_L <= 0.0 or T_R <= 0.0:
        raise ValueError("entropy flux needs positive reservoir temperatures")
    return -qdot_L / T_L - qdot_R / T_R


def flows_at(
    rates: RateSet,
    populations: PopulationVector,
    eigen: EigenSystem,
    T_L: float,
    T_R: float,
) -> ThermoFlows:
    """Currents and entropy rates evaluated at a stationary population vector."""
    q_l, q_r = heat_currents(rates, populations, eigen)
    phi = entropy_flux(q_l, q_r, T_L, T_R)
    return ThermoFlows(qdot_L=q_l, qdot_R=q_r, phi=phi, pi=phi)


def entropy_production_steady(
    rates: RateSet, eigen: EigenSystem, T_L: float, T_R: float
) -> float:
    """Entropy production rate at the steady state (where Pi = Phi)."""
    populations = steady_state_solve(rates)
    return flows_at(rates, populations, eigen, T_L, T_R).pi


def shannon_entropy(populations) -> float:
    """S = -sum P ln P of a population vector (0 ln 0 = 0)."""
    if isinstance(populations, PopulationVector):
        populations = populations.p
    total = 0.0
    for p in populations:
        if p > 0.0:
            total -= p * math.log(p)
    return total


def evolve_populations(
    rates: RateSet, p0: PopulationVector, t_end: float, dt: float
) -> Trajectory:
    """Relax ``p0`` under dP/dt = M P with fixed-step 4th-order Runge-Kutta.

    For a constant generator the classical Runge-Kutta stage sums collapse
    to one fixed one-step propagator R = I + A + A^2/2 + A^3/6 + A^4/24
    with A = M dt, which is applied repeatedly; column sums of A vanish
    exactly, so the population sum is conserved to roundoff with no
    renormalization.  Snapshot entries in (-1e-14, 0) are clipped to zero.
    Steps past ``t_end`` are not taken; the last snapshot lands on the
    first grid time >= t_end.
    """
    if dt <= 0.0 or t_end < dt:
        raise ValueError("need dt > 0 and t_end >= dt")
    m = generator_matrix(rates).matrix
    max_decay = np.abs(np.diag(m)).max()
    if dt * max_decay > STABILITY_LIMIT:
        raise IntegrationStabilityError(
            f"dt * max|M_ii| = {dt * max_decay:.3e} exceeds {STABILITY_LIMIT}; "
            "reduce the step size"
        )
    steps = math.ceil(t_end / dt - 1e-12)
    a = m * dt
    a2 = a @ a
    a3 = a2 @ a
    propagator = np.eye(4) + a + a2 / 2.0 + a3 / 6.0 + (a3 @ a) / 24.0

    out = np.empty((steps + 1, 4))
    out[0] = p0.as_array()
    state = out[0]
    for k in range(steps):
        state = propagator @ state
        out[k + 1] = state
    np.copyto(out, 0.0, where=(out > -CLIP_NEGATIVE) & (out < 0.0))
    times = dt * np.arange(steps + 1, dtype=float)
    return Trajectory(times=times, populations=out)


def entropy_balance_along(
    trajectory: Trajectory,
    rates: RateSet,
    eigen: EigenSystem,
    T_L: float,
    T_R: float,
) -> np.ndarray:
    """Per-snapshot entropy balance (dS/dt, Phi, Pi) along a trajectory.

    dS/dt comes from centered finite differences on S(t) (second-order
    one-sided stencils at the endpoints); Pi = dS/dt + Phi.  At the
    converged tail Pi approaches the steady-state entropy production.
    """
    n = len(trajectory)
    entropy = np.array([shannon_entropy(trajectory.populations[i]) for i in range(n)])
    t = trajectory.times
    ds_dt = np.empty(n)
    if n >= 3:
        ds_dt[1:-1] = (entropy[2:] - entropy[:-2]) / (t[2:] - t[:-2])
        h0, h1 = t[1] - t[0], t[2] - t[1]
        ds_dt[0] = (-(2 * h0 + h1) / (h0 * (h0 + h1)) * entropy[0]
                    + (h0 + h1) / (h0 * h1) * entropy[1]
                    - h0 / (h1 * (h0 + h1)) * entropy[2])
        g0, g1 = t[-1] - t[-2], t[-2] - t[-3]
        ds_dt[-1] = ((2 * g0 + g1) / (g0 * (g0 + g1)) * entropy[-1]
                     - (g0 + g1) / (g0 * g1) * entropy[-2]
                     + g0 / (g1 * (g0 + g1)) * entropy[-3])
    else:
        slope = (entropy[-1] - entropy[0]) / (t[-1] - t[0])
        ds_dt[:] = slope

    result = np.empty((n, 3))
    for i in range(n):
        q_l, q_r = heat_currents(rates, trajectory.population(i), eigen)
        phi = entropy_flux(q_l, q_r, T_L, T_R)
        result[i] = (ds_dt[i], phi, ds_dt[i] + phi)
    return result


def spectral_gap(generator) -> float:
    """Smallest nonzero decay rate of the generator: min |Re(lambda)|.

    Sets the slowest relaxation timescale, 1/gap.  Raises when the generator
    has no decaying mode at all (all rates zero).
    """
    m = generator.matrix if hasattr(generator, "matrix") else np.asarray(generator)
    eigenvalues = np.linalg.eigvals(m)
    scale = max(np.abs(m).max(), 1.0)
    decay = [abs(ev.real) for ev in eigenvalues if abs(ev) > 1e-12 * scale]
    if not decay:
        raise ValueError("generator has no relaxing mode (all rates zero?)")
    return min(decay)


def relaxation_time(generator) -> float:
    """Slowest relaxation timescale 1/spectral_gap; a stroke-duration diagnostic."""
    return 1.0 / spectral_gap(generator)
