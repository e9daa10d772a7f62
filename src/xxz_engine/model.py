"""Two-qubit Heisenberg XXZ working substance.

The Hamiltonian (natural units, hbar = k_B = 1) is

    H = (1/2) [ B sz1 + B sz2 + J (sx1 sx2 + sy1 sy2) + Delta sz1 sz2 ]

with magnetic field B, interqubit coupling J and anisotropy Delta. Its
four eigenstates are the product states |00>, |11> and the singlet/triplet
combinations (|01> -/+ |10>)/sqrt(2), with closed-form energies

    E1 = (Delta - 2B)/2,  E2 = (Delta + 2B)/2,
    E3 = -Delta/2 - J,    E4 = -Delta/2 + J.

Only the level pairs (1,3), (1,4), (2,3), (2,4) carry a sigma_x matrix
element, so only those four transitions couple to the bosonic reservoirs;
(1,2) and (3,4) are dark.  This module provides the parameter and spectrum
types, the 4x4 matrix in the product basis (used as an independent
diagonalization oracle), and the transition table: one ``Transition`` per
coupled pair, in ``COUPLED_PAIRS`` order, holding the gap, its energy
orientation and the per-reservoir coupling weights.  ``baths`` turns the
table into the two 4x4 jump-rate matrices every later stage reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Level pairs connected by the qubit sigma_x operators (1-based state labels).
COUPLED_PAIRS = ((1, 3), (1, 4), (2, 3), (2, 4))

#: |J| below this leaves E3 = E4 numerically degenerate and the secular
#: rate treatment ill-defined.
J_MIN = 1e-9

#: Gap threshold below which a transition is flagged degenerate and rate
#: construction switches to the analytic omega -> 0 limit.
OMEGA_EPS = 1e-9


class DegenerateCouplingError(ValueError):
    """Raised when |J| is too small for the four-level treatment."""


@dataclass(frozen=True)
class SystemParams:
    """Working-substance parameters (energies in units of J, which defaults to 1)."""

    B: float
    J: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        for name in ("B", "J", "delta"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if abs(self.J) < J_MIN:
            raise DegenerateCouplingError(
                f"|J| = {abs(self.J):g} < {J_MIN:g}: E3 and E4 degenerate"
            )


@dataclass(frozen=True)
class EigenSystem:
    """Closed-form spectrum (E1, E2, E3, E4), indexed by the 1-based state labels."""

    energies: tuple[float, float, float, float]

    def energy(self, state: int) -> float:
        """Energy of state ``state`` in 1..4."""
        return self.energies[state - 1]

    def as_array(self) -> np.ndarray:
        return np.array(self.energies, dtype=float)


@dataclass(frozen=True)
class Transition:
    """One bath-coupled level pair in canonical (upper, lower) orientation.

    ``pair`` keeps the fixed (i, j) label with i in {1,2}, j in {3,4};
    ``upper``/``lower`` order the two states by energy so that
    ``omega = E_upper - E_lower >= 0``.  The coupling weights attach to the
    pair, not the orientation: the sigma_x matrix elements are the same in
    both directions.
    """

    pair: tuple[int, int]
    upper: int
    lower: int
    omega: float
    left_weight: float
    right_weight: float
    degenerate: bool


def eigenenergies(params: SystemParams) -> EigenSystem:
    """Closed-form eigenenergies of the XXZ Hamiltonian."""
    B, J, delta = params.B, params.J, params.delta
    return EigenSystem(
        energies=(
            0.5 * (delta - 2.0 * B),
            0.5 * (delta + 2.0 * B),
            -0.5 * delta - J,
            -0.5 * delta + J,
        )
    )


def hamiltonian_matrix(params: SystemParams) -> np.ndarray:
    """4x4 Hamiltonian in the product basis {|00>, |01>, |10>, |11>}.

    Serves as the independent diagonalization oracle for ``eigenenergies``;
    nothing downstream consumes it.
    """
    B, J, delta = params.B, params.J, params.delta
    h = np.zeros((4, 4))
    h[0, 0] = 0.5 * delta - B
    h[1, 1] = -0.5 * delta
    h[2, 2] = -0.5 * delta
    h[3, 3] = 0.5 * delta + B
    h[1, 2] = h[2, 1] = J
    return h


def transition_table(
    eigen: EigenSystem, epsilon: float
) -> tuple[Transition, Transition, Transition, Transition]:
    """The four bath-coupled transitions, in ``COUPLED_PAIRS`` order.

    ``epsilon`` is the coupling-asymmetry parameter: the left reservoir
    couples through sigma_x(1) + epsilon * sigma_x(2), giving left weights
    (epsilon - 1)^2 / 2 on pairs involving the singlet (state 3) and
    (epsilon + 1)^2 / 2 on pairs involving the triplet (state 4); the right
    reservoir couples only qubit 2, weight 1/2 on every pair.  Any epsilon
    in [0, 1] is accepted, but only the endpoints 0 (symmetric) and 1
    (asymmetric) are physically validated configurations.

    Pairs whose energy order is inverted are flipped so omega >= 0; gaps
    below ``OMEGA_EPS`` are flagged degenerate.
    """
    if not (isinstance(epsilon, (int, float)) and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be a finite number, got {epsilon!r}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon:g}")

    table = []
    for i, j in COUPLED_PAIRS:
        gap = eigen.energy(i) - eigen.energy(j)
        if gap >= 0.0:
            upper, lower, omega = i, j, gap
        else:
            upper, lower, omega = j, i, -gap
        left = 0.5 * (epsilon - 1.0) ** 2 if j == 3 else 0.5 * (epsilon + 1.0) ** 2
        table.append(
            Transition(
                pair=(i, j),
                upper=upper,
                lower=lower,
                omega=omega,
                left_weight=left,
                right_weight=0.5,
                degenerate=omega < OMEGA_EPS,
            )
        )
    return tuple(table)

