"""Thermal reservoirs and dissipator rates.

Both reservoirs are ohmic, J(omega) = kappa * omega, with dimensionless
coupling kappa.  For a transition (upper, lower) of the table with gap
omega and per-side weight w, the emission (upper -> lower) and absorption
(lower -> upper) rates are

    gamma_e = w * kappa * omega * (1 + n(omega, T)),
    gamma_a = w * kappa * omega * n(omega, T),

with n the Bose occupation of the reservoir.  Degenerate pairs
(omega -> 0) use the analytic limit gamma_e = gamma_a = w * kappa * T
instead of evaluating 0 * inf.  The weak-coupling (Markov) treatment
behind these rates is only trustworthy for small kappa, so construction
warns above KAPPA_WARN.  A stage's rates are a ``RateSet``, one 4x4
jump-rate matrix per reservoir, so no consumer needs the pair orientation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .model import Transition

#: Above this coupling the Born-Markov rates are no longer trustworthy.
KAPPA_WARN = 0.2

#: For x >= this, 1/expm1(x) and exp(-x) agree to machine precision, and
#: exp(-x) cannot overflow for any finite x.
_BOSE_EXP_SWITCH = 40.0


def bose_occupation(omega: float, T: float) -> float:
    """Bose-Einstein occupation n = 1/(exp(omega/T) - 1); n = 0 at T = 0.

    Uses expm1 for small exponents and the exp(-x) tail beyond the switch
    point, so it neither loses precision for omega << T nor overflows for
    omega >> T.  Callers must canonicalize gaps first: omega <= 0 is
    rejected.
    """
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega:g}")
    if T < 0.0:
        raise ValueError(f"temperature must be >= 0, got {T:g}")
    if T == 0.0:
        return 0.0
    x = omega / T
    if x >= _BOSE_EXP_SWITCH:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class BathParams:
    """Reservoir temperatures and ohmic coupling."""

    T_L: float
    T_R: float
    kappa: float

    def __post_init__(self):
        for name in ("T_L", "T_R", "kappa"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.T_L < 0.0 or self.T_R < 0.0:
            raise ValueError("temperatures must be >= 0")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa:g}")
        if self.kappa > KAPPA_WARN:
            warnings.warn(
                f"kappa = {self.kappa:g} exceeds {KAPPA_WARN:g}; the weak-coupling "
                "rate treatment is unreliable this far from the Markov regime",
                stacklevel=2,
            )


class RateSet(NamedTuple):
    """Jump rates of one (system, baths) configuration, per reservoir.

    ``left[r][c]`` is the rate of the jump from state c+1 to state r+1
    driven by the left reservoir, ``right`` likewise; the diagonal and the
    dark pairs (1,2)/(3,4) are 0.
    """

    left: tuple[tuple[float, ...], ...]
    right: tuple[tuple[float, ...], ...]


def _side_rates(weight: float, kappa: float, omega: float, degenerate: bool, T: float):
    if degenerate:
        limit = weight * kappa * T
        return limit, limit
    scale = weight * kappa * omega
    n = bose_occupation(omega, T)
    return scale * (1.0 + n), scale * n


def transition_rates(table: tuple[Transition, ...], baths: BathParams) -> RateSet:
    """Jump-rate matrices of both reservoirs from the transition table.

    Each transition (u, l) puts its emission rate at [l][u] and its
    absorption rate at [u][l]; every other entry stays 0.
    """
    left = [[0.0] * 4 for _ in range(4)]
    right = [[0.0] * 4 for _ in range(4)]
    for t in table:
        u, l = t.upper - 1, t.lower - 1
        left[l][u], left[u][l] = _side_rates(t.left_weight, baths.kappa, t.omega,
                                              t.degenerate, baths.T_L)
        right[l][u], right[u][l] = _side_rates(t.right_weight, baths.kappa, t.omega,
                                                t.degenerate, baths.T_R)
    return RateSet(left=tuple(map(tuple, left)), right=tuple(map(tuple, right)))
