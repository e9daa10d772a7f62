"""Thermal reservoirs and dissipator rates.

Both reservoirs are ohmic, J(omega) = kappa * omega, with dimensionless
coupling kappa.  For a canonical transition (upper, lower) with gap omega
and per-side weight w, the emission and absorption rates are

    gamma_e = w * kappa * omega * (1 + n(omega, T)),
    gamma_a = w * kappa * omega * n(omega, T),

with n the Bose occupation of the reservoir.  Degenerate pairs
(omega -> 0) use the analytic limit gamma_e = gamma_a = w * kappa * T
instead of evaluating 0 * inf.  The weak-coupling (Markov) treatment
behind these rates is only trustworthy for small kappa, so construction
warns above KAPPA_WARN.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .model import Transition, TransitionTable

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
    """Reservoir temperatures, ohmic coupling and coupling asymmetry."""

    T_L: float
    T_R: float
    kappa: float
    epsilon: float

    def __post_init__(self):
        for name in ("T_L", "T_R", "kappa", "epsilon"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.T_L < 0.0 or self.T_R < 0.0:
            raise ValueError("temperatures must be >= 0")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa:g}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon:g}")
        if self.kappa > KAPPA_WARN:
            warnings.warn(
                f"kappa = {self.kappa:g} exceeds {KAPPA_WARN:g}; the weak-coupling "
                "rate treatment is unreliable this far from the Markov regime",
                stacklevel=2,
            )


@dataclass(frozen=True)
class PairRates:
    """Emission/absorption rates of one canonical pair, per reservoir side.

    Emission moves population upper -> lower, absorption lower -> upper.
    ``emission_total`` and ``absorption_total`` cache the side sums (the
    E_ij and A_ij aggregates used by the closed-form steady state).
    """

    pair: tuple[int, int]
    upper: int
    lower: int
    omega: float
    degenerate: bool
    emission_L: float
    absorption_L: float
    emission_R: float
    absorption_R: float
    emission_total: float
    absorption_total: float

    @classmethod
    def build(
        cls,
        transition: Transition,
        emission_L: float,
        absorption_L: float,
        emission_R: float,
        absorption_R: float,
    ) -> "PairRates":
        return cls(
            pair=transition.pair,
            upper=transition.upper,
            lower=transition.lower,
            omega=transition.omega,
            degenerate=transition.degenerate,
            emission_L=emission_L,
            absorption_L=absorption_L,
            emission_R=emission_R,
            absorption_R=absorption_R,
            emission_total=emission_L + emission_R,
            absorption_total=absorption_L + absorption_R,
        )


@dataclass(frozen=True)
class RateSet:
    """All rates for one (system, baths) configuration, in COUPLED_PAIRS order."""

    entries: tuple[PairRates, PairRates, PairRates, PairRates]

    def entry(self, pair: tuple[int, int]) -> PairRates:
        for rates in self.entries:
            if rates.pair == pair:
                return rates
        raise KeyError(f"no such coupled pair: {pair}")


def _side_rates(weight: float, kappa: float, omega: float, degenerate: bool, T: float):
    if degenerate:
        limit = weight * kappa * T
        return limit, limit
    scale = weight * kappa * omega
    n = bose_occupation(omega, T)
    return scale * (1.0 + n), scale * n


def transition_rates(table: TransitionTable, baths: BathParams) -> RateSet:
    """Emission/absorption rates for every coupled pair and both reservoirs."""
    entries = []
    for transition in table.entries:
        e_l, a_l = _side_rates(
            transition.left_weight, baths.kappa, transition.omega,
            transition.degenerate, baths.T_L,
        )
        e_r, a_r = _side_rates(
            transition.right_weight, baths.kappa, transition.omega,
            transition.degenerate, baths.T_R,
        )
        entries.append(PairRates.build(transition, e_l, a_l, e_r, a_r))
    return RateSet(entries=tuple(entries))

