"""The three thermal machines and their cycle thermodynamics.

All three cycles share the same four strokes: a stage at anisotropy
delta_c whose populations define P^c, an adiabatic ramp delta_c -> delta_h,
a stage at delta_h defining P^h, and the ramp back.  They differ only in
how the stages couple to the reservoirs:

* QOC        -- each stage is a plain isochore against a single bath
                (cold at delta_c, hot at delta_h); stage populations are
                Gibbs states.
* GQOC_SYM   -- both baths stay attached during the stages (epsilon = 0);
                stage populations are nonequilibrium steady states, with
                the bath temperatures swapped between stages.
* GQOC_ASYM  -- same, but qubit 1 couples only to the left bath
                (epsilon = 1), which silences the left-bath transitions
                into and out of the singlet level.

Stage 1-2 runs with the left reservoir hot and the right cold; stage 3-4
swaps them.  Heats, work and efficiency follow the first-law bookkeeping

    Q12 = sum_i E_i^c (P_i^c - P_i^h),   Q34 = sum_i E_i^h (P_i^h - P_i^c),
    W = Q12 + Q34,                       eta = W / sum(Q > 0),

and the positive-work condition compares the stage-to-stage population
shifts of the entangled levels (3, 4) against the product levels (1, 2).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum

from .baths import BathParams, RateSet, transition_rates
from .dynamics import flows_at
from .model import EigenSystem, SystemParams, eigenenergies, transition_table
from .steady import PopulationVector, gibbs_state, steady_state_solve

#: Default cold-reservoir floor; keeps dT = 2*T_M from reaching T = 0 exactly.
_DEFAULT_T_FLOOR = 0.005

_FLOAT_MAX = sys.float_info.max


def finite_number(value, name: str):
    """``value`` if it is a finite int or float; a bool or a string is rejected."""
    # the comparison also rejects NaN, and ints too large for a float
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or not abs(value) <= _FLOAT_MAX:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


class CycleKind(str, Enum):
    QOC = "qoc"
    GQOC_SYM = "gqoc-sym"
    GQOC_ASYM = "gqoc-asym"


@dataclass(frozen=True)
class CycleSpec:
    """One machine configuration: working substance, strokes and reservoirs."""

    kind: CycleKind
    B: float
    delta_c: float
    delta_h: float
    kappa: float
    T_M: float
    dT: float
    J: float = 1.0
    T_floor: float = _DEFAULT_T_FLOOR

    def __post_init__(self):
        object.__setattr__(self, "kind", CycleKind(self.kind))
        for name in ("B", "delta_c", "delta_h", "kappa", "T_M", "dT", "J", "T_floor"):
            finite_number(getattr(self, name), name)
        if self.delta_h <= self.delta_c:
            raise ValueError(
                f"delta_h = {self.delta_h:g} must exceed delta_c = {self.delta_c:g} "
                "(the engine's working regime)"
            )
        if self.T_M <= 0.0 or self.dT < 0.0:
            raise ValueError("need T_M > 0 and dT >= 0")
        if self.T_floor < 0.0:
            raise ValueError("T_floor must be >= 0")
        if self.T_M + self.dT / 2.0 <= self.T_floor:
            raise ValueError("hot stage temperature would sit below the floor")


@dataclass(frozen=True)
class StageState:
    """Everything known about one nonadiabatic stage once its populations settle."""

    eigen: EigenSystem
    populations: PopulationVector
    rates: RateSet | None  # None for the single-bath (QOC) isochores
    T_L: float
    T_R: float


@dataclass(frozen=True)
class CycleResult:
    """Per-cycle outputs: stage populations, heats, work, efficiency, flags."""

    p_c: PopulationVector
    p_h: PopulationVector
    q12: float
    q34: float
    w: float
    eta: float | None
    xi12: float
    xi34: float
    positive_work: bool
    unity: bool


def stage_temperatures(spec: CycleSpec) -> tuple[float, float]:
    """(T_hot, T_cold) from the mean temperature and gradient, with the floor.

    T_hot = T_M + dT/2 and T_cold = max(T_M - dT/2, T_floor); the floor
    keeps the maximal-gradient convention dT = 2 T_M from putting the cold
    reservoir at exactly zero.
    """
    t_hot = spec.T_M + spec.dT / 2.0
    t_cold = max(spec.T_M - spec.dT / 2.0, spec.T_floor)
    return t_hot, t_cold


def _gqoc_stage(
    params: SystemParams, epsilon: float, kappa: float, T_L: float, T_R: float
) -> StageState:
    eigen = eigenenergies(params)
    table = transition_table(eigen, epsilon)
    rates = transition_rates(table, BathParams(T_L=T_L, T_R=T_R, kappa=kappa))
    return StageState(
        eigen=eigen,
        populations=steady_state_solve(rates),
        rates=rates,
        T_L=T_L,
        T_R=T_R,
    )


def stage_states(spec: CycleSpec) -> tuple[StageState, StageState]:
    """Fully relaxed stage 1-2 (at delta_c) and stage 3-4 (at delta_h)."""
    t_hot, t_cold = stage_temperatures(spec)
    params_c = SystemParams(B=spec.B, J=spec.J, delta=spec.delta_c)
    params_h = SystemParams(B=spec.B, J=spec.J, delta=spec.delta_h)
    if spec.kind is CycleKind.QOC:
        eigen_c, eigen_h = eigenenergies(params_c), eigenenergies(params_h)
        stage_c = StageState(
            eigen=eigen_c, populations=gibbs_state(eigen_c, t_cold),
            rates=None, T_L=t_cold, T_R=t_cold,
        )
        stage_h = StageState(
            eigen=eigen_h, populations=gibbs_state(eigen_h, t_hot),
            rates=None, T_L=t_hot, T_R=t_hot,
        )
        return stage_c, stage_h
    epsilon = 1.0 if spec.kind is CycleKind.GQOC_ASYM else 0.0
    stage_c = _gqoc_stage(params_c, epsilon, spec.kappa, T_L=t_hot, T_R=t_cold)
    stage_h = _gqoc_stage(params_h, epsilon, spec.kappa, T_L=t_cold, T_R=t_hot)
    return stage_c, stage_h


def stage_populations(spec: CycleSpec) -> tuple[PopulationVector, PopulationVector]:
    """(P^c, P^h): populations at the ends of stages 1-2 and 3-4."""
    stage_c, stage_h = stage_states(spec)
    return stage_c.populations, stage_h.populations


def cycle_thermo(
    p_c: PopulationVector,
    p_h: PopulationVector,
    eigen_c: EigenSystem,
    eigen_h: EigenSystem,
) -> tuple[float, float, float]:
    """(Q12, Q34, W) from the stage populations and spectra; W = Q12 + Q34."""
    q12 = sum(
        eigen_c.energy(i) * (p_c.probability(i) - p_h.probability(i)) for i in (1, 2, 3, 4)
    )
    q34 = sum(
        eigen_h.energy(i) * (p_h.probability(i) - p_c.probability(i)) for i in (1, 2, 3, 4)
    )
    return q12, q34, q12 + q34


def efficiency(q12: float, q34: float, w: float) -> float | None:
    """W over the heat absorbed, or None when the machine is not doing work.

    The denominator sums the positive stage heats.  When both stages absorb
    (q12 > 0 and q34 > 0) the ratio is exactly 1.  Undefined efficiency is
    reported as None, never as 0.
    """
    q_in = (q12 if q12 > 0.0 else 0.0) + (q34 if q34 > 0.0 else 0.0)
    if w <= 0.0 or q_in <= 0.0:
        return None
    return w / q_in


def positive_work_condition(
    p_c: PopulationVector, p_h: PopulationVector
) -> tuple[float, float, bool]:
    """(Xi12, Xi34, satisfied): population-shift sums and the work criterion.

    Xi34 sums P^c - P^h over the entangled levels (3, 4), Xi12 over the
    product levels (1, 2).  With delta_h > delta_c, positive work is
    extracted exactly when Xi34 > Xi12.
    """
    xi12 = sum(p_c.probability(i) - p_h.probability(i) for i in (1, 2))
    xi34 = sum(p_c.probability(i) - p_h.probability(i) for i in (3, 4))
    return xi12, xi34, xi34 > xi12


def w_max(delta_c: float, delta_h: float) -> float:
    """High-temperature work ceiling (delta_h - delta_c) / 2."""
    if delta_h <= delta_c:
        raise ValueError(
            f"delta_h = {delta_h:g} must exceed delta_c = {delta_c:g}"
        )
    return 0.5 * (delta_h - delta_c)


def _unity_flag(q12: float, xi12: float, xi34: float, wmax: float) -> bool:
    ratio = q12 / wmax
    return ratio > 0.0 and (xi34 - xi12) > ratio


def unity_efficiency_condition(result: CycleResult, wmax: float) -> bool:
    """Whether Xi34 - Xi12 > Q12/W_max > 0 holds (the eta = 1 criterion).

    With wmax taken as exactly (delta_h - delta_c)/2 this is algebraically
    the statement that both stage heats are absorbed (q12 > 0 and q34 > 0),
    which forces eta = W/(q12 + q34) = 1.
    """
    return _unity_flag(result.q12, result.xi12, result.xi34, wmax)


def evaluate_cycle(spec: CycleSpec) -> CycleResult:
    """Run one full cycle evaluation: stages, heats, work, efficiency, flags."""
    stage_c, stage_h = stage_states(spec)
    return cycle_result_from_stages(spec, stage_c, stage_h)


def cycle_result_from_stages(
    spec: CycleSpec, stage_c: StageState, stage_h: StageState
) -> CycleResult:
    """Assemble a CycleResult from already-computed stage states."""
    p_c, p_h = stage_c.populations, stage_h.populations
    q12, q34, w = cycle_thermo(p_c, p_h, stage_c.eigen, stage_h.eigen)
    xi12, xi34, satisfied = positive_work_condition(p_c, p_h)
    return CycleResult(
        p_c=p_c,
        p_h=p_h,
        q12=q12,
        q34=q34,
        w=w,
        eta=efficiency(q12, q34, w),
        xi12=xi12,
        xi34=xi34,
        positive_work=satisfied,
        unity=_unity_flag(q12, xi12, xi34, w_max(spec.delta_c, spec.delta_h)),
    )


def stage_entropy_production(stage: StageState) -> float:
    """Entropy production rate of one relaxed stage.

    Zero for the single-bath isochores (the QOC stage ends in equilibrium);
    otherwise Pi = Phi evaluated at the stage steady state.
    """
    if stage.rates is None:
        return 0.0
    return flows_at(stage.rates, stage.populations, stage.eigen, stage.T_L, stage.T_R).pi
