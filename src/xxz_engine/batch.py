"""Whole cycles evaluated as arrays: the engine behind sweeps and ``cycle``.

``evaluate(epsilon, points, pi)`` runs one cycle kind over N points at
once.  ``points`` maps each numeric ``CycleSpec`` field (``FIELDS``) to a
float or an (N,) array; ``epsilon`` is None for the QOC (Gibbs isochores)
and the coupling asymmetry 0 or 1 for the two GQOCs.  The steps are those
of the scalar pipeline, on arrays whose first axis runs over 2N stage rows
(stage 1-2 of every point, then stage 3-4):

1. energies (2N, 4) and jump rates (2N, 2, 4, 4), indexed [row, side
   (left, right), to, from] as in ``baths.RateSet``, with the orientation
   flip, the omega < ``OMEGA_EPS`` limit and the Bose tail switch of
   ``model.transition_table`` and ``baths.transition_rates``;
2. populations: the matrix-tree formula of ``steady.steady_state_solve``
   with its residual check, or Gibbs states for the QOC, and the
   ``PopulationVector`` range and sum checks;
3. heats, work, efficiency, the xi sums and both flags, as in ``cycles``;
4. the entropy production Pi = Phi of each stage, only when ``pi`` is set.

After the rates every floating-point operation runs in the scalar code's
order, so ``cycles.cycle_result_from_stages`` and ``dynamics.flows_at``,
applied to a row's own stages, reproduce its cells bit for bit.  The rates
use numpy's ``exp`` and ``expm1``, which can differ from ``math``'s in the
last ulp.  Float overflow gives inf and nan as in Python floats, without a
warning; every row it reaches fails a finiteness check.

A row that fails gets a nonzero ``reason`` instead of an exception:
``REASONS`` names the exception the N = 1 view ``evaluate_spec`` raises,
whose ``code`` (``DOMAIN`` unless it is a ``SteadyStateError``) marks the
row's cells in a sweep.  A reservoir at T = 0 fails only the entropy
production (``pi_ok``).
"""

from __future__ import annotations

import sys
import warnings
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .baths import _BOSE_EXP_SWITCH, KAPPA_WARN, kappa_warning
from .model import COUPLED_PAIRS, J_MIN, OMEGA_EPS, DegenerateCouplingError
from .steady import (
    _CYCLE,
    POPULATION_ATOL,
    RESIDUAL_TOL,
    NonUniqueSteadyStateError,
    SteadyStateError,
)

#: The numeric CycleSpec fields, the kernel's inputs.
FIELDS = ("B", "delta_c", "delta_h", "kappa", "T_M", "dT", "J", "T_floor")

#: Rules a cycle's parameters obey besides being finite numbers, as
#: (violated, message).  ``violated`` takes a CycleSpec or a namespace of
#: field arrays, so ``CycleSpec`` and the kernel apply the same rules; the
#: message is formatted with the parameters as ``s``.
CYCLE_RULES = (
    (lambda s: s.delta_h <= s.delta_c,
     "delta_h = {s.delta_h:g} must exceed delta_c = {s.delta_c:g} "
     "(the engine's working regime)"),
    (lambda s: (s.T_M <= 0.0) | (s.dT < 0.0), "need T_M > 0 and dT >= 0"),
    (lambda s: s.T_floor < 0.0, "T_floor must be >= 0"),
    (lambda s: s.T_M + s.dT / 2.0 <= s.T_floor,
     "hot stage temperature would sit below the floor"),
)

#: Why a row failed, by its reason number (0: it did not): the exception
#: and its message, formatted with the row's fields and stage temperatures
#: (``T_hot``, ``T_cold``) as ``s``.
REASONS = (
    None,
    (ValueError, "every cycle parameter must be a finite number"),
    *((ValueError, message) for _, message in CYCLE_RULES),
    (DegenerateCouplingError, f"|J| < {J_MIN:g} at J = {{s.J:g}}: E3 and E4 degenerate"),
    (ValueError, "the hot reservoir temperature T_M + dT/2 = {s.T_hot:g} is not finite"),
    (ValueError, "kappa must be positive, got {s.kappa:g}"),
    (ValueError, "a Gibbs stage needs a positive temperature, got {s.T_cold:g}"),
    (SteadyStateError, "a jump rate is not finite: the rates overflow a float"),
    (NonUniqueSteadyStateError,
     "every spanning-tree weight vanishes (disconnected or rate-free level graph)"),
    (SteadyStateError,
     f"the stationarity residual exceeds {RESIDUAL_TOL:g} times the largest rate"),
    (ValueError, "the stage populations fail the [0, 1] range or sum-to-one check"),
)
_FIELD_NOT_FINITE = 1
_RULES = range(2, len(CYCLE_RULES) + 2)
(_SMALL_J, _HOT_NOT_FINITE, _KAPPA, _GIBBS_T, _NOT_FINITE, _NONUNIQUE, _RESIDUAL,
 _POPULATIONS) = range(len(CYCLE_RULES) + 2, len(REASONS))

#: The ``#ERR:<code>`` cell of each reason number.
ERROR_CELLS = (None,) + tuple(
    f"#ERR:{getattr(error, 'code', 'DOMAIN')}" for error, _ in REASONS[1:]
)

#: A valid point that stands in for a row rejected before its stages, so
#: that no later step meets its parameters; a column in ``FIELDS`` order.
_STAND_IN = np.array([[dict(B=0.0, delta_c=0.0, delta_h=1.0, kappa=0.05, T_M=1.0, dT=0.0,
                            J=1.0, T_floor=0.0)[name]] for name in FIELDS])

#: The bath-coupled pairs (i, j) as 0-based index arrays, in COUPLED_PAIRS order.
_I = np.array([i - 1 for i, _ in COUPLED_PAIRS])
_J = np.array([j - 1 for _, j in COUPLED_PAIRS])

#: The eight directed jumps of the level cycle 1-3-2-4-1 as generator entries
#: (to, from): forward from each state of ``_CYCLE``, then backward.
_FROM = np.array(_CYCLE * 2)
_TO = np.array([_CYCLE[(x + 1) % 4] for x in range(4)] + [_CYCLE[x - 1] for x in range(4)])

#: State order of the tree weights computed in cycle order.
_STATE_ORDER = np.argsort(_CYCLE)

_DIAGONAL = np.arange(4)

#: Modules whose frames a warning skips to name the caller.
_ENGINE_MODULES = frozenset(f"{__package__}.{name}" for name in ("batch", "cycles", "sweep"))


class Batch(NamedTuple):
    """One cycle kind evaluated over N points.

    The stage axis (first) is stage 1-2, then stage 3-4; ``rates`` is
    indexed [stage, row, side (left, right), to, from] and is None for the
    QOC.  ``eta`` is nan where the efficiency is undefined; ``pi`` holds
    (pi12, pi34, pi_total) when it was requested.  The values of a failed
    row are meaningless.
    """

    points: SimpleNamespace  # the (N,) input arrays, by field name
    reason: np.ndarray  # (N,), 0 where the row succeeded
    energies: np.ndarray  # (2, N, 4)
    rates: np.ndarray | None  # (2, N, 2, 4, 4)
    temperatures: np.ndarray  # (2, N, 2): (T_L, T_R) of each stage
    populations: np.ndarray  # (2, N, 4)
    q12: np.ndarray
    q34: np.ndarray
    w: np.ndarray
    eta: np.ndarray
    xi12: np.ndarray
    xi34: np.ndarray
    positive_work: np.ndarray
    unity: np.ndarray
    pi: np.ndarray | None  # (3, N)
    pi_ok: np.ndarray | None  # (N,), False where a reservoir sits at T = 0

    def error(self, i: int = 0) -> Exception | None:
        """The exception describing why row ``i`` failed, or None."""
        reason = int(self.reason[i])
        if not reason:
            return None
        error, message = REASONS[reason]
        row = {name: float(getattr(self.points, name)[i]) for name in FIELDS}
        row["T_hot"] = row["T_M"] + row["dT"] / 2.0
        row["T_cold"] = max(row["T_M"] - row["dT"] / 2.0, row["T_floor"])
        return error(message.format(s=SimpleNamespace(**row)))


def _caller_stacklevel() -> int:
    """``stacklevel`` of the first frame outside the engine modules, as seen
    from the function that calls ``warnings.warn``."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_globals.get("__name__") in _ENGINE_MODULES:
        frame, level = frame.f_back, level + 1
    return level


def _chain(terms: np.ndarray, start=0.0) -> np.ndarray:
    """start + t0 + t1 + ... over the last axis, in order: the scalar loops'
    sums, which start at 0.0 (and turn a -0.0 first term into 0.0); where
    that sign cannot matter, ``start=None`` saves the addition."""
    total = terms[..., 0] if start is None else start + terms[..., 0]
    for k in range(1, terms.shape[-1]):
        total = total + terms[..., k]
    return total


def _first(cases) -> np.ndarray:
    """Per row, the reason of the first (condition, reason) case that holds, or 0."""
    conditions = np.array([condition for condition, _ in cases])
    if not conditions.any():
        return np.zeros(conditions.shape[1], dtype=int)
    reasons = np.array([reason for _, reason in cases])
    return np.where(conditions.any(axis=0), reasons[conditions.argmax(axis=0)], 0)


def _stage_temperatures(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T_hot, T_cold) per point, as ``cycles.stage_temperatures``."""
    p = dict(zip(FIELDS, table))
    return p["T_M"] + p["dT"] / 2.0, np.maximum(p["T_M"] - p["dT"] / 2.0, p["T_floor"])


def _domain_reasons(epsilon, table: np.ndarray, t_hot, t_cold) -> np.ndarray:
    """The reason each row fails before its stages are built, in the scalar
    code's order: CycleSpec, |J|, the reservoir temperatures, kappa."""
    p = SimpleNamespace(**dict(zip(FIELDS, table)))
    cases = [(~np.isfinite(table).all(axis=0), _FIELD_NOT_FINITE)]
    cases += [(violated(p), reason) for (violated, _), reason in zip(CYCLE_RULES, _RULES)]
    cases += [(np.abs(p.J) < J_MIN, _SMALL_J), (~np.isfinite(t_hot), _HOT_NOT_FINITE)]
    if epsilon is None:
        cases.append((t_cold <= 0.0, _GIBBS_T))
    else:
        cases.append((p.kappa <= 0.0, _KAPPA))
    return _first(cases)


def energies_of(B, J, delta) -> np.ndarray:
    """Closed-form eigenenergies (M, 4), as ``model.eigenenergies``."""
    energies = np.empty((len(B), 4))
    energies[:, 0] = 0.5 * (delta - 2.0 * B)
    energies[:, 1] = 0.5 * (delta + 2.0 * B)
    energies[:, 2] = -0.5 * delta - J
    energies[:, 3] = -0.5 * delta + J
    return energies


def stage_rates(energies, epsilon: float, kappa, T) -> np.ndarray:
    """Jump rates (M, 2, 4, 4) of stage rows with energies (M, 4), coupling
    kappa (M,) and reservoir temperatures T (M, 2), as
    ``baths.transition_rates`` of ``model.transition_table``."""
    gap = energies[:, _I] - energies[:, _J]
    flip = (gap < 0.0)[:, None, :]
    omega = np.abs(gap)[:, None, :]  # (M, 1, 4) against the sides' (M, 2, 1)
    degenerate = omega < OMEGA_EPS
    T = T[:, :, None]
    left = [0.5 * (epsilon - 1.0) ** 2 if j == 3 else 0.5 * (epsilon + 1.0) ** 2
            for _, j in COUPLED_PAIRS]  # the coupling weights of model.transition_table
    weight_kappa = np.array([left, [0.5] * 4]) * kappa[:, None, None]
    # both Bose branches everywhere, then the one that applies: the unused
    # branch may overflow, and the masked entries at T = 0 or omega = 0
    # divide by zero; a huge kappa overflows a rate to inf as a float would
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = omega / T
        n = np.where(x >= _BOSE_EXP_SWITCH, np.exp(-x), 1.0 / np.expm1(x))
        n = np.where(degenerate | (T == 0.0), 0.0, n)
        scale = weight_kappa * omega
        limit = weight_kappa * T
        emission = np.where(degenerate, limit, scale * (1.0 + n))
        absorption = np.where(degenerate, limit, scale * n)
    rates = np.zeros((len(gap), 2, 4, 4))
    rates[:, :, _J, _I] = np.where(flip, absorption, emission)
    rates[:, :, _I, _J] = np.where(flip, emission, absorption)
    return rates


def tree_steady_state(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Populations (M, 4) and reasons (M,) of rate arrays (M, 2, 4, 4), as
    ``steady.steady_state_solve``: the matrix-tree formula on rates divided
    by the largest one, then the residual relative to that rate."""
    # a row with a non-finite rate turns to nan here and fails as NUMERIC
    with np.errstate(invalid="ignore"):
        m = rates[:, 0] + rates[:, 1]
        edges = m[:, _TO, _FROM]
        scale = edges.max(axis=1)  # nan or inf exactly when a rate is not finite
        k = edges / np.where(scale > 0.0, scale, 1.0)[:, None]
        # fwd and back twice over, so that positions x+1..x+3 are slices
        fwd = np.concatenate([k[:, :4], k[:, :4]], axis=1)
        back = np.concatenate([k[:, 4:], k[:, 4:]], axis=1)
        f1, f2, f3 = fwd[:, 1:5], fwd[:, 2:6], fwd[:, 3:7]
        b1, b2, b3 = back[:, 1:5], back[:, 2:6], back[:, 3:7]
        b12 = b1 * b2
        weights = (f1 * f2 * f3 + b1 * f2 * f3 + b12 * f3 + b12 * b3)[:, _STATE_ORDER]
        total = _chain(weights, None)
        solvable = total > 0.0
        p = weights / np.where(solvable, total, 1.0)[:, None]
        # the generator diagonal, compensated as in steady._generator_rows
        columns = m.swapaxes(1, 2)
        diagonal = -_chain(columns, None)
        for _ in range(3):
            m[:, _DIAGONAL, _DIAGONAL] = diagonal
            column_sums = _chain(columns, None)
            if not column_sums.any():
                break
            diagonal = diagonal - column_sums
        m[:, _DIAGONAL, _DIAGONAL] = diagonal
        residual = np.abs(_chain(m * p[:, None, :], None)).max(axis=1)
    reason = _first([(~np.isfinite(scale), _NOT_FINITE), (~solvable, _NONUNIQUE),
                     (residual > RESIDUAL_TOL * scale, _RESIDUAL)])
    return p, reason


def gibbs_populations(energies: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Thermal populations (M, 4) at temperatures T (M,), as ``steady.gibbs_state``."""
    weights = np.exp(-(energies - energies.min(axis=1, keepdims=True)) / T[:, None])
    return weights / _chain(weights, None)[:, None]


def _stage_populations(energies, rates, T) -> tuple[np.ndarray, np.ndarray]:
    """The solver step: populations and reasons of the stage rows, Gibbs
    states at T_L when ``rates`` is None, then the PopulationVector checks."""
    if rates is None:
        p, reason = gibbs_populations(energies, T[:, 0]), 0
    else:
        p, reason = tree_steady_state(rates)
    # min and max are nan when a population is; every comparison then fails
    valid = (
        (p.min(axis=1) >= -POPULATION_ATOL)
        & (p.max(axis=1) <= 1.0 + POPULATION_ATOL)
        & (np.abs(_chain(p, None) - 1.0) <= POPULATION_ATOL)
    )
    return p, np.where((reason == 0) & ~valid, _POPULATIONS, reason)


def _entropy_production(energies, rates, populations, T) -> tuple[np.ndarray, np.ndarray]:
    """The Pi step: Pi = Phi of each stage row, as ``dynamics.flows_at``, and
    whether it is defined (both reservoirs above T = 0)."""
    p = populations
    gain = energies[:, _J] - energies[:, _I]
    flux = rates[:, :, _J, _I] * p[:, None, _I] - rates[:, :, _I, _J] * p[:, None, _J]
    q = _chain(gain[:, None, :] * flux)
    defined = (T > 0.0).all(axis=1)
    T = np.where(defined[:, None], T, 1.0)
    return -q[:, 0] / T[:, 0] - q[:, 1] / T[:, 1], defined


def evaluate(epsilon: float | None, points, pi: bool = False) -> Batch:
    """Evaluate one cycle kind over N points; see the module docstring."""
    n = max(len(v) if hasattr(v, "__len__") else 1 for v in map(points.get, FIELDS))
    table = np.empty((len(FIELDS), n))
    for k, name in enumerate(FIELDS):
        table[k] = points[name]
    original = SimpleNamespace(**dict(zip(FIELDS, table)))
    with np.errstate(over="ignore", invalid="ignore"):
        t_hot, t_cold = _stage_temperatures(table)
        reason = _domain_reasons(epsilon, table, t_hot, t_cold)
        if epsilon is not None:
            large = (reason == 0) & (original.kappa > KAPPA_WARN)
            for kappa in (np.unique(original.kappa[large]).tolist() if large.any() else ()):
                warnings.warn(kappa_warning(kappa), stacklevel=_caller_stacklevel())
        if reason.any():
            table = np.where(reason != 0, _STAND_IN, table)
            t_hot, t_cold = _stage_temperatures(table)
        p = SimpleNamespace(**dict(zip(FIELDS, table)))

        energies = energies_of(np.concatenate([p.B, p.B]), np.concatenate([p.J, p.J]),
                               np.concatenate([p.delta_c, p.delta_h]))
        T = np.empty((2 * n, 2))
        if epsilon is None:
            T[:n] = t_cold[:, None]
            T[n:] = t_hot[:, None]
            rates = None
        else:
            T[:n, 0] = T[n:, 1] = t_hot
            T[:n, 1] = T[n:, 0] = t_cold
            rates = stage_rates(energies, epsilon, np.concatenate([p.kappa, p.kappa]), T)
        populations, stage_reason = _stage_populations(energies, rates, T)
        stage_reason = np.where(stage_reason[:n] != 0, stage_reason[:n], stage_reason[n:])
        reason = np.where(reason != 0, reason, stage_reason)

        pc, ph = populations[:n], populations[n:]
        q12 = _chain(energies[:n] * (pc - ph))
        q34 = _chain(energies[n:] * (ph - pc))
        w = q12 + q34
        xi12 = _chain(pc[:, :2] - ph[:, :2])
        xi34 = _chain(pc[:, 2:] - ph[:, 2:])
        q_in = np.where(q12 > 0.0, q12, 0.0) + np.where(q34 > 0.0, q34, 0.0)
        defined = (w > 0.0) & (q_in > 0.0)
        eta = np.where(defined, w / np.where(defined, q_in, 1.0), np.nan)
        ratio = q12 / (0.5 * (p.delta_h - p.delta_c))
        unity = (ratio > 0.0) & ((xi34 - xi12) > ratio)

        pi_values = pi_ok = None
        if pi:
            if rates is None:
                pi_values, pi_ok = np.zeros((3, n)), np.ones(n, dtype=bool)
            else:
                phi, defined = _entropy_production(energies, rates, populations, T)
                pi_values = np.stack([phi[:n], phi[n:], phi[:n] + phi[n:]])
                pi_ok = defined[:n] & defined[n:]

    return Batch(
        points=original,
        reason=reason,
        energies=energies.reshape(2, n, 4),
        rates=None if rates is None else rates.reshape(2, n, 2, 4, 4),
        temperatures=T.reshape(2, n, 2),
        populations=populations.reshape(2, n, 4),
        q12=q12, q34=q34, w=w, eta=eta, xi12=xi12, xi34=xi34,
        positive_work=xi34 > xi12,
        unity=unity,
        pi=pi_values,
        pi_ok=pi_ok,
    )


def evaluate_spec(spec, pi: bool = False) -> Batch:
    """The kernel on one CycleSpec (N = 1); a failed row raises its exception."""
    batch = evaluate(spec.kind.epsilon, {name: getattr(spec, name) for name in FIELDS}, pi)
    error = batch.error(0)
    if error is not None:
        raise error
    return batch
