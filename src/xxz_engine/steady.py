"""Stationary populations of the four-level rate equation.

Three routes, kept deliberately independent so they can cross-validate:

* ``steady_state_solve`` -- the primary path: the matrix-tree (Kirchhoff/
  Hill) formula on the bath-coupled level graph, the 4-cycle 1-3-2-4-1.
* ``steady_state_closed_form`` -- the analytic elimination of the same
  balance equations in terms of the per-pair aggregates E_ij / A_ij;
  a validation artifact, not the primary path.
* ``gibbs_state`` -- thermal populations, the exact stationary state
  whenever both reservoirs share one temperature.

The first two read the jump rates off the generator rows, the sum of the
``RateSet``'s left and right matrices with the diagonal set so that every
column sums to zero: the rate of the jump i -> j is ``m[j-1][i-1]``.

Populations in deeply gapped, low-temperature configurations span hundreds
of orders of magnitude.  The matrix-tree formula writes each one as a sum
of products of nonnegative rates, with no subtraction anywhere, so even
~1e-90 occupations keep relative (not just absolute) accuracy.  Heat
currents and entropy production inherit their sign from those tiny
components, so this matters.  The stationarity residual of a solution is
checked relative to the largest rate, and a rate that overflowed to a
non-finite value is reported as a numerical failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baths import RateSet
from .model import EigenSystem

#: Slack on the [0, 1] range and on the sum-to-one constraint.
POPULATION_ATOL = 1e-12

#: Acceptable stationarity residual max|M P| of a returned steady state,
#: relative to the largest jump rate.
RESIDUAL_TOL = 1e-12

#: Denominator floor below which the closed-form expressions are meaningless.
_CLOSED_FORM_FLOOR = 1e-14


class SteadyStateError(RuntimeError):
    """Base class for steady-state computation failures."""

    #: Error code of the ``#ERR:<code>`` cells this failure produces in a sweep.
    code = "NUMERIC"


class NonUniqueSteadyStateError(SteadyStateError):
    """The rate network does not pin down a unique stationary distribution."""

    code = "NONUNIQUE"


class ClosedFormInapplicableError(SteadyStateError):
    """A closed-form denominator vanished; fall back to ``steady_state_solve``."""

    code = "CLOSEDFORM"


@dataclass(frozen=True)
class PopulationVector:
    """Occupation probabilities (P1, P2, P3, P4); normalized, each in [0, 1]."""

    p: tuple[float, float, float, float]

    def __post_init__(self):
        total = 0.0
        for value in self.p:
            if not math.isfinite(value):
                raise ValueError(f"population must be finite, got {value!r}")
            if value < -POPULATION_ATOL or value > 1.0 + POPULATION_ATOL:
                raise ValueError(f"population {value!r} outside [0, 1]")
            total += value
        if abs(total - 1.0) > POPULATION_ATOL:
            raise ValueError(f"populations sum to {total!r}, expected 1")

    def probability(self, state: int) -> float:
        """Occupation of state ``state`` in 1..4."""
        return self.p[state - 1]

    def as_array(self) -> np.ndarray:
        return np.array(self.p, dtype=float)


@dataclass(frozen=True)
class RateGenerator:
    """Generator M of the population dynamics dP/dt = M P.

    Columns sum to zero to within one ulp (probability conservation is
    compensated into the diagonal at construction) and off-diagonal entries
    are nonnegative.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.shape != (4, 4):
            raise ValueError(f"generator must be 4x4, got {m.shape}")
        off = m - np.diag(np.diag(m))
        if np.any(off < 0.0):
            raise ValueError("off-diagonal generator entries must be >= 0")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m.sum(axis=0)).max() > 1e-15 * scale * 4:
            raise ValueError("generator columns must sum to zero")
        m.setflags(write=False)


def _generator_rows(rates: RateSet) -> list[list[float]]:
    """Generator rows as plain floats: left + right, with the diagonal
    compensated so every column sums to zero."""
    m = [[a + b for a, b in zip(*rows)] for rows in zip(rates.left, rates.right)]
    for col in range(4):
        off = 0.0
        for row in range(4):
            if row != col:
                off += m[row][col]
        m[col][col] = -off
        for _ in range(3):  # compensate the re-summation rounding away
            residual = m[0][col] + m[1][col] + m[2][col] + m[3][col]
            if residual == 0.0:
                break
            m[col][col] -= residual
    return m


def generator_matrix(rates: RateSet) -> RateGenerator:
    """Assemble the Pauli generator: the off-diagonal entries are the jump
    rates of both reservoirs summed, and the diagonal is the negated
    off-diagonal column sum, so the column sums vanish to the last bit.
    """
    return RateGenerator(matrix=np.array(_generator_rows(rates)))


#: The bath-coupled level graph as 0-based states in cycle order 1-3-2-4-1;
#: the pairs (1, 2) and (3, 4) are dark.
_CYCLE = (0, 2, 1, 3)


def steady_state_solve(rates: RateSet) -> PopulationVector:
    """Unique stationary distribution of the rate network.

    Matrix-tree (Kirchhoff/Hill) formula on the 4-cycle 1-3-2-4-1: P_i is
    proportional to the sum, over the four spanning trees (the cycle minus
    one edge), of the product of the three rates directed toward i.  Every
    term is a product of nonnegative rates, so each population keeps
    relative accuracy however small it is.  Rates are divided by the
    largest one first so the products cannot overflow.  Raises
    ``NonUniqueSteadyStateError`` when every tree weight vanishes (e.g. all
    rates zero, or a level graph that splits into disconnected pieces at
    zero temperature), and ``SteadyStateError`` when a rate is not finite or
    the result fails the stationarity residual relative to the largest rate.
    """
    m = _generator_rows(rates)
    # k(c -> r) = m[r][c]; fwd[x] leaves _CYCLE[x] forward, back[x] backward.
    fwd = [m[_CYCLE[(x + 1) % 4]][_CYCLE[x]] for x in range(4)]
    back = [m[_CYCLE[x - 1]][_CYCLE[x]] for x in range(4)]
    edges = fwd + back
    scale = max(edges)
    weights = [0.0] * 4
    if scale > 0.0:
        fwd = [k / scale for k in fwd]
        back = [k / scale for k in back]
        for x in range(4):
            # The four trees rooted at _CYCLE[x]: of the other three states,
            # in cycle order after it, the first 0, 1, 2 or 3 drain backward
            # into it and the rest forward.
            f1, f2, f3 = fwd[(x + 1) % 4], fwd[(x + 2) % 4], fwd[(x + 3) % 4]
            b1, b2, b3 = back[(x + 1) % 4], back[(x + 2) % 4], back[(x + 3) % 4]
            weights[_CYCLE[x]] = f1 * f2 * f3 + b1 * f2 * f3 + b1 * b2 * f3 + b1 * b2 * b3
    total = sum(weights)
    if not total > 0.0:
        # a non-finite rate makes the total NaN, so it always lands here
        for k in edges:
            if not math.isfinite(k):
                raise SteadyStateError(
                    f"jump rate {k!r} is not finite: the rates overflow a float"
                )
        raise NonUniqueSteadyStateError(
            "every spanning-tree weight vanishes (disconnected or rate-free "
            "level graph)"
        )
    p = [w / total for w in weights]
    residual = max(abs(sum(m[r][c] * p[c] for c in range(4))) for r in range(4))
    if residual > RESIDUAL_TOL * scale:
        # the positive tree-weight sum already proves the state unique
        raise SteadyStateError(
            f"stationarity residual {residual:.3e} exceeds {RESIDUAL_TOL:g} "
            f"times the largest rate {scale:.3e}"
        )
    return PopulationVector(p=(p[0], p[1], p[2], p[3]))


def steady_state_closed_form(rates: RateSet) -> PopulationVector:
    """Analytic stationary populations from the pairwise aggregates.

    Eliminates P1 and P2 through their own balance equations, solves for
    the ratio P4/P3 = r2/r1 from the state-3 balance, and normalizes:

        P1/P3 = (A13 r1 + A14 r2) / (r1 (E13 + E14)),
        P2/P3 = (A23 r1 + A24 r2) / (r1 (E23 + E24)),
        P4/P3 = r2 / r1,

    with E_ij the total rate of the jump i -> j and A_ij that of j -> i, in
    the fixed (i in {1,2}, j in {3,4}) labeling.  Raises
    ``ClosedFormInapplicableError`` whenever a denominator falls below
    ``_CLOSED_FORM_FLOOR`` (frozen reservoirs can underflow entire
    aggregates to zero); callers then fall back to ``steady_state_solve``.
    """
    m = _generator_rows(rates)  # E_ij = k(i -> j) = m[j][i], A_ij = m[i][j]
    e13, e14, e23, e24 = m[2][0], m[3][0], m[2][1], m[3][1]
    a13, a14, a23, a24 = m[0][2], m[0][3], m[1][2], m[1][3]

    out1 = e13 + e14  # total outflow of state 1
    out2 = e23 + e24
    into3 = a13 + a23  # total outflow of state 3
    for name, value in (("E13+E14", out1), ("E23+E24", out2), ("A13+A23", into3)):
        if abs(value) < _CLOSED_FORM_FLOOR:
            raise ClosedFormInapplicableError(f"aggregate {name} = {value:g} is too small")

    r1 = e13 * a14 / (into3 * out1) + e23 * a24 / (into3 * out2)
    r2 = 1.0 - e13 * a13 / (into3 * out1) - e23 * a23 / (into3 * out2)
    if abs(r1 * out1) < _CLOSED_FORM_FLOOR or abs(r1 * out2) < _CLOSED_FORM_FLOOR:
        raise ClosedFormInapplicableError(f"ratio denominator r1 = {r1:g} is too small")

    ratio1 = (a13 * r1 + a14 * r2) / (r1 * out1)
    ratio2 = (a23 * r1 + a24 * r2) / (r1 * out2)
    ratio4 = r2 / r1
    p3 = 1.0 / (ratio1 + ratio2 + ratio4 + 1.0)
    return PopulationVector(p=(ratio1 * p3, ratio2 * p3, p3, ratio4 * p3))


def gibbs_state(eigen: EigenSystem, T: float) -> PopulationVector:
    """Thermal populations P_i = exp(-E_i/T)/Z, shifted by the ground energy
    before exponentiation so low temperatures cannot overflow."""
    if not (isinstance(T, (int, float)) and math.isfinite(T)) or T <= 0.0:
        raise ValueError(f"temperature must be positive and finite, got {T!r}")
    energies = eigen.as_array()
    weights = np.exp(-(energies - energies.min()) / T)
    weights /= weights.sum()
    return PopulationVector(p=tuple(float(w) for w in weights))
