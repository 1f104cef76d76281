"""Closed-form bounds and feasibility conditions for sparse-graph colouring.

Pure scalar functions: the expected repeated-colour savings rate, the
feasibility condition of the iterative colouring procedure, the polynomial
approximations relating sparsity to colour savings, the density guarantee for
critical graphs, and the edge-density bound chain used by the strong
edge colouring pipeline.  Boundary cases get a high-precision (mpmath) shadow
evaluation alongside binary64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Union

import mpmath

Scalar = Union[float, Fraction]

HIGH_PRECISION_DPS = 40

# Polynomial coefficients of the sparsity -> colour-savings approximations.
OURS_LINEAR, OURS_THREEHALF = 0.3012, 0.1283
BRUHN_JOOS_LINEAR, BRUHN_JOOS_THREEHALF = 0.1827, 0.0778

# The strong-edge pipeline's parameters: the peel slack eta, and the
# (eps, delta) at which its feasibility condition is checked.
STRONG_EDGE_ETA = 0.164
STRONG_EDGE_EPS = 0.0825
STRONG_EDGE_DELTA = 0.345


class BoundDomainError(ValueError):
    """Input outside the documented range of a bound."""


# -- savings rate and feasibility --------------------------------------------


def savings_rate(eps: float, delta: float) -> float:
    """Expected repeated-colour savings per unit degree.

    For colour lists of size (1 - eps) * degree on a graph whose
    neighbourhoods miss a delta-fraction of their possible edges:

        delta / (2 (1-eps)) * exp(-1 / (1-eps))
            - delta^(3/2) / (6 (1-eps)^2) * exp(-7 / (8 (1-eps)))

    (the pair term minus the triple correction).  delta must lie in [0, 1];
    eps may be negative, as in the last rows of an iteration schedule.
    """
    if eps >= 1:
        raise BoundDomainError("savings rate undefined for eps >= 1")
    if not 0 <= delta <= 1:
        raise BoundDomainError(f"delta={delta} outside [0, 1]")
    one = 1.0 - eps
    pair = delta / (2.0 * one) * math.exp(-1.0 / one)
    triple = delta**1.5 / (6.0 * one * one) * math.exp(-7.0 / (8.0 * one))
    return pair - triple


def _savings_rate_mp(eps, delta):
    one = 1 - mpmath.mpf(eps)
    d = mpmath.mpf(delta)
    return d / (2 * one) * mpmath.e ** (-1 / one) - d ** mpmath.mpf("1.5") / (
        6 * one**2
    ) * mpmath.e ** (-7 / (8 * one))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the iteration feasibility condition for (eps, delta).

    The condition is  eps < exp(1 / (2 (1-eps))) * savings_rate(eps, delta).
    `margin` is RHS - eps.  `satisfied` and `margin_str` come from the
    high-precision evaluation; `margin_float64` from plain binary64.
    """

    eps: float
    delta: float
    satisfied: bool
    margin: float
    margin_str: str
    margin_float64: float


def condition_check(eps: float, delta: float) -> ConditionReport:
    """Feasibility of the iterative procedure for sparsity delta at eps.

    Evaluated in extended precision (>= 30 significant digits) with the
    binary64 value reported alongside.  delta must lie in [0, 1], as for
    `savings_rate`.
    """
    if not 0 < eps < 0.5:
        raise BoundDomainError(f"eps={eps} outside (0, 0.5)")
    rhs64 = math.exp(1.0 / (2.0 * (1.0 - eps))) * savings_rate(eps, delta)
    with mpmath.workdps(HIGH_PRECISION_DPS):
        e = mpmath.mpf(repr(eps))
        d = mpmath.mpf(repr(delta))
        rhs = mpmath.e ** (1 / (2 * (1 - e))) * _savings_rate_mp(e, d)
        margin = rhs - e
        return ConditionReport(
            eps=eps,
            delta=delta,
            satisfied=bool(margin > 0),
            margin=float(margin),
            margin_str=mpmath.nstr(margin, 30),
            margin_float64=rhs64 - eps,
        )


# -- polynomial approximations -------------------------------------------------


def approx_eps(delta: float, variant: str = "ours") -> float:
    """Colour savings fraction guaranteed for a delta-sparse graph.

    `ours` is the iterated-procedure approximation
    0.3012 delta - 0.1283 delta^(3/2); `bruhn_joos` the single-round one,
    0.1827 delta - 0.0778 delta^(3/2).  Valid for delta in [0, 0.9].
    """
    if not 0 <= delta <= 0.9:
        raise BoundDomainError(f"delta={delta} outside [0, 0.9]")
    if variant == "ours":
        a, b = OURS_LINEAR, OURS_THREEHALF
    elif variant == "bruhn_joos":
        a, b = BRUHN_JOOS_LINEAR, BRUHN_JOOS_THREEHALF
    else:
        raise BoundDomainError(f"unknown variant {variant!r}")
    return a * delta - b * delta**1.5


def critical_sparsity(alpha: Scalar, eps: Scalar) -> Scalar:
    """Sparsity (alpha - 2 eps)^2 / 2 guaranteed for critical graphs whose
    clique number is at most (1 - alpha)(max_degree + 1).

    Requires eps < alpha / 2.  Exact when called with Fractions.
    """
    if 2 * eps >= alpha:
        raise BoundDomainError(f"need eps < alpha/2 (eps={eps}, alpha={alpha})")
    return (alpha - 2 * eps) ** 2 / 2


def neighbourhood_deficiency(k: int, max_degree: int, omega: int) -> Fraction:
    """Guaranteed number of missing edges in any neighbourhood of a critical
    graph: C(max(2k - max_degree - omega + 1, 0), 2) / 2, as an exact rational.
    """
    span = max(2 * k - max_degree - omega + 1, 0)
    return Fraction(comb(span, 2), 2)


# -- clique-ratio table --------------------------------------------------------


def epsilon_for_alpha(alpha: float, grid: float = 1e-4) -> float:
    """Largest grid multiple eps satisfying the clique-reduction condition

        eps <= 0.3012 (alpha/2) (1-2 eps)^2 - 0.1283 (alpha^2/(2 sqrt 2)) (1-2 eps)^3.

    Found by bisection over the grid index: the right-hand side is strictly
    decreasing in eps on [0, 0.5), so the condition holds on a prefix of the
    grid, and the search takes O(log(1/grid)) steps.
    """
    if not 0 < alpha <= 1:
        raise BoundDomainError(f"alpha={alpha} outside (0, 1]")
    if not 0 < grid <= 0.5:
        raise BoundDomainError(f"grid={grid} outside (0, 0.5]")
    steps = 0.5 / grid
    if not math.isfinite(steps):
        raise BoundDomainError(f"grid={grid} too fine: 0.5 / grid overflows")
    a2 = OURS_LINEAR * alpha / 2.0
    a3 = OURS_THREEHALF * alpha * alpha / (2.0 * math.sqrt(2.0))

    def holds(i: int) -> bool:
        eps = i * grid
        t = 1.0 - 2.0 * eps
        return eps <= a2 * t * t - a3 * t * t * t

    # Invariant: holds(lo) or lo == 0, and not holds(hi) or hi == the grid size.
    lo, hi = 0, int(round(steps))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo * grid


def alpha_eps_table(grid: float = 1e-4) -> list[tuple[float, float]]:
    """(alpha, eps) rows for alpha = 0.02, 0.04, ..., 0.90."""
    rows = []
    for i in range(1, 46):
        alpha = i / 50.0
        rows.append((alpha, epsilon_for_alpha(alpha, grid)))
    return rows


def table_to_csv(rows: list[tuple[float, float]]) -> str:
    lines = ["alpha,eps"]
    lines += [f"{alpha:.2f},{eps:.4f}" for alpha, eps in rows]
    return "\n".join(lines) + "\n"


# -- strong-edge density bound chain -------------------------------------------


def core_edge_bound(alpha: float, beta: float, gamma: float, eta: float) -> float:
    """Leading coefficient of the core-neighbourhood edge bound:

    2 - a - b - g/2 - 3(2-a-2b-g)^2 / (2(2-a)^2) - g^2 / (2(2-a-b)) + eta (2-a-b).
    """
    if alpha + beta >= 2:
        raise BoundDomainError("alpha + beta must be < 2")
    return (
        2.0
        - alpha
        - beta
        - gamma / 2.0
        - 3.0 * (2.0 - alpha - 2.0 * beta - gamma) ** 2 / (2.0 * (2.0 - alpha) ** 2)
        - gamma**2 / (2.0 * (2.0 - alpha - beta))
        + eta * (2.0 - alpha - beta)
    )


def core_edge_bound_sub(alpha: float, beta: float, eta: float, x: float) -> float:
    """Same bound after substituting x = beta + gamma/2."""
    if alpha + beta >= 2:
        raise BoundDomainError("alpha + beta must be < 2")
    return (
        2.0
        - alpha
        - x
        - 3.0 * (2.0 - alpha - 2.0 * x) ** 2 / (2.0 * (2.0 - alpha) ** 2)
        - 2.0 * (x - beta) ** 2 / (2.0 - alpha - beta)
        + eta * (2.0 - alpha - beta)
    )


def core_edge_bound_alpha0(beta: float, eta: float, x: float) -> float:
    """The substituted bound at alpha = 0 (its maximum over alpha):

    1/2 + 2x - 3/2 x^2 - 2(x-beta)^2 / (2-beta) + eta (2-beta).
    """
    if beta >= 2:
        raise BoundDomainError("beta must be < 2")
    return (
        0.5
        + 2.0 * x
        - 1.5 * x**2
        - 2.0 * (x - beta) ** 2 / (2.0 - beta)
        + eta * (2.0 - beta)
    )


def core_edge_bound_argmax(beta: float) -> float:
    """Interior maximiser x* = (4 + 2 beta) / (10 - 3 beta) of the alpha=0 bound."""
    return (4.0 + 2.0 * beta) / (10.0 - 3.0 * beta)


def core_edge_bound_max(beta: float, eta: float) -> float:
    """The alpha=0 bound at its maximiser:

    (2 - eta) beta + 31/6 - 128 / (3 (10 - 3 beta)) + 2 eta.
    """
    return (2.0 - eta) * beta + 31.0 / 6.0 - 128.0 / (3.0 * (10.0 - 3.0 * beta)) + 2.0 * eta


@dataclass(frozen=True)
class StrongEdgeConstants:
    """The numeric constants behind the 1.835 * max_degree^2 strong-edge bound."""

    eta: float
    core_bound: float        # core_edge_bound_max(eta, eta), must stay below 1.309
    derived_delta: float     # 1 - core_bound / 2
    eps: float
    condition: ConditionReport
    coefficient: float       # (1 - eps) * 2, exact via rationals
    coefficient_exact: Fraction


def strong_edge_constants() -> StrongEdgeConstants:
    """Reproduce the constants of the strong-edge pipeline at its chosen
    parameters.

    The feasibility condition at (eps, delta) sits essentially on the
    boundary; its signed margin is reported at high precision rather than
    asserted positive.
    """
    core = core_edge_bound_max(STRONG_EDGE_ETA, STRONG_EDGE_ETA)
    report = condition_check(STRONG_EDGE_EPS, STRONG_EDGE_DELTA)
    coeff = (1 - Fraction(repr(STRONG_EDGE_EPS))) * 2
    return StrongEdgeConstants(
        eta=STRONG_EDGE_ETA,
        core_bound=core,
        derived_delta=1.0 - core / 2.0,
        eps=STRONG_EDGE_EPS,
        condition=report,
        coefficient=float(coeff),
        coefficient_exact=coeff,
    )
