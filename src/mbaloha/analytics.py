"""Closed-form and heuristic performance formulas.

The non-cooperative collection probability is an inclusion-exclusion series
over the number k of stations jointly empty of interferers; the k-th term
couples a degree weight (binomial zeta_k, or its Poisson limit lambda^k/k!)
with a moment of the normalized union-of-disks area.  The cooperative
heuristic chains two peeling iterations of the same structure.  The
formulas are arithmetic on moment arrays: the length of the array they are
given is the truncation.  Truncated alternating series can leave [0, 1];
values are clamped and flagged rather than silently repaired.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scenario import SystemParams, coverage_probability

#: Truncation is unreliable once lambda approaches k_max; see the warning below.
TRUNCATION_SAFE_FACTOR = 0.25

_MAX_CANCELLATION_DIGITS = 12.0


@dataclass(frozen=True)
class SeriesValue:
    """A truncated-series value clamped to [0, 1] with a diagnostic flag."""

    value: float
    clamped: bool


@dataclass(frozen=True)
class HeuristicResult:
    """Two-iteration peeling heuristic.

    sigma1: P(user uncollected after round 1 | active); rho1: P(a station
    still hears undecoded interferers after round 1); sigma2: P(user
    uncollected after round 2 | active).  ``clamped`` names the stages that
    were clamped to [0, 1].
    """

    sigma1: float
    rho1: float
    sigma2: float
    clamped: tuple[str, ...]

    @property
    def conditional(self) -> float:
        """P(collected | active) after two rounds."""
        return 1.0 - self.sigma2


@dataclass(frozen=True)
class FiniteBracket:
    """Theorem-style bracket on the unconditional collection probability."""

    lower: float
    upper: float


def _clamp01(raw: float) -> tuple[float, bool]:
    if raw < 0.0:
        return 0.0, True
    if raw > 1.0:
        return 1.0, True
    return raw, False


def _alternating_sum(weights: np.ndarray, factors) -> float:
    """fsum over k = 1..len(weights) of (-1)^(k-1) weights[k-1] factors[k-1]."""
    signs = np.where(np.arange(len(weights)) % 2 == 0, 1.0, -1.0)
    return math.fsum((signs * weights * factors).tolist())


def _poisson_sum(rate: float, factors: np.ndarray) -> float:
    """The alternating sum with the Poisson weights rate^k / k!, taken in log space."""
    if rate == 0.0:
        return 0.0
    ks = np.arange(1, len(factors) + 1)
    weights = np.exp(ks * math.log(rate) - np.array([math.lgamma(k + 1) for k in ks]))
    return _alternating_sum(weights, factors)


def _check_truncation(lam: float, k_max: int) -> None:
    if lam > TRUNCATION_SAFE_FACTOR * k_max:
        warnings.warn(
            f"series truncated at k_max={k_max} is unreliable for lambda={lam:g}; "
            f"use k_max >= {math.ceil(lam / TRUNCATION_SAFE_FACTOR)}",
            stacklevel=3,
        )


def zeta(k: int, m: int, r: float) -> float:
    """Sum over d >= k of C(d, k) times the binomial user-degree pmf.

    That sum is the k-th factorial moment of Binomial(m, q) over k!, which is
    C(m, k) q^k with q = r^2 pi; evaluated in log space.  It tends to
    lambda^k / k! for large m at fixed lambda = m r^2 pi.
    """
    if not 1 <= k <= m:
        raise ValueError(f"k={k} outside 1..{m}")
    q = r * r * math.pi
    if not 0.0 < q < 1.0:
        raise ValueError(f"r^2 pi must lie in (0, 1), got {q}")
    return math.exp(math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1) + k * math.log(q))


def collection_prob_noncoop_asymptotic(lam: float, psi: float, alphas: np.ndarray) -> SeriesValue:
    """Truncated series for P(collected | active) without cooperation.

    ``psi`` is G * lambda and ``alphas`` holds the first area moments
    E[alpha_k] for k = 1..K, K being the truncation.  The unconditional
    probability is p times the returned value.
    """
    _check_truncation(lam, len(alphas))
    raw = _poisson_sum(lam, np.exp(-alphas * psi))
    return SeriesValue(*_clamp01(raw))


def collection_prob_noncoop_finite(params: SystemParams, moments: np.ndarray) -> FiniteBracket:
    """Finite-regime bracket on the unconditional collection probability.

    ``moments[k-1, s-1]`` holds E[alpha_k^s]; the k-sum runs to
    min(m, len(moments)).  The nominal-placement probability is the
    alternating sum of zeta_k times the moment-expanded integral I_k; the
    boundary strip contributes the bracket width p (8r - 16r^2).  Refuses
    inputs whose polynomial expansion would lose more than ~12 digits to
    cancellation (use the asymptotic series instead).
    """
    n, m, r, p = params.n, params.m, params.r, params.p
    s_max = moments.shape[1]
    if n - 1 > s_max:
        raise ValueError(
            f"table provides moments up to s_max={s_max}, need n-1={n - 1}; "
            "tabulate more moments or use the asymptotic path"
        )
    k_max = min(m, len(moments))

    x = p * r * r * math.pi
    log_x = math.log(x)
    lg_n = math.lgamma(n)  # lgamma(n) = log (n-1)!
    log_choose = np.array(
        [lg_n - math.lgamma(s + 1) - math.lgamma(n - s) for s in range(n)]
    )

    integrals = np.empty(k_max)
    for k in range(1, k_max + 1):
        log_moments = np.concatenate(([0.0], np.log(moments[k - 1, : n - 1])))
        mags = np.exp(log_choose + np.arange(n) * log_x + log_moments)
        value = _alternating_sum(mags, 1.0)
        if value <= 0.0 or (mags.max() > 0 and math.log10(mags.max() / abs(value)) > _MAX_CANCELLATION_DIGITS):
            raise ValueError(
                f"polynomial moment expansion for n={n} is numerically unstable; "
                "use the asymptotic path"
            )
        integrals[k - 1] = value

    zetas = np.array([zeta(k, m, r) for k in range(1, k_max + 1)])
    if k_max < m:
        tail = zeta(k_max + 1, m, r)
        if tail > 1e-9:
            raise ValueError(
                f"k-sum truncated at {k_max} leaves a non-negligible tail ({tail:.3g}); "
                "provide a table with larger k_max"
            )
    conditional = _alternating_sum(zetas, integrals)
    width = 8.0 * r - 16.0 * r * r
    return FiniteBracket(lower=p * conditional, upper=p * (conditional + width))


def lower_bound_noncoop(lam: float, psi: float, p: float) -> float:
    """Empty-double-radius lower bound p (1 - e^-lambda) e^-4psi (loose)."""
    return p * (-math.expm1(-lam)) * math.exp(-4.0 * psi)


def heuristic_coop(lam: float, psi: float, alphas: np.ndarray) -> HeuristicResult:
    """Two-iteration cooperative heuristic: sigma1 -> rho1 -> sigma2.

    ``alphas`` holds the first area moments E[alpha_k], k = 1..K.  Each
    stage is the same truncated alternating series with the previous
    stage's survival probability raised to the mean area; each stage is
    clamped to [0, 1] with the stage name recorded when clamping fired.
    The conditional collection probability is 1 - sigma2.
    """
    _check_truncation(lam, len(alphas))
    flags: list[str] = []

    def stage(name: str, raw: float) -> float:
        value, clamped = _clamp01(raw)
        if clamped:
            flags.append(name)
        return value

    sigma1 = stage("sigma1", 1.0 - _poisson_sum(lam, np.exp(-alphas * psi)))
    rho1 = stage("rho1", _poisson_sum(psi, sigma1**alphas))
    sigma2 = stage("sigma2", 1.0 - _poisson_sum(lam, (1.0 - rho1) ** alphas))
    return HeuristicResult(sigma1, rho1, sigma2, tuple(flags))


def _moving_average3(vals: np.ndarray) -> np.ndarray:
    """Centered moving average over windows of 3 points, 2 at the ends.

    Each window's sum is added left to right, as ``.mean()`` adds it, and
    divided by the window's length, so point i is bit for bit
    ``vals[max(0, i - 1) : i + 2].mean()``.
    """
    if vals.size < 2:
        return vals
    pairs = vals[:-1] + vals[1:]
    sums = np.concatenate([pairs[:1], pairs[:-1] + vals[2:], pairs[-1:]])
    counts = np.full(vals.size, 3.0)
    counts[[0, -1]] = 2.0
    return sums / counts


def g_bullet_from_values(lam: float, eps: float, g_grid: Sequence[float], values: Sequence[float]) -> float:
    """Largest grid load whose probability stays >= 1-eps.

    Returns 0 when even full coverage cannot reach 1-eps, or when no grid
    point qualifies.  The values are thresholded as given; noisy Monte Carlo
    values are smoothed first (``_moving_average3``).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    grid = np.asarray(g_grid, dtype=float)
    vals = np.asarray(values, dtype=float)
    if grid.size == 0:
        raise ValueError("empty load grid")
    if grid.shape != vals.shape:
        raise ValueError("grid and values must have matching shapes")
    if 1.0 - eps > coverage_probability(lam):
        return 0.0
    qualifying = grid[vals >= 1.0 - eps]
    return float(qualifying.max()) if qualifying.size else 0.0
