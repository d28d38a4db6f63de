"""Degree laws, closed forms and small wrappers that only the tests use: the
finite (binomial) and asymptotic (Poisson) degree laws of a nominally placed
user or station, the masks of nominally placed nodes, the coverage threshold
lambda_min, the single-station baseline, the normalized throughput, the
scalar G• threshold and its grid-scan form, which the array threshold of the
max-load metric is checked against, the per-point window-3 moving average
that G• smoothing is checked against, and the per-point pooled ratio that
the sweep's Monte Carlo columns are checked against."""

import math
from typing import Callable, Sequence

import numpy as np

from mbaloha.geometry import HALF_SIDE
from mbaloha.scenario import NetworkInstance


def _binom_pmf(d: int, total: int, q: float) -> float:
    if not 0 <= d <= total:
        raise ValueError(f"degree {d} outside 0..{total}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"success probability {q} outside [0, 1]")
    if q == 0.0:
        return 1.0 if d == 0 else 0.0
    if q == 1.0:
        return 1.0 if d == total else 0.0
    log_pmf = (
        math.lgamma(total + 1)
        - math.lgamma(d + 1)
        - math.lgamma(total - d + 1)
        + d * math.log(q)
        + (total - d) * math.log1p(-q)
    )
    return math.exp(log_pmf)


def user_degree_pmf(d: int, m: int, r: float) -> float:
    """P(user has exactly d adjacent stations | nominal placement)."""
    return _binom_pmf(d, m, r * r * math.pi)


def station_degree_pmf(d: int, n: int, p: float, r: float) -> float:
    """P(station hears exactly d active users among n-1 | nominal placement).

    One fixed user is excluded from the count, matching the conditioning used
    by the analytic formulas.
    """
    return _binom_pmf(d, n - 1, p * r * r * math.pi)


def poisson_pmf(d: int, mean: float) -> float:
    """Poisson pmf, evaluated in log space for large d."""
    if mean < 0:
        raise ValueError(f"mean must be nonnegative, got {mean}")
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    if mean == 0.0:
        return 1.0 if d == 0 else 0.0
    return math.exp(-mean + d * math.log(mean) - math.lgamma(d + 1))


def lambda_min(eps: float) -> float:
    """Smallest lambda guaranteeing coverage at least 1 - eps."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return math.log(1.0 / eps)


def nominal_user_mask(instance: NetworkInstance) -> np.ndarray:
    """Users placed in the inner square at distance >= 2r from the boundary."""
    bound = HALF_SIDE - 2.0 * instance.params.r
    return np.abs(instance.user_xy).max(axis=1) <= bound


def nominal_station_mask(instance: NetworkInstance) -> np.ndarray:
    bound = HALF_SIDE - 2.0 * instance.params.r
    return np.abs(instance.station_xy).max(axis=1) <= bound


def single_station(np_product: float) -> float:
    """Classic single-station slotted Aloha throughput n p e^{-n p}."""
    if np_product < 0:
        raise ValueError("n p must be nonnegative")
    return np_product * math.exp(-np_product)


def throughput(load_g: float, conditional_prob: float) -> float:
    """Normalized per-station throughput T = G * P(collected | active)."""
    if load_g < 0 or conditional_prob < 0:
        raise ValueError("inputs must be nonnegative")
    return load_g * conditional_prob


def g_bullet_from_values(lam: float, eps: float, g_grid: Sequence[float], values: Sequence[float]) -> float:
    """Largest grid load whose probability stays >= 1-eps, one (lambda, eps) at a time.

    Returns 0 when even full coverage 1 - e^-lambda cannot reach 1-eps, or
    when no grid point qualifies.  The values are thresholded as given.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    grid = np.asarray(g_grid, dtype=float)
    vals = np.asarray(values, dtype=float)
    if grid.size == 0:
        raise ValueError("empty load grid")
    if grid.shape != vals.shape:
        raise ValueError("grid and values must have matching shapes")
    if 1.0 - eps > -math.expm1(-lam):
        return 0.0
    qualifying = grid[vals >= 1.0 - eps]
    return float(qualifying.max()) if qualifying.size else 0.0


def g_bullet(
    lam: float,
    eps: float,
    evaluator: Callable[[float], float],
    g_max: float = 1.0,
    step: float = 0.01,
) -> float:
    """Grid supremum of {G : evaluator(G) >= 1 - eps} on 0..g_max."""
    if step <= 0 or g_max < 0:
        raise ValueError("step must be positive and g_max nonnegative")
    grid = np.arange(0.0, g_max + step / 2, step)
    values = [evaluator(float(g)) for g in grid]
    return g_bullet_from_values(lam, eps, grid, values)


def moving_average3_reference(values: np.ndarray) -> np.ndarray:
    """Window-3 centered moving average, one ``.mean()`` per point."""
    smoothed = np.empty_like(values)
    for i in range(values.size):
        smoothed[i] = values[max(0, i - 1) : i + 2].mean()
    return smoothed


def _pooled_ratio(collected: np.ndarray, active: np.ndarray) -> tuple[float, float]:
    """Pooled P(collected | active) and its linearized ratio standard error."""
    total_active = int(active.sum())
    if total_active == 0:
        return 0.0, 0.0
    phat = float(collected.sum()) / total_active
    runs = len(active)
    if runs < 2:
        return phat, float("nan")
    resid = collected - phat * active
    se = float(resid.std(ddof=1)) / (float(active.mean()) * math.sqrt(runs))
    return phat, se
