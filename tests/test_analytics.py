import math

import numpy as np
import pytest
from scipy import integrate, optimize

from conftest import first_moment_stderr, rng_from
from laws import g_bullet, moving_average3_reference, single_station, throughput
from mbaloha.analytics import (
    _moving_average3,
    collection_prob_noncoop_asymptotic,
    collection_prob_noncoop_finite,
    g_bullet_from_values,
    heuristic_coop,
    lower_bound_noncoop,
    zeta,
)
from mbaloha.decoders import all_users_adjacency, brute_force_collection_probability
from mbaloha.geometry import HALF_SIDE
from mbaloha.scenario import NetworkInstance, SystemParams, coverage_probability
from points import uniform_points


def _lens(t: float) -> float:
    if t >= 2.0:
        return 0.0
    return 2.0 * math.acos(t / 2.0) - (t / 2.0) * math.sqrt(4.0 - t * t)


def quadrature_mean_alpha(k: int) -> float:
    """Independent oracle: E[alpha_k] = 2 int_0^2 t (1-(1-lens(t)/pi)^k) dt."""
    f = lambda t: 2.0 * t * (1.0 - (1.0 - _lens(t) / math.pi) ** k)
    return integrate.quad(f, 0, 2, epsabs=1e-12, epsrel=1e-12, limit=200)[0]


@pytest.fixture(scope="session")
def quad_alphas() -> np.ndarray:
    """First moments from quadrature: exact, monotone, k up to 80."""
    alphas = np.array([quadrature_mean_alpha(k) for k in range(1, 81)])
    alphas[0] = 1.0
    return alphas


class TestZeta:
    def test_k1_is_mean_degree(self):
        assert zeta(1, 100, 0.09) == pytest.approx(100 * 0.09**2 * math.pi, rel=1e-12)

    def test_k_equals_m_single_term(self):
        q = 0.12**2 * math.pi
        assert zeta(4, 4, 0.12) == pytest.approx(q**4, rel=1e-12)

    @pytest.mark.parametrize("m,k,r", [(10, 2, 0.1), (50, 5, 0.05), (200, 3, 0.02), (7, 7, 0.2)])
    def test_closed_form_cross_check(self, m, k, r):
        # independent identity: sum_d C(d,k) C(m,d) q^d (1-q)^(m-d) = C(m,k) q^k
        q = r * r * math.pi
        closed = math.comb(m, k) * q**k
        assert zeta(k, m, r) == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("m,k,r", [(10, 2, 0.1), (60, 4, 0.07), (7, 7, 0.2)])
    def test_matches_defining_sum(self, m, k, r):
        # the definition: sum over d >= k of C(d, k) times the Binomial(m, q) pmf at d
        q = r * r * math.pi
        terms = [math.comb(d, k) * math.comb(m, d) * q**d * (1 - q) ** (m - d) for d in range(k, m + 1)]
        assert zeta(k, m, r) == pytest.approx(math.fsum(terms), rel=1e-10)

    def test_large_m_poisson_limit(self):
        m = 10_000
        r = math.sqrt(3.0 / (m * math.pi))
        target = 3.0**3 / 6.0
        assert abs(zeta(3, m, r) - target) / target < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta(0, 5, 0.1)
        with pytest.raises(ValueError):
            zeta(6, 5, 0.1)


class TestNoncoopAsymptotic:
    def test_zero_interference_reduces_to_coverage(self, quad_alphas):
        value = collection_prob_noncoop_asymptotic(3.0, 0.0, quad_alphas[:34]).value
        assert value == pytest.approx(coverage_probability(3.0), abs=1e-6)
        assert value == pytest.approx(0.9502, abs=1e-4)

    def test_coverage_limit_across_lambdas(self, quad_alphas):
        for lam in (1.0, 2.0, 4.0, 6.0):
            k_max = max(20, math.ceil(10 * lam))
            value = collection_prob_noncoop_asymptotic(lam, 0.0, quad_alphas[:k_max]).value
            assert value == pytest.approx(coverage_probability(lam), abs=1e-6)

    def test_lambda_zero_gives_zero(self, quad_alphas):
        assert collection_prob_noncoop_asymptotic(0.0, 0.0, quad_alphas).value == 0.0

    def test_truncation_sanity_34_vs_50(self, quad_alphas):
        for lam in (1.0, 3.0, 6.0):
            for g in (0.0, 0.5, 1.0):
                v34 = collection_prob_noncoop_asymptotic(lam, g * lam, quad_alphas[:34]).value
                v50 = collection_prob_noncoop_asymptotic(lam, g * lam, quad_alphas[:50]).value
                assert abs(v34 - v50) < 1e-4

    def test_truncation_warning_and_clamp_flag(self, quad_alphas):
        with pytest.warns(UserWarning, match="k_max"):
            result = collection_prob_noncoop_asymptotic(30.0, 0.0, quad_alphas[:6])
        assert result.clamped
        assert 0.0 <= result.value <= 1.0
        # At psi = 0 each factor is 1, so the unclamped sum has the bare Poisson weights.
        raw = math.fsum((-1) ** (k - 1) * 30.0**k / math.factorial(k) for k in range(1, 7))
        assert raw != result.value


class TestNoncoopFinite:
    def test_bracket_width_vanishes_with_r(self, tiny_table):
        for r in (0.1, 0.01, 0.001):
            params = SystemParams(n=5, m=3, r=r, p=0.5)
            bracket = collection_prob_noncoop_finite(params, tiny_table.moments)
            width = bracket.upper - bracket.lower
            assert width == pytest.approx(0.5 * (8 * r - 16 * r * r), rel=1e-12)

    def test_missing_moments_rejected(self, tiny_table):
        params = SystemParams(n=tiny_table.s_max + 2, m=3, r=0.1, p=0.5)
        with pytest.raises(ValueError, match="s_max"):
            collection_prob_noncoop_finite(params, tiny_table.moments)

    def test_unstable_expansion_rejected(self):
        # Dirac-at-1 table is legal for every k, s; n=600 at x ~ 0.147
        # loses far more than 12 digits to cancellation.
        params = SystemParams(n=600, m=3, r=0.25, p=0.75)
        with pytest.raises(ValueError, match="unstable"):
            collection_prob_noncoop_finite(params, np.ones((8, 620)))

    def test_nominal_conditioned_oracle_matches_eq3(self, tiny_table):
        # Average the exact per-mask oracle for user 0 over placements with
        # user 0 nominally placed; this should equal p * P^{o,r} from the
        # finite formula (sharp identity, not just the bracket).
        params = SystemParams(n=9, m=4, r=0.15, p=0.5)
        bracket = collection_prob_noncoop_finite(params, tiny_table.moments)
        vals = []
        bound = HALF_SIDE - 2 * params.r
        for i in range(1000):
            rng = rng_from(8800, i)
            user_xy = uniform_points(rng, params.n)
            user_xy[0] = rng.uniform(-bound, bound, size=2)
            station_xy = uniform_points(rng, params.m)
            inst = NetworkInstance(params, user_xy, station_xy, np.zeros(params.n, bool))
            vals.append(brute_force_collection_probability(all_users_adjacency(inst), params.p).noncooperative[0])
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert abs(mean - bracket.lower) <= 3 * se + 3e-3

    def test_bracket_contains_position_averaged_oracle(self, tiny_table):
        # Unrestricted placements: the bracket of the finite formula must
        # contain the position-averaged exact collection probability.
        params = SystemParams(n=10, m=5, r=0.2, p=0.8)
        bracket = collection_prob_noncoop_finite(params, tiny_table.moments)
        vals = []
        for i in range(600):
            rng = rng_from(9900, i)
            inst = NetworkInstance(
                params,
                uniform_points(rng, params.n),
                uniform_points(rng, params.m),
                np.zeros(params.n, bool),
            )
            vals.append(brute_force_collection_probability(all_users_adjacency(inst), params.p).noncooperative.mean())
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert bracket.lower - 3 * se <= mean <= bracket.upper + 3 * se

    def test_matches_asymptotic_at_scale(self, default_table):
        # Finite formula approaches the asymptotic series as n, m grow at
        # fixed lambda, psi.
        lam, g, p = 3.0, 0.25, 0.25
        asym = collection_prob_noncoop_asymptotic(lam, g * lam, default_table.first_moments[:40]).value
        for m in (60, 150):
            r = math.sqrt(lam / (m * math.pi))
            n = round(g * m / p)
            params = SystemParams(n=n, m=m, r=r, p=p)
            bracket = collection_prob_noncoop_finite(params, default_table.moments[:40])
            assert abs(bracket.lower / p - asym) < 1e-2


class TestLowerBound:
    def test_zero_interference(self):
        assert lower_bound_noncoop(2.0, 0.0, 0.3) == pytest.approx(0.3 * (1 - math.exp(-2)), rel=1e-12)

    def test_arithmetic_example(self):
        bound = lower_bound_noncoop(3.0, 0.25 * 3.0, 1.0)
        assert bound == pytest.approx((1 - math.exp(-3)) * math.exp(-3.0), rel=1e-12)
        assert bound == pytest.approx(0.0473, abs=1e-4)

    def test_bound_below_series_on_grid(self, quad_alphas):
        for lam in np.arange(1.0, 6.01, 0.1):
            for g in np.arange(0.0, 1.01, 0.1):
                psi = float(g) * float(lam)
                series = collection_prob_noncoop_asymptotic(float(lam), psi, quad_alphas[:60])
                if series.clamped:
                    continue
                bound = lower_bound_noncoop(float(lam), psi, 0.5) / 0.5
                assert bound <= series.value + 1e-12


class TestHeuristic:
    def test_zero_interference_reduction_is_exact(self, quad_alphas):
        for lam in (1.0, 3.0, 6.0):
            res = heuristic_coop(lam, 0.0, quad_alphas[:34])
            assert res.rho1 == 0.0
            assert res.sigma1 == res.sigma2
            assert res.sigma2 == pytest.approx(math.exp(-lam), abs=1e-12)
            assert res.clamped == ()

    def test_cooperation_never_hurts_on_grid(self, quad_alphas):
        for lam in np.arange(1.0, 6.01, 0.5):
            for g in np.arange(0.0, 1.01, 0.1):
                res = heuristic_coop(float(lam), float(g) * float(lam), quad_alphas[:50])
                if res.clamped:
                    continue
                assert res.sigma2 <= res.sigma1 + 1e-12

    def test_conditional_is_one_minus_sigma2(self, quad_alphas):
        res = heuristic_coop(3.0, 0.5 * 3.0, quad_alphas[:34])
        assert res.conditional == pytest.approx(1.0 - res.sigma2, rel=1e-15)

    def test_clamping_flags_fire_for_abusive_truncation(self, quad_alphas):
        with pytest.warns(UserWarning):
            res = heuristic_coop(30.0, 0.0, quad_alphas[:6])
        assert res.clamped  # at least one stage left [0, 1]
        for v in (res.sigma1, res.rho1, res.sigma2):
            assert 0.0 <= v <= 1.0


class TestThroughput:
    def test_throughput_identity(self):
        assert throughput(0.4, 0.8) == pytest.approx(0.32, rel=1e-15)
        assert throughput(0.4, 0.0) == 0.0
        with pytest.raises(ValueError):
            throughput(-0.1, 0.5)

    def test_single_station_peak(self):
        res = optimize.minimize_scalar(lambda x: -single_station(x), bounds=(0.1, 5), method="bounded")
        assert -res.fun == pytest.approx(1.0 / math.e, abs=1e-6)
        assert res.x == pytest.approx(1.0, abs=1e-4)

    def test_lemma_induced_throughput_peak(self):
        # peak of G (1-e^-lam) e^{-4 G lam} at lam = ln(1/eps) equals
        # (1/(4e)) (1-eps)/ln(1/eps); verified by numeric maximization.
        for eps in (0.05, 0.1, 0.2):
            lam = math.log(1.0 / eps)
            t_prime = lambda g: g * (1 - math.exp(-lam)) * math.exp(-4 * g * lam)
            res = optimize.minimize_scalar(lambda g: -t_prime(g), bounds=(0.0, 1.0), method="bounded")
            expected = (1.0 - eps) / (4.0 * math.e * lam)
            assert -res.fun == pytest.approx(expected, rel=1e-7)
            assert res.x == pytest.approx(1.0 / (4.0 * lam), rel=1e-3)


class TestGBullet:
    def test_coverage_convention(self):
        # coverage(2) = 0.8647 < 0.95 -> metric is zero regardless of values
        value = g_bullet_from_values(2.0, 0.05, [0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
        assert value == 0.0

    def test_exponential_evaluator_threshold(self):
        got = g_bullet(3.0, 0.5, lambda g: math.exp(-g), g_max=1.0, step=0.01)
        assert abs(got - math.log(2.0)) <= 0.01

    def test_monotone_in_eps(self, quad_alphas):
        def evaluator(g: float) -> float:
            return collection_prob_noncoop_asymptotic(3.0, g * 3.0, quad_alphas[:40]).value

        values = [g_bullet(3.0, eps, evaluator) for eps in (0.06, 0.1, 0.2, 0.4)]
        assert values == sorted(values)

    def test_no_qualifying_point_gives_zero(self):
        assert g_bullet_from_values(5.0, 0.1, [0.1, 0.2], [0.1, 0.2]) == 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            g_bullet_from_values(3.0, 0.1, [], [])

    def test_smoothing_suppresses_spurious_spikes(self):
        grid = [0.0, 0.1, 0.2, 0.3, 0.4]
        values = [0.99, 0.85, 0.80, 0.91, 0.10]
        rough = g_bullet_from_values(9.0, 0.1, grid, values)
        smooth = g_bullet_from_values(9.0, 0.1, grid, _moving_average3(np.array(values)))
        # an isolated above-threshold spike at G=0.3 survives raw thresholding
        assert rough == pytest.approx(0.3)
        # but not the window-3 moving average
        assert smooth == pytest.approx(0.0)

    @pytest.mark.parametrize("size", [1, 2, 3, 50])
    def test_smoothing_bit_identical_to_per_point_mean(self, size):
        values = rng_from(17, size).random(size)
        assert _moving_average3(values).tobytes() == moving_average3_reference(values).tobytes()

    def test_smoothing_with_nan_matches_per_point_mean(self):
        values = rng_from(18).random(9)
        values[4] = np.nan
        smoothed = _moving_average3(values)
        np.testing.assert_array_equal(smoothed, moving_average3_reference(values))
        assert np.isnan(smoothed[3:6]).all() and not np.isnan(smoothed[[2, 6]]).any()

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            g_bullet_from_values(3.0, 1.5, [0.1], [0.5])
        with pytest.raises(ValueError):
            g_bullet(3.0, 0.1, lambda g: 1.0, step=-0.1)


class TestMomentOracleAgreement:
    def test_tabulated_first_moments_match_quadrature(self, tiny_table):
        stderrs = first_moment_stderr(tiny_table)
        for k in range(2, tiny_table.k_max + 1):
            exact = quadrature_mean_alpha(k)
            se = stderrs[k - 1]
            assert abs(tiny_table.moments[k - 1, 0] - exact) <= 4 * se
