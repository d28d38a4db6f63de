"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 3, 4, 5, 7, 8
and 9 are Monte Carlo and take a few minutes on two cores.  Criterion 9 runs
the reduced 200-runs-per-point variant by default (tolerances widened x1.5);
set MBALOHA_FULL_ACCEPT=1 for the full 1000-run variant at nominal
tolerances.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import DEFAULT_TABLE, first_moment_stderr, rng_from, workers
from laws import lambda_min, single_station
from mbaloha.analytics import (
    collection_prob_noncoop_asymptotic,
    g_bullet_from_values,
    heuristic_coop,
    lower_bound_noncoop,
)
from mbaloha.cli import DEFAULT_SEED
from mbaloha.decoders import (
    all_users_adjacency,
    brute_force_collection_probability,
    decode_cooperative,
    decode_noncooperative,
    mask_monte_carlo,
)
from mbaloha.experiments import SweepConfig, estimate_gbullet, sweep_load, tabulate_moments
from mbaloha.geometry import MomentTable
from mbaloha.scenario import SystemParams, coverage_probability, generate_instance
from test_analytics import quadrature_mean_alpha
from topologies import ten_user_showcase

ACCEPT_SEED = DEFAULT_SEED
FULL = os.environ.get("MBALOHA_FULL_ACCEPT", "") == "1"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def shipped_table():
    if not DEFAULT_TABLE.exists():
        pytest.fail(
            "default moment table missing; regenerate with\n"
            "  mbaloha tabulate --k-max 50 --s-max 250 --placements 6000 "
            "--samples 30000 --seed 20259 --out data/moments_k50_s250.txt"
        )
    return MomentTable.load(DEFAULT_TABLE)


def _throughput_sweep(lam: float, table: MomentTable) -> list:
    config = SweepConfig(
        m=100,
        p=0.25,
        lambda_target=lam,
        g_grid=tuple(round(0.05 * i, 10) for i in range(21)),
        runs_per_point=1000,
        seed=ACCEPT_SEED,
    )
    return sweep_load(config, table.first_moments[:34], workers=workers())


@pytest.fixture(scope="session")
def sweep_lam3(shipped_table):
    return _throughput_sweep(3.0, shipped_table)


@pytest.fixture(scope="session")
def sweep_lam6(shipped_table):
    return _throughput_sweep(6.0, shipped_table)


def test_criterion_1_coverage_constants():
    cov = coverage_probability(3.0)
    lmin = lambda_min(0.05)
    ok = abs(cov - 0.9502) <= 1e-4 and abs(lmin - 2.996) <= 1e-3
    _report(1, ok, f"coverage(3)={cov:.6f}, lambda_min(0.05)={lmin:.4f}")


def test_criterion_2_showcase_topology():
    graph = ten_user_showcase()
    nc = decode_noncooperative(graph)
    coop = decode_cooperative(graph)
    ok = int(nc.collected.sum()) == 4 and int(coop.collected.sum()) == 9 and coop.iterations_run <= 3
    _report(
        2,
        ok,
        f"10-active-user fixture: noncoop={int(nc.collected.sum())}, "
        f"coop={int(coop.collected.sum())} in {coop.iterations_run} iterations",
    )


def _oracle_case(seed: int):
    """One random tiny instance: exact enumeration vs 10^5-mask Monte Carlo."""
    rng = rng_from(ACCEPT_SEED, 33, seed)
    n = int(rng.integers(4, 13))
    m = int(rng.integers(2, 6))
    r = float(rng.uniform(0.08, 0.25))
    p = float(rng.uniform(0.15, 0.85))
    params = SystemParams(n=n, m=m, r=r, p=p)
    instance = generate_instance(params, rng)
    graph = all_users_adjacency(instance)
    exact = brute_force_collection_probability(graph, p)
    mc = mask_monte_carlo(graph, p, n_masks=100_000, seed=seed * 7 + 1)
    zs = []
    hard_fail = False
    for truth, est in (
        (exact.noncooperative, mc.prob_noncoop),
        (exact.cooperative, mc.prob_coop),
    ):
        se = np.sqrt(truth * (1.0 - truth) / mc.n_masks)
        for t, e, s in zip(truth, est, se):
            if s == 0.0:
                # probability exactly 0 (or 1): the estimate must match it
                hard_fail |= e != t
            else:
                zs.append((e - t) / s)
    superset = bool(
        np.all(exact.cooperative >= exact.noncooperative)
        and np.all(mc.prob_coop >= mc.prob_noncoop)
    )
    return zs, superset, hard_fail


def test_criterion_3_oracle_equivalence():
    # ~1600 independent z-scores cannot all stay below 3 sigma (expected
    # exceedance under the null is 0.27%); the criterion is enforced as a
    # calibrated family: exceedance rate <= 1%, max |z| <= 6, mean z
    # centered.  Any systematic decoder/estimator bias trips these long
    # before it reaches one user's 3-sigma band.
    with ProcessPoolExecutor(max_workers=workers()) as pool:
        results = list(pool.map(_oracle_case, range(100)))
    zs = np.concatenate([np.asarray(r[0]) for r in results])
    superset = all(r[1] for r in results)
    hard_fail = any(r[2] for r in results)
    violation_rate = float(np.mean(np.abs(zs) > 3.0))
    max_z = float(np.abs(zs).max())
    mean_z = float(zs.mean())
    ok = (
        superset
        and not hard_fail
        and violation_rate <= 0.01
        and max_z <= 6.0
        and abs(mean_z) <= 4.0 / math.sqrt(len(zs))
    )
    _report(
        3,
        ok,
        f"{len(zs)} user-probabilities over 100 instances: "
        f"3-sigma exceedance {100 * violation_rate:.2f}% (null 0.27%, budget 1%), "
        f"max|z|={max_z:.2f}, mean z={mean_z:+.4f}, coop>=noncoop exact: {superset}",
    )


def _max_paper_deviation(rows) -> tuple[float, float]:
    worst = 0.0
    at = 0.0
    for row in rows:
        if row.n == 0 or "analytic_noncoop" in row.clamp_flags:
            continue
        dev = abs(row.analytic_prob_noncoop - row.mc_T_noncoop / row.G_realized)
        if dev > worst:
            worst, at = dev, row.G_realized
    return worst, at


def test_criterion_4_analytic_vs_mc(sweep_lam3, sweep_lam6):
    dev3, at3 = _max_paper_deviation(sweep_lam3)
    dev6, at6 = _max_paper_deviation(sweep_lam6)
    ok = dev3 <= 0.02 and dev6 <= 0.04
    _report(
        4,
        ok,
        f"max|series - MC|: lambda=3: {dev3:.4f} at G={at3:.2f} (tol 0.02); "
        f"lambda=6: {dev6:.4f} at G={at6:.2f} (tol 0.04)",
    )


def test_criterion_5_peak_throughputs(sweep_lam3, sweep_lam6):
    peak3_coop = max(r.mc_T_coop for r in sweep_lam3)
    peak3_nc = max(r.mc_T_noncoop for r in sweep_lam3)
    peak6_coop = max(r.mc_T_coop for r in sweep_lam6)
    peak6_nc = max(r.mc_T_noncoop for r in sweep_lam6)
    ok = (
        abs(peak3_coop - 0.33) <= 0.03
        and peak3_nc < 0.20
        and abs(peak6_coop - 0.29) <= 0.03
        and abs(peak6_nc - 0.13) <= 0.03
        and abs(100 * peak3_coop - 33) <= 3.0
        and abs(100 * peak3_nc - 20) <= 3.0
    )
    _report(
        5,
        ok,
        f"lambda=3 peaks: coop {peak3_coop:.3f} (m*T={100 * peak3_coop:.1f}), "
        f"noncoop {peak3_nc:.3f} (m*T={100 * peak3_nc:.1f}); "
        f"lambda=6 peaks: coop {peak6_coop:.3f}, noncoop {peak6_nc:.3f}",
    )


def test_criterion_6_single_station_baseline():
    grid = np.linspace(0.5, 2.0, 1_500_001)
    values = grid * np.exp(-grid)
    i = int(values.argmax())
    peak, at = float(values[i]), float(grid[i])
    ok = abs(peak - 1.0 / math.e) <= 1e-6 and abs(at - 1.0) <= 1e-3
    ok = ok and abs(single_station(1.0) - 1.0 / math.e) <= 1e-12
    _report(6, ok, f"peak n p e^(-n p) = {peak:.8f} at n p = {at:.4f} (1/e = {1 / math.e:.8f})")


def _lemma_spot_check(args):
    lam, g, seed = args
    config = SweepConfig(
        m=100,
        p=0.25,
        lambda_target=lam,
        g_grid=(g,),
        runs_per_point=250,
        seed=seed,
    )
    row = sweep_load(config)[0]
    return row.mc_prob_noncoop, row.mc_prob_noncoop_stderr


def test_criterion_7_lemma_lower_bound(shipped_table):
    clamped = 0
    analytic_ok = True
    worst_gap = math.inf
    for lam in np.arange(1.0, 6.01, 0.1):
        for g in np.arange(0.0, 1.001, 0.1):
            lam_r = round(float(lam), 10)
            psi = round(float(g), 10) * lam_r
            series = collection_prob_noncoop_asymptotic(lam_r, psi, shipped_table.first_moments[:50])
            if series.clamped:
                clamped += 1
                continue
            bound = lower_bound_noncoop(lam_r, psi, 0.25) / 0.25
            worst_gap = min(worst_gap, series.value - bound)
            if bound > series.value + 1e-12:
                analytic_ok = False
    rng = rng_from(ACCEPT_SEED, 71)
    spots = [
        (round(float(rng.uniform(1.0, 6.0)), 3), round(float(rng.uniform(0.05, 1.0)), 3), ACCEPT_SEED + 900 + i)
        for i in range(20)
    ]
    mc_ok = True
    for lam, g, seed in spots:
        mc, se = _lemma_spot_check((lam, g, seed))
        bound = lower_bound_noncoop(lam, g * lam, 0.25) / 0.25
        if bound > mc + 3 * se:
            mc_ok = False
    ok = analytic_ok and mc_ok
    _report(
        7,
        ok,
        f"bound <= series at all {51 * 11 - clamped} non-clamped grid points "
        f"(min gap {worst_gap:.3g}, {clamped} clamped); bound <= MC+3se at 20 spot checks: {mc_ok}",
    )


def test_criterion_8_heuristic_trend(shipped_table, sweep_lam3):
    worst = 0.0
    for row in sweep_lam3:
        if row.n == 0 or row.G_realized > 0.6:
            continue
        heuristic_t = row.G_realized * row.analytic_prob_coop
        worst = max(worst, abs(heuristic_t - row.mc_T_coop))
    exact_ok = True
    for lam in (3.0, 6.0):
        res = heuristic_coop(lam, 0.0, shipped_table.first_moments[:34])
        if abs(res.sigma2 - math.exp(-lam)) > 1e-12 or res.rho1 != 0.0:
            exact_ok = False
    ok = worst <= 0.05 and exact_ok
    _report(
        8,
        ok,
        f"max |G(1-sigma2) - coop MC T| = {worst:.4f} over G in [0, 0.6] (tol 0.05); "
        f"sigma2(psi=0) = e^-lambda to 1e-12: {exact_ok}",
    )


def test_criterion_9_gbullet_ratio():
    runs = 1000 if FULL else 200
    lo, hi = (2.5, 3.5) if FULL else (2.25, 3.75)
    fine = [round(0.005 * i, 10) for i in range(61)]
    coarse = [round(0.31 + 0.01 * i, 10) for i in range(50)]
    config = SweepConfig(
        m=100,
        p=0.25,
        lambda_target=3.0,
        g_grid=tuple(fine + coarse),
        runs_per_point=runs,
        seed=ACCEPT_SEED,
    )
    lams = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0, 7.0, 8.0)
    eps_list = (0.08, 0.1, 0.2)
    cells = estimate_gbullet(config, lams, eps_list, workers=workers())
    details = []
    ok = True
    for eps in eps_list:
        per_eps = [c for c in cells if c.eps == eps]
        # zero whenever coverage cannot reach 1 - eps
        for c in per_eps:
            if coverage_probability(c.lam) < 1.0 - eps:
                if c.gbullet_noncoop != 0.0 or c.gbullet_coop != 0.0:
                    ok = False
                    details.append(f"eps={eps}: lam={c.lam} should be zero by convention")
        # ratio at the baseline's best lambda (smallest argmax of noncoop)
        best = max(per_eps, key=lambda c: c.gbullet_noncoop)
        ratio = best.gbullet_coop / best.gbullet_noncoop if best.gbullet_noncoop > 0 else math.nan
        if not (lo <= ratio <= hi):
            ok = False
        details.append(f"eps={eps}: best lam={best.lam}, ratio={ratio:.2f}")
    variant = "full (1000 runs)" if FULL else "reduced (200 runs, tolerance x1.5)"
    _report(9, ok, f"{variant}, window [{lo}, {hi}]: " + "; ".join(details))


def test_criterion_10_moment_table_properties(shipped_table):
    first = shipped_table.first_moments[:34]
    invariants_ok = (
        np.all(shipped_table.moments[0] == 1.0)
        and np.all(first >= 1.0)
        and np.all(first <= 4.0)
        and np.all(np.diff(first) >= 0.0)
    )
    oracle = quadrature_mean_alpha(2)
    fresh = tabulate_moments(
        k_max=2, s_max=2, placements_per_k=4000, samples_per_placement=30000,
        seed=ACCEPT_SEED + 1, workers=workers(),
    )
    se_fresh = float(first_moment_stderr(fresh)[1])
    fresh_dev = abs(float(fresh.moments[1, 0]) - oracle)
    # shipped table: same estimator at 6000 placements, so scale the se
    se_shipped = se_fresh * math.sqrt(4000.0 / shipped_table.placements_per_k)
    shipped_dev = abs(float(shipped_table.moments[1, 0]) - oracle)
    ok = bool(invariants_ok and fresh_dev <= 3 * se_fresh and shipped_dev <= 3 * se_shipped)
    _report(
        10,
        ok,
        f"row k=1 exact, first moments in [1,4] nondecreasing (k<=34); "
        f"alpha_2 vs quadrature oracle {oracle:.6f}: fresh dev {fresh_dev:.5f} "
        f"(3se={3 * se_fresh:.5f}), shipped dev {shipped_dev:.5f} (3se={3 * se_shipped:.5f})",
    )


def test_criterion_11_cli_determinism(tmp_path):
    from test_cli import run_cli

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"tab_{tag}.txt"
        res = run_cli(
            "tabulate", "--k-max", "3", "--s-max", "2", "--placements", "50",
            "--samples", "400", "--seed", str(ACCEPT_SEED), "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())
    tab_ok = outs[0] == outs[1]

    table = tmp_path / "tab_a.txt"
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sweep_{tag}.csv"
        res = run_cli(
            "sweep", "--m", "12", "--p", "0.5", "--lambda", "0.8", "--runs", "6",
            "--grid", "0:0.4:0.2", "--k-max", "3", "--moment-table", str(table),
            "--seed", str(ACCEPT_SEED), "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())
    sweep_ok = outs[0] == outs[1]

    outs = []
    for tag in ("a", "b"):
        res = run_cli(
            "gbullet", "--m", "12", "--p", "0.5", "--lambdas", "0.8,1.2", "--eps",
            "0.3", "--grid", "0:0.4:0.2", "--runs", "4", "--seed", str(ACCEPT_SEED),
        )
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    gb_ok = outs[0] == outs[1]

    ok = tab_ok and sweep_ok and gb_ok
    _report(11, ok, f"byte-identical reruns: tabulate={tab_ok}, sweep={sweep_ok}, gbullet={gb_ok}")
