import math

import numpy as np
import pytest

from conftest import DEFAULT_TABLE
from laws import _pooled_ratio, moving_average3_reference
from mbaloha import experiments
from mbaloha.analytics import FiniteBracket, HeuristicResult, SeriesValue, heuristic_coop
from mbaloha.decoders import DecodingResult
from mbaloha.experiments import (
    SWEEP_COLUMNS,
    GBulletCell,
    SweepConfig,
    SweepRow,
    compare_report,
    estimate_gbullet,
    render_gbullet_csv,
    render_sweep_csv,
    sweep_load,
    tabulate_moments,
)
from mbaloha.geometry import MomentTable
from mbaloha.scenario import BipartiteGraph, SystemParams, build_adjacency, generate_instance


@pytest.fixture(scope="module")
def sweep_alphas():
    """First area moments of a small fresh table, k = 1..8."""
    table = tabulate_moments(k_max=8, s_max=2, placements_per_k=400, samples_per_placement=3000, seed=55)
    return table.first_moments


@pytest.fixture
def counting_pool(monkeypatch):
    """Swaps the process pool for one that runs ``map`` in this process;
    returns the executors opened while the test runs, each with its jobs and
    the worker count it was asked for."""
    opened = []

    class CountingExecutor:
        def __init__(self, max_workers=None):
            self.max_workers = max_workers
            self.jobs = []
            opened.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, iterable, chunksize=1):
            self.jobs = list(iterable)
            return [fn(job) for job in self.jobs]

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingExecutor)
    return opened


@pytest.fixture
def recording_simulate(monkeypatch):
    """Records what ``experiments._simulate`` returns while the test runs."""
    simulate = experiments._simulate
    simulated = []

    def record(configs, workers):
        result = simulate(configs, workers)
        simulated.extend(result)
        return result

    monkeypatch.setattr(experiments, "_simulate", record)
    return simulated


def small_config(**overrides):
    base = dict(
        m=20,
        p=0.5,
        lambda_target=2.0,
        g_grid=(0.0, 0.2, 0.5),
        runs_per_point=60,
        seed=7,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_radius_derivation(self):
        cfg = small_config()
        assert cfg.m * cfg.r**2 * math.pi == pytest.approx(2.0, rel=1e-12)

    def test_infeasible_lambda_rejected(self):
        with pytest.raises(ValueError, match="1/4"):
            small_config(m=10, lambda_target=10.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(m=0),
            dict(p=0.0),
            dict(lambda_target=-1.0),
            dict(g_grid=()),
            dict(g_grid=(-0.1,)),
            dict(runs_per_point=0),
            dict(seed=-1),
            dict(p=math.nan),
            dict(lambda_target=math.nan),
            dict(g_grid=(0.1, math.nan)),
            dict(g_grid=(0.1, math.inf)),
        ],
    )
    def test_invalid_rejected(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides)

    def test_realized_users(self):
        cfg = small_config()
        assert cfg.realized_users(0.0) == 0
        assert cfg.realized_users(1e-6) == 1  # clamped up to one user
        assert cfg.realized_users(0.5) == 20


class TestSweepLoad:
    def test_zero_load_row_is_convention(self):
        rows = sweep_load(small_config())
        zero = rows[0]
        assert zero.n == 0
        assert zero.mc_prob_noncoop == 0.0
        assert zero.mc_T_coop == 0.0
        assert zero.mc_prob_coop_stderr == 0.0

    @pytest.mark.parametrize(
        "overrides",
        [
            # At p = 0.05 and n = 1, most grid points' runs have nobody active.
            dict(p=0.05, g_grid=(0.0, 0.0025, 0.005, 0.1, 0.2), runs_per_point=3),
            dict(p=0.05, g_grid=(0.0, 0.0025, 0.005, 0.1, 0.2), runs_per_point=1),
            dict(runs_per_point=300),
        ],
        ids=["inactive_points", "one_run", "many_runs"],
    )
    def test_mc_probabilities_equal_pooled_ratio(self, recording_simulate, overrides):
        rows = sweep_load(small_config(**overrides))
        [(users, counts)] = recording_simulate
        assert [row.n for row in rows] == users.tolist()
        got, want = [], []
        for row, (active, nc, coop) in zip(rows, counts):
            got += [row.mc_prob_noncoop, row.mc_prob_noncoop_stderr, row.mc_prob_coop, row.mc_prob_coop_stderr]
            want += [*_pooled_ratio(nc, active), *_pooled_ratio(coop, active)]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert counts[:, 0].sum(axis=1).min() == 0

    def test_realized_load_reported(self):
        rows = sweep_load(small_config())
        for row, g_req in zip(rows, (0.0, 0.2, 0.5)):
            assert row.G_realized == pytest.approx(row.n * 0.5 / 20, rel=1e-15)
            assert abs(row.G_realized - g_req) <= 0.5 / 20 / 2 + 1e-12

    def test_cooperative_dominates_exactly(self):
        for row in sweep_load(small_config()):
            assert row.mc_prob_coop >= row.mc_prob_noncoop
            assert row.mc_T_coop >= row.mc_T_noncoop

    def test_deterministic_and_worker_independent(self, monkeypatch):
        a = render_sweep_csv(sweep_load(small_config()), "x")
        b = render_sweep_csv(sweep_load(small_config()), "x")
        assert a == b
        for workers in (2, 3):
            assert render_sweep_csv(sweep_load(small_config(), workers=workers), "x") == a
        # 1 gives one job per worker; 7 gives 14 jobs, cut across both grid points.
        for per_worker in (1, 7):
            monkeypatch.setattr(experiments, "JOBS_PER_WORKER", per_worker)
            assert render_sweep_csv(sweep_load(small_config(), workers=2), "x") == a

    def test_no_more_workers_than_jobs(self, counting_pool):
        # One run at two loads is two slots, so two jobs however many workers.
        config = small_config(g_grid=(0.1, 0.2), runs_per_point=1)
        want = repr(sweep_load(config, workers=1))
        assert repr(sweep_load(config, workers=64)) == want
        [pool] = counting_pool
        assert len(pool.jobs) == 2
        assert pool.max_workers == 2

    def test_rows_independent_of_run_block(self, monkeypatch):
        # Block 1 decodes every run on its own; 3 leaves a partial last block
        # and makes blocks that hold runs of both grid points (n = 8 and 20).
        rows = []
        for block in (1, 3, experiments.RUN_BLOCK):
            monkeypatch.setattr(experiments, "RUN_BLOCK", block)
            rows.append(repr(sweep_load(small_config(runs_per_point=7))))
        assert rows[0] == rows[1] == rows[2]

    def test_missing_table_flags_analytic_columns(self):
        rows = sweep_load(small_config())
        for row in rows:
            assert math.isnan(row.analytic_prob_noncoop)
            assert math.isnan(row.analytic_prob_coop)
            assert "no_analytic" in row.clamp_flags
            assert not math.isnan(row.lower_bound)

    def test_analytic_columns_with_table(self, sweep_alphas):
        rows = sweep_load(small_config(), sweep_alphas)
        live = [r for r in rows if r.n > 0]
        for row in live:
            assert 0.0 <= row.analytic_prob_noncoop <= 1.0
            assert 0.0 <= row.analytic_prob_coop <= 1.0
            assert row.lower_bound <= row.analytic_prob_noncoop + 1e-9

    def test_stderr_shrinks_like_sqrt_runs(self):
        cfg_small = small_config(g_grid=(0.5,), runs_per_point=250, seed=21)
        cfg_big = small_config(g_grid=(0.5,), runs_per_point=1000, seed=21)
        se_small = sweep_load(cfg_small)[0].mc_prob_noncoop_stderr
        se_big = sweep_load(cfg_big)[0].mc_prob_noncoop_stderr
        ratio = se_small / se_big
        assert abs(ratio - 2.0) <= 0.4  # within 20 percent of sqrt(4)

    def test_single_run_has_nan_stderr(self):
        rows = sweep_load(small_config(g_grid=(0.5,), runs_per_point=1))
        assert math.isnan(rows[0].mc_prob_noncoop_stderr)
        assert rows[0].mc_prob_noncoop >= 0.0


class TestCsvRendering:
    def test_header_and_metadata(self):
        rows = sweep_load(small_config())
        text = render_sweep_csv(rows, "cfg=demo")
        lines = text.splitlines()
        assert lines[0] == "# cfg=demo"
        assert lines[1] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 2 + len(rows)
        # estimates carry six significant digits
        cells = lines[3].split(",")
        assert len(cells) == len(SWEEP_COLUMNS)

    def test_deterministic_bytes(self):
        rows = sweep_load(small_config())
        assert render_sweep_csv(rows, "x") == render_sweep_csv(rows, "x")

    def test_gbullet_csv_shape(self):
        cfg = small_config(g_grid=(0.0, 0.1, 0.2), runs_per_point=10)
        cells = estimate_gbullet(cfg, (1.0, 2.0), (0.5,))
        text = render_gbullet_csv(cells, "meta")
        lines = text.splitlines()
        assert lines[1] == "lambda,eps,gbullet_noncoop,gbullet_coop"
        assert len(lines) == 2 + 2


class TestCompareReport:
    def test_marks_analytic_absent(self):
        report = compare_report(sweep_load(small_config()), m=20)
        assert "analytic columns: absent" in report
        assert "peak T coop" in report
        assert "single-station baseline" in report

    def test_reports_deviation_with_table(self, sweep_alphas):
        rows = sweep_load(small_config(), sweep_alphas)
        report = compare_report(rows, m=20)
        assert "max |analytic - mc| noncoop" in report
        assert "un-normalized" in report

    def test_byte_identical_rerun(self, sweep_alphas):
        cfg = small_config()
        a = compare_report(sweep_load(cfg, sweep_alphas), m=20)
        b = compare_report(sweep_load(cfg, sweep_alphas), m=20)
        assert a == b


class TestEstimateGbullet:
    def test_zero_below_coverage_threshold(self):
        cfg = small_config(g_grid=(0.0, 0.1, 0.2), runs_per_point=20)
        cells = estimate_gbullet(cfg, (1.0,), (0.05,))
        assert cells[0].gbullet_noncoop == 0.0
        assert cells[0].gbullet_coop == 0.0

    def test_cells_independent_of_workers(self):
        cfg = small_config(g_grid=(0.0, 0.1, 0.2, 0.3), runs_per_point=12)
        cells = [estimate_gbullet(cfg, (1.5, 2.0, 3.0), (0.3, 0.5), workers=w) for w in (1, 2, 3)]
        assert cells[0] == cells[1] == cells[2]

    def test_one_pool_of_balanced_jobs(self, counting_pool):
        cfg = small_config(g_grid=(0.0, 0.1, 0.2, 0.3), runs_per_point=12)
        lambdas = (1.5, 2.0, 3.0)
        want = estimate_gbullet(cfg, lambdas, (0.3, 0.5), workers=1)
        assert counting_pool == []  # one job runs in this process
        assert estimate_gbullet(cfg, lambdas, (0.3, 0.5), workers=2) == want
        assert len(counting_pool) == 1
        jobs = counting_pool[0].jobs
        assert 1 < len(jobs) <= experiments.JOBS_PER_WORKER * 2
        # Slots are (params, seed, run); every job's users lie within one
        # slot's users of an equal share.
        users = [sum(params.n for params, _, _ in job) for job in jobs]
        largest = max(params.n for job in jobs for params, _, _ in job)
        assert all(abs(u - sum(users) / len(jobs)) < largest for u in users)
        assert sum(users) == len(lambdas) * 12 * sum(cfg.realized_users(g) for g in cfg.g_grid)
        assert any(len({seed for _, seed, _ in job}) > 1 for job in jobs)  # a job spans two lambdas

    def test_subset_rerun_matches_full(self):
        cfg = small_config(g_grid=(0.0, 0.1, 0.2, 0.3), runs_per_point=30)
        full = estimate_gbullet(cfg, (1.5, 2.0), (0.3, 0.5))
        subset = estimate_gbullet(cfg, (2.0,), (0.5,))
        matching = [c for c in full if c.lam == 2.0 and c.eps == 0.5]
        assert matching == subset

    def test_pooled_values_equal_pooled_ratio(self, recording_simulate, monkeypatch):
        # At p = 0.05 and n = 1, most grid points' runs have nobody active.
        cfg = small_config(p=0.05, g_grid=(0.0, 0.0025, 0.005, 0.1, 0.2), runs_per_point=3)
        thresholded = []

        def max_loads(lam, eps, grid, probs):
            thresholded.extend(probs.T)
            return np.zeros((len(eps), 2))

        monkeypatch.setattr(experiments, "_max_loads", max_loads)
        estimate_gbullet(cfg, (1.5, 2.0), (0.3,))
        # The grid points with users, each with its per-run counts.
        simulated = [counts[users > 0] for users, counts in recording_simulate]
        want = []
        for samples in simulated:
            for decoder in (1, 2):
                ratios = np.array([_pooled_ratio(runs[decoder], runs[0])[0] for runs in samples])
                want.append(moving_average3_reference(ratios).tolist())
        assert [v.tolist() for v in thresholded] == want
        assert any(samples[:, 0].sum(axis=1).min() == 0 for samples in simulated)

    def test_empty_grids_rejected(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            estimate_gbullet(cfg, (), (0.1,))
        with pytest.raises(ValueError):
            estimate_gbullet(cfg, (2.0,), ())

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, math.nan])
    def test_bad_eps_rejected_before_simulation(self, recording_simulate, eps):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
            estimate_gbullet(small_config(), (2.0,), (0.1, eps))
        assert recording_simulate == []

    def test_eps_monotonicity_per_lambda(self):
        cfg = small_config(g_grid=tuple(round(0.05 * i, 10) for i in range(13)), runs_per_point=80)
        cells = estimate_gbullet(cfg, (2.5,), (0.1, 0.2, 0.4))
        nc = [c.gbullet_noncoop for c in cells]
        coop = [c.gbullet_coop for c in cells]
        assert nc == sorted(nc)
        assert coop == sorted(coop)


class TestTabulateMoments:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            tabulate_moments(k_max=3, s_max=1, placements_per_k=2, samples_per_placement=10, seed=-1)

    def test_one_pool_bit_identical_to_one_process(self, counting_pool):
        kwargs = dict(k_max=4, s_max=3, placements_per_k=300, samples_per_placement=200, seed=31)
        serial = tabulate_moments(**kwargs, workers=1)
        assert counting_pool == []
        pooled = tabulate_moments(**kwargs, workers=2)
        assert len(counting_pool) == 1
        jobs = counting_pool[0].jobs
        assert 1 < len(jobs) <= experiments.JOBS_PER_WORKER * 2
        assert [j for job in jobs for j in job] == list(range(300))  # one item per placement
        assert np.array_equal(pooled.moments, serial.moments)


class TestResultRecords:
    """Result records are read-only NamedTuples; these pin what they expose."""

    def test_sweep_columns_are_the_csv_header(self):
        header = (
            "G_realized,n,mc_prob_noncoop,mc_prob_noncoop_stderr,mc_prob_coop,mc_prob_coop_stderr,"
            "mc_T_noncoop,mc_T_coop,analytic_prob_noncoop,analytic_prob_coop,lower_bound,clamp_flags"
        )
        assert ",".join(SWEEP_COLUMNS) == header
        assert render_sweep_csv(sweep_load(small_config()), "x").splitlines()[1] == header

    @pytest.mark.parametrize(
        "record",
        [
            SeriesValue(0.5, False),
            HeuristicResult(0.3, 0.2, 0.1, ()),
            FiniteBracket(0.1, 0.2),
            DecodingResult(np.zeros(2, dtype=bool), 0, []),
            BipartiteGraph(1, 0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
            SweepRow(*[0.0] * 11, ""),
            GBulletCell(3.0, 0.1, 0.2, 0.3),
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_fields_cannot_be_assigned(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 0)

    def test_heuristic_conditional(self):
        # Values as the frozen-dataclass record gave them; the second is clamped.
        alphas = MomentTable.load(DEFAULT_TABLE).first_moments[:34]
        assert heuristic_coop(3.0, 0.6, alphas).conditional == 0.8857549389726399
        clamped = heuristic_coop(6.0, 1.2, alphas)
        assert clamped.clamped == ("sigma2",)
        assert clamped.conditional == 1.0

    def test_station_neighbors(self):
        params = SystemParams(n=10, m=4, r=0.25, p=0.6)
        graph = build_adjacency(generate_instance(params, np.random.default_rng(6)))
        assert graph.users.tolist() == [0, 1, 2, 3, 4, 6, 7, 9]
        assert graph.station_neighbors == [[0, 3, 4], [1], [2, 3, 9], [6]]
