"""Every Monte Carlo pass: load sweeps with analytic overlays, the max-load
metric, and the tabulation of area moments.

A sweep fixes (m, p, lambda) and varies the user count n to realize a grid
of normalized loads G; every (grid point, run) slot draws its own substream
from (seed, n, run), so results are identical for any worker count and any
grid subset.  A command's work items, the slots of one sweep or of every
lambda's sweep for the max-load metric, or the placements of a tabulation,
run on one process pool in a few jobs of about equal total weight; a job may
span grid points and lambdas, and seeds all its items' substreams in one
``geometry.substreams`` pass.  The pooled estimator of P(collected | active)
divides total collected by total active across runs, and is 0 where no user
was active; the max-load metric takes it for every grid point at once.  The
classic per-run estimator (collected / n / p, averaged) is exposed as
``paper_prob_*`` and equals mc_T / G_realized exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .analytics import (
    collection_prob_noncoop_asymptotic,
    g_bullet_from_values,
    heuristic_coop,
    lower_bound_noncoop,
)
from .decoders import decode_cooperative, decode_noncooperative
from .geometry import MomentTable, placement_alphas, substreams
from .scenario import SystemParams, build_adjacency, disjoint_union, generate_instance

# Slots of one job decoded per kernel call, so memory does not grow with the
# run count.
RUN_BLOCK = 128

# Jobs per worker process: enough that the workers finish close together,
# few enough that pool dispatch stays cheap.
JOBS_PER_WORKER = 4


@dataclass(frozen=True)
class SweepConfig:
    """Load-sweep configuration; r is derived from lambda_target."""

    m: int
    p: float
    lambda_target: float
    g_grid: tuple[float, ...]
    runs_per_point: int
    seed: int
    k_max: int = 34

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not self.m >= 1:
            raise ValueError("m must be a positive integer")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if not self.lambda_target > 0:
            raise ValueError("lambda_target must be positive")
        if self.r > 0.25:
            raise ValueError(
                f"lambda_target={self.lambda_target} needs r={self.r:.4f} > 1/4; "
                "increase m or decrease lambda"
            )
        if not self.g_grid:
            raise ValueError("empty load grid")
        if not all(0 <= g < math.inf for g in self.g_grid):
            raise ValueError("loads must be finite and nonnegative")
        if not self.runs_per_point >= 1:
            raise ValueError("runs_per_point must be positive")
        if not self.seed >= 0:
            raise ValueError("seed must be nonnegative")
        if not self.k_max >= 1:
            raise ValueError("k_max must be positive")

    @property
    def r(self) -> float:
        return math.sqrt(self.lambda_target / (self.m * math.pi))

    def realized_users(self, g: float) -> int:
        if g == 0.0:
            return 0
        return max(1, round(g * self.m / self.p))


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep; field names are the CSV column names."""

    G_realized: float
    n: int
    mc_prob_noncoop: float
    mc_prob_noncoop_stderr: float
    mc_prob_coop: float
    mc_prob_coop_stderr: float
    mc_T_noncoop: float
    mc_T_coop: float
    analytic_prob_noncoop: float
    analytic_prob_coop: float
    lower_bound: float
    clamp_flags: str

    @property
    def paper_prob_noncoop(self) -> float:
        """Per-run estimator collected/(n p), identical to T / G."""
        return self.mc_T_noncoop / self.G_realized if self.G_realized > 0 else 0.0

    @property
    def paper_prob_coop(self) -> float:
        return self.mc_T_coop / self.G_realized if self.G_realized > 0 else 0.0


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class GBulletCell:
    lam: float
    eps: float
    gbullet_noncoop: float
    gbullet_coop: float


def _run_jobs(work, items, weights, workers: int | None) -> np.ndarray:
    """Map ``work`` over ``items`` and return its rows in item order.

    ``work`` takes a contiguous slice of ``items`` and returns one row per
    item.  The items are cut into contiguous jobs of about equal total
    weight, ``JOBS_PER_WORKER`` per worker, which run on one process pool;
    a single job runs in this process.
    """
    n_jobs = JOBS_PER_WORKER * workers if workers is not None and workers > 1 else 1
    total = np.cumsum(weights)
    # Job j ends at the first item where the weight reaches j / n_jobs of the total.
    ends = np.unique(np.searchsorted(total, total[-1] * np.arange(1, n_jobs + 1) / n_jobs) + 1)
    if len(ends) == 1:
        return work(items)
    jobs = [items[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(work, jobs)))


def _simulate_runs(slots) -> np.ndarray:
    """Worker: decode the given slots, in order.

    Slot ``(params, seed, run)`` is run ``run`` of the grid point with
    ``params`` and draws from (seed, params.n, run).  The slots are decoded
    ``RUN_BLOCK`` at a time, each block as the disjoint union of its slots'
    graphs, whatever grid point or lambda they come from.  Returns one row
    per slot: the active users and the users collected by each decoder.
    """
    counts = []
    streams = substreams((seed, params.n, run) for params, seed, run in slots)
    for start in range(0, len(slots), RUN_BLOCK):
        # zip takes the slot first, so it draws no stream past the block.
        graphs = [
            build_adjacency(generate_instance(params, rng))
            for (params, _, _), rng in zip(slots[start : start + RUN_BLOCK], streams)
        ]
        union = disjoint_union(graphs)
        # The union's users are the slots' users in order, n_users per slot.
        offsets = np.cumsum([0] + [g.n_users for g in graphs[:-1]])
        counts.append(
            np.stack(
                [
                    [g.users.size for g in graphs],
                    np.add.reduceat(decode_noncooperative(union).collected, offsets, dtype=np.int64),
                    np.add.reduceat(decode_cooperative(union).collected, offsets, dtype=np.int64),
                ],
                axis=1,
            )
        )
    return np.concatenate(counts)


def _simulate(configs: list[SweepConfig], workers: int | None) -> list[np.ndarray]:
    """One Monte Carlo pass over every live grid point of every config.

    Returns, per config, an array (points, 3, runs): for each grid point
    with n > 0 in grid order, the per-run active and collected counts of
    ``_simulate_runs`` as three rows.  The (config, point, run) slots run on
    ``_run_jobs``, weighted by their users; every slot draws its own
    substream, so the cut changes no result.
    """
    points = [
        [SystemParams(n=n, m=c.m, r=c.r, p=c.p) for n in map(c.realized_users, c.g_grid) if n > 0]
        for c in configs
    ]
    slots = [
        (params, c.seed, run) for c, ps in zip(configs, points) for params in ps for run in range(c.runs_per_point)
    ]
    if slots:
        counts = _run_jobs(_simulate_runs, slots, [params.n for params, _, _ in slots], workers)
    else:
        counts = np.zeros((0, 3), dtype=np.int64)
    ends = np.cumsum([len(ps) * c.runs_per_point for c, ps in zip(configs, points)])
    return [
        per_config.reshape(len(ps), c.runs_per_point, 3).transpose(0, 2, 1)
        for c, ps, per_config in zip(configs, points, np.split(counts, ends[:-1]))
    ]


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


def sweep_load(
    config: SweepConfig, table: MomentTable | None = None, workers: int | None = None
) -> list[SweepRow]:
    """Run both decoders over the load grid and attach analytic columns.

    Without a moment table the analytic columns are NaN and the rows
    flagged; Monte Carlo columns are always produced.
    """
    if table is not None and config.k_max > table.k_max:
        raise ValueError(f"k_max={config.k_max} exceeds the table's k_max={table.k_max}")
    samples = iter(_simulate([config], workers)[0])
    lam = config.m * config.r**2 * math.pi
    rows: list[SweepRow] = []
    for g in config.g_grid:
        n = config.realized_users(g)
        g_real = n * config.p / config.m
        flags: list[str] = []
        if n == 0:
            mc = dict(
                mc_prob_noncoop=0.0,
                mc_prob_noncoop_stderr=0.0,
                mc_prob_coop=0.0,
                mc_prob_coop_stderr=0.0,
                mc_T_noncoop=0.0,
                mc_T_coop=0.0,
            )
        else:
            act, nc, coop = next(samples)
            p_nc, se_nc = _pooled_ratio(nc, act)
            p_coop, se_coop = _pooled_ratio(coop, act)
            runs = config.runs_per_point
            mc = dict(
                mc_prob_noncoop=p_nc,
                mc_prob_noncoop_stderr=se_nc,
                mc_prob_coop=p_coop,
                mc_prob_coop_stderr=se_coop,
                mc_T_noncoop=float(nc.sum()) / (runs * config.m),
                mc_T_coop=float(coop.sum()) / (runs * config.m),
            )
        psi = g_real * lam
        lower = lower_bound_noncoop(lam, psi, config.p) / config.p
        if table is not None:
            series = collection_prob_noncoop_asymptotic(lam, psi, table, config.k_max)
            if series.clamped:
                flags.append("analytic_noncoop")
            heur = heuristic_coop(lam, psi, table, config.k_max)
            flags.extend(f"coop_{name}" for name in heur.clamped)
            analytic_nc = series.value
            analytic_coop = heur.conditional
        else:
            flags.append("no_analytic")
            analytic_nc = float("nan")
            analytic_coop = float("nan")
        rows.append(
            SweepRow(
                G_realized=g_real,
                n=n,
                analytic_prob_noncoop=analytic_nc,
                analytic_prob_coop=analytic_coop,
                lower_bound=lower,
                clamp_flags=";".join(flags),
                **mc,
            )
        )
    return rows


def estimate_gbullet(
    config: SweepConfig,
    lambda_grid: tuple[float, ...],
    eps_list: tuple[float, ...],
    workers: int | None = None,
) -> list[GBulletCell]:
    """Estimate the max load G(lambda, eps) for both decoders by simulation.

    Each lambda cell derives its sweep seed from the float bits of lambda, so
    rerunning any subset of the grid reproduces the full run's cells.  The
    sweeps of all lambdas run as one Monte Carlo pass.  The Monte Carlo
    probability columns are smoothed (window 3) before thresholding, per the
    max-load policy.
    """
    if not lambda_grid or not eps_list:
        raise ValueError("lambda grid and eps list must be nonempty")
    subs = []
    for lam in lambda_grid:
        lam_bits = int(np.float64(lam).view(np.uint64))
        sub_seed = int(
            np.random.SeedSequence([config.seed, lam_bits]).generate_state(1, np.uint64)[0]
        )
        subs.append(replace(config, lambda_target=lam, seed=sub_seed))
    cells: list[GBulletCell] = []
    for lam, sub, samples in zip(lambda_grid, subs, _simulate(subs, workers)):
        grid = [n * sub.p / sub.m for n in map(sub.realized_users, sub.g_grid) if n > 0]
        # The pooled ratio of ``_pooled_ratio``, for every grid point at once.
        totals = samples.sum(axis=2)
        active = totals[:, :1]
        probs = np.divide(totals[:, 1:], active, out=np.zeros((len(totals), 2)), where=active > 0)
        nc_vals, coop_vals = probs.T
        for eps in eps_list:
            cells.append(
                GBulletCell(
                    lam=lam,
                    eps=eps,
                    gbullet_noncoop=g_bullet_from_values(lam, eps, grid, nc_vals, smooth_window=3),
                    gbullet_coop=g_bullet_from_values(lam, eps, grid, coop_vals, smooth_window=3),
                )
            )
    return cells


def tabulate_moments(
    k_max: int,
    s_max: int,
    placements_per_k: int,
    samples_per_placement: int,
    seed: int,
    workers: int | None = None,
) -> MomentTable:
    """Monte Carlo tabulation of the moments ``E[alpha_k^s]``.

    Each placement nests k = 2..k_max: its first k centers give alpha_k,
    all from one point set.  Placement j samples from an independent
    substream derived from ``(seed, j)``, so the result is identical for any
    worker count.  The placements run on ``_run_jobs``, equally weighted;
    moments are computed in a single aggregation pass, one k at a time.
    """
    for name, v in (
        ("k_max", k_max),
        ("s_max", s_max),
        ("placements_per_k", placements_per_k),
        ("samples_per_placement", samples_per_placement),
    ):
        if v < 1:
            raise ValueError(f"{name} must be positive, got {v}")
    if not seed >= 0:
        raise ValueError("seed must be nonnegative")
    moments = np.ones((k_max, s_max))
    stderrs = np.zeros((k_max, s_max))
    if k_max > 1:
        work = partial(placement_alphas, seed, k_max, samples_per_placement)
        alphas = _run_jobs(work, range(placements_per_k), np.ones(placements_per_k), workers)
        powers = np.arange(1, s_max + 1)
        for k in range(2, k_max + 1):
            pw = alphas[:, k - 2, None] ** powers[None, :]
            moments[k - 1] = pw.mean(axis=0)
            if placements_per_k > 1:
                stderrs[k - 1] = pw.std(axis=0, ddof=1) / math.sqrt(placements_per_k)
    return MomentTable(
        k_max=k_max,
        s_max=s_max,
        moments=moments,
        placements_per_k=placements_per_k,
        samples_per_placement=samples_per_placement,
        seed=seed,
        stderrs=stderrs,
    )


def _fmt_estimate(v: float) -> str:
    return format(v, ".6g")


def render_sweep_csv(rows: list[SweepRow], metadata: str) -> str:
    """CSV with a '#' metadata line, exact column names, 6-digit estimates."""
    lines = [f"# {metadata}", ",".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = [format(row.G_realized, ".17g"), str(row.n)]
        cells += [
            _fmt_estimate(getattr(row, name))
            for name in SWEEP_COLUMNS[2:-1]
        ]
        cells.append(row.clamp_flags)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_gbullet_csv(cells: list[GBulletCell], metadata: str) -> str:
    lines = [f"# {metadata}", "lambda,eps,gbullet_noncoop,gbullet_coop"]
    for c in cells:
        lines.append(
            ",".join(
                [
                    format(c.lam, ".17g"),
                    format(c.eps, ".17g"),
                    _fmt_estimate(c.gbullet_noncoop),
                    _fmt_estimate(c.gbullet_coop),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def compare_report(rows: list[SweepRow], m: int) -> str:
    """Deterministic text summary: analytic-vs-MC deviation, peaks, baseline."""
    lines = ["== sweep comparison report =="]
    live = [r for r in rows if r.n > 0]
    lines.append(f"grid points: {len(rows)} ({len(rows) - len(live)} empty)")
    has_analytic = any(
        r.n > 0 and not math.isnan(r.analytic_prob_noncoop) for r in rows
    )
    if not has_analytic:
        lines.append("analytic columns: absent")
    else:
        for label, a_name, mc_name, flag in (
            ("noncoop", "analytic_prob_noncoop", "mc_prob_noncoop", "analytic_noncoop"),
            ("coop", "analytic_prob_coop", "mc_prob_coop", "coop_"),
        ):
            usable = [
                r
                for r in live
                if not math.isnan(getattr(r, a_name))
                and not any(f.startswith(flag) for f in r.clamp_flags.split(";") if f)
            ]
            skipped = len(live) - len(usable)
            if not usable:
                lines.append(f"max |analytic - mc| {label}: n/a (all points clamped)")
                continue
            best = max(usable, key=lambda r: abs(getattr(r, a_name) - getattr(r, mc_name)))
            dev = abs(getattr(best, a_name) - getattr(best, mc_name))
            note = f" ({skipped} clamped points excluded)" if skipped else ""
            lines.append(
                f"max |analytic - mc| {label}: {_fmt_estimate(dev)} "
                f"at G={_fmt_estimate(best.G_realized)}{note}"
            )
    for label, t_name in (("noncoop", "mc_T_noncoop"), ("coop", "mc_T_coop")):
        if live:
            best = max(live, key=lambda r: getattr(r, t_name))
            t = getattr(best, t_name)
            lines.append(
                f"peak T {label}: {_fmt_estimate(t)} at G={_fmt_estimate(best.G_realized)} "
                f"(un-normalized m*T = {_fmt_estimate(m * t)})"
            )
    lines.append(
        "single-station baseline: peak n p exp(-n p) = "
        f"{_fmt_estimate(1.0 / math.e)} at n p = 1"
    )
    return "\n".join(lines) + "\n"
