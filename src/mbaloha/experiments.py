"""Every Monte Carlo pass: load sweeps with analytic overlays, the max-load
metric, and the tabulation of area moments.

A sweep fixes (m, p, lambda) and varies the user count n to realize a grid
of normalized loads G; every (grid point, run) slot draws its own substream
from (seed, n, run), so results are identical for any worker count and any
grid subset.  A command's work items, the slots of one sweep or of every
lambda's sweep for the max-load metric, or the placements of a tabulation,
are dealt out to k processes in strided shares, every k-th item to one
process, so each share holds the same mix of grid points, lambdas and runs;
a share seeds all its items' substreams in one ``geometry.substreams`` pass.
Sweeps and the max-load metric share one post-pass over the per-run counts:
the pooled estimator of P(collected | active) divides total collected by
total active across runs, with a linearized ratio standard error, for every
grid point and both decoders at once; both are 0 where no user was active.
The max-load metric smooths these probabilities over the grid points with
users and thresholds them for every eps and both decoders at once.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple, NoReturn

import numpy as np

from .analytics import collection_prob_noncoop_asymptotic, heuristic_coop, lower_bound_noncoop
from .decoders import decode_cooperative, decode_noncooperative
from .geometry import MomentTable, placement_alphas, substreams
from .scenario import SystemParams, build_adjacency, generate_instance

# Slots of one job decoded per kernel call, so memory does not grow with the
# run count.
RUN_BLOCK = 128


@dataclass(frozen=True)
class SweepConfig:
    """Load-sweep configuration; r is derived from lambda_target."""

    m: int
    p: float
    lambda_target: float
    g_grid: tuple[float, ...]
    runs_per_point: int
    seed: int

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
        if not all(g * self.m / self.p < 2**63 for g in self.g_grid):
            raise ValueError("a load's user count g*m/p must be below 2**63")
        # A slot holds 3n + 2m doubles and an n-byte mask (scenario.generate_instance).
        if not all(25 * self.realized_users(g) + 16 * self.m <= 2**40 for g in self.g_grid if g > 0):
            raise ValueError("a slot's 3n + 2m doubles and n mask bytes must fit in 2**40 bytes")
        if not self.runs_per_point >= 1:
            raise ValueError("runs_per_point must be positive")
        if not self.seed >= 0:
            raise ValueError("seed must be nonnegative")

    @property
    def r(self) -> float:
        return math.sqrt(self.lambda_target / (self.m * math.pi))

    def realized_users(self, g: float) -> int:
        if g == 0.0:
            return 0
        return max(1, round(g * self.m / self.p))


class SweepRow(NamedTuple):
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


SWEEP_COLUMNS = SweepRow._fields


class GBulletCell(NamedTuple):
    lam: float
    eps: float
    gbullet_noncoop: float
    gbullet_coop: float


class ProcessPoolExecutor:
    """Runs one job per process: the first in this one, each other in a forked child.

    ``max_workers`` is the job count, as each job gets its own process.  A
    child pickles its rows, or the exception it raised, back through a pipe
    and leaves by ``os._exit``, so no stdio buffer or exit handler of this
    process runs twice.  ``_run_jobs`` looks this name up when it calls it,
    so it can be replaced by any executor with the same ``map``.
    """

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers

    def map(self, fn, jobs) -> list:
        """``fn`` of each job, in job order; re-raises the first job's failure."""
        children = {}  # pid -> the read end of its pipe
        try:
            for job in jobs[1:]:
                read, write = os.pipe()
                try:
                    pid = os.fork()
                    if pid == 0:
                        _child(fn, job, write)
                except OSError:
                    os.close(read)
                    raise
                finally:
                    os.close(write)
                children[pid] = open(read, "rb")
            results = [fn(jobs[0])]
            for pid, pipe in list(children.items()):
                data = pipe.read()
                if not data:
                    pipe.close()
                    del children[pid]
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    raise ChildProcessError(f"worker process {pid} ended without a result, exit status {status}")
                rows, exc = pickle.loads(data)
                if exc is not None:
                    raise exc
                results.append(rows)
            return results
        except BaseException:
            import signal  # only here: its import costs about 1 ms of every command's start-up

            for pid in children:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid, pipe in children.items():
                pipe.close()
                os.waitpid(pid, 0)


def _child(fn, job, write: int) -> NoReturn:
    """In a forked child: send ``(fn(job), None)``, or ``(None, exc)``, down ``write`` and exit."""
    code = 1
    try:
        try:
            result = (fn(job), None)
        except BaseException as exc:
            result = (None, exc)
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _run_jobs(work, items, workers: int | None) -> np.ndarray:
    """Map ``work`` over ``items`` and return its rows in item order.

    ``work`` takes a slice of ``items`` and returns one row per item.  With
    k = min(workers, len(items)) > 1 the items are cut into k strided
    shares, ``items[w::k]``, each run in its own process, this one included;
    where ``os.fork`` is missing, or k is 1, they all run in this process.
    """
    k = min(workers or 1, len(items)) if hasattr(os, "fork") else 1
    if k <= 1:
        return work(items)
    parts = ProcessPoolExecutor(max_workers=k).map(work, [items[w::k] for w in range(k)])
    out = np.empty((len(items), *parts[0].shape[1:]), parts[0].dtype)
    for w, part in enumerate(parts):
        out[w::k] = part
    return out


def _simulate_runs(slots) -> np.ndarray:
    """Worker: decode the given slots, in order.

    Slot ``(params, seed, run)`` is run ``run`` of the grid point with
    ``params`` and draws from (seed, params.n, run).  The slots are drawn and
    decoded ``RUN_BLOCK`` at a time: one ``generate_instance`` call draws a
    block from the job's substreams, and one graph, the disjoint union of
    its slots' graphs, decodes it, whatever grid point or lambda the slots
    come from.  Returns one row per slot: the active users and the users
    collected by each decoder.
    """
    counts = []
    streams = substreams((seed, params.n, run) for params, seed, run in slots)
    for start in range(0, len(slots), RUN_BLOCK):
        block = tuple(params for params, _, _ in slots[start : start + RUN_BLOCK])
        union = build_adjacency(generate_instance(block, streams))
        # The union's users are the slots' users in order, n per slot.
        n_users = np.array([params.n for params in block])
        ends = np.cumsum(n_users)
        offsets = ends - n_users
        counts.append(
            np.stack(
                [
                    np.diff(np.searchsorted(union.users, ends), prepend=0),
                    np.add.reduceat(decode_noncooperative(union).collected, offsets, dtype=np.int64),
                    np.add.reduceat(decode_cooperative(union).collected, offsets, dtype=np.int64),
                ],
                axis=1,
            )
        )
    return np.concatenate(counts)


def _simulate(configs: list[SweepConfig], workers: int | None) -> list[tuple[np.ndarray, np.ndarray]]:
    """One Monte Carlo pass over every grid point of every config.

    Returns, per config, the realized user count of each grid point and an
    array (points, 3, runs): the per-run active and collected counts of
    ``_simulate_runs`` as three rows, all zero where the point has no users.
    The (config, point, run) slots of the points with users run on
    ``_run_jobs``; every slot draws its own substream, so the shares change
    no result.
    """
    users = [np.array([c.realized_users(g) for g in c.g_grid]) for c in configs]
    points = [
        (c, SystemParams(n=n, m=c.m, r=c.r, p=c.p)) for c, ns in zip(configs, users) for n in ns.tolist() if n > 0
    ]
    slots = [(params, c.seed, run) for c, params in points for run in range(c.runs_per_point)]
    if slots:
        rest = _run_jobs(_simulate_runs, slots, workers)
    else:
        rest = np.zeros((0, 3), dtype=np.int64)
    results = []
    for c, ns in zip(configs, users):
        live = ns > 0
        runs = c.runs_per_point
        done, rest = np.split(rest, [live.sum() * runs])
        counts = np.zeros((len(ns), 3, runs), dtype=np.int64)
        counts[live] = done.reshape(-1, runs, 3).transpose(0, 2, 1)
        results.append((ns, counts))
    return results


def _pooled(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pooled P(collected | active) and its linearized ratio standard error.

    ``counts`` is a (points, 3, runs) array of ``_simulate``.  Returns two
    (points, 2) arrays, the probabilities and their standard errors, with
    one column per decoder (non-cooperative, cooperative).  Both are 0
    where nobody was active; the standard error is NaN for a single run.
    """
    runs = counts.shape[2]
    totals = counts.sum(axis=2)
    active = totals[:, :1]
    live = active > 0
    probs = np.divide(totals[:, 1:], active, out=np.zeros((len(counts), 2)), where=live)
    stderrs = np.zeros_like(probs)
    if runs < 2:
        stderrs[live[:, 0]] = math.nan
    else:
        resid = counts[:, 1:] - probs[:, :, None] * counts[:, :1]
        np.divide(resid.std(axis=2, ddof=1), active / runs * math.sqrt(runs), out=stderrs, where=live)
    return probs, stderrs


def sweep_load(
    config: SweepConfig, alphas: np.ndarray | None = None, workers: int | None = None
) -> list[SweepRow]:
    """Run both decoders over the load grid and attach analytic columns.

    ``alphas`` holds the first area moments E[alpha_k], k = 1..K, that the
    series and the heuristic are truncated to.  Without them the analytic
    columns are NaN and the rows flagged; Monte Carlo columns are always
    produced.
    """
    users, counts = _simulate([config], workers)[0]
    probs, stderrs = _pooled(counts)
    # The six mc_* columns in SWEEP_COLUMNS order, one row per grid point.
    mc = np.hstack(
        [
            np.stack([probs, stderrs], axis=2).reshape(-1, 4),
            counts[:, 1:].sum(axis=2) / (config.runs_per_point * config.m),
        ]
    )
    lam = config.m * config.r**2 * math.pi
    rows: list[SweepRow] = []
    for n, mc_row in zip(users.tolist(), mc.tolist()):
        g_real = n * config.p / config.m
        flags: list[str] = []
        psi = g_real * lam
        lower = lower_bound_noncoop(lam, psi, config.p) / config.p
        if alphas is not None:
            series = collection_prob_noncoop_asymptotic(lam, psi, alphas)
            if series.clamped:
                flags.append("analytic_noncoop")
            heur = heuristic_coop(lam, psi, alphas)
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
                **dict(zip(SWEEP_COLUMNS[2:8], mc_row)),
            )
        )
    return rows


def _moving_average3(probs: np.ndarray) -> np.ndarray:
    """Centered moving average down the points of (points, decoders) probabilities.

    Windows hold 3 points, 2 at the ends.  Each window's sum is added top to
    bottom, as ``.mean()`` adds it, and divided by the window's length, so
    row i is bit for bit ``probs[max(0, i - 1) : i + 2].mean(axis=0)``.
    """
    if len(probs) < 2:
        return probs
    pairs = probs[:-1] + probs[1:]
    sums = np.concatenate([pairs[:1], pairs[:-1] + probs[2:], pairs[-1:]])
    counts = np.full((len(probs), 1), 3.0)
    counts[[0, -1]] = 2.0
    return sums / counts


def _max_loads(lam: float, eps: np.ndarray, grid: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Largest grid load whose probability is at least 1 - eps, for every eps and decoder.

    ``grid`` holds the (nonnegative) loads of the points and ``probs`` their
    (points, decoders) probabilities.  Returns an (eps, decoders) array that
    is 0 where no load qualifies, where the grid is empty, or where 1 - eps
    exceeds the coverage 1 - e^-lambda, the chance that some station hears a
    user.
    """
    need = 1.0 - eps[:, None, None]
    loads = np.where(probs >= need, grid[:, None], 0.0).max(axis=1, initial=0.0)
    loads[need[:, 0, 0] > -math.expm1(-lam)] = 0.0
    return loads


def estimate_gbullet(
    config: SweepConfig,
    lambda_grid: tuple[float, ...],
    eps_list: tuple[float, ...],
    workers: int | None = None,
) -> list[GBulletCell]:
    """Estimate the max load G(lambda, eps) for both decoders by simulation.

    Each lambda cell derives its sweep seed from the float bits of lambda, so
    rerunning any subset of the grid reproduces the full run's cells.  The
    sweeps of all lambdas run as one Monte Carlo pass.  Over the grid points
    with users, each decoder's pooled probabilities are smoothed (window 3,
    ``_moving_average3``) and thresholded (``_max_loads``) for every eps at
    once; with no such point every cell is 0.  The lambda and eps lists must
    be nonempty and every eps in (0, 1), checked before any simulation.
    """
    if not lambda_grid or not eps_list:
        raise ValueError("lambda grid and eps list must be nonempty")
    for eps in eps_list:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
    subs = []
    for lam in lambda_grid:
        lam_bits = int(np.float64(lam).view(np.uint64))
        sub_seed = int(
            np.random.SeedSequence([config.seed, lam_bits]).generate_state(1, np.uint64)[0]
        )
        subs.append(replace(config, lambda_target=lam, seed=sub_seed))
    cells: list[GBulletCell] = []
    for lam, sub, (users, counts) in zip(lambda_grid, subs, _simulate(subs, workers)):
        live = users > 0
        smoothed = _moving_average3(_pooled(counts[live])[0])
        loads = _max_loads(lam, np.array(eps_list), users[live] * sub.p / sub.m, smoothed)
        cells += [GBulletCell(lam, eps, g_nc, g_coop) for eps, (g_nc, g_coop) in zip(eps_list, loads.tolist())]
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
    worker count.  The placements run on ``_run_jobs``; moments are
    computed in a single aggregation pass, one k at a time.
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
    if k_max > 1:
        work = partial(placement_alphas, seed, k_max, samples_per_placement)
        alphas = _run_jobs(work, range(placements_per_k), workers)
        powers = np.arange(1, s_max + 1)
        for k in range(2, k_max + 1):
            moments[k - 1] = (alphas[:, k - 2, None] ** powers[None, :]).mean(axis=0)
    return MomentTable(
        moments=moments,
        placements_per_k=placements_per_k,
        samples_per_placement=samples_per_placement,
        seed=seed,
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
