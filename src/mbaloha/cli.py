"""Command-line front end: tabulate, sweep, gbullet, oracle.

Every subcommand is deterministic given its flags; seeds default to a fixed
documented constant, never the clock.  Exit codes: 0 success, 1 usage error,
2 runtime or validation error.  Output files are written atomically so a
failing run never leaves a partial file.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .analytics import collection_prob_noncoop_finite
from .decoders import all_users_adjacency, brute_force_collection_probability, mask_monte_carlo
from .experiments import (
    SweepConfig,
    compare_report,
    estimate_gbullet,
    render_gbullet_csv,
    render_sweep_csv,
    sweep_load,
    tabulate_moments,
)
from .geometry import MomentTable, format_moment_table
from .scenario import SystemParams, generate_instance, parse_instance

DEFAULT_SEED = 20259

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for runtime."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunManifest:
    """Everything needed to reproduce one invocation byte for byte."""

    subcommand: str
    seed: int
    params: dict = field(default_factory=dict)
    moment_table_checksum: str | None = None

    def render(self) -> str:
        parts = [f"mbaloha={__version__}", f"cmd={self.subcommand}", f"seed={self.seed}"]
        parts += [f"{k}={v}" for k, v in sorted(self.params.items())]
        if self.moment_table_checksum is not None:
            parts.append(f"moment_table_sha256={self.moment_table_checksum}")
        return " ".join(parts)


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a new file beside ``path``, then rename it over ``path``.

    The file is created with mode 0o666 less the umask, as ``open`` would
    create it.  A name that is taken, by a file a killed run left behind for
    instance, is skipped for the next.
    """
    directory = os.path.dirname(os.path.abspath(path))
    for attempt in itertools.count():
        tmp = os.path.join(directory, f".mbaloha-{os.getpid()}-{attempt}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _checksum(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _parse_grid(spec: str) -> tuple[float, ...]:
    """Either 'start:stop:step' or a comma-separated list of loads."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid range must be start:stop:step, got {spec!r}")
        start, stop, step = (float(v) for v in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"grid start, stop and step must be finite, got {spec!r}")
        if step <= 0:
            raise ValueError("grid step must be positive")
        steps = (stop - start) / step + 0.5
        if not math.isfinite(steps):
            raise ValueError(f"grid range spans too many steps, got {spec!r}")
        count = int(math.floor(steps)) + 1
        return tuple(round(start + i * step, 12) for i in range(count))
    return tuple(float(v) for v in spec.split(","))


def _parse_floats(spec: str) -> tuple[float, ...]:
    return tuple(float(v) for v in spec.split(","))


def _thread_count(spec: str) -> int:
    count = int(spec)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be 0 (one per usable core) or a positive count, got {count}")
    return count


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"RNG seed (default {DEFAULT_SEED})")
    sub.add_argument(
        "--threads", type=_thread_count, default=0,
        help="processes, this one included, or 1 without os.fork; 0 = one per core this process may use",
    )
    sub.add_argument("--out", type=str, default=None, help="output file (default: stdout)")


def _workers(args) -> int:
    """``--threads``, or with 0 the cores this process may run on."""
    if args.threads > 0:
        return args.threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _emit(args, text: str) -> None:
    if args.out is not None:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _cmd_tabulate(args) -> int:
    table = tabulate_moments(
        k_max=args.k_max,
        s_max=args.s_max,
        placements_per_k=args.placements,
        samples_per_placement=args.samples,
        seed=args.seed,
        workers=_workers(args),
    )
    _write_atomic(args.out, format_moment_table(table))
    print(f"wrote {args.out} (sha256 {_checksum(args.out)})")
    print(
        f"k_max={table.moments.shape[0]} s_max={table.moments.shape[1]} "
        f"placements={table.placements_per_k} samples={table.samples_per_placement} seed={table.seed}"
    )
    first = table.first_moments
    print(
        "invariants ok: k=1 row exact, first moments in "
        f"[{first.min():.6g}, {first.max():.6g}], nondecreasing in k and s"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    manifest = RunManifest(
        "sweep",
        args.seed,
        params={
            "m": args.m,
            "p": args.p,
            "lambda": args.lam,
            "grid": args.grid,
            "runs": args.runs,
            "k_max": args.k_max,
        },
    )
    if args.moment_table is None and not args.no_analytic:
        raise ValueError("no moment table given; pass --moment-table or --no-analytic")
    if args.moment_table is not None:
        manifest.moment_table_checksum = _checksum(args.moment_table)
    config = SweepConfig(
        m=args.m,
        p=args.p,
        lambda_target=args.lam,
        g_grid=_parse_grid(args.grid),
        runs_per_point=args.runs,
        seed=args.seed,
    )
    if args.k_max < 1:
        raise ValueError("k_max must be positive")
    manifest.params["r"] = config.r
    alphas = None
    if args.moment_table is not None:
        table = MomentTable.load(args.moment_table)
        if args.k_max > len(table.moments):
            raise ValueError(f"k_max={args.k_max} exceeds the table's k_max={len(table.moments)}")
        alphas = table.first_moments[: args.k_max]
    rows = sweep_load(config, alphas, workers=_workers(args))
    csv = render_sweep_csv(rows, manifest.render())
    report = compare_report(rows, m=args.m)
    _emit(args, csv)
    # Keep the report out of the CSV stream.
    stream = sys.stdout if args.out is not None else sys.stderr
    stream.write(report)
    return EXIT_OK


def _cmd_gbullet(args) -> int:
    manifest = RunManifest(
        "gbullet",
        args.seed,
        params={
            "m": args.m,
            "p": args.p,
            "lambdas": args.lambdas,
            "eps": args.eps,
            "grid": args.grid,
            "runs": args.runs,
        },
    )
    lambdas = _parse_floats(args.lambdas)
    config = SweepConfig(
        m=args.m,
        p=args.p,
        lambda_target=max(lambdas),
        g_grid=_parse_grid(args.grid),
        runs_per_point=args.runs,
        seed=args.seed,
    )
    # replace() validates each lambda before any Monte Carlo work.
    manifest.params["r_per_lambda"] = ";".join(
        format(replace(config, lambda_target=lam).r, ".6g") for lam in lambdas
    )
    cells = estimate_gbullet(
        config,
        lambda_grid=lambdas,
        eps_list=_parse_floats(args.eps),
        workers=_workers(args),
    )
    _emit(args, render_gbullet_csv(cells, manifest.render()))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if not args.seed >= 0:
        raise ValueError("seed must be nonnegative")
    if args.instance is not None:
        with open(args.instance, "r", encoding="ascii") as fh:
            instance = parse_instance(fh.read())
        params = instance.params
    else:
        params = SystemParams(n=args.n, m=args.m, r=args.r, p=args.p)
        rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
        instance = generate_instance(params, rng)
    graph = all_users_adjacency(instance)
    exact = brute_force_collection_probability(graph, params.p)
    mc = mask_monte_carlo(graph, params.p, n_masks=args.masks, seed=args.seed + 1)
    manifest = RunManifest(
        "oracle",
        args.seed,
        params={
            "n": params.n,
            "m": params.m,
            "r": params.r,
            "p": params.p,
            "masks": args.masks,
            "instance": args.instance or "",
        },
    )
    if args.moment_table is not None:
        manifest.moment_table_checksum = _checksum(args.moment_table)
    lines = [f"# {manifest.render()}"]
    lines.append("user,oracle_noncoop,mc_noncoop,z_noncoop,oracle_coop,mc_coop,z_coop,verdict")
    # One row per user, one column per decoder (non-cooperative, cooperative).
    oracle = np.stack([exact.noncooperative, exact.cooperative], axis=1)
    est = np.stack([mc.prob_noncoop, mc.prob_coop], axis=1)
    # z against the exact value's binomial standard error.  Where the exact
    # value is 0 or 1 that error is 0: z is 0 if the estimate equals it and
    # infinite otherwise.
    se = np.sqrt(oracle * (1.0 - oracle) / args.masks)
    z = np.where(est == oracle, 0.0, np.copysign(np.inf, est - oracle))
    np.divide(est - oracle, se, out=z, where=se > 0)
    worst = np.abs(z).max(axis=1)
    rows = zip(oracle.tolist(), est.tolist(), z.tolist(), worst.tolist())
    for i, ((o_nc, o_coop), (e_nc, e_coop), (z_nc, z_coop), w) in enumerate(rows):
        verdict = "pass" if w <= 3.0 else "FAIL"
        lines.append(f"{i},{o_nc:.6g},{e_nc:.6g},{z_nc:.3g},{o_coop:.6g},{e_coop:.6g},{z_coop:.3g},{verdict}")
    lines.append(f"# max |z| = {worst.max():.3g} over {params.n} users, {args.masks} masks, 3-sigma check")
    superset = bool(np.all(exact.cooperative >= exact.noncooperative - 1e-15))
    lines.append(f"# cooperative >= non-cooperative per user: {'pass' if superset else 'FAIL'}")
    if args.moment_table is not None:
        table = MomentTable.load(args.moment_table)
        bracket = collection_prob_noncoop_finite(params, table.moments)
        lines.append(
            "# finite bracket on position-averaged P(coll), noncoop: "
            f"[{bracket.lower:.6g}, {bracket.upper:.6g}] (reference; this run is one placement)"
        )
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each parse fills a new namespace."""
    parser = _Parser(prog="mbaloha", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mbaloha {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    tab = subs.add_parser("tabulate", help="tabulate union-of-disks area moments", parents=[])
    _add_common(tab)
    tab.add_argument("--k-max", dest="k_max", type=int, default=34)
    tab.add_argument("--s-max", dest="s_max", type=int, default=1)
    tab.add_argument("--placements", type=int, default=4000)
    tab.add_argument("--samples", type=int, default=30000)
    tab.set_defaults(func=_cmd_tabulate, needs_out=True)

    sweep = subs.add_parser("sweep", help="Monte Carlo load sweep with analytic overlays")
    _add_common(sweep)
    sweep.add_argument("--m", type=int, default=100)
    sweep.add_argument("--p", type=float, default=0.25)
    sweep.add_argument("--lambda", dest="lam", type=float, default=3.0)
    sweep.add_argument("--grid", type=str, default="0:1:0.05", help="start:stop:step or comma list of G values")
    sweep.add_argument("--runs", type=int, default=1000)
    sweep.add_argument("--k-max", dest="k_max", type=int, default=34, help="series truncation, at most the table's")
    analytic = sweep.add_mutually_exclusive_group()
    analytic.add_argument("--moment-table", dest="moment_table", type=str, default=None)
    analytic.add_argument("--no-analytic", dest="no_analytic", action="store_true")
    sweep.set_defaults(func=_cmd_sweep, needs_out=False)

    gb = subs.add_parser("gbullet", help="max-load metric over a lambda grid")
    _add_common(gb)
    gb.add_argument("--m", type=int, default=100)
    gb.add_argument("--p", type=float, default=0.25)
    gb.add_argument("--lambdas", type=str, default="2,2.5,3,3.5,4,5,6")
    gb.add_argument("--eps", type=str, default="0.08,0.1,0.2")
    gb.add_argument("--grid", type=str, default="0:1:0.02")
    gb.add_argument("--runs", type=int, default=200)
    gb.set_defaults(func=_cmd_gbullet, needs_out=False)

    orc = subs.add_parser("oracle", help="brute-force oracle vs Monte Carlo on a tiny instance")
    _add_common(orc)
    orc.add_argument("--n", type=int, default=8)
    orc.add_argument("--m", type=int, default=3)
    orc.add_argument("--r", type=float, default=0.2)
    orc.add_argument("--p", type=float, default=0.25)
    orc.add_argument("--masks", type=int, default=100000)
    orc.add_argument("--moment-table", dest="moment_table", type=str, default=None)
    orc.add_argument("--instance", type=str, default=None, help="load a dumped instance instead of generating one")
    orc.set_defaults(func=_cmd_oracle, needs_out=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_out", False) and args.out is None:
        parser.error(f"{args.command} requires --out")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"mbaloha {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
