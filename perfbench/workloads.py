"""The four workloads: their command lines, made from a seed, and their checks.

An operation is one invocation of the ``mbaloha`` command line together
with the check of its output.  A round of a workload is a fixed list of
operations; every round of one run repeats the same command lines, so each
round must reproduce the first round's output byte for byte.  Checks compare
outputs with the references of ``references.py`` or with properties the
method must have, at the printed precision of 6 significant digits, never
with a saved copy of an earlier output.  A check returns the problems it
found; an empty list means the output is correct.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import references

TABLE = "data/moments_k50_s250.txt"

# sweep: the paper's throughput curves, lambda = 3 and 6.
SWEEP_LAMBDAS = (3.0, 6.0)
SWEEP_RUNS = 100
SWEEP_GRID = "0:1:0.05"
SWEEP_LIVE_POINTS = 20  # the grid's 21 loads less G = 0, which has no users

# gbullet: the composite grid of scripts/gbullet_curves.py (step 0.005 up to
# G = 0.30, step 0.01 up to 0.80).
GBULLET_LAMBDAS = (2.0, 3.0, 4.0, 6.0)
GBULLET_EPS = (0.08, 0.1, 0.2)
GBULLET_RUNS = 8
GBULLET_GRID = tuple(round(0.005 * i, 12) for i in range(61)) + tuple(round(0.31 + 0.01 * i, 12) for i in range(50))

# oracle: (n, m, edges) of each instance.  r, p and positions are drawn as
# acceptance criterion 3 draws them, redrawn until the station x user graph
# has the given number of edges: the cost of decoding a mask grows with the
# edges, so fixed sizes and edge counts give every seed the same work.
ORACLE_SHAPES = ((12, 5, 5), (12, 3, 3), (11, 4, 4), (11, 2, 2), (10, 5, 4), (10, 3, 2))
ORACLE_MASKS = 10_000

# tabulate: one operation that passes, and one that fails on a fault of the
# program (see KNOWN_FAULT); the failing one uses a fixed seed, so it fails
# in every run whatever the workload seed.
TABULATE_FAILING_SEED = 20259
KNOWN_FAULT = (
    "MomentTable.validate() demands first moments nondecreasing in k, a property of the "
    "true moments that noisy Monte Carlo estimates can break"
)
KNOWN_FAULT_MESSAGE = "first moments must be nondecreasing in k"


@dataclass
class Op:
    """One program invocation: its command line, outputs, work items and check."""

    label: str
    argv: list[str]
    outputs: list[str]
    items: int
    check: Callable[[dict, int], list[str]]
    known_fault: str | None = None
    processes: int = 1  # worker processes the invocation runs on


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item_metric: str
    item_unit: str
    uses_table: bool
    make: Callable[[int, str, str], list[Op]] = field(repr=False)


def half_unit(value: float) -> float:
    """Half a unit in the 6th significant digit of ``value``."""
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 5)


def agrees(printed: float, reference: float) -> bool:
    """``printed`` is ``reference`` rounded to 6 significant digits."""
    return abs(printed - reference) <= half_unit(reference) * (1.0 + 1e-6) + 1e-13 * abs(reference)


def _manifest(line: str) -> dict[str, str]:
    return dict(token.split("=", 1) for token in line[2:].split() if "=" in token)


def _csv(text: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing '#' metadata line")
    return _manifest(lines[0]), lines[1].split(","), [ln.split(",") for ln in lines[2:] if ln]


class Repeatable:
    """Checks an op's first output fully and later rounds for byte identity."""

    def __init__(self, output: str) -> None:
        self.output = output
        self.first: str | None = None

    def __call__(self, result: dict, round_index: int) -> list[str]:
        text = result["outputs"].get(self.output)
        if text is None:
            return [f"{self.output}: no output written"]
        if self.first is None:
            self.first = text
            try:
                problems = self.properties(text, result)
            except (ValueError, IndexError, KeyError) as exc:
                problems = [f"{self.output}: unreadable output ({exc})"]
        elif text != self.first:
            problems = [f"{self.output}: round {round_index} output differs from round 0"]
        else:
            problems = []
        return problems + self.every_round(round_index)

    def properties(self, text: str, result: dict) -> list[str]:
        raise NotImplementedError

    def every_round(self, round_index: int) -> list[str]:
        return []


SWEEP_COLUMNS = (
    "G_realized,n,mc_prob_noncoop,mc_prob_noncoop_stderr,mc_prob_coop,mc_prob_coop_stderr,"
    "mc_T_noncoop,mc_T_coop,analytic_prob_noncoop,analytic_prob_coop,lower_bound,clamp_flags"
).split(",")


class SweepCheck(Repeatable):
    """Properties of a sweep CSV, and a reference re-decode of one grid point per round."""

    def __init__(self, output: str, lam: float, seed: int) -> None:
        super().__init__(output)
        self.lam = lam
        self.seed = seed
        self.rows: list[dict[str, float]] = []
        self.manifest: dict[str, str] = {}

    def properties(self, text: str, result: dict) -> list[str]:
        self.manifest, header, cells = _csv(text)
        if header != SWEEP_COLUMNS:
            return [f"{self.output}: unexpected columns {header}"]
        self.rows = [{k: float(v) for k, v in zip(header[:-1], row[:-1])} for row in cells]
        problems = []
        m, r = int(self.manifest["m"]), float(self.manifest["r"])
        lam = m * r * r * math.pi
        coverage = -math.expm1(-self.lam)
        for row in self.rows:
            where = f"{self.output} G={row['G_realized']:g}"
            probs = ("mc_prob_noncoop", "mc_prob_coop", "analytic_prob_noncoop", "analytic_prob_coop", "lower_bound")
            if not all(0.0 <= row[k] <= 1.0 for k in probs):
                problems.append(f"{where}: a probability outside [0, 1]")
            if row["mc_prob_coop"] < row["mc_prob_noncoop"]:
                problems.append(f"{where}: mc_prob_coop < mc_prob_noncoop")
            if not agrees(row["lower_bound"], coverage * math.exp(-4.0 * row["G_realized"] * lam)):
                problems.append(f"{where}: lower_bound is not (1-e^-lambda) e^(-4 G lambda)")
            if row["n"] == 0:
                if not (agrees(row["analytic_prob_noncoop"], coverage) and agrees(row["analytic_prob_coop"], coverage)):
                    problems.append(f"{where}: analytic columns at G=0 are not 1-e^-lambda")
            elif row["lower_bound"] > row["mc_prob_noncoop"] + 3.0 * row["mc_prob_noncoop_stderr"]:
                problems.append(f"{where}: lower_bound above mc_prob_noncoop + 3 stderr")
        return problems

    def every_round(self, round_index: int) -> list[str]:
        """Decode every run of one grid point again with the dense reference."""
        from mbaloha.scenario import SystemParams, generate_instance

        live = [row for row in self.rows if row["n"] > 0]
        if not live:
            return []
        row = live[(self.seed + round_index) % len(live)]
        n, m, p = int(row["n"]), int(self.manifest["m"]), float(self.manifest["p"])
        r, runs, seed = float(self.manifest["r"]), int(self.manifest["runs"]), int(self.manifest["seed"])
        params = SystemParams(n=n, m=m, r=r, p=p)
        active = noncoop = coop = 0
        for run in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence([seed, n, run]))
            inst = generate_instance(params, rng)
            adj = references.dense_adjacency(inst.station_xy, inst.user_xy[inst.active], r)
            active += int(inst.active.sum())
            noncoop += int(references.decode_single_round(adj).sum())
            coop += int(references.decode_peeling(adj).sum())
        want = {
            "mc_T_noncoop": noncoop / (runs * m),
            "mc_T_coop": coop / (runs * m),
            "mc_prob_noncoop": noncoop / active if active else 0.0,
            "mc_prob_coop": coop / active if active else 0.0,
        }
        bad = [k for k, v in want.items() if not agrees(row[k], v)]
        if bad:
            return [f"{self.output} n={n}: reference decoder disagrees on {', '.join(bad)}"]
        return []


def make_sweep(seed: int, table: str, workdir: str) -> list[Op]:
    ops = []
    for lam in SWEEP_LAMBDAS:
        out = f"sweep_lam{lam:g}.csv"
        argv = [
            "sweep", "--threads", "1", "--m", "100", "--p", "0.25", "--lambda", f"{lam:g}",
            "--grid", SWEEP_GRID, "--runs", str(SWEEP_RUNS), "--k-max", "34",
            "--moment-table", table, "--seed", str(seed), "--out", out,
        ]
        ops.append(Op(f"sweep lambda={lam:g}", argv, [out], SWEEP_LIVE_POINTS * SWEEP_RUNS, SweepCheck(out, lam, seed)))
    return ops


class GBulletCheck(Repeatable):
    def properties(self, text: str, result: dict) -> list[str]:
        _, header, cells = _csv(text)
        if header != ["lambda", "eps", "gbullet_noncoop", "gbullet_coop"]:
            return [f"{self.output}: unexpected columns {header}"]
        got = {(float(a), float(b)): (float(c), float(d)) for a, b, c, d in cells}
        if sorted(got) != sorted((lam, eps) for lam in GBULLET_LAMBDAS for eps in GBULLET_EPS):
            return [f"{self.output}: cells do not cover the lambda x eps grid"]
        problems = []
        for lam in GBULLET_LAMBDAS:
            previous = (0.0, 0.0)
            for eps in sorted(GBULLET_EPS):
                noncoop, coop = got[(lam, eps)]
                where = f"{self.output} lambda={lam:g} eps={eps:g}"
                if any(v != 0.0 and min(abs(v - g) for g in GBULLET_GRID) > 1e-9 for v in (noncoop, coop)):
                    problems.append(f"{where}: G* is not a grid load")
                if -math.expm1(-lam) < 1.0 - eps and (noncoop, coop) != (0.0, 0.0):
                    problems.append(f"{where}: G* nonzero although 1-e^-lambda < 1-eps")
                if coop < noncoop:
                    problems.append(f"{where}: gbullet_coop < gbullet_noncoop")
                if noncoop < previous[0] or coop < previous[1]:
                    problems.append(f"{where}: G* decreases as eps grows")
                previous = (noncoop, coop)
        return problems


def make_gbullet(seed: int, table: str, workdir: str) -> list[Op]:
    out = "gbullet.csv"
    argv = [
        "gbullet", "--threads", "2", "--m", "100", "--p", "0.25",
        "--lambdas", ",".join(f"{v:g}" for v in GBULLET_LAMBDAS),
        "--eps", ",".join(f"{v:g}" for v in GBULLET_EPS),
        "--grid", ",".join(f"{g:g}" for g in GBULLET_GRID),
        "--runs", str(GBULLET_RUNS), "--seed", str(seed), "--out", out,
    ]
    slots = len(GBULLET_LAMBDAS) * (len(GBULLET_GRID) - 1) * GBULLET_RUNS
    return [Op("gbullet", argv, [out], slots, GBulletCheck(out), processes=2)]


def write_instance(path: str, rng: np.random.Generator, n: int, m: int, edges: int) -> None:
    """A random tiny instance with ``edges`` edges, in the program's instance text format."""
    while True:
        r = float(rng.uniform(0.08, 0.25))
        p = float(rng.uniform(0.15, 0.85))
        users = rng.uniform(-0.5, 0.5, size=(n, 2))
        stations = rng.uniform(-0.5, 0.5, size=(m, 2))
        if references.dense_adjacency(stations, users, r).sum() == edges:
            break
    active = rng.random(n) < p
    lines = [f"n {n}", f"m {m}", f"r {r!r}", f"p {p!r}"]
    lines += [f"{x!r} {y!r} {int(a)}" for (x, y), a in zip(users.tolist(), active)]
    lines += [f"{x!r} {y!r}" for x, y in stations.tolist()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_instance(path: str) -> tuple[int, int, float, float, np.ndarray, np.ndarray]:
    with open(path, "r", encoding="ascii") as fh:
        rows = [ln.split() for ln in fh if ln.strip()]
    n, m, r, p = int(rows[0][1]), int(rows[1][1]), float(rows[2][1]), float(rows[3][1])
    users = np.array([[float(x), float(y)] for x, y, _ in rows[4 : 4 + n]])
    stations = np.array([[float(x), float(y)] for x, y in rows[4 + n :]])
    return n, m, r, p, users, stations


class OracleCheck(Repeatable):
    """Exact column against inclusion-exclusion; mask Monte Carlo z-scores.

    Acceptance criterion 3 bounds max |z| by 6 and the 3-sigma exceedances
    by 1% of 1600 z-scores.  One instance gives 20 to 24 z-scores, of which
    a user's two share every mask, so the check keeps max |z| <= 6 and allows
    at most 3 users beyond 3 sigma: under the null each user exceeds with
    probability at most 0.54%, and, users taken as independent, 4 of 12 do
    so with probability below 1e-6.
    """

    def __init__(self, output: str, instance: str, masks: int, with_table: bool) -> None:
        super().__init__(output)
        self.instance = instance
        self.masks = masks
        self.with_table = with_table

    def properties(self, text: str, result: dict) -> list[str]:
        n, m, r, p, users, stations = read_instance(self.instance)
        lines = text.splitlines()
        header = "user,oracle_noncoop,mc_noncoop,z_noncoop,oracle_coop,mc_coop,z_coop,verdict"
        if lines[1] != header:
            return [f"{self.output}: unexpected columns"]
        cells = np.array([[float(v) for v in ln.split(",")[1:7]] for ln in lines[2 : 2 + n]])
        exact_nc, mc_nc, exact_coop, mc_coop = cells[:, 0], cells[:, 1], cells[:, 3], cells[:, 4]
        problems = []
        want = references.noncoop_collection_probability(references.dense_adjacency(stations, users, r), p)
        if not all(agrees(got, ref) for got, ref in zip(exact_nc, want)):
            problems.append(f"{self.output}: exact non-cooperative column disagrees with inclusion-exclusion")
        if np.any(exact_coop < exact_nc) or np.any(mc_coop < mc_nc):
            problems.append(f"{self.output}: a user's cooperative probability is below the non-cooperative one")
        beyond = np.zeros(n, dtype=bool)
        for truth, estimate in ((exact_nc, mc_nc), (exact_coop, mc_coop)):
            se = np.sqrt(truth * (1.0 - truth) / self.masks)
            degenerate = se == 0.0
            if np.any(estimate[degenerate] != truth[degenerate]):
                problems.append(f"{self.output}: Monte Carlo estimate differs from a probability of exactly 0 or 1")
            z = (estimate[~degenerate] - truth[~degenerate]) / se[~degenerate]
            if z.size and np.abs(z).max() > 6.0:
                problems.append(f"{self.output}: |z| = {np.abs(z).max():.2f} > 6")
            beyond[~degenerate] |= np.abs(z) > 3.0
        if beyond.sum() > 3:
            problems.append(f"{self.output}: {beyond.sum()} users beyond 3 sigma")
        if self.with_table:
            bracket = [ln for ln in lines if ln.startswith("# finite bracket")]
            if not bracket:
                return problems + [f"{self.output}: no finite bracket line"]
            lower, upper = (float(v) for v in bracket[0].split("[")[1].split("]")[0].split(","))
            width = p * (8.0 * r - 16.0 * r * r)
            if not (0.0 <= lower <= upper and abs(upper - lower - width) <= half_unit(upper) + half_unit(lower) + 1e-12):
                problems.append(f"{self.output}: finite bracket is not [x, x + p(8r - 16r^2)]")
        return problems


def make_oracle(seed: int, table: str, workdir: str) -> list[Op]:
    ops = []
    for i, (n, m, edges) in enumerate(ORACLE_SHAPES):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 33, i]))
        instance = f"{workdir}/instance{i}.txt"
        write_instance(instance, rng, n, m, edges)
        out = f"oracle{i}.csv"
        argv = ["oracle", "--instance", instance, "--masks", str(ORACLE_MASKS), "--seed", str(seed + i), "--out", out]
        if i == 0:
            argv += ["--moment-table", table]
        check = OracleCheck(out, instance, ORACLE_MASKS, with_table=i == 0)
        ops.append(Op(f"oracle n={n} m={m}", argv, [out], 2**n + ORACLE_MASKS, check))
    return ops


_alpha = functools.cache(references.alpha_first_moment)


class TabulateCheck(Repeatable):
    """Moments against the quadrature reference and the moment-order properties."""

    def properties(self, text: str, result: dict) -> list[str]:
        rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        header = {row[0]: int(row[1]) for row in rows[:6]}
        moments = np.array([[float(v) for v in row] for row in rows[6:]])
        k_max, s_max, placements = header["k_max"], header["s_max"], header["placements_per_k"]
        problems = []
        if moments.shape != (k_max, s_max):
            return [f"{self.output}: table shape {moments.shape} != ({k_max}, {s_max})"]
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        if f"sha256 {digest}" not in result["stdout"]:
            problems.append(f"{self.output}: printed sha256 does not match the file")
        if np.any(moments[0] != 1.0):
            problems.append(f"{self.output}: k=1 row is not exactly 1")
        for k in range(2, k_max + 1):
            first = moments[k - 1, 0]
            # Spread of the per-placement areas from the second moment; with
            # one moment only, alpha in [1, 4] bounds the spread by 1.5.
            spread = math.sqrt(max(moments[k - 1, 1] - first * first, 0.0)) if s_max > 1 else 1.5
            if abs(first - _alpha(k)) > 4.0 * spread / math.sqrt(placements):
                problems.append(f"{self.output}: k={k} first moment {first:.6g} beyond 4 standard errors of quadrature")
        if s_max > 1:
            lo, hi = moments[:, :-1], moments[:, 1:]
            if np.any(hi < lo):
                problems.append(f"{self.output}: moments decrease in s")
            if np.any(hi > 4.0 * lo):
                problems.append(f"{self.output}: adjacent-s moment ratio above 4")
        return problems


def make_tabulate(seed: int, table: str, workdir: str) -> list[Op]:
    ops = []
    for label, k_max, s_max, placements, samples, op_seed, fault in (
        ("tabulate k_max=6", 6, 12, 500, 4000, seed, None),
        ("tabulate k_max=34", 34, 1, 8, 2000, TABULATE_FAILING_SEED, KNOWN_FAULT),
    ):
        out = f"moments_k{k_max}.txt"
        argv = [
            "tabulate", "--threads", "1", "--k-max", str(k_max), "--s-max", str(s_max),
            "--placements", str(placements), "--samples", str(samples), "--seed", str(op_seed), "--out", out,
        ]
        ops.append(Op(label, argv, [out], (k_max - 1) * placements, TabulateCheck(out), fault))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            "The paper's throughput curves at lambda 3 and 6, up to n=400 users; build_adjacency dominates each slot.",
            "slots_per_s", "slots/s", True, make_sweep,
        ),
        Workload(
            "gbullet",
            "Many short sweeps at small n on a fine grid, with a process pool per lambda; shows costs per slot and per sweep.",
            "slots_per_s", "slots/s", False, make_gbullet,
        ),
        Workload(
            "oracle",
            "Exact 2^n enumeration and mask Monte Carlo on tiny instances; decoders run mask by mask.",
            "masks_per_s", "masks/s", True, make_oracle,
        ),
        Workload(
            "tabulate",
            "Moment tabulation, bound by the numpy kernel of disk_union_area; one operation fails on a known fault.",
            "placements_per_s", "placements/s", False, make_tabulate,
        ),
    )
}
