#!/usr/bin/env python3
"""Print the sha256 of every output of a fixed list of command lines.

Runs the benchmark's command lines (``sweep`` at lambda 3 and 6, ``gbullet``
and ``tabulate``), a ``sweep`` line at m = 4000 and lambda 0.5 whose graph
blocks have more than 2^16 station cells, two ``gbullet`` lines at the
max-load edge cases (a lambda whose coverage 1 - e^-lambda is below 1 - eps
for one eps, and a grid with only one point that has users), an ``oracle``
line on a drawn n = 12, m = 5 instance, an ``oracle`` line with two masks,
whose estimates are all 0, 1/2 or 1, an ``oracle`` line at the enumeration
limit, n = 20, where no user is heard at seed 20259 and two are at the other
seeds, and a ``tabulate`` line with 50 disks and two sample blocks per
placement, at seeds 20259, 7 and 2^32.  A small ``sweep`` line runs at seed
2^64 only, whose entropies numpy's own ``SeedSequence`` hashes.  Each runs
at one and two worker processes, as ``python -m mbaloha`` from the
checkout's ``src/`` in a fresh temporary directory.  Every command prints one line per output: the sha256
of each output file, of stdout and of stderr, and the exit code.  Run it
once on each of two checkouts and ``diff`` the two listings to see whether a
change kept the command line's outputs byte-identical:

    python scripts/output_digests.py > change.txt
    python scripts/output_digests.py --checkout ../parent > parent.txt
    diff parent.txt change.txt
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (20259, 7, 2**32)
THREADS = (1, 2)
TABLE = "moments.txt"

# The composite grid of scripts/gbullet_curves.py: step 0.005 up to G = 0.30,
# then 0.01 up to 0.80.
GBULLET_GRID = [round(0.005 * i, 12) for i in range(61)] + [round(0.31 + 0.01 * i, 12) for i in range(50)]

# (label, arguments, output file); each run appends --seed, --threads and --out.
COMMANDS = [
    (
        f"sweep_lam{lam}",
        ["sweep", "--m", "100", "--p", "0.25", "--lambda", lam, "--grid", "0:1:0.05", "--runs", "100",
         "--k-max", "34", "--moment-table", TABLE],
        f"sweep_lam{lam}.csv",
    )
    for lam in ("3", "6")
] + [
    (
        "sweep_wide_key",
        ["sweep", "--m", "4000", "--p", "0.25", "--lambda", "0.5", "--grid", "0.05,0.2", "--runs", "64",
         "--no-analytic"],
        "sweep_wide_key.csv",
    ),
    (
        "gbullet",
        ["gbullet", "--m", "100", "--p", "0.25", "--lambdas", "2,3,4,6", "--eps", "0.08,0.1,0.2",
         "--grid", ",".join(f"{g:g}" for g in GBULLET_GRID),
         "--runs", "8"],
        "gbullet.csv",
    ),
    (
        "gbullet_cutoff",
        ["gbullet", "--m", "100", "--p", "0.25", "--lambdas", "1.5,4", "--eps", "0.15,0.3",
         "--grid", "0:0.8:0.02", "--runs", "20"],
        "gbullet_cutoff.csv",
    ),
    (
        "gbullet_one_point",
        ["gbullet", "--m", "100", "--p", "0.25", "--lambdas", "3,5", "--eps", "0.15,0.3",
         "--grid", "0,0.3", "--runs", "20"],
        "gbullet_one_point.csv",
    ),
    (
        "oracle",
        ["oracle", "--n", "12", "--m", "5", "--masks", "10000", "--moment-table", TABLE],
        "oracle.csv",
    ),
    (
        "oracle_corner",
        ["oracle", "--n", "4", "--m", "2", "--r", "0.25", "--p", "0.5", "--masks", "2"],
        "oracle_corner.csv",
    ),
    (
        "oracle_limit",
        ["oracle", "--n", "20", "--m", "2", "--r", "0.1"],
        "oracle_limit.csv",
    ),
    (
        "tabulate_k6",
        ["tabulate", "--k-max", "6", "--s-max", "12", "--placements", "500", "--samples", "4000"],
        "tabulate_k6.txt",
    ),
    (
        "tabulate_k34",
        ["tabulate", "--k-max", "34", "--s-max", "1", "--placements", "8", "--samples", "2000"],
        "tabulate_k34.txt",
    ),
    (
        "tabulate_k50",
        ["tabulate", "--k-max", "50", "--s-max", "3", "--placements", "3", "--samples", "70000"],
        "tabulate_k50.txt",
    ),
]

# (label, arguments, output file, seed): lines run at one seed only.
SINGLE_SEED = [
    (
        "sweep_seed_2_64",
        ["sweep", "--m", "20", "--p", "0.25", "--lambda", "2", "--grid", "0:1:0.25", "--runs", "150",
         "--no-analytic"],
        "sweep_seed_2_64.csv",
        2**64,
    ),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--checkout", type=Path, default=Path(__file__).resolve().parents[1],
        help="repository whose src/ and data/ to run (default: this one)",
    )
    args = parser.parse_args()
    checkout = args.checkout.resolve()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    runs = [(seed, threads, *command) for seed in SEEDS for threads in THREADS for command in COMMANDS]
    runs += [(seed, threads, label, argv, out) for label, argv, out, seed in SINGLE_SEED for threads in THREADS]
    for seed, threads, label, argv, out in runs:
        name = f"{label} seed={seed} threads={threads}"
        # Relative paths keep the outputs, which name their files,
        # the same in every directory.
        with tempfile.TemporaryDirectory() as workdir:
            shutil.copyfile(checkout / "data" / "moments_k50_s250.txt", Path(workdir) / TABLE)
            res = subprocess.run(
                [sys.executable, "-m", "mbaloha", *argv,
                 "--seed", str(seed), "--threads", str(threads), "--out", out],
                cwd=workdir, env=env, capture_output=True,
            )
            path = Path(workdir) / out
            print(f"{name} {out} {_sha256(path.read_bytes()) if path.exists() else 'missing'}")
        print(f"{name} stdout {_sha256(res.stdout)}")
        print(f"{name} stderr {_sha256(res.stderr)}")
        print(f"{name} exit {res.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
