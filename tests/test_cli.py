import hashlib
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import DEFAULT_TABLE
from mbaloha import cli
from mbaloha.experiments import tabulate_moments
from mbaloha.geometry import MomentTable, format_moment_table
from mbaloha.scenario import NetworkInstance, SystemParams, dump_instance


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "mbaloha", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    table = tabulate_moments(k_max=6, s_max=8, placements_per_k=300, samples_per_placement=2000, seed=99)
    path = tmp_path_factory.mktemp("cli_tables") / "table.txt"
    path.write_text(format_moment_table(table), encoding="ascii")
    return str(path)


class TestTabulateCommand:
    @pytest.mark.parametrize(
        "k_max, s_max, placements, samples, seed",
        [
            (4, 2, 80, 500, 5),
            # Few noisy placements over many k: the first moments must still
            # come out nondecreasing in k, or the table fails validation.
            (34, 1, 8, 2000, 20259),
        ],
        ids=["k4", "k34"],
    )
    def test_writes_valid_table_and_summary(self, tmp_path, k_max, s_max, placements, samples, seed):
        out = tmp_path / "m.txt"
        res = run_cli(
            "tabulate", "--k-max", str(k_max), "--s-max", str(s_max), "--placements", str(placements),
            "--samples", str(samples), "--seed", str(seed), "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        assert "invariants ok" in res.stdout
        table = MomentTable.load(out)
        assert table.k_max == k_max

    def test_k_max_one_gives_all_ones(self, tmp_path):
        out = tmp_path / "ones.txt"
        res = run_cli("tabulate", "--k-max", "1", "--s-max", "3", "--placements", "5",
                      "--samples", "10", "--out", str(out))
        assert res.returncode == 0
        assert np.all(MomentTable.load(out).moments == 1.0)

    def test_rerun_identical_bytes(self, tmp_path):
        args = ["tabulate", "--k-max", "3", "--s-max", "1", "--placements", "60",
                "--samples", "300", "--seed", "12"]
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli(*args, "--out", str(out1)).returncode == 0
        assert run_cli(*args, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_parameters_exit_2_no_file(self, tmp_path):
        out = tmp_path / "never.txt"
        res = run_cli("tabulate", "--placements", "0", "--out", str(out))
        assert res.returncode == 2
        assert not out.exists()

    def test_negative_seed_exits_2_no_file(self, tmp_path):
        out = tmp_path / "never.txt"
        res = run_cli("tabulate", "--k-max", "3", "--placements", "4", "--samples", "100",
                      "--seed", "-1", "--out", str(out))
        assert res.returncode == 2
        assert "seed must be nonnegative" in res.stderr
        assert not out.exists()

    def test_missing_out_is_usage_error(self):
        res = run_cli("tabulate", "--k-max", "2")
        assert res.returncode == 1

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        out = tmp_path / "m.txt"
        out.write_bytes(b"old table\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        code = cli.main(["tabulate", "--threads", "1", "--k-max", "3", "--placements", "5",
                         "--samples", "100", "--out", str(out)])
        assert code == 2
        assert out.read_bytes() == b"old table\n"
        assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]

    def test_out_file_mode_follows_umask(self, tmp_path):
        out = tmp_path / "ones.txt"
        old = os.umask(0o022)
        try:
            code = cli.main(["tabulate", "--threads", "1", "--k-max", "1", "--s-max", "1", "--placements", "1",
                             "--samples", "1", "--out", str(out)])
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o077, 0o600), (0o027, 0o640)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        out = tmp_path / "out.txt"
        old = os.umask(umask)
        try:
            cli._write_atomic(str(out), "text\n")
        finally:
            os.umask(old)
        assert out.read_text(encoding="ascii") == "text\n"
        assert stat.S_IMODE(out.stat().st_mode) == mode

    def test_never_sets_the_umask(self, tmp_path, monkeypatch):
        set_umask = os.umask
        old = set_umask(0o022)

        def refuse(mask):
            raise AssertionError("the process umask must not change")

        monkeypatch.setattr(os, "umask", refuse)
        try:
            cli._write_atomic(str(tmp_path / "out.txt"), "text\n")
        finally:
            set_umask(old)
        assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == 0o644

    def test_skips_a_stale_temporary_file(self, tmp_path):
        stale = tmp_path / f".mbaloha-{os.getpid()}-0"
        stale.write_bytes(b"left by a killed run\n")
        cli._write_atomic(str(tmp_path / "out.txt"), "text\n")
        assert (tmp_path / "out.txt").read_text(encoding="ascii") == "text\n"
        assert stale.read_bytes() == b"left by a killed run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "out.txt"]


# Runs a tiny ``gbullet --threads 2 --out argv[2]`` through ``cli.main`` in
# this interpreter, with ``experiments._simulate_runs`` as argv[1] says: "ok"
# leaves it alone; with "raise" every forked child raises, and with "die" it
# exits with status 3 before it sends its rows; with "stop" the calling
# process's share raises while the children sleep for a minute.  Prints the
# exit code, whether a child process is left unreaped, and which of the pool
# modules are loaded.
FORKED_GBULLET = """
import os, sys, time
from mbaloha import cli, experiments

parent = os.getpid()
simulate_runs = experiments._simulate_runs

def misbehave(slots):
    mode = sys.argv[1]
    if os.getpid() == parent:
        if mode == "stop":
            raise ValueError("the calling process's share failed")
    elif mode == "raise":
        raise ValueError(f"a share of {len(slots)} slots failed in a worker")
    elif mode == "die":
        os._exit(3)
    elif mode == "stop":
        time.sleep(60)
    return simulate_runs(slots)

experiments._simulate_runs = misbehave
code = cli.main(["gbullet", "--m", "10", "--p", "0.5", "--grid", "0:0.2:0.1", "--runs", "3",
                 "--lambdas", "0.5,0.8", "--threads", "2", "--out", sys.argv[2]])
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(code, left, sorted({"concurrent.futures", "multiprocessing"} & set(sys.modules)))
"""


class TestImports:
    def test_cli_import_leaves_the_process_pool_unloaded(self):
        # Worker processes are forked by hand, so the import loads no process
        # pool; TestWorkerProcesses checks that a run on two processes loads
        # none either.
        code = "import sys, mbaloha.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


class TestWorkerProcesses:
    @pytest.mark.parametrize(
        "mode, code, message",
        [
            ("ok", 0, ""),
            ("raise", 2, "mbaloha gbullet: error: a share of 6 slots failed in a worker\n"),
            ("die", 2, "exit status 3\n"),
            ("stop", 2, "mbaloha gbullet: error: the calling process's share failed\n"),
        ],
        ids=["ok", "raise", "die", "stop"],
    )
    def test_forked_gbullet_leaves_no_child_and_no_pool(self, tmp_path, mode, code, message):
        out = tmp_path / "g.csv"
        res = subprocess.run(
            [sys.executable, "-c", FORKED_GBULLET, mode, str(out)], capture_output=True, text=True, timeout=30
        )
        assert res.stdout == f"{code} False []\n", res.stderr
        assert res.stderr.endswith(message) and "Traceback" not in res.stderr
        assert out.exists() == (code == 0)


class TestSweepCommand:
    BASE = ["sweep", "--m", "10", "--p", "0.5", "--lambda", "0.7", "--runs", "4", "--k-max", "4"]

    def test_smoke_single_row(self):
        res = run_cli(*self.BASE, "--grid", "0.2", "--no-analytic")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0].startswith("# mbaloha=")
        assert lines[1].startswith("G_realized,n,")
        assert len(lines) == 3
        assert "sweep comparison report" in res.stderr

    def test_missing_table_without_flag_errors(self, tmp_path):
        out = tmp_path / "never.csv"
        res = run_cli(*self.BASE, "--grid", "0.2", "--out", str(out))
        assert res.returncode == 2
        assert "moment table" in res.stderr
        assert not out.exists()

    def test_seed_rerun_identical_bytes(self, tmp_path, table_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = self.BASE + ["--grid", "0:0.4:0.2", "--seed", "7", "--moment-table", table_path]
        r1 = run_cli(*args, "--out", str(out1))
        r2 = run_cli(*args, "--out", str(out2))
        assert r1.returncode == 0, r1.stderr
        assert "report" in r1.stdout
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_analytic_with_moment_table_is_usage_error(self, tmp_path, table_path):
        out = tmp_path / "never.csv"
        res = run_cli(*self.BASE, "--grid", "0.2", "--no-analytic", "--moment-table", table_path, "--out", str(out))
        assert res.returncode == 1
        assert "not allowed with" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "k_max, message",
        [("0", "k_max must be positive"), ("7", "k_max=7 exceeds the table's k_max=6")],
        ids=["not_positive", "beyond_table"],
    )
    def test_bad_k_max_exits_2_no_file(self, tmp_path, table_path, k_max, message):
        out = tmp_path / "never.csv"
        res = run_cli(*self.BASE, "--grid", "0.2", "--moment-table", table_path, "--k-max", k_max, "--out", str(out))
        assert res.returncode == 2
        assert message in res.stderr
        assert not out.exists()

    def test_bad_grid_is_runtime_error(self):
        res = run_cli(*self.BASE, "--grid", "0:1", "--no-analytic")
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--grid", "0.1,nan"], "loads must be finite and nonnegative"),
            (["--grid", "0.2", "--lambda", "nan"], "lambda_target must be positive"),
            (["--grid", "0:inf:0.1"], "grid start, stop and step must be finite"),
            (["--grid", "0:nan:0.1"], "grid start, stop and step must be finite"),
            (["--grid", "0:1:1e-320"], "grid range spans too many steps"),
            (["--grid", "0.1,1e300"], "user count g*m/p must be below 2**63"),
            (["--grid", "1e308"], "user count g*m/p must be below 2**63"),
        ],
        ids=["nan_load", "nan_lambda", "inf_grid_stop", "nan_grid_stop", "inf_grid_steps", "huge_load", "inf_users"],
    )
    def test_nan_rejected_before_simulation(self, tmp_path, flags, message):
        out = tmp_path / "never.csv"
        res = run_cli(*self.BASE, *flags, "--no-analytic", "--out", str(out))
        assert res.returncode == 2
        assert message in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("threads, runs", [("1", "1"), ("2", "2"), ("1", "2")], ids=["one_slot", "pool", "block"])
    def test_load_beyond_memory_exits_2_whatever_the_jobs(self, tmp_path, threads, runs):
        # 4e17 users per slot at the default m and p: rejected before any pool starts.
        out = tmp_path / "never.csv"
        res = run_cli("sweep", "--no-analytic", "--grid", "1e15", "--threads", threads, "--runs", runs, "--out", str(out))
        assert res.returncode == 2
        assert "must fit in 2**40 bytes" in res.stderr and "Traceback" not in res.stderr
        assert not out.exists()

    def test_negative_seed_exits_2_no_file(self, tmp_path):
        out = tmp_path / "never.csv"
        res = run_cli(*self.BASE, "--grid", "0.2", "--no-analytic", "--seed", "-1", "--out", str(out))
        assert res.returncode == 2
        assert "seed must be nonnegative" in res.stderr
        assert not out.exists()


class TestGbulletCommand:
    BASE = ["gbullet", "--m", "10", "--p", "0.5", "--grid", "0:0.2:0.1", "--runs", "3"]

    def test_rows_per_lambda_eps_pair(self):
        res = run_cli(*self.BASE, "--lambdas", "0.5,0.8", "--eps", "0.3,0.5")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[1] == "lambda,eps,gbullet_noncoop,gbullet_coop"
        assert len(lines) == 2 + 4

    def test_zero_below_coverage(self):
        res = run_cli(*self.BASE, "--lambdas", "0.5", "--eps", "0.05")
        row = res.stdout.splitlines()[2].split(",")
        assert float(row[2]) == 0.0
        assert float(row[3]) == 0.0

    @pytest.mark.parametrize("lambdas", ["0.5,-1", "0.5,nan"])
    def test_invalid_lambda_rejected_before_simulation(self, lambdas):
        res = run_cli(*self.BASE, "--lambdas", lambdas, "--eps", "0.4")
        assert res.returncode == 2
        assert "lambda_target must be positive" in res.stderr

    def test_huge_load_rejected_before_simulation(self, tmp_path):
        out = tmp_path / "never.csv"
        res = run_cli(
            "gbullet", "--m", "10", "--p", "0.5", "--grid", "0.1,1e300", "--runs", "3", "--lambdas", "0.5",
            "--out", str(out),
        )
        assert res.returncode == 2
        assert "user count g*m/p must be below 2**63" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("threads, runs", [("1", "1"), ("2", "2"), ("1", "2")], ids=["one_slot", "pool", "block"])
    def test_load_beyond_memory_exits_2_whatever_the_jobs(self, tmp_path, threads, runs):
        out = tmp_path / "never.csv"
        res = run_cli(
            "gbullet", "--grid", "0.1,1e15", "--lambdas", "3", "--threads", threads, "--runs", runs, "--out", str(out)
        )
        assert res.returncode == 2
        assert "must fit in 2**40 bytes" in res.stderr and "Traceback" not in res.stderr
        assert not out.exists()

    def test_grid_without_users_gives_zero_cells(self, tmp_path):
        out = tmp_path / "g.csv"
        res = run_cli("gbullet", "--m", "10", "--grid", "0", "--runs", "3", "--lambdas", "0.5,0.8", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert len(rows) == 2 * 3
        assert all(float(row[2]) == float(row[3]) == 0.0 for row in rows)

    def test_subset_rerun_matches(self):
        full = run_cli(*self.BASE, "--lambdas", "0.5,0.8", "--eps", "0.4", "--seed", "3")
        sub = run_cli(*self.BASE, "--lambdas", "0.8", "--eps", "0.4", "--seed", "3")
        assert full.returncode == sub.returncode == 0
        full_rows = [ln for ln in full.stdout.splitlines()[2:]]
        sub_rows = [ln for ln in sub.stdout.splitlines()[2:]]
        assert sub_rows[0] in full_rows


class TestOracleCommand:
    def test_colocated_single_user(self, tmp_path):
        params = SystemParams(n=1, m=1, r=0.1, p=0.3)
        inst = NetworkInstance(
            params,
            np.array([[0.05, 0.05]]),
            np.array([[0.05, 0.05]]),
            np.zeros(1, dtype=bool),
        )
        path = tmp_path / "inst.txt"
        path.write_text(dump_instance(inst))
        res = run_cli("oracle", "--instance", str(path), "--masks", "20000")
        assert res.returncode == 0, res.stderr
        data_line = res.stdout.splitlines()[1 + 1]
        cells = data_line.split(",")
        assert float(cells[1]) == pytest.approx(0.3, abs=1e-12)
        assert float(cells[4]) == pytest.approx(0.3, abs=1e-12)
        assert cells[-1] == "pass"

    def test_two_users_shared_station(self, tmp_path):
        params = SystemParams(n=2, m=1, r=0.1, p=0.4)
        inst = NetworkInstance(
            params,
            np.array([[0.02, 0.0], [-0.02, 0.0]]),
            np.array([[0.0, 0.0]]),
            np.zeros(2, dtype=bool),
        )
        path = tmp_path / "inst.txt"
        path.write_text(dump_instance(inst))
        res = run_cli("oracle", "--instance", str(path), "--masks", "30000")
        assert res.returncode == 0, res.stderr
        for line in res.stdout.splitlines()[2:4]:
            cells = line.split(",")
            assert float(cells[1]) == pytest.approx(0.4 * 0.6, abs=1e-12)
            assert cells[-1] == "pass"
        assert "cooperative >= non-cooperative per user: pass" in res.stdout

    @pytest.mark.parametrize("x", [0.75, float("nan")])
    def test_position_outside_square_exits_2_no_file(self, tmp_path, x):
        params = SystemParams(n=2, m=1, r=0.1, p=0.4)
        inst = NetworkInstance(
            params,
            np.array([[0.0, 0.0], [x, 0.0]]),
            np.array([[0.0, 0.0]]),
            np.zeros(2, dtype=bool),
        )
        path = tmp_path / "inst.txt"
        path.write_text(dump_instance(inst))
        out = tmp_path / "never.csv"
        res = run_cli("oracle", "--instance", str(path), "--masks", "100", "--out", str(out))
        assert res.returncode == 2
        assert "unit square" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "user_row, message",
        [
            ("0.1 0.1", "each user row must be 'x y flag'"),
            ("0.1 0.1 1 0", "each user row must be 'x y flag'"),
            ("0.1 0.1 2", "each user row must be 'x y flag'"),
        ],
        ids=["missing_flag", "fourth_field", "flag_2"],
    )
    def test_malformed_user_row_exits_2_no_file(self, tmp_path, user_row, message):
        path = tmp_path / "inst.txt"
        path.write_text(f"n 2\nm 1\nr 0.2\np 0.5\n0.1 0.1 1\n{user_row}\n0.0 0.0\n")
        out = tmp_path / "never.csv"
        res = run_cli("oracle", "--instance", str(path), "--masks", "100", "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert message in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("station_row", ["0.0", "0.0 0.0 1"], ids=["one_field", "three_fields"])
    def test_malformed_station_row_exits_2_no_file(self, tmp_path, station_row):
        path = tmp_path / "inst.txt"
        path.write_text(f"n 1\nm 2\nr 0.2\np 0.5\n0.1 0.1 1\n0.0 0.0\n{station_row}\n")
        out = tmp_path / "never.csv"
        res = run_cli("oracle", "--instance", str(path), "--masks", "100", "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "each station row must be 'x y'" in res.stderr
        assert not out.exists()

    def test_oversized_instance_exits_2(self):
        res = run_cli("oracle", "--n", "25", "--masks", "10")
        assert res.returncode == 2

    def test_zero_masks_exits_2_no_file(self, tmp_path):
        out = tmp_path / "never.csv"
        res = run_cli("oracle", "--n", "4", "--masks", "0", "--out", str(out))
        assert res.returncode == 2
        assert "n_masks" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("from_file", [False, True], ids=["generated", "instance_file"])
    def test_negative_seed_exits_2_no_file(self, tmp_path, from_file):
        args = ["oracle", "--n", "4", "--m", "2", "--masks", "100"]
        if from_file:
            params = SystemParams(n=2, m=1, r=0.1, p=0.4)
            inst = NetworkInstance(params, np.zeros((2, 2)), np.zeros((1, 2)), np.zeros(2, dtype=bool))
            path = tmp_path / "inst.txt"
            path.write_text(dump_instance(inst))
            args += ["--instance", str(path)]
        out = tmp_path / "never.csv"
        res = run_cli(*args, "--seed", "-1", "--out", str(out))
        assert res.returncode == 2
        assert "seed must be nonnegative" in res.stderr
        assert not out.exists()

    CORNER = ["oracle", "--n", "4", "--m", "2", "--r", "0.25", "--p", "0.5", "--masks", "2", "--seed", "1"]

    def test_z_against_exact_standard_error(self):
        # Two masks make every estimate 0, 1/2 or 1.  User 3 has exact 1/2 and
        # estimate 1: z = (1 - 1/2) / sqrt(1/4 / 2) = 1.41, though the
        # estimate's own standard error is 0.
        res = run_cli(*self.CORNER)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[5] == "3,0.5,1,1.41,0.5,1,1.41,pass"
        assert lines[6].startswith("# max |z| = 1.41 over 4 users")

    def test_estimate_off_an_exact_zero_fails(self, monkeypatch, capsys):
        # Users 0 to 2 of this placement are never collected: exact 0.
        real = cli.mask_monte_carlo

        def off(graph, p, n_masks, seed):
            mc = real(graph, p, n_masks, seed)
            mc.prob_noncoop[0] = 0.5
            return mc

        monkeypatch.setattr(cli, "mask_monte_carlo", off)
        assert cli.main(self.CORNER) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "0,0,0.5,inf,0,0,0,FAIL"
        assert lines[3] == "1,0,0,0,0,0,0,pass"
        assert lines[6].startswith("# max |z| = inf over 4 users")

    def test_random_instance_smoke_with_bracket(self, table_path):
        res = run_cli(
            "oracle", "--n", "5", "--m", "3", "--r", "0.2", "--p", "0.4",
            "--masks", "5000", "--moment-table", table_path,
        )
        assert res.returncode == 0, res.stderr
        assert "finite bracket" in res.stdout


class TestOutputDigests:
    """Fixed-seed outputs pinned by digest, so that a change to an RNG stream,
    to the decoders or to the counting shows up as a failure.  The manifest
    line is part of the file, so a version bump changes the digests too.
    Each output is pinned in one process and on a pool of two workers, and
    again at seed 2^32, a two-word seed: its sweep slots hash four words
    each and its placements three.  At seed 2^64 the entropies are seeded by
    numpy's own ``SeedSequence``, item by item.  A 50-disk tabulate line
    spans two sample blocks per placement.  On the shipped table, a sweep
    pins the analytic columns and an oracle run its finite-bracket line.  Two
    ``gbullet`` lines pin the max-load edge cases: a lambda whose coverage
    1 - e^-lambda is below 1 - eps for one eps, and a grid with only one
    point that has users.  Two oracle runs pin the decoding of the heard
    users' activation patterns: 2 of 16 users are heard in one, all 10 in
    the other."""

    CASES = [
        pytest.param(
            ["sweep", "--m", "20", "--p", "0.25", "--lambda", "2", "--grid", "0:1:0.25", "--runs", "150",
             "--seed", "11", "--no-analytic"],
            "c4ac4949a118c54ea854529894d62a12f2448f6b33a426acf04c5bff21318296",
            id="sweep",
        ),
        pytest.param(
            ["gbullet", "--m", "30", "--p", "0.25", "--lambdas", "3,5", "--eps", "0.15,0.3",
             "--grid", "0:0.8:0.02", "--runs", "20", "--seed", "5"],
            "d783b94b85c4423ddc3685ac897b63cd7de0ec2757f281a6c669ea9a1b0e390b",
            id="gbullet",
        ),
        pytest.param(
            ["tabulate", "--k-max", "6", "--s-max", "4", "--placements", "40", "--samples", "3000",
             "--seed", "3"],
            "27dcf7f85684f06dbc90998817f7d9f1272b43611459b6579c44e82dc70bc2f1",
            id="tabulate",
        ),
        pytest.param(
            ["sweep", "--m", "20", "--p", "0.25", "--lambda", "2", "--grid", "0:1:0.25", "--runs", "150",
             "--seed", "4294967296", "--no-analytic"],
            "6c3b443a6f1d511fffacfddd88b3a6350d06cd723be50c164b7ad55523145f67",
            id="sweep_seed_2_32",
        ),
        pytest.param(
            ["sweep", "--m", "20", "--p", "0.25", "--lambda", "2", "--grid", "0:1:0.25", "--runs", "150",
             "--seed", "18446744073709551616", "--no-analytic"],
            "8a98031a428e3fec4942ea6f1b53f801022c053d1ab7ff06d32ea5a4e58aab5c",
            id="sweep_seed_2_64",
        ),
        pytest.param(
            ["gbullet", "--m", "30", "--p", "0.25", "--lambdas", "3,5", "--eps", "0.15,0.3",
             "--grid", "0:0.8:0.02", "--runs", "20", "--seed", "4294967296"],
            "a5a204aa2beb94486c3fd662d4eea3330239d760a699c3bf56d7798d1f0dffa3",
            id="gbullet_seed_2_32",
        ),
        pytest.param(
            ["gbullet", "--m", "30", "--p", "0.25", "--lambdas", "1.5,4", "--eps", "0.15,0.3",
             "--grid", "0:0.8:0.02", "--runs", "20", "--seed", "5"],
            "aaefb710ffcf464f0876d274c1c0f759ac7221197d9c99cf9df9b41f5a029e64",
            id="gbullet_coverage_cutoff",
        ),
        pytest.param(
            ["gbullet", "--m", "30", "--p", "0.25", "--lambdas", "3,5", "--eps", "0.15,0.3",
             "--grid", "0,0.3", "--runs", "20", "--seed", "5"],
            "65afcbb8cce3c079f836bbe7454c111a62fbcc9cd351cafa17cc4861b0c36e98",
            id="gbullet_one_point_with_users",
        ),
        pytest.param(
            ["tabulate", "--k-max", "6", "--s-max", "4", "--placements", "40", "--samples", "3000",
             "--seed", "4294967296"],
            "404011a811914c58af9e0beae0c8698eefd4490dca250d3cdb336568ec59ee3f",
            id="tabulate_seed_2_32",
        ),
        pytest.param(
            ["tabulate", "--k-max", "6", "--s-max", "4", "--placements", "40", "--samples", "3000",
             "--seed", "18446744073709551616"],
            "a4474d42bfcf936c10c738c824acbe47642a496112ecc7088aec5d9d0117d176",
            id="tabulate_seed_2_64",
        ),
        pytest.param(
            ["tabulate", "--k-max", "50", "--s-max", "3", "--placements", "3", "--samples", "70000",
             "--seed", "9"],
            "77468d000db94016e1123841f6d4b414ec622e9c50d83b531a4328e4c72867f1",
            id="tabulate_k50_two_blocks",
        ),
        pytest.param(
            ["sweep", "--m", "20", "--p", "0.25", "--lambda", "2", "--grid", "0:1:0.25", "--runs", "150",
             "--seed", "11", "--moment-table", str(DEFAULT_TABLE), "--k-max", "34"],
            "caf4c14e3e7592fa36f524f258621d060182c8a6c9867250a22bdfd5dd060840",
            id="sweep_analytic",
        ),
        pytest.param(
            ["oracle", "--n", "8", "--m", "3", "--moment-table", str(DEFAULT_TABLE)],
            "0a093cd7915b816f9c4500562a30573fa8606dc99d0b3a3e21477e85f094c3ec",
            id="oracle_bracket",
        ),
        pytest.param(
            ["oracle", "--n", "16", "--m", "2", "--r", "0.1", "--masks", "20000", "--seed", "3"],
            "79c7a03817a160afb1f735b51799a0f40a0b0cc1522fcc239a4f704462f46add",
            id="oracle_two_of_16_heard",
        ),
        pytest.param(
            ["oracle", "--n", "10", "--m", "20", "--r", "0.25", "--masks", "20000", "--seed", "3"],
            "1209b48d1b2715679c60573b39a0aff5aeb119ca2f882eecb3e743476ae25cd1",
            id="oracle_all_10_heard",
        ),
    ]

    def _digest(self, tmp_path, args, threads):
        out = tmp_path / "out.csv"
        res = run_cli(*args, "--threads", threads, "--out", str(out))
        assert res.returncode == 0, res.stderr
        return hashlib.sha256(out.read_bytes()).hexdigest()

    @pytest.mark.parametrize("args, digest", CASES)
    def test_fixed_seed_output_digest(self, tmp_path, args, digest):
        assert self._digest(tmp_path, args, "1") == digest

    @pytest.mark.parametrize("args, digest", CASES)
    def test_fixed_seed_output_digest_on_two_workers(self, tmp_path, args, digest):
        assert self._digest(tmp_path, args, "2") == digest


class TestWorkerCount:
    @staticmethod
    def _args(threads):
        return cli.build_parser().parse_args(["sweep", "--threads", str(threads)])

    def test_zero_counts_the_cores_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._workers(self._args(0)) == 3
        assert cli._workers(self._args(2)) == 2

    def test_zero_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert cli._workers(self._args(0)) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._workers(self._args(0)) == 1


class TestUsageErrors:
    def test_negative_threads(self):
        res = run_cli("sweep", "--threads", "-3", "--grid", "0.2", "--no-analytic")
        assert res.returncode == 1
        assert "--threads" in res.stderr


    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 1

    def test_unknown_flag(self):
        assert run_cli("sweep", "--bogus").returncode == 1

    def test_version(self):
        res = run_cli("--version")
        assert res.returncode == 0
        assert "mbaloha" in res.stdout


class TestParserReuse:
    """``main`` builds its parser once per process, so calls in one process share it."""

    def test_usage_error_after_a_successful_call_exits_1(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        assert cli.main(["oracle", "--n", "4", "--m", "2", "--masks", "2", "--threads", "1", "--out", str(out)]) == 0
        for argv in (["sweep", "--bogus"], ["tabulate", "--k-max", "2"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 1
        assert "requires --out" in capsys.readouterr().err

    def test_values_do_not_leak_into_the_next_call(self):
        parser = cli.build_parser()
        assert parser.parse_args(["sweep", "--threads", "2"]).threads == 2
        assert cli.build_parser() is parser
        assert parser.parse_args(["sweep"]).threads == 0
