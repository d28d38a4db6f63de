import hashlib
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
        ],
        ids=["nan_load", "nan_lambda", "inf_grid_stop", "nan_grid_stop"],
    )
    def test_nan_rejected_before_simulation(self, flags, message):
        res = run_cli(*self.BASE, *flags, "--no-analytic")
        assert res.returncode == 2
        assert message in res.stderr

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
    each and its placements three.  A 50-disk tabulate line spans two
    sample blocks per placement.  On the shipped table, a sweep pins the
    analytic columns and an oracle run its finite-bracket line."""

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
            ["gbullet", "--m", "30", "--p", "0.25", "--lambdas", "3,5", "--eps", "0.15,0.3",
             "--grid", "0:0.8:0.02", "--runs", "20", "--seed", "4294967296"],
            "a5a204aa2beb94486c3fd662d4eea3330239d760a699c3bf56d7798d1f0dffa3",
            id="gbullet_seed_2_32",
        ),
        pytest.param(
            ["tabulate", "--k-max", "6", "--s-max", "4", "--placements", "40", "--samples", "3000",
             "--seed", "4294967296"],
            "404011a811914c58af9e0beae0c8698eefd4490dca250d3cdb336568ec59ee3f",
            id="tabulate_seed_2_32",
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
            "77dc87309d160de68d9ee7ed88e1433125ceb63c672a379861c908bec94fd0e3",
            id="oracle_bracket",
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
