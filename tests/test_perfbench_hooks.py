"""The benchmark's span tracer must still find every function it wraps.

``perfbench/tracer.py`` replaces package functions by name from outside the
package and counts work from their results.  This runs one tiny sweep, one
tiny oracle and one tiny tabulation through the command line with the tracer
installed, so a refactor that renames a hooked function, changes a result it
reads or stops calling it through the hooked name fails here rather than in a
benchmark run.  One traced pass of every command kind must also give every
per-layer metric a value: a hooked function that is never called leaves a
0/0 mean, which prints as ``NaN``, and that is not JSON.
"""

import functools
import importlib.util
import json
import math
from collections import Counter

import numpy as np

from conftest import DEFAULT_TABLE, REPO_ROOT
from mbaloha import cli, experiments
from mbaloha.scenario import SystemParams, dump_instance, generate_instance


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sweep_and_oracle_record_counters(tmp_path):
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        sweep = [
            "sweep", "--threads", "1", "--m", "20", "--p", "0.25", "--lambda", "2",
            "--grid", "0.2,0.4", "--runs", "3", "--no-analytic", "--out", str(tmp_path / "sweep.csv"),
        ]
        oracle = ["oracle", "--n", "6", "--m", "3", "--masks", "500", "--out", str(tmp_path / "oracle.csv")]
        assert cli.main(sweep) == 0
        assert cli.main(oracle) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["scenario.build_adjacency.edges"] > 0
    assert tracer.counts["decoders.decode_cooperative.rounds"] > 0
    assert tracer.counts["decoders.mask_monte_carlo.masks"] == 500
    assert len(tracer.starts) > 0


def test_traced_tabulate_counts_area_point_tests(tmp_path):
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tabulate = [
            "tabulate", "--threads", "1", "--k-max", "3", "--s-max", "2", "--placements", "4",
            "--samples", "100", "--out", str(tmp_path / "moments.txt"),
        ]
        assert cli.main(tabulate) == 0
    finally:
        tracer.uninstall()
    # One area call per placement, each testing 100 points against 3 disks.
    assert tracer.counts["geometry.disk_union_area.point_tests"] == 4 * 100 * 3


def test_traced_pass_of_every_command_has_no_empty_span(tmp_path, monkeypatch):
    perfbench_tracer = _load_tracer()
    tracer = perfbench_tracer.Tracer()
    # The benchmark's host runs pool jobs in this process, as here.
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", functools.partial(perfbench_tracer.InlineExecutor, tracer))
    params = SystemParams(n=6, m=3, r=0.2, p=0.25)
    instance = tmp_path / "instance.txt"
    instance.write_text(dump_instance(generate_instance(params, np.random.default_rng(5))), encoding="ascii")
    table = str(DEFAULT_TABLE)
    commands = [
        ["sweep", "--threads", "1", "--m", "20", "--lambda", "2", "--grid", "0.2,0.4", "--runs", "3",
         "--moment-table", table, "--k-max", "34", "--out", str(tmp_path / "sweep.csv")],
        ["gbullet", "--threads", "2", "--m", "20", "--lambdas", "2,3", "--eps", "0.1", "--grid", "0:0.4:0.2",
         "--runs", "3", "--out", str(tmp_path / "gbullet.csv")],
        ["oracle", "--instance", str(instance), "--masks", "500", "--moment-table", table,
         "--out", str(tmp_path / "oracle.csv")],
        ["tabulate", "--threads", "1", "--k-max", "3", "--placements", "4", "--samples", "100",
         "--out", str(tmp_path / "moments.txt")],
    ]
    tracer.install()
    try:
        for argv in commands:
            assert cli.main(argv) == 0, argv[0]
    finally:
        tracer.uninstall()
    assert tracer.counts["experiments.pool_starts"] == 1
    spans = str(tmp_path / "spans.npz")
    tracer.write(spans, 1)
    metrics = perfbench_tracer.layer_table(spans, 0.0, [(0.0, 1.0)])
    json.dumps(metrics, allow_nan=False)


def test_traced_sweep_records_one_draw_and_one_graph_per_block(tmp_path):
    tracer = _load_tracer().Tracer()
    grid, runs = (0.2, 0.4, 0.6), 100
    blocks = math.ceil(len(grid) * runs / experiments.RUN_BLOCK)
    assert blocks > 1
    sweep = [
        "sweep", "--threads", "1", "--m", "20", "--p", "0.25", "--lambda", "2",
        "--grid", ",".join(map(str, grid)), "--runs", str(runs), "--no-analytic", "--out", str(tmp_path / "sweep.csv"),
    ]
    tracer.install()
    try:
        assert cli.main(sweep) == 0
    finally:
        tracer.uninstall()
    spans = Counter(tracer.names)
    assert spans[tracer.ids["scenario.generate_instance"]] == blocks
    assert spans[tracer.ids["scenario.build_adjacency"]] == blocks
