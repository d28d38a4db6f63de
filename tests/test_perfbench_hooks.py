"""The benchmark's span tracer must still find every function it wraps.

``perfbench/tracer.py`` replaces package functions by name from outside the
package and counts work from their results.  This runs one tiny sweep, one
tiny oracle and one tiny tabulation through the command line with the tracer
installed, so a refactor that renames a hooked function, changes a result it
reads or stops calling it through the hooked name fails here rather than in a
benchmark run.
"""

import importlib.util

from conftest import REPO_ROOT
from mbaloha import cli


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
