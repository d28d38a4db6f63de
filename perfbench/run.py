"""Benchmark of the mbaloha command line: four workloads, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 20259 --seconds 20 --trace 0

With ``--trace 0`` the run measures the named workload untraced and prints
the end-to-end metrics; with ``--trace 1`` it profiles every workload with
the span tracer and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record with machine information, per-round timings and
every check's findings is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from calibrate import normalized  # noqa: E402
from tracer import layer_table  # noqa: E402
from workloads import KNOWN_FAULT_MESSAGE, TABLE, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
HOST_TIMEOUT_S = 170

# Timed in a fresh interpreter, between two runs of the machine-speed probe:
# importing the command line, then loading and checksumming the moment table
# when the workload passes one.
SETUP_CODE = """
import hashlib, sys, time
sys.path.insert(0, sys.argv[1])
from calibrate import probe_seconds
before = probe_seconds()
start = time.perf_counter()
import mbaloha.cli
if len(sys.argv) > 2:
    mbaloha.cli.MomentTable.load(sys.argv[2])
    with open(sys.argv[2], "rb") as fh:
        hashlib.sha256(fh.read()).hexdigest()
seconds = time.perf_counter() - start
print(seconds, (before + probe_seconds()) / 2.0)
"""


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def measure_setup(table: str | None) -> list[list[float]]:
    """[seconds, probe seconds] of each set-up sample."""
    argv = [sys.executable, "-c", SETUP_CODE, str(HERE)] + ([table] if table else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(argv, env=program_env(), capture_output=True, text=True, timeout=60, check=True)
        samples.append([float(v) for v in done.stdout.split()])
    return samples


def run_host(plan: dict, workdir: Path) -> dict:
    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "host.py"), str(plan_path), str(result_path)],
        cwd=workdir,
        env=program_env(),
    )
    try:
        code = proc.wait(timeout=HOST_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"program host exited with {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def machine_info() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    git = {"sha": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env, capture_output=True, text=True, timeout=30)
        if sha.returncode == 0:
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain"], env=env, capture_output=True, text=True, timeout=30
            )
            git = {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": git,
    }


class Score:
    """Operations attempted and failed, check problems and timings of one run."""

    def __init__(self, names: list[str]) -> None:
        self.tally = {name: {"attempted": 0, "failed": 0} for name in names}
        self.failures: list[dict] = []
        self.problems: list[str] = []
        self.round_seconds: dict[str, list[float]] = {name: [] for name in names}
        self.raw_round_seconds: dict[str, list[float]] = {name: [] for name in names}
        self.traced_s = self.untraced_s = 0.0
        self.rates: dict[str, list[float]] = {name: [] for name in names}

    def add_round(self, index: int, rnd: dict, ops: list) -> None:
        name = rnd["workload"]
        seconds = [normalized(res["seconds"], res["probe_s"]) for res in rnd["ops"]]
        self.round_seconds[name].append(sum(seconds))
        self.raw_round_seconds[name].append(sum(res["seconds"] for res in rnd["ops"]))
        if rnd["traced"]:
            self.traced_s += sum(seconds)
        else:
            self.untraced_s += sum(seconds)
        items = item_seconds = 0.0
        for op, res, op_seconds in zip(ops, rnd["ops"], seconds):
            self.tally[name]["attempted"] += 1
            if res["code"] != 0:
                self.tally[name]["failed"] += 1
                known = op.known_fault is not None and res["code"] == 2 and KNOWN_FAULT_MESSAGE in res["stderr"]
                self.failures.append(
                    {
                        "workload": name,
                        "op": op.label,
                        "round": index,
                        "code": res["code"],
                        "stderr": res["stderr"].strip().splitlines()[-1:],
                        "fault": op.known_fault if known else "unexpected failure",
                    }
                )
                continue
            self.problems += [f"{name} round {index}: {p}" for p in op.check(res, index)]
            items += op.items
            item_seconds += op_seconds
        if item_seconds:
            self.rates[name].append(items / item_seconds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=20259)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so that run_host stops the host process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    table = ROOT / TABLE
    if not (ROOT / "src" / "mbaloha" / "cli.py").is_file() or not table.is_file():
        print(f"perfbench: no mbaloha sources or {TABLE} under {ROOT}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    # A traced run profiles every workload, named one first, so that each
    # layer has spans; an untraced run measures the named workload alone.
    names = sorted(WORKLOADS, key=lambda name: name != workload.name) if args.trace else [workload.name]
    ops = {name: WORKLOADS[name].make(args.seed, str(table), str(workdir)) for name in names}
    phases = [
        {
            "workload": name,
            "traced": traced,
            "ops": [{"argv": op.argv, "outputs": op.outputs, "processes": op.processes} for op in ops[name]],
        }
        for name in names
        for traced in ((False, True) if args.trace else (False,))
    ]

    setup = [] if args.trace else measure_setup(str(table) if workload.uses_table else None)
    host = run_host(
        {"seconds": args.seconds, "trace": bool(args.trace), "spans_path": str(workdir / "spans.npz"), "phases": phases},
        workdir,
    )
    score = Score(names)
    for index, rnd in enumerate(host["rounds"]):
        score.add_round(index, rnd, ops[rnd["workload"]])

    if args.trace:
        overhead = 100.0 * (score.traced_s - score.untraced_s) / score.untraced_s
        invocations = [
            (res["start"], normalized(1.0, res["probe_s"])) for rnd in host["rounds"] if rnd["traced"] for res in rnd["ops"]
        ]
        metrics = layer_table(str(workdir / "spans.npz"), overhead, invocations)
        (workdir / "spans.npz").unlink()
        named = {}
    else:
        throughput = statistics.median(score.rates[workload.name])
        metrics = {
            "setup_s": {"value": statistics.median(normalized(t, probe) for t, probe in setup), "unit": "s"},
            "wall_s": {"value": statistics.median(score.round_seconds[workload.name]), "unit": "s"},
            "items_per_s": {"value": throughput, "unit": "items/s"},
            "peak_rss_mb": {"value": host["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
        named = {workload.item_metric: {"value": throughput, "unit": workload.item_unit}}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine_info(),
        "metrics": dict(metrics, **named),
        "operations": score.tally,
        "failures": score.failures,
        "problems": score.problems,
        "setup_samples_s_and_probe_s": setup,
        "round_seconds": score.round_seconds,
        "raw_round_seconds": score.raw_round_seconds,
        "passes": host["passes"],
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    for problem in score.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    summary = {
        "correct": not score.problems,
        "attempted": score.tally[workload.name]["attempted"],
        "failed": score.tally[workload.name]["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
