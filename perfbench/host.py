"""Runs planned program invocations in one process and reports how they went.

Usage: python3 host.py PLAN.json RESULT.json

The benchmark starts this script with the package's ``src`` directory on
PYTHONPATH, so the process holds the program and nothing of the benchmark's
checks: its peak resident set is the program's.  The plan lists phases, each
one round of a workload (a list of command lines for ``mbaloha.cli.main``).
All phases are repeated, in order, until the plan's seconds have elapsed;
each invocation is timed on its own, between two runs of the machine-speed
probe of ``calibrate.py``.  With ``trace`` set, phases marked ``traced`` run with
the tracer installed and the others without it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import sys
import time
import traceback

from calibrate import parallel_probe_seconds


def _invoke(cli, op: dict) -> dict:
    before = parallel_probe_seconds(op["processes"])
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the host must report the failure and go on
            traceback.print_exc()
            code = "exception"
    seconds = time.perf_counter() - start
    probe = (before + parallel_probe_seconds(op["processes"])) / 2.0
    outputs = {}
    for path in op["outputs"]:
        if os.path.exists(path):
            with open(path, "r", encoding="ascii") as fh:
                outputs[path] = fh.read()
            os.unlink(path)
    return {"code": code, "start": start, "seconds": seconds, "probe_s": probe, "stdout": out.getvalue(), "stderr": err.getvalue(), "outputs": outputs}


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    from mbaloha import cli, experiments

    tracer = None
    if plan["trace"]:
        from tracer import InlineExecutor, Tracer

        tracer = Tracer()
        experiments.ProcessPoolExecutor = functools.partial(InlineExecutor, tracer)

    rounds = []
    passes = 0
    begin = time.perf_counter()
    while True:
        for phase in plan["phases"]:
            if tracer is not None and phase["traced"]:
                tracer.install()
            try:
                ops = [_invoke(cli, op) for op in phase["ops"]]
            finally:
                if tracer is not None and tracer.active:
                    tracer.uninstall()
            rounds.append({"workload": phase["workload"], "traced": phase["traced"], "ops": ops})
        passes += 1
        if time.perf_counter() - begin >= plan["seconds"]:
            break

    if tracer is not None:
        tracer.write(plan["spans_path"], passes)
    result = {
        "passes": passes,
        "rounds": rounds,
        "maxrss_kb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
