"""Run one benchmark workload; print its metrics as one JSON line.

    python3 perfbench/run.py --workload point --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (untraced); ``--trace 1``
runs the workload once untraced and once with every layer boundary
wrapped, and reports the per-layer metrics.  Run it from the root of a
checkout: the program is imported from ``src/`` beside this directory,
and all scratch files (the multiproc WAL directory) live under
``.perfbench_tmp/`` there and are removed before exit.

Wall-clock times are reported in nominal seconds, scaled by how fast
the host ran a fixed reference loop meanwhile (``common.HostSpeed``).

The output ends with two lines: the run's context (host, workload
parameters, sample counts, failures by exception class, raw wall-clock
rates -- not gated), then the result ``{"correct", "attempted",
"failed", "metrics"}``.  A failed correctness check prints the result
with ``"correct": false`` and no metrics, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from typing import Dict, List, Tuple

from common import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("point", "bulk-multiproc", "sim-forger")

#: end-to-end metrics (every workload, untraced) -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "get_p50_ms": "ms",
    "put_p50_ms": "ms",
}

POINT, BULK, SIM = WORKLOADS

#: per-layer metrics (traced run) -> (unit, workloads that exercise the
#: layer).  Every traced run reports every metric; on a workload that
#: does not exercise the layer the value is 0.
PER_LAYER: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "automata.handle_us_per_call": ("us", (POINT, SIM)),
    "automata.parts_per_call": ("count", (POINT, SIM)),
    "automata.busy_share": ("share", (POINT, SIM)),
    "core.read_us_per_op": ("us", WORKLOADS),
    "core.write_us_per_op": ("us", WORKLOADS),
    "core.evidence_calls_per_read": ("count", WORKLOADS),
    "core.evidence_us_per_read": ("us", WORKLOADS),
    "codec.decode_us_per_frame": ("us", (BULK,)),
    "codec.decode_bytes_per_frame": ("bytes", (BULK,)),
    "codec.encode_us_per_frame": ("us", (BULK,)),
    "codec.encode_bytes_per_frame": ("bytes", (BULK,)),
    "codec.wire_bytes_per_op": ("bytes", (BULK,)),
    "codec.busy_share": ("share", (BULK,)),
    "hosts.msgs_per_op": ("count", (POINT, BULK)),
    "hosts.loop_lag_p99_ms": ("ms", (POINT, BULK)),
    "service.read_p50_ms": ("ms", (POINT,)),
    "service.write_p50_ms": ("ms", (POINT,)),
    "procs.ping_p50_ms": ("ms", (BULK,)),
    "wal.disk_bytes_per_key": ("bytes", (BULK,)),
    "sim.steps_per_op": ("count", (SIM,)),
    "sim.msgs_per_op": ("count", (SIM,)),
    "sim.bytes_per_op": ("bytes", (SIM,)),
    "sim.intercepts_per_op": ("count", (SIM,)),
    "sim.step_us": ("us", (SIM,)),
    "sim.get_vt_p50": ("vt", (SIM,)),
    "sim.get_vt_p99": ("vt", (SIM,)),
    "trace.unattributed_share": ("share", WORKLOADS),
    "trace.overhead_share": ("share", WORKLOADS),
}

#: a fixed pure-Python loop, timed per run so host drift is visible.
REFERENCE_LOOP_N = 1_000_000


def reference_loop_s() -> float:
    start = clock()
    total = 0
    for i in range(REFERENCE_LOOP_N):
        total += i * i % 7
    return clock() - start


def host_context() -> Dict[str, object]:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "reference_loop_s": reference_loop_s()}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import from it.

    Exits 2 when the checkout holds no program: the benchmark must never
    measure some other installed copy.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"no program to benchmark: {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported repro from {repro.__file__}, not from {SRC}")


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scratch: str):
    # Workload modules import the program, so they load after
    # import_program() has put src/ on the path.
    if name == POINT:
        import point as workload
    elif name == BULK:
        import bulk as workload
    else:
        import simforger as workload
    return workload.run(seed, seconds, traced, scratch)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    import_program()
    scratch = os.path.join(SCRATCH, f"run-{os.getpid()}")
    os.makedirs(scratch)
    # Anything that asks for a temporary file gets one inside the
    # checkout (children inherit the variable).
    os.environ["TMPDIR"] = scratch
    host = host_context()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run's scratch is still there
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host, "failures": dict(outcome.failures),
        "errors": outcome.errors, **outcome.context}, default=str))
    correct = not outcome.errors
    metrics = {}
    if correct and args.trace:
        metrics = {name: {"value": float(outcome.metrics.get(name, 0.0)),
                          "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    elif correct:
        metrics = {name: {"value": float(outcome.metrics[name]),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
