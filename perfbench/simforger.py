"""``sim-forger``: regular reads while one replica forges, on ``SimKernel``.

The paper's case with no asyncio and no sockets: the Section 5.1 cached
regular storage (t=1, b=1, S=4), one writer and two readers over 256
registers, with ``obj(3)`` replaced by the chaos ``forger`` strategy.
A closed loop keeps eight operations in flight at 90:10 reads.

Latency is virtual time (1.0 = the mean message delay), which is exact
for a seed: it and the per-operation kernel counts are taken over the
first :data:`EXACT_OPS` completions, which do not depend on the host.
The end-to-end latency metrics report it at 1 ms per unit of virtual
time, the modelled mean one-way delay.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.strategies import build_strategy
from repro.config import SystemConfig
from repro.core.regular import CachedRegularStorageProtocol
from repro.sim.delay import UniformDelay
from repro.sim.schedulers import EarliestDeliveryScheduler
from repro.spec.checkers import check_per_register
from repro.system import StorageSystem
from repro.types import WRITER, obj, reader, reset_operation_ids

from common import (T, B, REF_EVERY_S, HostSpeed, Outcome, Setups, clock,
                    percentile, rng_for)
import layertrace

REGISTERS = 256
IN_FLIGHT = 8
READ_SHARE = 0.9
READERS = 2
FORGER_INDEX = 3
#: the value the ``forger`` strategy plants (its default).
FORGED = "FORGED"
#: completions the exact (virtual-time and count) metrics are taken over.
EXACT_OPS = 2000
#: completions before the wall-clock window opens.
WARMUP_OPS = 300
SETUPS = 15
#: milliseconds per unit of virtual time in the end-to-end latencies.
MS_PER_VT = 1.0

PARAMS = {
    "protocol": "CachedRegularStorageProtocol", "t": T, "b": B,
    "objects": 2 * T + B + 1, "writers": 1, "readers": READERS,
    "registers": REGISTERS, "in_flight": IN_FLIGHT,
    "read_share": READ_SHARE, "byzantine": f"obj({FORGER_INDEX})=forger",
    "scheduler": "EarliestDeliveryScheduler",
    "delay": "UniformDelay(0.5, 1.5)", "exact_ops": EXACT_OPS,
    "ms_per_vt": MS_PER_VT, "setups": SETUPS,
}


def register_name(index: int) -> str:
    return f"reg{index:03d}"


def build(seed: int) -> Any:
    """Construct the system, corrupt ``obj(3)`` and preload every register."""
    # Operation ids double as protocol nonces: restart the stream so a
    # seed replays identically whatever ran before in this process.
    reset_operation_ids()
    config = SystemConfig.optimal(t=T, b=B, num_readers=READERS)
    system = StorageSystem(CachedRegularStorageProtocol(), config,
                           scheduler=EarliestDeliveryScheduler(),
                           delay_model=UniformDelay(0.5, 1.5, seed=seed),
                           trace_enabled=False)
    forger = build_strategy("forger", seed)
    system.kernel.make_byzantine(
        obj(FORGER_INDEX), forger(system.objects[FORGER_INDEX], config),
        note="forger")
    for index in range(REGISTERS):
        register = register_name(index)
        system.write(f"{register}|pre", register_id=register)
    return system


class Load:
    """The closed loop: keeps :data:`IN_FLIGHT` operations in the kernel."""

    def __init__(self, system: Any, seed: int):
        self.system = system
        self.kernel = system.kernel
        self.rng = rng_for(seed, "sim-forger", "load")
        self.registers = [register_name(i) for i in range(REGISTERS)]
        self.writer = WRITER
        self.readers = [reader(j) for j in range(READERS)]
        self.busy: set = set()
        self.issued = 0
        self.completed = 0
        self.reads = 0
        self.writes = 0
        self.write_seq = 0
        self.read_vt: List[float] = []
        self.write_vt: List[float] = []
        self.forged_reads = 0
        self.foreign_reads = 0
        self.start_counts = self._counts()
        self.exact_counts: Optional[Dict[str, float]] = None
        self.kernel.on_complete(self._on_complete)

    def _counts(self) -> Dict[str, float]:
        metrics = self.kernel.metrics()
        return {"steps": metrics["steps"],
                "msgs": metrics["messages_sent"],
                "bytes": metrics["bytes_sent"],
                "intercepts": sum(
                    self.kernel.byzantine_intercepts().values())}

    def issue(self) -> None:
        rng = self.rng
        while True:
            register = self.registers[rng.randrange(REGISTERS)]
            if rng.random() < READ_SHARE:
                j = rng.randrange(READERS)
                if (self.readers[j], register) in self.busy:
                    continue
                self.busy.add((self.readers[j], register))
                self.system.invoke_read(j, register_id=register)
            else:
                if (self.writer, register) in self.busy:
                    continue
                self.busy.add((self.writer, register))
                self.write_seq += 1
                self.system.invoke_write(f"{register}|w|{self.write_seq}",
                                         register_id=register)
            self.issued += 1
            return

    def refill(self) -> None:
        while self.issued - self.completed < IN_FLIGHT:
            self.issue()

    def _on_complete(self, handle: Any) -> None:
        operation = handle.operation
        self.busy.discard((operation.client_id, operation.register_id))
        self.completed += 1
        exact = self.completed <= EXACT_OPS
        if operation.kind == "READ":
            self.reads += 1
            value = operation.result
            if value == FORGED:
                self.forged_reads += 1
            elif not str(value).startswith(operation.register_id + "|"):
                self.foreign_reads += 1
            if exact:
                self.read_vt.append(handle.latency)
        else:
            self.writes += 1
            if exact:
                self.write_vt.append(handle.latency)
        if self.completed == EXACT_OPS:
            self.exact_counts = self._counts()

    def drain(self) -> None:
        self.kernel.run_until(lambda: self.completed == self.issued)


class Window:
    """One timed stretch of the loop and what it completed.

    A reference slice runs every :data:`REF_EVERY_S`, from the start of
    the warm-up, into ``speed``.
    """

    def __init__(self, load: Load, seconds: float,
                 tracer: Optional[layertrace.Tracer] = None):
        step = load.kernel.step
        self.speed = speed = HostSpeed()
        speed.sample()
        next_slice = clock() + REF_EVERY_S
        while load.completed < WARMUP_OPS:
            load.refill()
            step()
            if clock() >= next_slice:
                speed.sample()
                next_slice = clock() + REF_EVERY_S
        if tracer is not None:
            tracer.reset()
        first = (load.completed, load.reads, load.writes,
                 load.kernel.steps_taken)
        start = clock()
        end = start + seconds
        while True:
            load.refill()
            step()
            now = clock()
            if now >= next_slice:
                if now >= end and load.completed >= EXACT_OPS:
                    break
                speed.sample()
                next_slice = clock() + REF_EVERY_S
        self.wall = now - start
        self.nominal = speed.nominal(start, now)
        self.ops = load.completed - first[0]
        self.reads = load.reads - first[1]
        self.writes = load.writes - first[2]
        self.steps = load.kernel.steps_taken - first[3]
        load.drain()

    @property
    def ops_per_s(self) -> float:
        """Operations per nominal second."""
        return self.ops / self.nominal

    @property
    def raw_ops_per_s(self) -> float:
        """Operations per wall-clock second (not gated)."""
        return self.ops / self.wall


def _check(system: Any, load: Load, outcome: Outcome) -> None:
    if load.forged_reads:
        outcome.errors.append(
            f"{load.forged_reads} read(s) returned the forged value")
    if load.foreign_reads:
        outcome.errors.append(
            f"{load.foreign_reads} read(s) returned another register's "
            f"value")
    verdict = check_per_register(system.history)
    if not verdict.ok:
        outcome.errors.append(
            f"regularity violated: {verdict.violations[:3]}")


def exact_metrics(load: Load) -> Dict[str, float]:
    """Virtual-time latencies and kernel counts over the exact prefix."""
    first, last = load.start_counts, load.exact_counts
    per_op = {name: (last[name] - first[name]) / EXACT_OPS
              for name in first}
    return {
        "get_vt_p50": percentile(load.read_vt, 0.50),
        "get_vt_p90": percentile(load.read_vt, 0.90),
        "get_vt_p99": percentile(load.read_vt, 0.99),
        "put_vt_p50": percentile(load.write_vt, 0.50),
        "put_vt_p90": percentile(load.write_vt, 0.90),
        "sim.steps_per_op": per_op["steps"],
        "sim.msgs_per_op": per_op["msgs"],
        "sim.bytes_per_op": per_op["bytes"],
        "sim.intercepts_per_op": per_op["intercepts"],
    }


def _timed_run(seed: int, seconds: float, outcome: Outcome,
               tracer: Optional[layertrace.Tracer] = None
               ) -> Tuple[Window, Load]:
    system = build(seed)
    load = Load(system, seed)
    window = Window(load, seconds, tracer)
    _check(system, load, outcome)
    outcome.attempted += window.ops
    return window, load


def run(seed: int, seconds: float, traced: bool, scratch: str) -> Outcome:
    outcome = Outcome(context={"params": PARAMS})
    if not traced:
        setups = Setups()
        for _ in range(SETUPS):
            setups.begin()
            build(seed)
            setups.end()
        window, load = _timed_run(seed, seconds, outcome)
        exact = exact_metrics(load)
        outcome.metrics = {
            "setup_s": setups.median_s,
            "ops_per_s": window.ops_per_s,
            "get_p50_ms": exact["get_vt_p50"] * MS_PER_VT,
            "put_p50_ms": exact["put_vt_p50"] * MS_PER_VT,
        }
        outcome.context.update(
            exact_reads=len(load.read_vt), exact_writes=len(load.write_vt),
            window_ops=window.ops, setups_s=setups.nominal,
            raw_setups_s=setups.raw, raw_ops_per_s=window.raw_ops_per_s,
            tails={"get_p90_ms": exact["get_vt_p90"] * MS_PER_VT,
                   "put_p90_ms": exact["put_vt_p90"] * MS_PER_VT})
        return outcome

    plain, _ = _timed_run(seed, seconds, outcome)
    tracer = layertrace.install(layertrace.Tracer())
    try:
        window, load = _timed_run(seed, seconds, outcome, tracer)
    finally:
        tracer.uninstall()
    exact = exact_metrics(load)
    outcome.metrics = {
        **layertrace.layer_metrics(tracer, window.wall, window.reads,
                                   window.writes),
        "sim.steps_per_op": exact["sim.steps_per_op"],
        "sim.msgs_per_op": exact["sim.msgs_per_op"],
        "sim.bytes_per_op": exact["sim.bytes_per_op"],
        "sim.intercepts_per_op": exact["sim.intercepts_per_op"],
        "sim.step_us": tracer.self_time["sim"] / window.steps * 1e6,
        "sim.get_vt_p50": exact["get_vt_p50"],
        "sim.get_vt_p99": exact["get_vt_p99"],
        "trace.overhead_share": 1.0 - window.ops_per_s / plain.ops_per_s,
    }
    return outcome
