"""Pieces every workload shares: seeding, percentiles, call accounting,
and the host-speed calibration of wall-clock times.

Latencies are kept as raw samples and reduced by nearest-rank
percentiles.  A failed call is not dropped: it is booked at the call's
deadline, so it counts as missing every latency percentile.

Wall-clock times are reported in *nominal* seconds (see
:class:`HostSpeed`): a shared host runs the same Python code at speeds
that differ by up to half between stretches of a few seconds, so every
timed stretch is scaled by how fast the host ran a fixed reference
loop at the same moment.
"""

from __future__ import annotations

import asyncio
import bisect
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from statistics import median
from typing import (Any, Awaitable, Callable, Dict, List, Optional,
                    Sequence, Tuple)

clock = time.perf_counter

#: protocol settings every workload shares (the paper's Section 5.1).
T, B = 1, 1


def rng_for(seed: int, *scope: Any) -> random.Random:
    """An RNG for one purpose of one run, independent of every other."""
    return random.Random(":".join(str(part) for part in (seed,) + scope))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (0 < q < 1)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q`` nearest rank."""
    return count - max(1, math.ceil(q * count))


# -- host-speed calibration ----------------------------------------------

#: iterations of one reference slice (about 0.1 ms of pure Python).
REF_ITERATIONS = 1000
#: what one slice takes on the nominal host: ten million iterations a
#: second.  A nominal second is a wall-clock second scaled to that host.
REF_NOMINAL_S = REF_ITERATIONS * 1e-7
#: seconds between timed slices (about 0.5% of the time), where the
#: workload does not place its slices itself.
REF_EVERY_S = 0.02
#: slices whose median sets the scale of one stretch (0.5 s at
#: :data:`REF_EVERY_S`).
REF_BLOCK = 25
#: slices taken just before each timed set-up.
REF_BURST = 30


def reference_slice() -> int:
    """The fixed pure-Python loop the host's speed is read from."""
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return total


class HostSpeed:
    """How fast the host runs Python, sampled all through a run.

    The workload runs :func:`reference_slice` (:meth:`sample`) between
    its own steps, all through the run.  Consecutive runs of :data:`REF_BLOCK` slices make
    one stretch; a stretch's scale is :data:`REF_NOMINAL_S` over its
    median slice time.  :meth:`nominal` integrates that scale over any
    span of wall-clock time, so a call or a window that ran while the
    host was slow is charged what it would have taken on the nominal
    host.  A change to the program moves its own time but not the
    slices', so it still shows in full.
    """

    def __init__(self):
        self.stamps: List[float] = []
        self.times: List[float] = []
        self._blocks: Optional[Tuple[List[float], List[float]]] = None

    def sample(self) -> float:
        """Run one reference slice; its wall-clock time."""
        start = clock()
        reference_slice()
        elapsed = clock() - start
        self.stamps.append(start)
        self.times.append(elapsed)
        self._blocks = None
        return elapsed

    def burst(self) -> List[float]:
        return [self.sample() for _ in range(REF_BURST)]

    def _stretches(self) -> Tuple[List[float], List[float]]:
        """(start stamp of every stretch but the first, scale of each)."""
        if self._blocks is None:
            count = len(self.times)
            starts = list(range(0, count, REF_BLOCK))
            if len(starts) > 1 and count - starts[-1] < REF_BLOCK // 2:
                starts.pop()  # too few slices: fold into the one before
            ends = starts[1:] + [count]
            scales = [REF_NOMINAL_S / median(self.times[a:b])
                      for a, b in zip(starts, ends)]
            self._blocks = ([self.stamps[a] for a in starts[1:]], scales)
        return self._blocks

    def nominal(self, start: float, end: float) -> float:
        """Nominal seconds in the wall-clock span ``[start, end]``."""
        bounds, scales = self._stretches()
        index = bisect.bisect_right(bounds, start)
        total = 0.0
        while True:
            edge = bounds[index] if index < len(bounds) else end
            stop = min(edge, end)
            total += (stop - start) * scales[index]
            if stop >= end:
                return total
            start = stop
            index += 1


class Setups:
    """Set-up times of one run, each scaled by the slices just before it.

    Call :meth:`begin` just before a set-up and :meth:`end` just after.
    The slices run before the set-up, when nothing else of the benchmark
    is running (on ``bulk-multiproc`` the previous child has exited).
    """

    def __init__(self):
        self.speed = HostSpeed()
        self.raw: List[float] = []
        self.nominal: List[float] = []
        self._slices: List[float] = []
        self._start = 0.0

    def begin(self) -> None:
        self._slices = self.speed.burst()
        self._start = clock()

    def end(self) -> None:
        elapsed = clock() - self._start
        self.raw.append(elapsed)
        self.nominal.append(elapsed * REF_NOMINAL_S / median(self._slices))

    @property
    def median_s(self) -> float:
        return median(self.nominal)


class Calls:
    """Spans and failures of one kind of call (``get``/``put``)."""

    def __init__(self, deadline_s: float):
        self.deadline_s = deadline_s
        #: (start, end) wall-clock stamps of every call that returned.
        self.spans: List[Tuple[float, float]] = []
        self.failures: Counter = Counter()

    def ok(self, start: float, end: float) -> None:
        self.spans.append((start, end))

    def fail(self, error: BaseException) -> None:
        self.failures[type(error).__name__] += 1

    @property
    def count(self) -> int:
        return len(self.spans) + sum(self.failures.values())

    def p_ms(self, q: float, speed: HostSpeed) -> float:
        """Nominal latency percentile; failures sit at the deadline."""
        latencies = [speed.nominal(start, end) for start, end in self.spans]
        latencies += [self.deadline_s] * sum(self.failures.values())
        return percentile(latencies, q) * 1e3


def enough_samples(calls: Dict[str, Calls], q: float,
                   minimum: int = 10) -> bool:
    """True once every kind has ``minimum`` samples beyond quantile ``q``."""
    return all(c.count and samples_beyond(c.count, q) >= minimum
               for c in calls.values())


@dataclass
class Outcome:
    """What one workload run hands back to the runner."""

    #: register operations attempted / failed in the timed window.
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: the workload's parameters and sample counts (not gated).
    context: Dict[str, Any] = field(default_factory=dict)
    #: correctness-check failures; any entry fails the run.
    errors: List[str] = field(default_factory=list)


# -- asyncio closed loops (the in-proc and multiproc workloads) -----------

#: the tail percentile reported for wall-clock latency.
TAIL = 0.90


class Window:
    """Run a load's sessions: warm up, then measure ``seconds`` of it.

    ``load`` provides ``session_loop(index)`` coroutines that stop when
    ``load.stopping`` is set and book calls only while
    ``load.measuring``, plus ``calls`` (per kind) and ``done`` (register
    ops completed while measuring).  The window stays open past
    ``seconds`` until every kind has ten samples beyond the tail
    percentile, up to three times ``seconds``.

    The window's :class:`HostSpeed` is ``load.speed``.  With
    ``periodic_slices`` a reference slice runs on the loop every
    :data:`REF_EVERY_S` from the start of the warm-up; without, the load
    takes its own slices, at points where nothing else runs.
    """

    def __init__(self, load: Any, sessions: int, warmup_s: float,
                 periodic_slices: bool = True):
        self.load = load
        self.sessions = sessions
        self.warmup_s = warmup_s
        self.periodic_slices = periodic_slices
        self.speed = load.speed = HostSpeed()
        self.wall = 0.0
        self.nominal = 0.0
        self.ops = 0

    async def run(self, seconds: float,
                  on_open: Optional[Callable[[], None]] = None,
                  probes: Sequence[Callable[[], Awaitable[None]]] = ()
                  ) -> "Window":
        """``on_open`` runs as the measured stretch opens; each probe is
        awaited back to back for as long as it lasts."""
        load = self.load
        tasks = [asyncio.create_task(load.session_loop(i))
                 for i in range(self.sessions)]
        tasks += [asyncio.create_task(self._repeat(probe))
                  for probe in probes]
        if self.periodic_slices:
            tasks.append(asyncio.create_task(self._calibrate()))
        try:
            await asyncio.sleep(self.warmup_s)
            if on_open is not None:
                on_open()
            load.measuring = True
            start = clock()
            await asyncio.sleep(seconds)
            while (not enough_samples(load.calls, TAIL)
                   and clock() - start < 3 * seconds):
                await asyncio.sleep(0.1)
            load.measuring = False
            end = clock()
            self.wall = end - start
            self.ops = sum(load.done.values())
        finally:
            load.measuring = False
            load.stopping = True
            await asyncio.gather(*tasks)
        self.nominal = self.speed.nominal(start, end)
        return self

    async def _repeat(self, probe: Callable[[], Awaitable[None]]) -> None:
        load = self.load
        while not load.measuring and not load.stopping:
            await asyncio.sleep(0.001)
        while load.measuring:
            await probe()

    async def _calibrate(self) -> None:
        while not self.load.stopping:
            self.speed.sample()
            await asyncio.sleep(REF_EVERY_S)

    @property
    def ops_per_s(self) -> float:
        """Register operations per nominal second."""
        return self.ops / self.nominal

    @property
    def raw_ops_per_s(self) -> float:
        """Register operations per wall-clock second (not gated)."""
        return self.ops / self.wall


class LoopLag:
    """A 1 ms ticker; its oversleep is the event loop's scheduling lag."""

    def __init__(self):
        self.samples: List[float] = []

    async def tick(self) -> None:
        start = clock()
        await asyncio.sleep(0.001)
        self.samples.append(clock() - start - 0.001)


def latency_metrics(calls: Dict[str, Calls],
                    speed: HostSpeed) -> Dict[str, float]:
    return {"get_p50_ms": calls["get"].p_ms(0.50, speed),
            "put_p50_ms": calls["put"].p_ms(0.50, speed)}


def tail_context(calls: Dict[str, Calls],
                 speed: HostSpeed) -> Dict[str, float]:
    """The tail latencies, reported beside the metrics but not gated."""
    return {"get_p90_ms": calls["get"].p_ms(TAIL, speed),
            "put_p90_ms": calls["put"].p_ms(TAIL, speed)}


def account(outcome: Outcome, calls: Dict[str, Calls], ops_per_call: int,
            bad_reads: List[str]) -> None:
    """Book a window's calls, failures and read-check verdict."""
    for kind in calls.values():
        outcome.attempted += kind.count * ops_per_call
        outcome.failed += sum(kind.failures.values()) * ops_per_call
        outcome.failures.update(kind.failures)
    if bad_reads:
        outcome.errors.append(
            f"{len(bad_reads)} read(s) returned a wrong value: "
            f"{bad_reads[:3]}")
    outcome.context.setdefault("samples", []).append(
        {name: kind.count for name, kind in calls.items()})
