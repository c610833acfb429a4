"""``bulk-multiproc``: 64-key batches against a replica child process.

One shard group of the Section 5.1 cached regular storage (t=1, b=1,
S=4) served by one supervised child process (``deployment="multiproc"``,
``granularity="group"``), so parent plus child is two processes.  The
child's WAL runs the default ``batch`` fsync policy under a data
directory the benchmark owns.  4096 keys are preloaded.  One session
alternates ``put_many`` of 64 random keys with ``get_many`` of the same
keys, closed loop: the codec, the TCP hop, the child's WAL and the
vector round engine do the work, and per-call api cost is amortised 64x.
One session, because two phase-lock and swing the per-call latency.
"""

from __future__ import annotations

import asyncio
import multiprocessing
from multiprocessing import resource_tracker
import os
import shutil
from typing import Any, List, Optional, Tuple

from repro.api import Cluster
from repro.config import SystemConfig
from repro.core.regular import CachedRegularStorageProtocol
from repro.errors import ReproError

from common import (T, B, Calls, HostSpeed, LoopLag, Outcome, Setups,
                    Window, account, clock, latency_metrics, percentile,
                    rng_for, tail_context)
import layertrace

KEYS = 4096
BATCH = 64
PRELOAD_CHUNK = 512
SETUPS = 3
#: the host-speed slices run in the session, not on a timer: one right
#: after each ``get_many`` returns, when the child has answered and
#: holds no request, so a slice feels the host and not the child's load.
PERIODIC_SLICES = False
WARMUP_S = 1.0
#: per-call deadline (the cluster's default timeout); a failed call is
#: booked at this latency.
DEADLINE_S = 30.0
#: seconds between health pings during the traced window.
PING_INTERVAL_S = 0.02

PARAMS = {
    "protocol": "CachedRegularStorageProtocol", "t": T, "b": B,
    "objects": 2 * T + B + 1, "deployment": "multiproc",
    "granularity": "group", "shards": 1, "keys": KEYS, "batch": BATCH,
    "sessions": 1, "loop": "closed", "setups": SETUPS,
    "warmup_s": WARMUP_S,
}


def key_name(index: int) -> str:
    return f"k{index:05d}"


class Deployment:
    """Builds clusters whose WAL lives under the benchmark's scratch dir."""

    def __init__(self, scratch: str, seed: int):
        self.scratch = scratch
        self.seed = seed
        self.config = SystemConfig.optimal(t=T, b=B).with_deployment(
            "multiproc")
        self.built = 0

    async def build(self) -> Any:
        """Spawn the replica child, start the cluster, preload every key."""
        self.built += 1
        data_dir = os.path.join(self.scratch, f"data-{self.built}")
        cluster = Cluster(CachedRegularStorageProtocol, self.config,
                          num_shards=1, seed=self.seed,
                          default_timeout=DEADLINE_S, data_dir=data_dir,
                          granularity="group")
        await cluster.start()
        try:
            keys = [key_name(i) for i in range(KEYS)]
            async with cluster.session() as session:
                for at in range(0, KEYS, PRELOAD_CHUNK):
                    chunk = keys[at:at + PRELOAD_CHUNK]
                    await session.put_many({key: f"{key}|pre"
                                            for key in chunk})
        except BaseException:
            await self.stop(cluster)
            raise
        return cluster

    @staticmethod
    async def stop(cluster: Any) -> None:
        """Stop the cluster and its child; delete its data directory."""
        try:
            await cluster.stop()
        finally:
            shutil.rmtree(cluster.kv.data_dir, ignore_errors=True)


def supervisor(cluster: Any) -> Any:
    (store,) = cluster.kv.shards.values()
    return store.supervisor


def disk_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(directory) for name in names)


class Load:
    """One session alternating ``put_many`` and ``get_many``."""

    def __init__(self, cluster: Any, seed: int):
        self.cluster = cluster
        self.rng = rng_for(seed, "bulk-multiproc", "session")
        self.keys = [key_name(i) for i in range(KEYS)]
        self.calls = {"get": Calls(DEADLINE_S), "put": Calls(DEADLINE_S)}
        self.done = {"get": 0, "put": 0}
        self.bad_reads: List[str] = []
        #: set by the Window this load runs in.
        self.speed: Optional[HostSpeed] = None
        self.measuring = False
        self.stopping = False

    async def _call(self, kind: str, thunk: Any) -> Tuple[bool, Any]:
        """Await one call and book it; (succeeded, result)."""
        measured = self.measuring
        start = clock()
        try:
            result = await thunk()
        except (ReproError, asyncio.TimeoutError) as error:
            if measured:
                self.calls[kind].fail(error)
            return False, None
        if measured:
            self.calls[kind].ok(start, clock())
            if self.measuring:
                self.done[kind] += BATCH
        return True, result

    async def session_loop(self, index: int) -> None:
        seq = 0
        async with self.cluster.session() as session:
            while not self.stopping:
                seq += 1
                batch = self.rng.sample(self.keys, BATCH)
                items = {key: f"{key}|b|{seq}" for key in batch}
                put, _ = await self._call(
                    "put", lambda: session.put_many(items))
                if not put:
                    continue
                read, got = await self._call(
                    "get", lambda: session.get_many(batch))
                self.speed.sample()
                if read and got != items:
                    wrong = [key for key in batch if got[key] != items[key]]
                    self.bad_reads.append(
                        f"get_many after put_many #{seq}: {len(wrong)} "
                        f"stale key(s), e.g. {wrong[0]} -> {got[wrong[0]]!r}")


def _check_restarts(cluster: Any, outcome: Outcome) -> None:
    restarts = sum(supervisor(cluster).restarts.values())
    if restarts:
        outcome.errors.append(f"{restarts} replica restart(s)")


async def _measure(seed: int, seconds: float, scratch: str) -> Outcome:
    deployment = Deployment(scratch, seed)
    outcome = Outcome(context={"params": dict(
        PARAMS, wal_fsync=deployment.config.wal_fsync)})
    setups = Setups()
    cluster = None
    for _ in range(SETUPS):
        if cluster is not None:
            await deployment.stop(cluster)
        setups.begin()
        cluster = await deployment.build()
        setups.end()
    try:
        load = Load(cluster, seed)
        window = await Window(load, 1, WARMUP_S,
                              PERIODIC_SLICES).run(seconds)
        _check_restarts(cluster, outcome)
    finally:
        await deployment.stop(cluster)
    account(outcome, load.calls, BATCH, load.bad_reads)
    outcome.metrics = {"setup_s": setups.median_s,
                       "ops_per_s": window.ops_per_s,
                       **latency_metrics(load.calls, window.speed)}
    outcome.context.update(setups_s=setups.nominal,
                           raw_setups_s=setups.raw,
                           raw_ops_per_s=window.raw_ops_per_s,
                           tails=tail_context(load.calls, window.speed))
    return outcome


async def _trace(seed: int, seconds: float, scratch: str) -> Outcome:
    deployment = Deployment(scratch, seed)
    outcome = Outcome(context={"params": dict(
        PARAMS, wal_fsync=deployment.config.wal_fsync)})
    cluster = await deployment.build()
    try:
        plain_load = Load(cluster, seed)
        plain = await Window(plain_load, 1, WARMUP_S,
                             PERIODIC_SLICES).run(seconds)
        _check_restarts(cluster, outcome)
    finally:
        await deployment.stop(cluster)
    account(outcome, plain_load.calls, BATCH, plain_load.bad_reads)

    # The replica child is spawned from a fresh interpreter that imports
    # run.py without running main(), so these wrappers time the parent
    # only.
    tracer = layertrace.install(layertrace.Tracer())
    try:
        cluster = await deployment.build()
        try:
            load = Load(cluster, seed)
            sent: List[int] = []
            pings: List[float] = []
            lag = LoopLag()
            procs = supervisor(cluster)

            def on_open() -> None:
                tracer.reset()
                sent.append(cluster.kv.stats()["messages_sent"])

            async def ping() -> None:
                start = clock()
                if await procs.ping(0):
                    pings.append(clock() - start)
                await asyncio.sleep(PING_INTERVAL_S)

            window = await Window(load, 1, WARMUP_S, PERIODIC_SLICES).run(
                seconds, on_open, [lag.tick, ping])
            sent.append(cluster.kv.stats()["messages_sent"])
            wal_bytes = disk_bytes(cluster.kv.data_dir)
            _check_restarts(cluster, outcome)
        finally:
            await deployment.stop(cluster)
    finally:
        tracer.uninstall()
    account(outcome, load.calls, BATCH, load.bad_reads)
    outcome.metrics = {
        **layertrace.layer_metrics(tracer, window.wall, load.done["get"],
                                   load.done["put"]),
        "hosts.msgs_per_op": (sent[1] - sent[0]) / window.ops,
        "hosts.loop_lag_p99_ms": percentile(lag.samples, 0.99) * 1e3,
        "procs.ping_p50_ms": percentile(pings, 0.5) * 1e3,
        "wal.disk_bytes_per_key": wal_bytes / KEYS,
        "trace.overhead_share": 1.0 - window.ops_per_s / plain.ops_per_s,
    }
    outcome.context["pings"] = len(pings)
    return outcome


def reap_children() -> List[str]:
    """Kill and join any child still alive; name each one found.

    Also stops the resource-tracker process the ``spawn`` context starts
    beside the replica children, so the run leaves no process behind.
    """
    leftover = []
    for child in multiprocessing.active_children():
        leftover.append(f"pid {child.pid}")
        child.kill()
        child.join(5)
    resource_tracker._resource_tracker._stop()
    return leftover


def run(seed: int, seconds: float, traced: bool, scratch: str) -> Outcome:
    try:
        outcome = asyncio.run(
            (_trace if traced else _measure)(seed, seconds, scratch))
    finally:
        leftover = reap_children()
    if leftover:
        outcome.errors.append(f"replica children left alive: {leftover}")
    return outcome
