"""``point``: single-key gets and puts through sessions, in-proc.

An in-proc ``Cluster`` of two shard groups running the Section 5.1
cached regular storage (t=1, b=1, S=4; fast reads off), 4096 keys
preloaded.  Four ``Session`` coroutines on the one event loop each issue
single-key ``get``/``put`` at 90:10 over uniformly drawn keys, closed
loop.  Per-operation work dominates: api/service/hosts admission, the
memnet queues and the server automata, with no codec, socket or disk.
"""

from __future__ import annotations

import asyncio
from collections import defaultdict
from typing import Any, Dict, List, Set

from repro.api import Cluster
from repro.config import SystemConfig
from repro.core.regular import CachedRegularStorageProtocol
from repro.errors import ReproError
from repro.service.store import MultiRegisterStore

from common import (T, B, Calls, LoopLag, Outcome, Setups, Window, account,
                    clock, latency_metrics, percentile, rng_for,
                    tail_context)
import layertrace

SHARDS = 2
KEYS = 4096
SESSIONS = 4
READ_SHARE = 0.9
PRELOAD_CHUNK = 512
SETUPS = 7
WARMUP_S = 1.0
#: per-call deadline (the cluster's default timeout); a failed call is
#: booked at this latency.
DEADLINE_S = 30.0

PARAMS = {
    "protocol": "CachedRegularStorageProtocol", "t": T, "b": B,
    "objects": 2 * T + B + 1, "deployment": "inproc", "shards": SHARDS,
    "fast_reads": False, "keys": KEYS, "sessions": SESSIONS,
    "read_share": READ_SHARE, "loop": "closed", "setups": SETUPS,
    "warmup_s": WARMUP_S,
}


def key_name(index: int) -> str:
    return f"k{index:05d}"


async def build(seed: int) -> Any:
    """Construct and start the cluster, then preload every key."""
    config = SystemConfig.optimal(t=T, b=B, num_readers=SESSIONS,
                                  num_writers=SESSIONS)
    cluster = Cluster(CachedRegularStorageProtocol, config,
                      num_shards=SHARDS, seed=seed,
                      default_timeout=DEADLINE_S)
    await cluster.start()
    try:
        keys = [key_name(i) for i in range(KEYS)]
        async with cluster.session() as session:
            for at in range(0, KEYS, PRELOAD_CHUNK):
                chunk = keys[at:at + PRELOAD_CHUNK]
                await session.put_many({key: f"{key}|pre" for key in chunk})
    except BaseException:
        await cluster.stop()
        raise
    return cluster


class Load:
    """Four closed-loop sessions and the window they are measured in."""

    def __init__(self, cluster: Any, seed: int):
        self.cluster = cluster
        self.seed = seed
        self.keys = [key_name(i) for i in range(KEYS)]
        #: every value any session put (or is putting) per key.
        self.written: Dict[str, Set[str]] = defaultdict(set)
        self.calls = {"get": Calls(DEADLINE_S), "put": Calls(DEADLINE_S)}
        self.done = {"get": 0, "put": 0}
        self.bad_reads: List[str] = []
        self.measuring = False
        self.stopping = False

    def _valid(self, key: str, value: Any) -> bool:
        return value == f"{key}|pre" or value in self.written[key]

    async def session_loop(self, index: int) -> None:
        rng = rng_for(self.seed, "point", "session", index)
        seq = 0
        async with self.cluster.session() as session:
            while not self.stopping:
                key = self.keys[rng.randrange(KEYS)]
                kind = "get" if rng.random() < READ_SHARE else "put"
                if kind == "put":
                    seq += 1
                    value = f"{key}|s{index}|{seq}"
                    self.written[key].add(value)
                measured = self.measuring
                start = clock()
                try:
                    if kind == "get":
                        value = await session.get(key)
                    else:
                        await session.put(key, value)
                except (ReproError, asyncio.TimeoutError) as error:
                    if measured:
                        self.calls[kind].fail(error)
                    continue
                if measured:
                    self.calls[kind].ok(start, clock())
                    if self.measuring:
                        self.done[kind] += 1
                if kind == "get" and not self._valid(key, value):
                    self.bad_reads.append(f"get({key}) -> {value!r}")


async def _measure(seed: int, seconds: float) -> Outcome:
    outcome = Outcome(context={"params": PARAMS})
    setups = Setups()
    cluster = None
    for _ in range(SETUPS):
        if cluster is not None:
            await cluster.stop()
        setups.begin()
        cluster = await build(seed)
        setups.end()
    try:
        load = Load(cluster, seed)
        window = await Window(load, SESSIONS, WARMUP_S).run(seconds)
    finally:
        await cluster.stop()
    account(outcome, load.calls, 1, load.bad_reads)
    outcome.metrics = {"setup_s": setups.median_s,
                       "ops_per_s": window.ops_per_s,
                       **latency_metrics(load.calls, window.speed)}
    outcome.context.update(setups_s=setups.nominal,
                           raw_setups_s=setups.raw,
                           raw_ops_per_s=window.raw_ops_per_s,
                           tails=tail_context(load.calls, window.speed))
    return outcome


async def _trace(seed: int, seconds: float) -> Outcome:
    outcome = Outcome(context={"params": PARAMS})
    cluster = await build(seed)
    try:
        plain_load = Load(cluster, seed)
        plain = await Window(plain_load, SESSIONS, WARMUP_S).run(seconds)
    finally:
        await cluster.stop()
    account(outcome, plain_load.calls, 1, plain_load.bad_reads)

    tracer = layertrace.install(layertrace.Tracer())
    service = {"read": [], "write": []}
    tracer.patch_latency(MultiRegisterStore, "read", service["read"])
    tracer.patch_latency(MultiRegisterStore, "write", service["write"])
    try:
        cluster = await build(seed)
        try:
            load = Load(cluster, seed)
            sent: List[int] = []

            def on_open() -> None:
                tracer.reset()
                for samples in service.values():
                    samples.clear()
                sent.append(cluster.kv.stats()["messages_sent"])

            lag = LoopLag()
            window = await Window(load, SESSIONS, WARMUP_S).run(
                seconds, on_open, [lag.tick])
            sent.append(cluster.kv.stats()["messages_sent"])
        finally:
            await cluster.stop()
    finally:
        tracer.uninstall()
    account(outcome, load.calls, 1, load.bad_reads)
    outcome.metrics = {
        **layertrace.layer_metrics(tracer, window.wall, load.done["get"],
                                   load.done["put"]),
        "hosts.msgs_per_op": (sent[1] - sent[0]) / window.ops,
        "hosts.loop_lag_p99_ms": percentile(lag.samples, 0.99) * 1e3,
        "service.read_p50_ms": percentile(service["read"], 0.5) * 1e3,
        "service.write_p50_ms": percentile(service["write"], 0.5) * 1e3,
        "trace.overhead_share": 1.0 - window.ops_per_s / plain.ops_per_s,
    }
    return outcome


def run(seed: int, seconds: float, traced: bool, scratch: str) -> Outcome:
    return asyncio.run((_trace if traced else _measure)(seed, seconds))
