"""Per-layer timing from outside the program: wrappers around layer calls.

The traced run patches the public functions and methods each layer
exposes, times every *outermost* call (a layer re-entering itself, as
``on_message`` does through ``absorb``/``advance``, is counted once)
and keeps a stack so that a layer called from inside another -- the
server automata and client operations under ``SimKernel.step`` -- is
subtracted from its caller's self time.  Sub-layers (the evidence
predicates inside a read) are timed but stay inside their caller's self
time.

Nothing is patched at import; :func:`install` patches and
:meth:`Tracer.uninstall` restores the originals.  Patch before building
the system under test: hosts resolve some entry points (the batch
handler) once, at construction.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.adversary.byzantine import ByzantineWrapper
from repro.automata.base import ObjectAutomaton
from repro.core.regular.evidence import RegularEvidence
from repro.core.regular.object import RegularObject
from repro.core.regular.reader import RegularReadOperation
from repro.core.safe.writer import SafeWriteOperation
from repro.runtime import tcp
from repro.sim.kernel import SimKernel

from common import clock

Units = Callable[[Tuple[Any, ...], Any], int]


class Tracer:
    """Outermost-call timing, counts and unit tallies per layer."""

    def __init__(self):
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.units: Counter = Counter()
        self._active: Dict[str, bool] = defaultdict(bool)
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Zero the tallies (start of the timed window)."""
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.units.clear()

    # -- wrapping -----------------------------------------------------------
    def timed(self, layer: str, fn: Callable, units: Optional[Units] = None,
              sub: bool = False) -> Callable:
        active = self._active
        stack = self._stack
        total = self.total
        self_time = self.self_time
        calls = self.calls
        tally = self.units

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if active[layer]:
                return fn(*args, **kwargs)
            active[layer] = True
            frame = [0.0]
            if not sub:
                stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active[layer] = False
                if not sub:
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                total[layer] += elapsed
                self_time[layer] += elapsed - frame[0]
                calls[layer] += 1
            if units is not None:
                tally[layer] += units(args, result)
            return result

        return wrapper

    def patch(self, owner: Any, name: str, layer: str,
              units: Optional[Units] = None, sub: bool = False) -> None:
        """Replace ``owner.name`` (a function or method) by a timed
        wrapper; ``owner`` is a class or a module."""
        original = vars(owner)[name]
        setattr(owner, name, self.timed(layer, original, units, sub))
        self._patches.append((owner, name, original))

    def patch_latency(self, owner: Any, name: str,
                      samples: List[float]) -> None:
        """Record the latency of every ``await owner.name(...)`` call."""
        original = vars(owner)[name]

        @functools.wraps(original)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = await original(*args, **kwargs)
            samples.append(clock() - start)
            return result

        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reading ------------------------------------------------------------
    def per_call_us(self, layer: str) -> float:
        calls = self.calls[layer]
        return self.total[layer] / calls * 1e6 if calls else 0.0

    def units_per_call(self, layer: str) -> float:
        calls = self.calls[layer]
        return self.units[layer] / calls if calls else 0.0

    def share(self, wall_s: float, *layers: str) -> float:
        """Self time of ``layers`` as a share of ``wall_s``."""
        return sum(self.self_time[layer] for layer in layers) / wall_s


# -- the layers of this repository ---------------------------------------

_READ_OP_METHODS = ("__init__", "start", "start_vector", "absorb",
                    "advance", "on_message")
_EVIDENCE_PREDICATES = ("responded_first", "responded_first_count",
                        "first_round_accusers", "invalid_voters",
                        "is_invalid", "safe_voters", "is_safe",
                        "candidates", "candidates_empty", "high_candidates",
                        "returnable")
#: top-level layers whose self time is measured (the rest of the loop's
#: time -- asyncio, hosts, memnet, api, service -- is unattributed).
TIMED_LAYERS = ("automata", "core.read", "core.write", "codec.encode",
                "codec.decode", "sim")


def _parts(args: Tuple[Any, ...], result: Any) -> int:
    return len(args[2])  # handle_batch(self, sender, parts, sink)


def _one(args: Tuple[Any, ...], result: Any) -> int:
    return 1


def _encoded_bytes(args: Tuple[Any, ...], result: Any) -> int:
    return len(result)


def _decoded_bytes(args: Tuple[Any, ...], result: Any) -> int:
    return len(args[0])


def install(tracer: Tracer) -> Tracer:
    """Patch every synchronous layer boundary the benchmark times."""
    tracer.patch(RegularObject, "handle_batch", "automata", _parts)
    tracer.patch(RegularObject, "on_message", "automata", _one)
    tracer.patch(ObjectAutomaton, "handle_batch", "automata", _parts)
    tracer.patch(ByzantineWrapper, "on_message", "automata", _one)
    for name in _READ_OP_METHODS:
        tracer.patch(RegularReadOperation, name, "core.read")
        tracer.patch(SafeWriteOperation, name, "core.write")
    for name in _EVIDENCE_PREDICATES:
        tracer.patch(RegularEvidence, name, "core.evidence", sub=True)
    tracer.patch(tcp, "encode_message_binary", "codec.encode",
                 _encoded_bytes)
    tracer.patch(tcp, "decode_message_binary", "codec.decode",
                 _decoded_bytes)
    tracer.patch(SimKernel, "step", "sim")
    return tracer


def layer_metrics(tracer: Tracer, wall: float, reads: int,
                  writes: int) -> Dict[str, float]:
    """The metrics every workload derives from the tracer alone.

    ``wall`` is the traced window's length; ``reads``/``writes`` are the
    register operations it completed.  A layer the workload never
    reached reports 0.
    """
    ops = max(reads + writes, 1)
    reads, writes = max(reads, 1), max(writes, 1)
    codec_bytes = tracer.units["codec.encode"] + tracer.units["codec.decode"]
    return {
        "automata.handle_us_per_call": tracer.per_call_us("automata"),
        "automata.parts_per_call": tracer.units_per_call("automata"),
        "automata.busy_share": tracer.share(wall, "automata"),
        "core.read_us_per_op": tracer.total["core.read"] / reads * 1e6,
        "core.write_us_per_op": tracer.total["core.write"] / writes * 1e6,
        "core.evidence_calls_per_read": tracer.calls["core.evidence"] / reads,
        "core.evidence_us_per_read":
            tracer.total["core.evidence"] / reads * 1e6,
        "codec.decode_us_per_frame": tracer.per_call_us("codec.decode"),
        "codec.decode_bytes_per_frame": tracer.units_per_call("codec.decode"),
        "codec.encode_us_per_frame": tracer.per_call_us("codec.encode"),
        "codec.encode_bytes_per_frame": tracer.units_per_call("codec.encode"),
        "codec.wire_bytes_per_op": codec_bytes / ops,
        "codec.busy_share": tracer.share(wall, "codec.encode", "codec.decode"),
        "trace.unattributed_share": 1.0 - tracer.share(wall, *TIMED_LAYERS),
    }
