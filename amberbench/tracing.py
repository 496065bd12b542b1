"""Passive per-layer tracing, attached from outside the program.

A :class:`Tracer` replaces a layer's public functions with wrappers that
time each call and restores the originals on :meth:`Tracer.restore`.
Nothing in ``src/`` is edited.  Each wrapped call is a span (name,
start, end, parent span, op id); a layer's *self* time is its spans'
time minus the time of spans nested inside them, so nested layers are
never counted twice.

Simulated operations are generators: calling one only creates it, and
its body runs each time the kernel resumes it.  ``resumes=True`` wraps
the returned generator so that every resume is a span of the layer.

On the simulator, the engine's own heap pushes happen inside these
spans (a network send schedules its delivery); :func:`profile_runs`
already books them to the engine, so ``pushed`` lets a span subtract the
heap-push time accrued inside it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import types
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept for the trace file; later spans are still timed and
#: counted, only not stored.
MAX_SPANS = 200_000
#: calibrate() times this many wrapped calls per trial, and keeps the
#: fastest of this many trials.
CALIBRATE_CALLS = 5_000
CALIBRATE_ROUNDS = 5

SPAN_FIELDS = ("id", "name", "start_s", "end_s", "parent", "op")


class TimedResumes:
    """A generator stand-in that times every resume of the original."""

    __slots__ = ("_tracer", "_name", "_gen")

    def __init__(self, tracer: "Tracer", name: str, gen: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._gen = gen

    def __iter__(self) -> "TimedResumes":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        frame = self._tracer.enter(self._name)
        try:
            return self._gen.send(value)
        finally:
            self._tracer.exit(frame)

    def throw(self, *exc: Any) -> Any:
        frame = self._tracer.enter(self._name)
        try:
            return self._gen.throw(*exc)
        finally:
            self._tracer.exit(frame)

    def close(self) -> None:
        self._gen.close()


class Tracer:
    """Wraps layer functions, aggregates self time and calls per layer,
    keeps spans in memory.  Safe to use from several threads."""

    def __init__(self, pushed: Optional[Callable[[], float]] = None):
        #: layer -> [calls, self seconds]
        self.layers: Dict[str, List[float]] = {}
        #: Free-form counters (frames, bytes, threads started).
        self.counts: Dict[str, int] = {}
        self.spans: List[Tuple] = []
        self.dropped = 0
        #: Id of the operation the current spans belong to.
        self.op_id: Optional[int] = None
        self.pushed = pushed
        #: Per-span wrapper cost outside the span (see calibrate()).
        self.span_cost_s = 0.0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (owner, attribute, original) for restore().
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str, call: bool = False) -> list:
        """Open a span; ``call`` counts it as a call into its layer (a
        generator resume is not one)."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        pushed = self.pushed() if self.pushed is not None else 0.0
        frame = [next(self._ids), name, stack[-1][0] if stack else None,
                 self.op_id, call, 0.0, pushed, perf_counter()]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._local.stack
        stack.pop()
        span_id, name, parent, op_id, call, child_net, pushed, start = frame
        net = end - start
        if self.pushed is not None:
            net -= self.pushed() - pushed
        # The wrapper's own work outside [start, end] would otherwise be
        # booked to the enclosing span's layer.
        if stack:
            stack[-1][5] += net + self.span_cost_s
        layer = name.partition(":")[0]
        with self._lock:
            stats = self.layers.get(layer)
            if stats is None:
                stats = self.layers[layer] = [0, 0.0]
            stats[0] += call
            stats[1] += net - child_net
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, name, start, end, parent, op_id))
            else:
                self.dropped += 1

    def calibrate(self) -> None:
        """Measure ``span_cost_s``: the time one wrapped call spends
        outside its own span (the fastest of ``CALIBRATE_ROUNDS``
        trials)."""
        holder = types.SimpleNamespace(noop=lambda: None)
        raw = holder.noop
        costs = []
        for _ in range(CALIBRATE_ROUNDS):
            probe = Tracer(self.pushed)
            t0 = perf_counter()
            for _ in range(CALIBRATE_CALLS):
                raw()
            bare = perf_counter() - t0
            probe.wrap(holder, "noop", "probe")
            wrapped = holder.noop
            t0 = perf_counter()
            for _ in range(CALIBRATE_CALLS):
                wrapped()
            total = perf_counter() - t0
            probe.restore()
            costs.append((total - bare - probe.self_s("probe"))
                         / CALIBRATE_CALLS)
        self.span_cost_s = max(0.0, min(costs))

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    # -- patching ----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, layer: str, *,
             resumes: bool = False,
             wrapper: Optional[Callable[[Callable], Callable]] = None
             ) -> None:
        """Replace ``owner.attr`` (an attribute a class or module defines
        itself) with a timed wrapper.  ``resumes`` also times every
        resume of a returned generator; ``wrapper`` builds a custom
        wrapper instead."""
        original = vars(owner)[attr]
        name = f"{layer}:{getattr(owner, '__name__', owner)}.{attr}"
        if wrapper is not None:
            replacement = wrapper(original)
        else:
            replacement = self._timed(name, original, resumes)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _timed(self, name: str, original: Callable,
               resumes: bool) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.enter(name, call=True)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if resumes and hasattr(result, "send") and \
                    hasattr(result, "throw"):
                return TimedResumes(tracer, name, result)
            return result

        return traced

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_s(self, layer: str) -> float:
        return self.layers.get(layer, [0, 0.0])[1]

    def calls(self, layer: str) -> int:
        return int(self.layers.get(layer, [0, 0.0])[0])

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the kept spans as one JSON document."""
        with open(path, "w") as out:
            json.dump({"meta": meta, "fields": SPAN_FIELDS,
                       "dropped": self.dropped, "spans": self.spans}, out)
