"""Outside-in tracer for the benchmark's traced run.

It wraps the public entry points listed in :mod:`layers` from outside
the program (no file under ``src/`` changes): methods on their class and
on every subclass that overrides them, module functions in every loaded
``repro`` module that binds them.  A span stack turns inclusive times
into self times: a layer's self time is its span time minus the time its
child spans cover.  A call into the layer that is already on top of the
stack belongs to the enclosing call (entry points of one layer call each
other, e.g. ``DurableStore.save`` encodes the checkpoint body).

Layers marked ``spans`` keep every call as a span in memory; the
per-server-per-tick boundaries keep only per-layer aggregates.  Both are
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Iterator

from layers import ACTIVE, IDLE, LAYERS, Layer


class TracerError(RuntimeError):
    """An entry point is gone, or a layer's call count contradicts the
    layer table."""


Observer = Callable[[Counter, tuple, Any], None]


def _count_encode(counts: Counter, args: tuple, body: bytes) -> None:
    counts["checkpoint_encodes"] += 1
    counts["checkpoint_bytes"] += len(body)


def _count_request(counts: Counter, args: tuple, decision: Any) -> None:
    counts["requests_received"] += 1
    counts["requests_granted"] += bool(decision.granted)


def _count_cap(counts: Counter, args: tuple, event: Any) -> None:
    counts["cap_events"] += event is not None


#: Domain counts read from wrapper return values, at the entry point.
OBSERVERS: dict[str, Observer] = {
    "repro.recovery.checkpoint:SoaCheckpoint.canonical_body": _count_encode,
    "repro.core.soa:ServerOverclockingAgent.handle_request": _count_request,
    "repro.cluster.capping:RackPowerManager.sample": _count_cap,
}

#: Channels are registered as they are built; their own sent/delivered
#: counters give the delivered ratio when the run ends.
CHANNEL_INIT = "repro.core.messaging:MessageChannel.__init__"


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    def __init__(self) -> None:
        # Per layer: [calls, self seconds].
        self.stats: dict[str, list] = {layer.name: [0, 0.0]
                                       for layer in LAYERS}
        # Frames: [layer stats, child seconds, span index or -1].
        self._stack: list[list] = []
        # Spans: [layer, start, end, parent span index or -1].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.channels: list[Any] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            for entry in layer.entry_points:
                self._patch(entry, functools.partial(self._timed,
                                                     entry=entry,
                                                     layer=layer))
        self._patch(CHANNEL_INIT, self._registering)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch(self, entry: str,
               wrap: Callable[[Callable], Callable]) -> None:
        module_name, _, qualname = entry.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *path, name = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
        except (ImportError, AttributeError) as exc:
            raise TracerError(f"entry point {entry} no longer exists: "
                              f"{exc}") from exc
        if inspect.isclass(owner):
            if not inspect.isfunction(owner.__dict__.get(name)):
                raise TracerError(
                    f"entry point {entry} no longer exists as a method")
            for cls in (owner, *_subclasses(owner)):
                original = cls.__dict__.get(name)
                if inspect.isfunction(original):
                    self._set(cls, name, original, wrap(original))
            return
        original = getattr(owner, name, None)
        if not inspect.isfunction(original):
            raise TracerError(
                f"entry point {entry} no longer exists as a function")
        wrapper = wrap(original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, original, wrapper)

    def _set(self, owner: Any, name: str, original: Any,
             wrapper: Any) -> None:
        self._undo.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _registering(self, init: Callable) -> Callable:
        channels = self.channels

        @functools.wraps(init)
        def register(channel: Any, *args: Any, **kwargs: Any) -> None:
            init(channel, *args, **kwargs)
            channels.append(channel)
        return register

    def _timed(self, fn: Callable, *, entry: str, layer: Layer) -> Callable:
        stats = self.stats[layer.name]
        stack = self._stack
        spans = self.spans if layer.spans else None
        name = layer.name
        clock = time.perf_counter
        observe = OBSERVERS.get(entry)
        counts = self.counts

        def enter() -> list:
            index = -1
            if spans is not None:
                parent = next((f[2] for f in reversed(stack) if f[2] >= 0),
                              -1)
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [stats, 0.0, index]
            stack.append(frame)
            return frame

        def leave(frame: list, start: float, end: float) -> None:
            stack.pop()
            elapsed = end - start
            stats[0] += 1
            stats[1] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
            if frame[2] >= 0:
                spans[frame[2]][1:3] = (start, end)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args: Any, **kwargs: Any) -> Iterator[Any]:
                inner = fn(*args, **kwargs)
                while True:
                    frame = enter()
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, start, clock())
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] is stats:
                result = fn(*args, **kwargs)
            else:
                frame = enter()
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(frame, start, clock())
            if observe is not None:
                observe(counts, args, result)
            return result
        return traced

    # -- results ----------------------------------------------------------

    def check(self, workload: str) -> None:
        """Fail loudly when the call counts contradict the layer table."""
        silent = [n for n in ACTIVE[workload] if self.stats[n][0] == 0]
        busy = [n for n in IDLE[workload] if self.stats[n][0] != 0]
        if silent or busy:
            raise TracerError(
                f"{workload}: active layers with zero calls {silent}, "
                f"idle layers with calls {busy}")

    def report(self, wall_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        attributed = 0.0
        for layer in LAYERS:
            calls, self_s = self.stats[layer.name]
            attributed += self_s
            out[f"{layer.name}.calls"] = calls
            out[f"{layer.name}.self_s"] = self_s
            out[f"{layer.name}.share"] = self_s / wall_s
        counts = self.counts
        out["recovery.checkpoint.encodes"] = counts["checkpoint_encodes"]
        out["recovery.checkpoint.bytes"] = counts["checkpoint_bytes"]
        received = counts["requests_received"]
        out["core.soa.grant_ratio"] = _ratio(counts["requests_granted"],
                                             received)
        out["core.soa.grant_ratio.base"] = received
        sent = sum(channel.sent for channel in self.channels)
        delivered = sum(channel.delivered for channel in self.channels)
        out["core.messaging.delivered_ratio"] = _ratio(delivered, sent)
        out["core.messaging.delivered_ratio.base"] = sent
        out["cluster.capping.cap_events"] = counts["cap_events"]
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - attributed
        return out

    def write(self, path: str, origin: float) -> None:
        """Spans (times relative to ``origin``) then one aggregate line
        per layer, as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for layer, start, end, parent in self.spans:
                out.write(json.dumps({"layer": layer,
                                      "start_s": start - origin,
                                      "end_s": end - origin,
                                      "parent": parent}) + "\n")
            for name, (calls, self_s) in self.stats.items():
                out.write(json.dumps({"layer": name, "calls": calls,
                                      "self_s": self_s}) + "\n")


def _ratio(part: float, base: float) -> float:
    """``part / base``; 0 when the base is empty (the base is reported
    beside every ratio)."""
    return part / base if base else 0.0
