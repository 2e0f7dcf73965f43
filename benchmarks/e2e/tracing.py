"""Per-layer spans recorded from benchmark code.

A :class:`Tracer` replaces the public functions of each layer with
wrappers that time every call.  Nothing inside ``src/`` is edited: the
wrappers are installed by :func:`install_train` / :func:`install_serve`
and removed again by :meth:`Tracer.uninstall`.

Spans nest per thread.  Each record keeps the span's *self* time: its
duration minus the durations of the spans it directly encloses.  The
summary adds an ``<area>.other`` entry for the part of the wall time no
span covers, so the self times plus ``.other`` add up to the wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Spans of the training path, in the order reports list them.
TRAIN_SPANS = (
    "rl.agent.act",
    "rl.agent.act_batch",
    "rl.agent.observe",
    "rl.agent.observe_batch",
    "env.fl_env.step",
    "parallel.vec_env.step",
    "sim.system.step",
    "sim.iteration.simulate_iteration",
    "traces.kernel.time_to_transfer",
    "traces.kernel.histories",
    "rl.ppo.update",
    "nn.forward",
    "nn.backward",
    "nn.optim.step",
    "rl.gae",
)

#: Spans of the serving path.  All but ``serve.artifact.act_batch`` run
#: on connection-handler threads; the policy forward runs on the engine
#: worker thread, concurrently with ``serve.engine.result_wait``.
SERVE_SPANS = (
    "serve.protocol.read_line",
    "serve.protocol.decode_request",
    "serve.server.handle_line",
    "serve.engine.submit",
    "serve.engine.result_wait",
    "serve.artifact.act_batch",
    "serve.protocol.encode_response",
    "loop.experience.append",
)

#: Spans that do not run on a handler thread (excluded from the
#: handler-thread wall-time attribution).
CONCURRENT_SPANS = ("serve.artifact.act_batch",)

#: Record layout: [name, parent, thread, start, end, self_s, request_id];
#: ``parent`` is the enclosing span's name ("" at the top level) and
#: ``thread`` numbers threads in the order they first recorded a span
#: (OS thread idents are reused once a connection thread exits).
Record = List[Any]
FIELDS = ("name", "parent", "thread", "start", "end", "self_s", "id")


class Tracer:
    """Records nested spans per thread; see the module docstring."""

    def __init__(self) -> None:
        self.records: List[Record] = []
        #: Spans are timed always (so parents see their children) but
        #: kept only while this is true.
        self.recording = True
        self._local = threading.local()
        self._threads = itertools.count()
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------------
    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.thread = next(self._threads)
            local.stack = []
            local.request_id = None
            local.untagged = None
        return local

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            local = self._state()
            stack = local.stack
            frame = [0.0, name]  # [time in direct children, span name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = ""
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][1]
                if self.recording:
                    record = [name, parent, local.thread, start, end,
                              duration - frame[0], local.request_id]
                    self.records.append(record)
                    if local.untagged is not None and local.request_id is None:
                        local.untagged.append(record)

        return traced

    def tag_requests(self) -> None:
        """Mark the calling thread as a request handler.

        Spans it records before the request is decoded (the line read)
        get the request's ``id`` once :meth:`set_request_id` sees it.
        """
        local = self._state()
        if local.untagged is None:
            local.untagged = []

    def set_request_id(self, request_id: Any) -> None:
        local = self._state()
        local.request_id = request_id
        if local.untagged:
            for record in local.untagged:
                record[6] = request_id
            local.untagged.clear()

    # -- installation ---------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str,
              around: Optional[Callable[[Callable], Callable]] = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by uninstall).

        ``around`` optionally adapts the original before it is traced,
        e.g. to tag the request id inside the decode span.
        """
        original = getattr(owner, attr)
        target = around(original) if around is not None else original
        setattr(owner, attr, self.wrap(name, target))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def write_jsonl(records: Iterable[Record], path: str) -> None:
    """One JSON object per span, keyed by :data:`FIELDS`."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(dict(zip(FIELDS, record))) + "\n")


def read_jsonl(path: str) -> List[Record]:
    with open(path) as fh:
        return [[r[k] for k in FIELDS] for r in map(json.loads, fh)]


def install_train(tracer: Tracer) -> None:
    """Wrap the training path: agent, env, simulator, kernel, PPO, nn."""
    from repro.env.fl_env import FLSchedulingEnv
    from repro.nn.modules import Sequential
    from repro.nn.optim import Adam
    from repro.parallel.vec_env import SerialVecEnv
    from repro.rl import ppo
    from repro.rl.agent import PPOAgent
    from repro.sim import system
    from repro.traces.kernel import FleetTraceKernel

    for attr in ("act", "act_batch", "observe", "observe_batch"):
        tracer.patch(PPOAgent, attr, f"rl.agent.{attr}")
    tracer.patch(FLSchedulingEnv, "step", "env.fl_env.step")
    tracer.patch(SerialVecEnv, "step", "parallel.vec_env.step")
    tracer.patch(system.FLSystem, "step", "sim.system.step")
    # FLSystem.step calls the name it imported into repro.sim.system.
    tracer.patch(system, "simulate_iteration", "sim.iteration.simulate_iteration")
    tracer.patch(FleetTraceKernel, "time_to_transfer", "traces.kernel.time_to_transfer")
    tracer.patch(FleetTraceKernel, "histories", "traces.kernel.histories")
    tracer.patch(ppo.PPOUpdater, "update", "rl.ppo.update")
    tracer.patch(Sequential, "forward", "nn.forward")
    tracer.patch(Sequential, "forward_infer", "nn.forward")
    tracer.patch(Sequential, "backward", "nn.backward")
    tracer.patch(Adam, "step", "nn.optim.step")
    for attr in ("compute_gae", "compute_gae_grouped"):
        tracer.patch(ppo, attr, "rl.gae")


def install_serve(tracer: Tracer) -> None:
    """Wrap the serving path: protocol, dispatch, engine, policy, store."""
    from repro.loop.experience import ExperienceStore
    from repro.serve import server
    from repro.serve.artifact import PolicyArtifact
    from repro.serve.engine import BatchedInferenceEngine, InferenceTicket

    def handler_read(read_line: Callable) -> Callable:
        def read(stream: Any) -> bytes:
            tracer.set_request_id(None)
            tracer.tag_requests()
            return read_line(stream)
        return read

    def tagging_decode(decode: Callable) -> Callable:
        def decode_and_tag(line: bytes) -> Dict[str, Any]:
            request = decode(line)
            tracer.set_request_id(request.get("id"))
            return request
        return decode_and_tag

    # The handler calls the protocol helpers through the names
    # repro.serve.server imported.
    tracer.patch(server, "read_line", "serve.protocol.read_line", around=handler_read)
    tracer.patch(server, "decode_request", "serve.protocol.decode_request",
                 around=tagging_decode)
    tracer.patch(server, "encode_response", "serve.protocol.encode_response")
    tracer.patch(server.AllocationServer, "handle_line", "serve.server.handle_line")
    tracer.patch(BatchedInferenceEngine, "submit", "serve.engine.submit")
    tracer.patch(InferenceTicket, "result", "serve.engine.result_wait")
    tracer.patch(PolicyArtifact, "act_batch", "serve.artifact.act_batch")
    tracer.patch(ExperienceStore, "append", "loop.experience.append")


# -- summaries ----------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    k = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[k]


def summarize(records: Iterable[Record], names: Sequence[str], area: str,
              wall_s: Optional[float] = None) -> Tuple[Dict[str, float], float]:
    """Per-span ``.calls`` and ``.share`` plus ``<area>.other.share``.

    Returns the metrics and the wall time the shares divide by.
    ``wall_s`` is the traced run's wall time.  When it is omitted (the
    threaded server) the wall time is the sum over request-handler
    threads of each thread's first-to-last span interval, and spans in
    :data:`CONCURRENT_SPANS` are reported but left out of the sum.
    """
    records = list(records)
    calls = {name: 0 for name in names}
    self_s = {name: 0.0 for name in names}
    for name, _parent, _thread, _start, _end, s, _rid in records:
        if name in calls:
            calls[name] += 1
            self_s[name] += s
    if wall_s is None:
        windows: Dict[int, List[float]] = {}
        for name, _parent, thread, start, end, _s, _rid in records:
            if name in CONCURRENT_SPANS:
                continue
            w = windows.setdefault(thread, [start, end])
            w[0] = min(w[0], start)
            w[1] = max(w[1], end)
        wall_s = sum(end - start for start, end in windows.values())
    attributed = sum(s for name, s in self_s.items() if name not in CONCURRENT_SPANS)
    out: Dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = float(calls[name])
        out[f"{name}.share"] = self_s[name] / wall_s if wall_s > 0 else 0.0
    out[f"{area}.other.share"] = (wall_s - attributed) / wall_s if wall_s > 0 else 0.0
    return out, wall_s


def span_durations_ms(records: Iterable[Record], name: str) -> List[float]:
    return [(r[4] - r[3]) * 1000.0 for r in records if r[0] == name]
