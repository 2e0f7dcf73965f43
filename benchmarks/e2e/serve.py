"""Serving workloads: the allocation server as a separate process.

Each measured session starts ``benchmarks/e2e/serve_main.py`` in its own
interpreter, so the load driver never shares the server's GIL, and
drives it over two TCP connections from this single-threaded process
(:mod:`benchmarks.e2e.driver`).

Correctness is checked after the timed phases: every OK ``allocate``
response must be byte-equal to ``PolicyArtifact.load(path).act_batch``
of its state, every OK ``outcome`` must be recorded, and the experience
store reopened after the drain must hold the prefill plus those records.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from benchmarks.e2e.driver import PhaseResult, run_phase


@dataclass(frozen=True)
class ServeSpec:
    """What one serving workload serves and sends."""

    preset: str
    #: Share of requests that are ``outcome`` reports (the rest allocate).
    outcome_share: float
    #: Order of the timed phases.
    phases: Tuple[str, ...]
    #: Store segments of 256 records written before the server starts.
    prefill_segments: int


SERVE_WORKLOADS = {
    "serve-allocate": ServeSpec("TESTBED_PRESET", 0.0, ("closed", "open"), 0),
    "serve-mixed-sim50": ServeSpec("SIMULATION_PRESET", 0.5, ("open", "closed"), 48),
}

#: Open-loop arrival rate (requests per second, both connections).
OPEN_RATE = 300.0
#: Open-loop percentile reported as the tail.  Higher ones are set by a
#: handful of events per run (scheduling hiccups of a few ms; the mixed
#: workload's ~6 store-flush stalls of ~100 ms) and spread 0.25-0.38
#: across seeds, beyond the benchmark's bound.
TAIL_PERCENTILE = 90.0
CONNECTIONS = 2
#: Distinct request states per run.
STATE_POOL = 512
#: ExperienceStore's default segment size, which serve_main keeps.
SEGMENT_RECORDS = 256
#: Seconds to wait for a server to report its address, or to drain.
SERVER_TIMEOUT_S = 60.0
#: An open-loop run whose driver sent this late (p99, ms) is invalid.
MAX_LATE_P99_MS = 5.0
#: Closed-loop request arrays are sized for this rate; far above capacity.
MAX_CLOSED_RPS = 5000


@dataclass
class Fixture:
    """Untimed inputs of one serving run, all derived from the seed."""

    workdir: str
    artifact_path: str
    expected: np.ndarray
    state_json: List[bytes]
    freq_json: List[bytes]
    rewards: np.ndarray
    store_template: Optional[str]
    prefill_records: int
    seed: int


def make_fixture(workload: str, seed: int, workdir: str,
                 prefill_segments: Optional[int] = None) -> Fixture:
    """Artifact, request states and (mixed) a prefilled experience store.

    ``prefill_segments`` overrides the workload's store size (smoke runs).
    """
    from repro.experiments import presets
    from repro.rl.agent import AgentConfig, PPOAgent
    from repro.serve import PolicyArtifact, export_policy

    spec = SERVE_WORKLOADS[workload]
    if prefill_segments is None:
        prefill_segments = spec.prefill_segments
    prefill_segments = min(prefill_segments, spec.prefill_segments)
    preset = getattr(presets, spec.preset)
    rng = np.random.default_rng(seed)
    system = presets.build_system(preset, seed=seed)
    states = []
    for _ in range(STATE_POOL):
        system.reset_random(rng)
        states.append(system.bandwidth_state().ravel())
    states_arr = np.stack(states)
    obs_dim, act_dim = states_arr.shape[1], system.n_devices
    # An untrained actor has the served architecture; its normalizer is
    # fitted to the request states so outputs are not saturated.
    agent = PPOAgent(AgentConfig(obs_dim=obs_dim, act_dim=act_dim), rng=seed)
    agent.obs_norm(states_arr)
    checkpoint = os.path.join(workdir, "agent.npz")
    agent.save(checkpoint)
    artifact_path = os.path.join(workdir, "policy-v0001.policy.npz")
    export_policy(checkpoint, artifact_path, system.fleet.max_frequencies, durable=False)
    expected = PolicyArtifact.load(artifact_path).act_batch(states_arr)
    rewards = -rng.uniform(2.0, 20.0, size=STATE_POOL)
    fixture = Fixture(
        workdir=workdir,
        artifact_path=artifact_path,
        expected=expected,
        state_json=[json.dumps(s.tolist()).encode() for s in states_arr],
        freq_json=[json.dumps(f.tolist()).encode() for f in expected],
        rewards=rewards,
        store_template=None,
        prefill_records=prefill_segments * SEGMENT_RECORDS,
        seed=seed,
    )
    if prefill_segments:
        from repro.loop import ExperienceStore

        fixture.store_template = os.path.join(workdir, "store-template")
        store = ExperienceStore(fixture.store_template, segment_records=SEGMENT_RECORDS,
                                durable=False)
        for i in range(fixture.prefill_records):
            k = i % STATE_POOL
            store.append(states_arr[k], expected[k], rewards[k], -rewards[k], float(i))
        store.flush()
    return fixture


# -- the server process -------------------------------------------------------
def child_env(root: str) -> Dict[str, str]:
    """Environment for a child interpreter that imports ``repro`` and
    ``benchmarks`` from the checkout at ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), root, env.get("PYTHONPATH")) if p
    )
    return env


class ServerProcess:
    """``serve_main`` in a child interpreter; a context manager that stops it."""

    def __init__(self, root: str, fixture: Fixture, store: Optional[str] = None,
                 spans_out: Optional[str] = None) -> None:
        cmd = [sys.executable, "-m", "benchmarks.e2e.serve_main",
               "--policy", fixture.artifact_path]
        if store is not None:
            cmd += ["--store", store]
        if spans_out is not None:
            cmd += ["--trace", "--spans-out", spans_out]
        self.proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                                     stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError("allocation server did not report its address")
            addr = json.loads(line)
        except BaseException:
            self.kill()
            raise
        self.address: Tuple[str, int] = (addr["host"], int(addr["port"]))

    def request(self, op: str) -> Dict[str, Any]:
        from repro.serve import request_once

        return request_once(*self.address, op, timeout=30.0)

    def stop(self) -> None:
        """SIGTERM, wait for the drain; a non-zero exit is an error."""
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(SERVER_TIMEOUT_S)
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"allocation server exited with code {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self.proc.stdout.closed:
            self.proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc: object) -> None:
        self.kill()


def cold_start_s(root: str, fixture: Fixture, store: Optional[str]) -> float:
    """Seconds from spawning the server to its first OK ``health``."""
    t0 = time.perf_counter()
    with ServerProcess(root, fixture, store=store) as server:
        if not server.request("health").get("ok"):
            raise RuntimeError("allocation server answered health with an error")
        elapsed = time.perf_counter() - t0
        server.stop()
    return elapsed


# -- load phases ----------------------------------------------------------------
class RequestStream:
    """Seeded request lines of one phase; ids are unique within a session.

    Phase ``ordinal`` of every session draws the same op mix and states,
    so an untraced and a traced session see identical requests.
    """

    def __init__(self, fixture: Fixture, outcome_share: float, n_max: int,
                 first_id: int, ordinal: int) -> None:
        self.fixture = fixture
        self.first_id = first_id
        rng = np.random.default_rng([fixture.seed, ordinal])
        self.state_idx = rng.integers(0, STATE_POOL, size=n_max)
        self.is_outcome = rng.random(n_max) < outcome_share

    def line(self, i: int) -> bytes:
        f = self.fixture
        k = int(self.state_idx[i])
        rid = self.first_id + i
        if self.is_outcome[i]:
            reward = float(f.rewards[k])
            return b'{"op":"outcome","id":%d,"state":%s,"frequencies":%s,' \
                   b'"reward":%r,"cost":%r,"clock":%d}\n' % (
                       rid, f.state_json[k], f.freq_json[k], reward, -reward, rid)
        return b'{"op":"allocate","id":%d,"state":%s}\n' % (rid, f.state_json[k])


@dataclass
class PhaseCheck:
    """Outcome of checking one phase's responses."""

    failed: int = 0
    ok_outcomes: int = 0
    problems: List[str] = field(default_factory=list)


def check_phase(stream: RequestStream, phase: PhaseResult) -> PhaseCheck:
    """Byte-equality of allocations, recorded outcomes, echoed ids."""
    expected = stream.fixture.expected
    check = PhaseCheck()
    for i, raw in enumerate(phase.responses):
        problem = None
        if raw is None:
            problem = "no response"
        else:
            response = json.loads(raw)
            k = int(stream.state_idx[i])
            if response.get("id") != stream.first_id + i:
                problem = "wrong id"
            elif not response.get("ok"):
                problem = f"error {response.get('error')}"
            elif stream.is_outcome[i]:
                if response.get("recorded") is not True:
                    problem = "outcome not recorded"
                else:
                    check.ok_outcomes += 1
            else:
                served = np.asarray(response["frequencies"], dtype=np.float64)
                if served.tobytes() != expected[k].tobytes():
                    problem = "frequencies differ from PolicyArtifact.act_batch"
        if problem is not None:
            check.failed += 1
            if len(check.problems) < 5:
                check.problems.append(f"request {stream.first_id + i}: {problem}")
    return check


@dataclass
class Session:
    """One server process's measured phases and checks."""

    phases: Dict[str, PhaseResult] = field(default_factory=dict)
    streams: Dict[str, RequestStream] = field(default_factory=dict)
    checks: List[PhaseCheck] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    store_ok: Optional[bool] = None
    store_detail: str = ""

    @property
    def attempted(self) -> int:
        return sum(p.n for p in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.checks)

    def allocate_latencies_ms(self, phase: str) -> List[float]:
        """Latencies of the phase's ``allocate`` requests only."""
        outcome = self.streams[phase].is_outcome
        return [lat for lat, out in zip(self.phases[phase].latencies_ms(), outcome)
                if not out]


def run_session(root: str, workload: str, fixture: Fixture, phases: Dict[str, dict],
                store: Optional[str] = None, spans_out: Optional[str] = None) -> Session:
    """Start a server, run ``phases`` (name -> run_phase kwargs) in order.

    Responses are checked after the server has drained, so checking
    costs no time inside a phase.
    """
    spec = SERVE_WORKLOADS[workload]
    session = Session()
    first_id = 0
    with ServerProcess(root, fixture, store=store, spans_out=spans_out) as server:
        if not server.request("health").get("ok"):
            raise RuntimeError("allocation server answered health with an error")
        for ordinal, (name, kwargs) in enumerate(phases.items()):
            if kwargs.get("rate") is not None:
                n_max = int(kwargs["rate"] * kwargs["duration_s"])
            elif kwargs.get("max_requests") is not None:
                n_max = kwargs["max_requests"]
            else:
                n_max = int(MAX_CLOSED_RPS * kwargs["duration_s"]) + 1
            stream = RequestStream(fixture, spec.outcome_share, n_max, first_id, ordinal)
            first_id += n_max
            session.streams[name] = stream
            session.phases[name] = run_phase(server.address, stream.line,
                                             connections=CONNECTIONS, **kwargs)
        session.stats = server.request("stats")
        server.stop()
    for name, phase in session.phases.items():
        session.checks.append(check_phase(session.streams[name], phase))
    if store is not None:
        from repro.loop import ExperienceStore

        reopened = ExperienceStore(store)
        want = _records_kept(reopened, fixture.prefill_records,
                             sum(c.ok_outcomes for c in session.checks))
        have = len(reopened)
        session.store_ok = have == want
        session.store_detail = f"store holds {have} records, expected {want}"
    return session


def _records_kept(store: Any, prefill: int, recorded: int) -> int:
    """Records a drained store must hold: prefill plus every recorded
    outcome, less the full segments rotated out past ``keep_segments``.

    Every segment is full except the one the drain flushed last.
    """
    per = store.segment_records
    segments = prefill // per + -(-recorded // per)
    return prefill + recorded - max(0, segments - store.keep_segments) * per


def store_copy(fixture: Fixture, name: str) -> Optional[str]:
    """A private copy of the prefilled store for one server session."""
    if fixture.store_template is None:
        return None
    path = os.path.join(fixture.workdir, name)
    shutil.copytree(fixture.store_template, path)
    # Write the copied (and prefilled) segments back now: left dirty,
    # they would be flushed behind the server's first durable fsyncs and
    # stretch its flush stalls by however much writeback is pending.
    os.sync()
    return path
