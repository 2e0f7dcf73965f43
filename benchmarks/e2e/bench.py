"""Workload runners: one (workload, seed, trace) run -> metrics and checks.

An untraced run (``trace=False``) measures the end-to-end metrics.  A
traced run first repeats a shorter untraced measurement, then measures
the same amount of work with the span wrappers installed; it reports the
per-layer metrics and ``trace_overhead`` (traced / untraced wall - 1).
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import serve, train
from benchmarks.e2e.tracing import (
    SERVE_SPANS,
    TRAIN_SPANS,
    Tracer,
    install_train,
    percentile,
    read_jsonl,
    span_durations_ms,
    summarize,
)

WORKLOADS = ("train-testbed", "train-sim50", "serve-allocate", "serve-mixed-sim50")

#: End-to-end metrics: name -> unit.  Every workload reports all of them;
#: README.md says what each means on a training and a serving workload.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

#: Cold starts per run; setup_s is their median.
COLD_STARTS = 5
#: Smoke runs: one cold start and a 4-segment experience store.
SMOKE_PREFILL_SEGMENTS = 4
#: The training step-time tail is the median of this many chunk p99s.
TAIL_CHUNKS = 4
#: Training throughput is the median rate over blocks of this many
#: iterations: the KL early stop gives some iterations all 10 PPO epochs,
#: and a plain mean follows how many of those a seed happens to draw.
TRAIN_BLOCK = 5

EXPECTED_DIGESTS = os.path.join(os.path.dirname(__file__), "expected_digests.json")


def per_layer_units() -> Dict[str, Tuple[str, str]]:
    """Per-layer metrics: name -> (unit, better)."""
    out: Dict[str, Tuple[str, str]] = {}
    for span in TRAIN_SPANS + SERVE_SPANS:
        out[f"{span}.calls"] = ("count", "higher")
        out[f"{span}.share"] = ("ratio", "lower")
    out["train.other.share"] = ("ratio", "lower")
    out["serve.other.share"] = ("ratio", "lower")
    out["trace.wall_s"] = ("s", "lower")
    out["trace_overhead"] = ("ratio", "lower")
    out["driver.cpu_s"] = ("s", "lower")
    out["engine.batch_size_mean"] = ("requests", "higher")
    out["engine.shed"] = ("count", "lower")
    out["engine.expired"] = ("count", "lower")
    return out


@dataclass
class Result:
    """Metrics, counts and failed checks of one run."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Diagnostics printed beside the metrics (not part of the record).
    info: Dict[str, object] = field(default_factory=dict)
    #: Spans of a traced run (see tracing.FIELDS).
    spans: List[list] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def record(self, trace: bool) -> dict:
        units = ({k: u for k, (u, _b) in per_layer_units().items()} if trace
                 else END_TO_END)
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": self.metrics[k], "unit": units[k]} for k in units},
        }


def _block_rate(iteration_s: Sequence[float], steps: int) -> float:
    """Median transitions/s over consecutive TRAIN_BLOCK-iteration blocks."""
    blocks = [sum(iteration_s[i:i + TRAIN_BLOCK])
              for i in range(0, len(iteration_s) - TRAIN_BLOCK + 1, TRAIN_BLOCK)]
    if not blocks:
        return steps * len(iteration_s) / sum(iteration_s)
    return TRAIN_BLOCK * steps / statistics.median(blocks)


def _chunked_p99(values: Sequence[float]) -> float:
    """Median over TAIL_CHUNKS consecutive chunks of each chunk's p99."""
    size = max(1, len(values) // TAIL_CHUNKS)
    chunks = [values[i:i + size] for i in range(0, size * TAIL_CHUNKS, size)]
    return statistics.median(percentile(c, 99) for c in chunks if c)


def _load_expected(workload: str, seed: int) -> Optional[str]:
    with open(EXPECTED_DIGESTS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _train_cold_start_s(root: str, workload: str, seed: int) -> float:
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "coldstart",
         "--workload", workload, "--seed", str(seed)],
        cwd=root, env=serve.child_env(root), stdout=subprocess.PIPE, check=True,
        timeout=120,
    ).stdout
    elapsed = time.perf_counter() - t0
    if out.strip() != b"ready":
        raise RuntimeError(f"training cold start printed {out!r}")
    return elapsed


# -- training -----------------------------------------------------------------
def _check_training(result: Result, workload: str, seed: int, run: train.TrainRun) -> None:
    result.attempted += run.updates
    result.failed += run.bad_updates
    if run.bad_updates:
        result.problems.append(f"{run.bad_updates} PPO updates were skipped or non-finite")
    if not run.digest:
        result.problems.append("the run ended before the digest point")
        return
    expected = _load_expected(workload, seed)
    result.info["digest"] = run.digest
    result.info["digest_cost"] = run.digest_cost
    if expected is not None and expected != run.digest:
        result.problems.append(f"digest {run.digest} != expected {expected}")


def run_train(root: str, workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool) -> Result:
    result = Result()
    cold_starts = 1 if smoke else COLD_STARTS
    if not trace:
        setups = [_train_cold_start_s(root, workload, seed) for _ in range(cold_starts)]
        run = train.run_training(workload, seed, seconds)
        _check_training(result, workload, seed, run)
        result.metrics = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": _block_rate(run.iteration_s, run.steps_per_iteration),
            "latency_p50_ms": statistics.median(run.iteration_s) * 1000.0,
            "latency_tail_ms": _chunked_p99(run.step_s) * 1000.0,
        }
        result.info["iterations"] = len(run.iteration_s)
        return result
    base = train.run_training(workload, seed, seconds / 2)
    tracer = Tracer()
    install_train(tracer)
    try:
        traced = train.run_training(workload, seed, 0.0,
                                    iterations=len(base.iteration_s), tracer=tracer)
    finally:
        tracer.uninstall()
    for run in (base, traced):
        _check_training(result, workload, seed, run)
    if traced.digest != base.digest:
        result.problems.append("tracing changed the training result")
    result.metrics = _layer_metrics(*summarize(
        tracer.records, TRAIN_SPANS + SERVE_SPANS, "train", wall_s=traced.timed_s))
    result.metrics.update({
        "trace_overhead": traced.timed_s / base.timed_s - 1.0,
        "driver.cpu_s": traced.cpu_s,
        "engine.batch_size_mean": 0.0,
        "engine.shed": 0.0,
        "engine.expired": 0.0,
    })
    result.info["iterations"] = len(traced.iteration_s)
    result.spans = tracer.records
    return result


def _layer_metrics(layers: Dict[str, float], wall_s: float) -> Dict[str, float]:
    metrics = {"train.other.share": 0.0, "serve.other.share": 0.0}
    metrics.update(layers)
    metrics["trace.wall_s"] = wall_s
    return metrics


# -- serving ------------------------------------------------------------------
def _engine(result: Result, session: serve.Session) -> Dict[str, float]:
    """Engine counters from the public ``stats`` op; latencies go to info."""
    metrics = session.stats.get("metrics", {})
    hist = metrics.get("histograms", {})
    counters = metrics.get("counters", {})
    for key, name, q in (("engine.wait_ms_p50", "serve.wait_ms", "p50"),
                         ("engine.wait_ms_p99", "serve.wait_ms", "p99"),
                         ("engine.infer_ms_p50", "serve.infer_ms", "p50")):
        result.info[key] = float(hist.get(name, {}).get(q, math.nan))
    return {
        "engine.batch_size_mean": float(hist.get("serve.batch_size", {}).get("mean", 0.0)),
        "engine.shed": float(counters.get("serve.shed", {}).get("count", 0.0)),
        "engine.expired": float(counters.get("serve.expired", {}).get("count", 0.0)),
    }


def _serve_checks(result: Result, session: serve.Session) -> None:
    result.attempted += session.attempted
    result.failed += session.failed
    for check in session.checks:
        result.problems.extend(check.problems)
    if session.store_ok is False:
        result.problems.append(session.store_detail)


def run_serve(root: str, workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool, workdir: str) -> Result:
    spec = serve.SERVE_WORKLOADS[workload]
    fixture = serve.make_fixture(workload, seed, workdir,
                                 SMOKE_PREFILL_SEGMENTS if smoke else None)
    result = Result()
    cold_starts = 1 if smoke else COLD_STARTS
    if not trace:
        store = serve.store_copy(fixture, "store")
        setups = [serve.cold_start_s(root, fixture, store) for _ in range(cold_starts)]
        kinds = {"closed": {"duration_s": seconds / 3},
                 "open": {"rate": serve.OPEN_RATE, "duration_s": seconds * 2 / 3}}
        session = serve.run_session(root, workload, fixture,
                                    {name: kinds[name] for name in spec.phases},
                                    store=store)
        _serve_checks(result, session)
        closed, opened = session.phases["closed"], session.phases["open"]
        late = opened.late_p99_ms()
        result.info["driver.late_p99_ms"] = late
        if late > serve.MAX_LATE_P99_MS:
            result.problems.append(
                f"driver sent {late:.2f} ms late at p99 (> {serve.MAX_LATE_P99_MS} ms): "
                "the open-loop schedule was not kept")
        result.metrics = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": closed.n / closed.wall_s,
            "latency_p50_ms": statistics.median(session.allocate_latencies_ms("closed")),
            "latency_tail_ms": percentile(opened.latencies_ms(), serve.TAIL_PERCENTILE),
        }
        result.info.update(_engine(result, session))
        result.info["closed_requests"] = closed.n
        result.info["open_requests"] = opened.n
        return result
    base = serve.run_session(root, workload, fixture, {"closed": {"duration_s": seconds / 2}},
                             store=serve.store_copy(fixture, "store-untraced"))
    n = base.phases["closed"].n
    spans_out = os.path.join(workdir, "spans.jsonl")
    traced = serve.run_session(root, workload, fixture, {"closed": {"max_requests": n}},
                               store=serve.store_copy(fixture, "store-traced"),
                               spans_out=spans_out)
    for session in (base, traced):
        _serve_checks(result, session)
    records = read_jsonl(spans_out)
    result.metrics = _layer_metrics(*summarize(records, TRAIN_SPANS + SERVE_SPANS, "serve"))
    result.metrics.update(_engine(result, traced))
    result.metrics.update({
        "trace_overhead": traced.phases["closed"].wall_s / base.phases["closed"].wall_s - 1.0,
        "driver.cpu_s": traced.phases["closed"].cpu_s,
    })
    appends = span_durations_ms(records, "loop.experience.append")
    if appends:
        result.info["loop.experience.append.p99_ms"] = percentile(appends, 99)
        result.info["loop.experience.append.max_ms"] = max(appends)
    result.spans = records
    return result


def run(root: str, workload: str, seed: int, seconds: float, trace: bool,
        workdir: str, smoke: bool = False) -> Result:
    """One run; ``smoke`` shrinks set-up (one cold start, small store)."""
    if workload in train.TRAIN_WORKLOADS:
        return run_train(root, workload, seed, seconds, trace, smoke)
    return run_serve(root, workload, seed, seconds, trace, smoke, workdir)
