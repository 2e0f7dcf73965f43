"""Smoke checks of the end-to-end benchmark at ``--smoke`` scale.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict

import pytest

from benchmarks.e2e import bench, driver

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def smoke_out(tmp_path_factory):
    """Every workload, untraced and traced, at smoke scale (kept on disk)."""
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out


def _result(out, workload: str, trace: int) -> dict:
    with open(os.path.join(out, f"{workload}-seed0-trace{trace}", "result.json")) as fh:
        return json.load(fh)


def test_metric_names_match_benchmark_json(smoke_out):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in declared[key]}
        for workload in bench.WORKLOADS:
            result = _result(smoke_out, workload, trace)
            assert result["correct"], (workload, trace)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == units, (workload, trace)


def test_child_spans_fit_in_parents(smoke_out):
    for workload in bench.WORKLOADS:
        path = os.path.join(smoke_out, f"{workload}-seed0-trace1", "spans.jsonl")
        with open(path) as fh:
            spans = [json.loads(line) for line in fh]
        assert spans, workload
        inclusive = defaultdict(float)
        child_self = defaultdict(float)
        for span in spans:
            duration = span["end"] - span["start"]
            assert -1e-9 <= span["self_s"] <= duration + 1e-9, span
            inclusive[span["name"]] += duration
            if span["parent"]:
                child_self[span["parent"]] += span["self_s"]
        for parent, total in child_self.items():
            assert total <= inclusive[parent] + 1e-9, (workload, parent)
        metrics = _result(smoke_out, workload, 1)["metrics"]
        area = "train" if workload.startswith("train") else "serve"
        assert metrics[f"{area}.other.share"]["value"] >= 0.0, workload


def test_training_digest_repeats(smoke_out):
    for workload in ("train-testbed", "train-sim50"):
        digests = {_result(smoke_out, workload, t)["info"]["digest"] for t in (0, 1)}
        assert len(digests) == 1, (workload, digests)


class _StallingServer:
    """Echoes one line per request line; the request ``stall_at`` holds
    every connection's answers for ``stall_s`` seconds."""

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.address = self.sock.getsockname()[:2]
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.window = (0.0, 0.0)
        self._count_lock = threading.Lock()
        self._open = threading.Event()
        self._open.set()
        self._seen = 0
        self._threads = []
        self._accept = threading.Thread(target=self._serve, daemon=True)
        self._accept.start()

    def _serve(self) -> None:
        for _ in range(2):
            conn, _addr = self.sock.accept()
            thread = threading.Thread(target=self._answer, args=(conn,), daemon=True)
            thread.start()
            self._threads.append(thread)

    def _answer(self, conn: socket.socket) -> None:
        with conn, conn.makefile("rb") as lines:
            for _line in lines:
                with self._count_lock:
                    self._seen += 1
                    stall = self._seen == self.stall_at
                if stall:
                    # Closed before the window starts, so every request
                    # that arrives during the window waits for it.
                    self._open.clear()
                    start = time.perf_counter()
                    time.sleep(self.stall_s)
                    self.window = (start, time.perf_counter())
                    self._open.set()
                self._open.wait(5.0)
                conn.sendall(b'{"ok":true}\n')

    def close(self) -> None:
        self.sock.close()
        self._accept.join(5.0)
        assert not self._accept.is_alive()
        for thread in self._threads:
            thread.join(5.0)
            assert not thread.is_alive()


def test_open_loop_charges_a_stall_to_requests_due_during_it():
    server = _StallingServer(stall_at=100, stall_s=0.2)
    try:
        phase = driver.run_phase(server.address, lambda i: b"{}\n",
                                 rate=200.0, duration_s=1.5)
    finally:
        server.close()
    start, end = server.window
    assert end - start >= 0.2
    due = [i for i, s in enumerate(phase.scheduled) if start <= s < end]
    assert len(due) >= 30
    latencies = phase.latencies_ms()
    for i in due:
        # Answered no earlier than the stall's end, and charged from the
        # scheduled time, not from when the driver got to send it.
        assert phase.done[i] >= end
        assert latencies[i] >= (end - phase.scheduled[i]) * 1000.0
    assert phase.late_p99_ms() < 5.0
