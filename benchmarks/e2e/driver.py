"""Single-threaded open- and closed-loop load driver over a few connections.

One ``selectors`` loop owns every socket, so the driver adds one thread
of load to the machine no matter how many connections it keeps.

* Closed loop: each connection holds at most one request in flight and
  sends the next one as soon as the previous response arrives.
* Open loop: request ``i`` is due at ``t0 + i / rate`` and goes out on
  connection ``i % connections`` whether or not earlier requests were
  answered.  Its latency is measured from the *scheduled* time, so a
  server stall is charged to every request that was due during it, and
  ``late_ms`` records how far behind schedule the driver itself sent.

``repro.serve.loadgen`` is not used: its open loop stamps the actual send
time (hiding stalls) and runs two threads per connection.
"""

from __future__ import annotations

import collections
import math
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from benchmarks.e2e.tracing import percentile


@dataclass
class PhaseResult:
    """Per-request timings and raw response lines of one load phase."""

    scheduled: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    responses: List[Optional[bytes]] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def n(self) -> int:
        return len(self.sent)

    def latencies_ms(self) -> List[float]:
        return [(d - s) * 1000.0 for s, d in zip(self.scheduled, self.done)]

    def late_p99_ms(self) -> float:
        return percentile([(a - s) * 1000.0 for s, a in zip(self.scheduled, self.sent)], 99)


_QUICKACK = getattr(socket, "TCP_QUICKACK", None)
#: A phase fails when no response arrives for this long.
STALL_TIMEOUT_S = 30.0


class _Conn:
    __slots__ = ("sock", "buf", "inflight")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = bytearray()
        self.inflight: Deque[int] = collections.deque()


def run_phase(
    address: Tuple[str, int],
    make_line: Callable[[int], bytes],
    *,
    connections: int = 2,
    rate: Optional[float] = None,
    duration_s: float = 1.0,
    max_requests: Optional[int] = None,
) -> PhaseResult:
    """Drive one phase; ``rate=None`` is a closed loop, else an open loop.

    ``make_line(i)`` returns request ``i`` as one newline-terminated
    protocol line.  The phase issues requests for ``duration_s`` seconds
    (open loop: ``rate * duration_s`` of them) or until ``max_requests``,
    then waits for every response.
    """
    conns = []
    selector = selectors.DefaultSelector()
    try:
        for _ in range(connections):
            sock = socket.create_connection(address, timeout=STALL_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(sock)
            conns.append(conn)
            selector.register(sock, selectors.EVENT_READ, conn)
        if rate is None:
            return _closed(conns, selector, make_line, duration_s, max_requests)
        total = int(rate * duration_s) if max_requests is None else max_requests
        return _open(conns, selector, make_line, rate, total)
    finally:
        selector.close()
        for conn in conns:
            conn.sock.close()


def _send(conn: _Conn, i: int, line: bytes, scheduled: float,
          result: PhaseResult, clock: Callable[[], float]) -> None:
    result.scheduled.append(scheduled)
    result.sent.append(clock())
    result.done.append(math.nan)
    result.responses.append(None)
    conn.inflight.append(i)
    conn.sock.sendall(line)


def _receive(conn: _Conn, result: PhaseResult, now: float) -> int:
    """Read what ``conn`` has; returns the number of responses completed."""
    data = conn.sock.recv(1 << 20)
    if not data:
        raise ConnectionError("server closed a load connection mid-phase")
    if _QUICKACK is not None:
        # Acknowledge at once (Linux clears quick-ack mode after a while).
        # A delayed ACK would let the server's Nagle algorithm hold its
        # next response until this connection's next request carried the
        # ACK: an open-loop lock-step adding two send intervals to every
        # response, in some server processes and not others.
        conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
    buf = conn.buf
    buf += data
    completed = 0
    start = 0
    while True:
        end = buf.find(b"\n", start)
        if end < 0:
            break
        i = conn.inflight.popleft()
        result.done[i] = now
        result.responses[i] = bytes(buf[start:end])
        completed += 1
        start = end + 1
    del buf[:start]
    return completed


def _select(selector: selectors.BaseSelector, timeout: float,
            stall_deadline: float) -> list:
    """Ready connections; raises once responses are overdue past the deadline."""
    events = selector.select(max(0.0, timeout))
    if not events and time.perf_counter() > stall_deadline:
        raise TimeoutError("the server stopped answering mid-phase")
    return events


def _closed(conns: Sequence[_Conn], selector: selectors.BaseSelector,
            make_line: Callable[[int], bytes], duration_s: float,
            max_requests: Optional[int]) -> PhaseResult:
    clock = time.perf_counter
    result = PhaseResult()
    limit = math.inf if max_requests is None else max_requests
    cpu0 = time.process_time()
    t0 = clock()
    stop_at = t0 + duration_s if max_requests is None else math.inf
    next_i = 0
    outstanding = 0

    def issue(conn: _Conn) -> None:
        nonlocal next_i, outstanding
        now = clock()
        if next_i >= limit or now >= stop_at:
            return
        _send(conn, next_i, make_line(next_i), now, result, clock)
        next_i += 1
        outstanding += 1

    for conn in conns:
        issue(conn)
    last_progress = clock()
    while outstanding:
        events = _select(selector, STALL_TIMEOUT_S, last_progress + STALL_TIMEOUT_S)
        for key, _mask in events:
            conn = key.data
            completed = _receive(conn, result, clock())
            if completed:
                outstanding -= completed
                last_progress = clock()
                issue(conn)
    result.wall_s = max(result.done, default=t0) - t0
    result.cpu_s = time.process_time() - cpu0
    return result


def _open(conns: Sequence[_Conn], selector: selectors.BaseSelector,
          make_line: Callable[[int], bytes], rate: float, total: int) -> PhaseResult:
    clock = time.perf_counter
    result = PhaseResult()
    interval = 1.0 / rate
    cpu0 = time.process_time()
    t0 = clock()
    next_i = 0
    outstanding = 0
    last_progress = t0
    while next_i < total or outstanding:
        now = clock()
        while next_i < total and t0 + next_i * interval <= now:
            conn = conns[next_i % len(conns)]
            _send(conn, next_i, make_line(next_i), t0 + next_i * interval,
                  result, clock)
            if not outstanding:
                last_progress = now
            next_i += 1
            outstanding += 1
            now = clock()
        timeout = (t0 + next_i * interval - now) if next_i < total else STALL_TIMEOUT_S
        stall_deadline = last_progress + STALL_TIMEOUT_S if outstanding else math.inf
        for key, _mask in _select(selector, timeout, stall_deadline):
            completed = _receive(key.data, result, clock())
            if completed:
                outstanding -= completed
                last_progress = clock()
    result.wall_s = max(result.done, default=t0) - t0
    result.cpu_s = time.process_time() - cpu0
    return result
