"""Open-loop HTTP/1.1 load generator over a few pipelined keep-alive connections.

One thread drives every connection through a selector.  Requests go
out when they are due, whether or not earlier ones were answered (an
open loop: independent users), round-robin over the connections; the
server answers each connection in order, so responses are matched to
requests by position.  Each request's latency runs from its *due*
time, so a stall also charges the requests queued behind it, and the
generator reports how late it sent.
"""

from __future__ import annotations

import selectors
import socket
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter, sleep

import numpy as np

#: Connections opened (at most the machine's CPU count).
CONNECTIONS = 16


def http_post(path: str, body: bytes) -> bytes:
    return (b"POST " + path.encode() + b" HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)


def http_get(path: str) -> bytes:
    return b"GET " + path.encode() + b" HTTP/1.1\r\nHost: bench\r\n\r\n"


@dataclass
class PhaseResult:
    """Per-request outcome of one phase (arrays indexed like the schedule)."""

    latency_s: np.ndarray      # receive - due; inf when unanswered
    lateness_s: np.ndarray     # send - due
    status: np.ndarray         # HTTP status, 0 when unanswered
    bodies: list[bytes | None] = field(repr=False)

    @property
    def answered(self) -> int:
        return int((self.status > 0).sum())


class _Conn:
    __slots__ = ("sock", "out", "pending", "inbuf")

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.pending: deque[int] = deque()
        self.inbuf = bytearray()


def take_responses(buf: bytearray):
    """Yield ``(status, body)`` for every complete response in *buf*, consuming it."""
    while True:
        end = buf.find(b"\r\n\r\n")
        if end < 0:
            return
        head = bytes(buf[:end]).lower()
        idx = head.find(b"content-length:")
        length = 0
        if idx >= 0:
            stop = head.find(b"\r\n", idx)
            length = int(head[idx + 15:stop if stop >= 0 else len(head)])
        total = end + 4 + length
        if len(buf) < total:
            return
        status = int(head[9:12])
        body = bytes(buf[end + 4:total])
        del buf[:total]
        yield status, body


def run_phase(host: str, port: int, due: np.ndarray, requests: list[bytes],
              *, connections: int = CONNECTIONS, drain_s: float = 30.0,
              keep_bodies: bool = True, spin: bool = False) -> PhaseResult:
    """Send ``requests[i]`` at ``start + due[i]``; wait for every answer.

    Requests still unanswered *drain_s* seconds after the last one was
    due count as failed (status 0, infinite latency).  With *spin* the
    loop polls instead of sleeping, which keeps this process's CPU awake
    (at the cost of one busy core).
    """
    n = len(requests)
    conns = [_Conn(host, port) for _ in range(max(1, connections))]
    sel = selectors.SelectSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    latency = np.full(n, np.inf)
    lateness = np.zeros(n)
    status = np.zeros(n, dtype=np.int32)
    bodies: list[bytes | None] = [None] * n
    outstanding = 0
    start = perf_counter() + 0.01
    deadline = start + (float(due[-1]) if n else 0.0) + drain_s
    i = 0
    try:
        while i < n or outstanding:
            now = perf_counter()
            if now > deadline:
                break
            while i < n and start + due[i] <= now:
                c = conns[i % len(conns)]
                c.out += requests[i]
                c.pending.append(i)
                lateness[i] = now - start - due[i]
                outstanding += 1
                i += 1
            for c in conns:
                if c.out:
                    try:
                        sent = c.sock.send(c.out)
                    except BlockingIOError:
                        sent = 0
                    del c.out[:sent]
                    mask = selectors.EVENT_READ | (
                        selectors.EVENT_WRITE if c.out else 0)
                    sel.modify(c.sock, mask, c)
            wait = (start + due[i] - perf_counter()) if i < n else 0.05
            for key, events in sel.select(0.0 if spin else max(wait, 0.0)):
                if not events & selectors.EVENT_READ:
                    continue
                c = key.data
                try:
                    data = c.sock.recv(1 << 18)
                except BlockingIOError:
                    continue
                if not data:
                    raise ConnectionError("server closed a connection")
                c.inbuf += data
                got = perf_counter()
                for code, body in take_responses(c.inbuf):
                    j = c.pending.popleft()
                    latency[j] = got - start - due[j]
                    status[j] = code
                    if keep_bodies:
                        bodies[j] = body
                    outstanding -= 1
    finally:
        sel.close()
        for c in conns:
            c.sock.close()
    return PhaseResult(latency, lateness, status, bodies)


def get(host: str, port: int, path: str, timeout: float = 10.0) -> tuple[int, bytes]:
    """One blocking GET on a fresh connection."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(http_get(path))
        buf = bytearray()
        while True:
            data = sock.recv(1 << 16)
            if not data:
                raise ConnectionError(f"no response to GET {path}")
            buf += data
            for code, body in take_responses(buf):
                return code, body


def wait_healthy(host: str, port: int, timeout: float = 60.0, alive=lambda: True) -> None:
    """Poll ``/healthz`` until it answers 200."""
    stop = perf_counter() + timeout
    while perf_counter() < stop:
        if not alive():
            raise RuntimeError("server exited during start-up")
        try:
            if get(host, port, "/healthz", timeout=1.0)[0] == 200:
                return
        except OSError:
            pass
        sleep(0.005)
    raise TimeoutError("server did not answer /healthz")
