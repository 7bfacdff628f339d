"""The HTTP front end: golden contract and event-loop machinery.

A golden request suite pins the wire contract: decisions and request
ids against the in-process reference (:func:`compute_decision`,
``request.fingerprint()``), error bodies and statuses against
committed literals, and ``/v1/schedulers`` against the registry.  The
rest exercises the serving machinery (byte-level L0 cache, pipelined
and malformed keep-alive connections, backpressure 503s).
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.registry import entries
from repro.service import (
    DecisionService,
    ServiceClient,
    ServiceError,
    compute_decision,
    request_from_payload,
)
from repro.service.aserver import AsyncServerThread


def _service() -> DecisionService:
    return DecisionService(cache_capacity=64, max_batch_size=8,
                           max_wait_ms=1.0, workers=2)


@pytest.fixture
def async_url():
    with AsyncServerThread(_service()) as server:
        yield server.url


def _post_raw(url: str, body: bytes) -> tuple[int, dict]:
    req = urllib.request.Request(
        url + "/v1/allocate", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _exchange(url: str, wire: bytes, count: int,
              timeout: float = 30.0) -> tuple[list[tuple[int, dict]], bool]:
    """Send raw *wire* bytes on one connection and read *count* answers.

    Returns ``(responses, closed)``: the ``(status, JSON body)`` pairs in
    arrival order, and whether the server closed the connection before
    *count* responses arrived.
    """
    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(wire)
        buf = b""
        responses = []
        while len(responses) < count:
            head_end = buf.find(b"\r\n\r\n")
            if head_end >= 0:
                head = buf[:head_end].lower()
                idx = head.find(b"\r\ncontent-length:")
                end = head.find(b"\r\n", idx + 2)
                total = head_end + 4 + int(head[idx + 17:end if end > 0 else None])
                if len(buf) >= total:
                    responses.append((int(head.split()[1]),
                                      json.loads(buf[head_end + 4:total])))
                    buf = buf[total:]
                    continue
            chunk = sock.recv(65536)
            if not chunk:
                return responses, True
            buf += chunk
    return responses, False


def _post_wire(body: bytes, headers: bytes = b"") -> bytes:
    return (b"POST /v1/allocate HTTP/1.1\r\nHost: t\r\n" + headers
            + b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            + body)


GOLDEN_PAYLOADS = [
    {"applications": [{"work": 100.0}, {"work": 50.0, "miss_rate": 0.2}],
     "platform": "taihulight"},
    {"applications": [{"work": 200.0, "seq_fraction": 0.05}],
     "platform": "taihulight", "scheduler": "allproccache"},
    {"applications": [{"work": 80.0}, {"work": 90.0}, {"work": 70.0}],
     "platform": {"preset": "taihulight"}, "scheduler": "dominant-minratio"},
    {"applications": [{"work": 60.0}, {"work": 40.0}],
     "platform": "taihulight", "scheduler": "randompart", "seed": 7},
]

#: (body, status, error message) as the former thread-per-request
#: server answered them.  ``{known}`` is the registry's name list,
#: which other tests may extend.
GOLDEN_ERRORS = [
    (b"{not json", 400,
     "invalid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    (json.dumps({"applications": [], "platform": "taihulight"}).encode(), 400,
     "'applications' must be a non-empty list of application objects"),
    (json.dumps({"applications": [{"work": 1.0}],
                 "scheduler": "no-such"}).encode(), 400,
     "unknown scheduler 'no-such'; known: {known}"),
    (json.dumps({"applications": [{"work": -5.0}]}).encode(), 400,
     "app0: work must be positive and finite, got -5.0"),
]


class TestGoldenEquivalence:
    def test_decisions_match_compute_decision(self, async_url):
        for payload in GOLDEN_PAYLOADS:
            request = request_from_payload(payload)
            expected = compute_decision(request).to_payload()
            status, resp = _post_raw(async_url, json.dumps(payload).encode())
            assert status == 200
            assert resp["decision"] == json.loads(json.dumps(expected))
            assert resp["request_id"] == request.fingerprint()

    def test_error_bodies_match_golden(self, async_url):
        known = ", ".join(e.name for e in entries())
        for body, expected_status, message in GOLDEN_ERRORS:
            status, resp = _post_raw(async_url, body)
            assert status == expected_status
            assert resp == {"error": message.replace("{known}", known)}

    def test_schedulers_endpoint_matches_registry(self, async_url):
        expected = [{"name": e.name, "randomized": e.randomized,
                     "description": e.description,
                     "provenance": e.provenance} for e in entries()]
        assert ServiceClient(async_url).schedulers() == expected

    def test_unknown_endpoint_404(self, async_url):
        with pytest.raises(ServiceError) as info:
            ServiceClient(async_url)._call("/v2/allocate", b"{}")
        assert info.value.status == 404
        assert "no such endpoint: /v2/allocate" in str(info.value)

    def test_healthz(self, async_url):
        assert ServiceClient(async_url).healthy()

    def test_empty_body_400(self, async_url):
        status, resp = _post_raw(async_url, b"")
        assert status == 400
        assert "empty" in resp["error"]


class TestAsyncServing:
    def test_repeat_is_cache_hit_with_fresh_latency(self, async_url):
        body = json.dumps(GOLDEN_PAYLOADS[0]).encode()
        _, first = _post_raw(async_url, body)
        _, second = _post_raw(async_url, body)
        _, third = _post_raw(async_url, body)
        assert not first["cache_hit"]
        assert second["cache_hit"] and third["cache_hit"]
        assert second["decision"] == first["decision"] == third["decision"]
        assert second["batch_size"] == 0 and not second["coalesced"]
        assert second["latency_ms"] > 0 and third["latency_ms"] > 0

    def test_bytecache_hits_count_in_metrics(self, async_url):
        client = ServiceClient(async_url)
        body = json.dumps(GOLDEN_PAYLOADS[2]).encode()
        for _ in range(4):
            _post_raw(async_url, body)
        metrics = client.metrics()
        assert metrics["decisions.total"] == 4
        assert metrics["decision_cache.hits"] == 3
        assert metrics["decision_cache.misses"] == 1
        assert metrics["latency.count"] == 4

    def test_metrics_text_has_histogram(self, async_url):
        with urllib.request.urlopen(async_url + "/metrics", timeout=30) as resp:
            text = resp.read().decode()
        assert "# TYPE repro_request_latency_seconds histogram" in text
        assert 'repro_request_latency_seconds_bucket{le="+Inf"}' in text
        assert "repro_request_latency_seconds_count" in text
        assert "repro_decisions_inflight" in text
        assert "repro_batcher_queue_depth" in text

    def test_pipelined_requests_answered_in_order(self, async_url):
        bodies = [json.dumps(p).encode() for p in GOLDEN_PAYLOADS[:3]]
        wire = b"".join(_post_wire(b, b"Content-Type: application/json\r\n")
                        for b in bodies)
        answers, closed = _exchange(async_url, wire, 3)
        assert not closed, "connection closed early"
        responses = [payload for _, payload in answers]
        # responses come back in request order, matched by fingerprint
        expected = [_post_raw(async_url, b)[1]["request_id"] for b in bodies]
        assert [r["request_id"] for r in responses] == expected

    def test_concurrent_clients(self, async_url):
        bodies = [json.dumps(p).encode() for p in GOLDEN_PAYLOADS]
        results = []
        lock = threading.Lock()

        def client(body):
            status, resp = _post_raw(async_url, body)
            with lock:
                results.append((status, resp["request_id"]))

        threads = [threading.Thread(target=client, args=(bodies[i % 4],))
                   for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(status == 200 for status, _ in results)
        assert len({rid for _, rid in results}) == 4


class TestRequestFraming:
    @pytest.mark.parametrize("length", [b"-3", b"+3", b"abc", b""])
    def test_untrusted_length_closes_connection(self, async_url, length):
        """A length the body cannot be framed by must not desync the
        keep-alive stream: answer 400 and close, never parse the rest
        of the bytes as the next request."""
        body = json.dumps(GOLDEN_PAYLOADS[0]).encode()
        wire = (b"POST /v1/allocate HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: " + length + b"\r\n\r\n" + body
                + _post_wire(body))
        answers, closed = _exchange(async_url, wire, 2, timeout=10.0)
        assert answers == [(400, {"error": "bad Content-Length"})]
        assert closed

    def test_header_name_must_start_a_line(self, async_url):
        """``X-Content-Length`` is another header, not the body length."""
        payload = GOLDEN_PAYLOADS[2]
        wire = _post_wire(json.dumps(payload).encode(),
                          b"X-Content-Length: 2\r\n")
        answers, closed = _exchange(async_url, wire + wire, 2, timeout=10.0)
        assert not closed
        fingerprint = request_from_payload(payload).fingerprint()
        assert [(status, resp["request_id"]) for status, resp in answers] == [
            (200, fingerprint), (200, fingerprint)]


class TestBackpressure:
    @pytest.fixture
    def saturated_url(self):
        service = DecisionService(max_queue_depth=0, max_wait_ms=0.0)
        with AsyncServerThread(service) as server:
            yield server.url

    def test_503_with_retry_after(self, saturated_url):
        with pytest.raises(ServiceError) as info:
            ServiceClient(saturated_url).allocate(
                [{"work": 123.0}], "taihulight")
        assert info.value.status == 503
        assert info.value.retry_after_s is not None
        assert info.value.retry_after_s > 0

    def test_rejections_counted(self, saturated_url):
        client = ServiceClient(saturated_url)
        for _ in range(3):
            with pytest.raises(ServiceError):
                client.allocate([{"work": 55.0}], "taihulight")
        assert client.metrics()["batcher.rejected"] == 3
