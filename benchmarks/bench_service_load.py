"""Pricing the hardened control plane under multi-tenant load.

No discovery runs here: the fleet loop stays off, so every number is
pure control-plane cost.  Three observations, all recorded in
``BENCH_service_load.json``:

* **control_plane_latency** -- concurrent clients hammering the
  submit/status/stats surface, measured twice: open mode and with a
  ``clients.json`` tenant table in force.  The delta prices the whole
  auth + quota + admission layer per request.

* **batched_vs_single_cache** -- a worker warming up against N cached
  entries via :class:`RemoteProbeCache` (whole-shard prefetch +
  buffered batch puts) versus the same traffic as single-entry HTTP
  round trips.  The batch protocol must collapse N round trips into
  O(1).

* **shed_behaviour** -- submissions past the backlog watermark.  The
  service must refuse with a typed 503 + ``Retry-After``, and the
  refusal must be much cheaper than an admission (shedding that costs
  as much as serving is not shedding).
"""

import json
import threading
import time
import urllib.request

from repro.service.app import DiscoveryService
from repro.service.cache_client import RemoteProbeCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.httpd import serve

_QUIET = lambda *args, **kwargs: None  # noqa: E731

THREADS = 8
REQUESTS_PER_THREAD = 25
CACHE_ENTRIES = 200
WATERMARK = 8

TENANTS = {
    "clients": [
        {
            "name": f"tenant-{index}",
            "token": f"tenant-{index}-token",
            "max_queued_jobs": 100_000,
            "max_concurrent_targets": 100_000,
        }
        for index in range(THREADS)
    ]
}


def _percentile(samples, fraction):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _service(root, **knobs):
    """An HTTP-fronted service with the fleet loop off: submissions
    stay queued, so the control plane is all we measure."""
    service = DiscoveryService(root, echo=_QUIET, **knobs)
    service.adopt()
    server = serve(service, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()

    def teardown():
        server.shutdown()
        server.server_close()
        service.cache.close()
        thread.join(timeout=5.0)

    return service, server.url, teardown


def _hammer(url, token=None):
    """THREADS concurrent clients, each mixing the control-plane verbs;
    returns per-request latencies in milliseconds."""
    samples = [[] for _ in range(THREADS)]

    def client_loop(index):
        client = ServiceClient(url, token=token and f"tenant-{index}-token")
        job_id = None
        for turn in range(REQUESTS_PER_THREAD):
            start = time.perf_counter()
            if turn % 5 == 0:
                job_id = client.submit(["vax"])["id"]
            elif turn % 5 == 1 and job_id is not None:
                client.status(job_id)
            elif turn % 5 == 2:
                client.stats()
            elif turn % 5 == 3:
                client.jobs()
            else:
                client.healthz()
            samples[index].append((time.perf_counter() - start) * 1000.0)

    threads = [
        threading.Thread(target=client_loop, args=(index,))
        for index in range(THREADS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    flat = [ms for per_thread in samples for ms in per_thread]
    return {
        "requests": len(flat),
        "p50_ms": round(_percentile(flat, 0.50), 3),
        "p95_ms": round(_percentile(flat, 0.95), 3),
        "throughput_rps": round(len(flat) / elapsed, 1),
    }


def test_control_plane_latency(benchmark, tmp_path):
    def run():
        _, url, teardown = _service(tmp_path / "open", max_backlog=10_000)
        try:
            open_mode = _hammer(url)
        finally:
            teardown()

        root = tmp_path / "tenanted"
        root.mkdir()
        (root / "clients.json").write_text(json.dumps(TENANTS))
        _, url, teardown = _service(root, max_backlog=10_000)
        try:
            tenanted = _hammer(url, token=True)
        finally:
            teardown()

        return {
            "threads": THREADS,
            "open": open_mode,
            "tenanted": tenanted,
            "auth_overhead_p50_ms": round(
                tenanted["p50_ms"] - open_mode["p50_ms"], 3
            ),
        }

    payload = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(payload)

    assert payload["open"]["requests"] == THREADS * REQUESTS_PER_THREAD
    assert payload["tenanted"]["requests"] == THREADS * REQUESTS_PER_THREAD


def test_batched_vs_single_cache(benchmark, tmp_path):
    def run():
        service, url, teardown = _service(tmp_path / "root")
        fingerprint = "fp16charfp16char"
        for index in range(CACHE_ENTRIES):
            service.cache.put(
                fingerprint, "execute", f"h{index:05d}", {"n": index}
            )
        try:
            remote = RemoteProbeCache(url)
            start = time.perf_counter()
            for index in range(CACHE_ENTRIES):
                assert remote.get(fingerprint, "execute", f"h{index:05d}")
            batched_s = time.perf_counter() - start
            batched_trips = remote.round_trips
            remote.close()

            start = time.perf_counter()
            for index in range(CACHE_ENTRIES):
                with urllib.request.urlopen(
                    f"{url}/cache/{fingerprint}/execute:h{index:05d}",
                    timeout=10,
                ) as resp:
                    assert json.loads(resp.read())["n"] == index
            single_s = time.perf_counter() - start

            return {
                "entries": CACHE_ENTRIES,
                "batched_round_trips": batched_trips,
                "batched_s": round(batched_s, 4),
                "single_requests": CACHE_ENTRIES,
                "single_s": round(single_s, 4),
                "speedup": round(single_s / batched_s, 1) if batched_s else None,
            }
        finally:
            teardown()

    payload = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(payload)

    # the batch contract: N warm lookups cost O(1) round trips
    assert payload["batched_round_trips"] == 1
    assert payload["batched_s"] < payload["single_s"]


def test_shed_behaviour(benchmark, tmp_path):
    def run():
        service, url, teardown = _service(
            tmp_path / "root", max_backlog=WATERMARK
        )
        try:
            client = ServiceClient(url)
            admitted, shed, admit_ms, shed_ms = 0, 0, [], []
            retry_hints = []
            for _ in range(WATERMARK * 3):
                start = time.perf_counter()
                try:
                    client.submit(["vax"])
                    admit_ms.append((time.perf_counter() - start) * 1000.0)
                    admitted += 1
                except ServiceError as exc:
                    shed_ms.append((time.perf_counter() - start) * 1000.0)
                    assert exc.status == 503 and exc.code == "overloaded"
                    retry_hints.append(exc.retry_after)
                    shed += 1
            return {
                "watermark": WATERMARK,
                "admitted": admitted,
                "shed": shed,
                "admit_p95_ms": round(_percentile(admit_ms, 0.95), 3),
                "shed_p95_ms": round(_percentile(shed_ms, 0.95), 3),
                "retry_after_present": all(h is not None for h in retry_hints),
                "shed_counter": service.shed["overloaded"],
            }
        finally:
            teardown()

    payload = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(payload)

    assert payload["admitted"] == WATERMARK
    assert payload["shed"] == WATERMARK * 2
    assert payload["shed_counter"] == payload["shed"]
    assert payload["retry_after_present"]
    # a refusal that costs as much as an admission is not shedding:
    # shed answers never touch the job store
    assert payload["shed_p95_ms"] <= payload["admit_p95_ms"]
