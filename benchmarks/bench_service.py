"""Pricing the discovery service: what the control plane costs and
what the shared cache and adaptive sizing buy.

Two observations, both recorded in ``BENCH_service.json``:

* **cold_vs_warm_shared_cache** -- the same campaign submitted twice
  over HTTP by two clients.  The first warms the service's shared
  probe cache through the ``/cache`` endpoints; the second must answer
  every probe (sizing probes included) from it, issuing zero remote
  probe verbs -- pinned by the service's miss/write counters, not by
  wall clock alone.

* **adaptive_vs_fixed_sizing** -- direct discovery under two simulated
  link latencies.  Against a local target adaptation stays narrow;
  against a slow link it must fan out and beat a fixed single
  connection.  Specs are asserted bit-for-bit identical across every
  venue, because workers are a venue knob.
"""

import os
import threading
import time

from repro.discovery.driver import ArchitectureDiscovery
from repro.machines.machine import RemoteMachine
from repro.service.app import DiscoveryService
from repro.service.client import ServiceClient
from repro.service.httpd import serve

TARGET = "vax"

#: simulated slow-link round trip for the sizing comparison
LATENCY = float(os.environ.get("REPRO_BENCH_LATENCY", "0.002"))

_QUIET = lambda *args, **kwargs: None  # noqa: E731


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_cold_vs_warm_shared_cache(benchmark, tmp_path):
    reference = ArchitectureDiscovery(
        RemoteMachine(TARGET), workers=1, cache=str(tmp_path / "ref-cache")
    ).run()
    ref_spec = reference.spec.render_beg() + "\n"

    def run():
        service = DiscoveryService(
            tmp_path / "root",
            fleet=1,
            heartbeat_every=0.2,
            poll_interval=0.05,
            echo=_QUIET,
        )
        server = serve(service, port=0)
        http_thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        http_thread.start()
        service.start()
        try:
            def campaign():
                client = ServiceClient(server.url)
                job = client.submit([TARGET], workers="auto")
                final = client.wait(job["id"], timeout=600)
                assert final["state"] == "done", final
                return client.spec(job["id"])["specs"][TARGET]

            cold_s, cold_spec = _timed(campaign)
            stats = service.cache.stats
            misses_before, writes_before = stats.misses, stats.writes
            warm_s, warm_spec = _timed(campaign)
            payload = {
                "cold_s": round(cold_s, 3),
                "warm_s": round(warm_s, 3),
                "speedup": round(cold_s / warm_s, 2) if warm_s else None,
                "warm_cache_misses": stats.misses - misses_before,
                "warm_cache_writes": stats.writes - writes_before,
                "cold_spec_identical": cold_spec == ref_spec,
                "warm_spec_identical": warm_spec == ref_spec,
            }
        finally:
            server.shutdown()
            service.stop()
            server.server_close()
        return payload

    payload = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(payload)

    assert payload["cold_spec_identical"]
    assert payload["warm_spec_identical"]
    # the shared-cache contract: a warm campaign issues zero remote
    # probe verbs, so it neither misses nor writes
    assert payload["warm_cache_misses"] == 0
    assert payload["warm_cache_writes"] == 0
    assert payload["warm_s"] < payload["cold_s"]


def test_adaptive_vs_fixed_sizing(benchmark, tmp_path):
    def run():
        payload = {"latency_s": LATENCY}
        specs = set()
        for label, latency in (("local", 0.0), ("slow", LATENCY)):
            for mode, workers in (("adaptive", "auto"), ("fixed1", 1)):
                discovery = ArchitectureDiscovery(
                    RemoteMachine(TARGET, latency=latency), workers=workers
                )
                seconds, report = _timed(discovery.run)
                payload[f"{label}_{mode}_s"] = round(seconds, 3)
                payload[f"{label}_{mode}_workers"] = discovery.workers
                specs.add(report.spec.render_beg())
        payload["specs_identical"] = len(specs) == 1
        return payload

    payload = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(payload)

    # identity across every venue is the contract
    assert payload["specs_identical"]
    # a slow link must be met with a wider fleet than a local target...
    assert payload["slow_adaptive_workers"] > 1
    assert payload["slow_adaptive_workers"] >= payload["local_adaptive_workers"]
    # ...and the width must pay for itself against a fixed single
    # connection (modest bar: overlap is throttled by the sequential
    # phases, which this bench deliberately includes)
    assert payload["slow_adaptive_s"] < payload["slow_fixed1_s"]
