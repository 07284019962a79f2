"""Multi-tenant hardening chaos suite.

Covers the admission-control/quota/deadline/GC/drain layer end to end:

* identity -- bearer tokens from ``clients.json``, typed 401/403
  envelopes, hot reload, fleet tokens;
* quotas + admission -- 429 with ``Retry-After`` when a client
  overspends, 503 shedding at the backlog watermark, counters in
  ``/stats``;
* priorities + deadlines -- strict-priority slot hand-out, lapsed
  jobs landing in the terminal ``expired`` state with partial-state
  salvage (incomplete.json + resume hint) whether they were queued,
  running, or adopted post-mortem;
* probe-cache GC -- size and age retention bounds, LRU-by-fingerprint
  with pins, the ``gc-stats.json`` journal;
* graceful drain -- admission closes, readiness flips, and a
  SIGTERM'd service restarts into specs bit-for-bit identical to an
  uninterrupted run (the drain e2e contract).
"""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.discovery.cache import ProbeCache, cache_info
from repro.machines.machine import target_names
from repro.service import jobs as jobstates
from repro.service.app import DiscoveryService
from repro.service.auth import ANONYMOUS, ApiError, ClientRegistry
from repro.service.client import ServiceClient, ServiceError
from repro.service.httpd import serve
from repro.service.jobs import JobStore

from .conftest import TARGETS
from .test_restart_adoption import _kill, _spawn_serve, _wait_for_url

_QUIET = lambda *args, **kwargs: None  # noqa: E731

CLIENTS = {
    "clients": [
        {
            "name": "alice",
            "token": "alice-token",
            "max_queued_jobs": 2,
            "max_concurrent_targets": 3,
            "max_cache_writes": 4,
        },
        {"name": "bob", "token": "bob-token"},
        {"name": "carol", "token": "carol-token", "admin": True},
    ]
}


def _http(url, path, method="GET", body=None, token=None):
    """Raw request returning (status, json-body, headers) -- for the
    envelope/header assertions ServiceClient abstracts away."""
    headers = {"Accept": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        url + path, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        payload = exc.read()
        return exc.code, json.loads(payload) if payload else {}, dict(exc.headers)


@pytest.fixture()
def tenants(tmp_path):
    """An auth-enabled service: clients.json in the root, HTTP up,
    fleet loop deliberately NOT running (submissions stay queued, so
    quota arithmetic is deterministic)."""
    root = tmp_path / "root"
    root.mkdir()
    (root / "clients.json").write_text(json.dumps(CLIENTS))
    service = DiscoveryService(root, fleet=2, max_backlog=6, echo=_QUIET)
    service.adopt()
    server = serve(service, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield service, server.url
    server.shutdown()
    server.server_close()
    service.cache.close()
    thread.join(timeout=5.0)


# -- identity ----------------------------------------------------------


def test_missing_token_is_401(tenants):
    _, url = tenants
    status, body, _ = _http(url, "/stats")
    assert status == 401
    assert body["error"]["code"] == "unauthenticated"


def test_unknown_token_is_401(tenants):
    _, url = tenants
    status, body, _ = _http(url, "/stats", token="who-is-this")
    assert status == 401
    assert body["error"]["code"] == "unauthenticated"


def test_health_probes_need_no_token(tenants):
    _, url = tenants
    assert _http(url, "/healthz")[0] == 200
    assert _http(url, "/readyz")[0] == 200  # adopted, not draining


def test_cross_client_access_is_403(tenants):
    _, url = tenants
    alice = ServiceClient(url, token="alice-token")
    job = alice.submit(["vax"])
    assert job["client"] == "alice"

    status, body, _ = _http(url, f"/campaigns/{job['id']}", token="bob-token")
    assert status == 403
    assert body["error"]["code"] == "forbidden"
    status, _, _ = _http(
        url, f"/campaigns/{job['id']}", method="DELETE", token="bob-token"
    )
    assert status == 403
    # the owner and an admin both read it fine
    assert alice.status(job["id"])["id"] == job["id"]
    carol = ServiceClient(url, token="carol-token")
    assert carol.status(job["id"])["id"] == job["id"]


def test_queued_job_quota_answers_429_with_retry_after(tenants):
    _, url = tenants
    alice = ServiceClient(url, token="alice-token")
    alice.submit(["vax"])
    alice.submit(["mips"])
    with pytest.raises(ServiceError) as err:
        alice.submit(["vax"])
    assert err.value.status == 429
    assert err.value.code == "quota_exceeded"
    assert err.value.retry_after is not None
    # the header carries it too, not just the envelope
    status, _, headers = _http(
        url, "/campaigns", method="POST",
        body={"targets": ["vax"]}, token="alice-token",
    )
    assert status == 429
    assert "Retry-After" in headers


def test_concurrent_target_quota(tenants):
    _, url = tenants
    alice = ServiceClient(url, token="alice-token")
    alice.submit(list(target_names())[:3])  # exactly the quota
    with pytest.raises(ServiceError) as err:
        alice.submit(["vax"])
    assert err.value.status == 429
    assert "max_concurrent_targets" in str(err.value)


def test_backlog_watermark_sheds_503(tenants):
    service, url = tenants
    bob = ServiceClient(url, token="bob-token")
    for _ in range(3):  # 6 open targets = the watermark, all admitted
        bob.submit(TARGETS)
    with pytest.raises(ServiceError) as err:
        bob.submit(["vax"])
    assert err.value.status == 503
    assert err.value.code == "overloaded"
    assert err.value.retry_after is not None
    assert service.shed["overloaded"] == 1


def test_cache_write_quota(tenants):
    _, url = tenants
    fp = "aaaa0000aaaa0000"
    for index in range(4):  # alice's max_cache_writes
        status, _, _ = _http(
            url, f"/cache/{fp}/execute:h{index}", method="PUT",
            body={"n": index}, token="alice-token",
        )
        assert status == 200
    status, body, headers = _http(
        url, f"/cache/{fp}/execute:h9", method="PUT",
        body={"n": 9}, token="alice-token",
    )
    assert status == 429
    assert body["error"]["code"] == "quota_exceeded"
    assert "Retry-After" in headers
    # bob is unaffected by alice's spending
    status, _, _ = _http(
        url, f"/cache/{fp}/execute:hb", method="PUT",
        body={"n": 1}, token="bob-token",
    )
    assert status == 200


def test_stats_expose_admission_clients_and_gc(tenants):
    _, url = tenants
    carol = ServiceClient(url, token="carol-token")
    stats = carol.stats()
    assert stats["admission"]["max_backlog"] == 6
    assert stats["admission"]["draining"] is False
    assert set(stats["admission"]["shed"]) == {
        "overloaded", "quota", "unauthenticated",
    }
    assert stats["clients"]["open_mode"] is False
    assert stats["clients"]["configured"] == ["alice", "bob", "carol"]
    assert "cache_gc" in stats


# -- the registry ------------------------------------------------------


def test_registry_open_mode_without_file(tmp_path):
    registry = ClientRegistry(tmp_path / "absent.json")
    assert registry.open_mode
    assert registry.authenticate(None) is ANONYMOUS


def test_registry_rejects_malformed_scheme(tmp_path):
    registry = ClientRegistry(tmp_path / "absent.json")
    with pytest.raises(ApiError) as err:
        registry.authenticate("Basic dXNlcjpwYXNz")
    assert err.value.status == 401


def test_registry_hot_reload_rotates_tokens(tmp_path):
    path = tmp_path / "clients.json"
    path.write_text(json.dumps(
        {"clients": [{"name": "alice", "token": "old-token"}]}
    ))
    registry = ClientRegistry(path)
    assert registry.authenticate("Bearer old-token").name == "alice"

    path.write_text(json.dumps(
        {"clients": [{"name": "alice", "token": "new-token"}]}
    ))
    os.utime(path, (time.time() + 5, time.time() + 5))
    assert registry.authenticate("Bearer new-token").name == "alice"
    with pytest.raises(ApiError):
        registry.authenticate("Bearer old-token")


def test_registry_keeps_last_good_table_on_broken_reload(tmp_path):
    path = tmp_path / "clients.json"
    path.write_text(json.dumps(
        {"clients": [{"name": "alice", "token": "alice-token"}]}
    ))
    registry = ClientRegistry(path)
    path.write_text("{ not json")
    os.utime(path, (time.time() + 5, time.time() + 5))
    assert registry.authenticate("Bearer alice-token").name == "alice"
    assert registry.reload_errors >= 1


def test_registry_deleted_file_returns_to_open_mode(tmp_path):
    path = tmp_path / "clients.json"
    path.write_text(json.dumps(
        {"clients": [{"name": "alice", "token": "alice-token"}]}
    ))
    registry = ClientRegistry(path)
    path.unlink()
    assert registry.authenticate(None) is ANONYMOUS


def test_fleet_token_authenticates_even_with_clients_file(tmp_path):
    path = tmp_path / "clients.json"
    path.write_text(json.dumps(
        {"clients": [{"name": "alice", "token": "alice-token"}]}
    ))
    registry = ClientRegistry(path)
    token = registry.issue_fleet_token()
    fleet = registry.authenticate(f"Bearer {token}")
    assert fleet.name == "fleet"
    assert fleet.admin
    assert fleet.max_cache_writes is None


# -- priorities and deadlines ------------------------------------------


def test_slot_handout_is_priority_then_fifo(tmp_path):
    service = DiscoveryService(tmp_path, echo=_QUIET)
    service._priorities = {"job-000001": 0, "job-000002": 5, "job-000003": 5}
    service._supervisors = dict.fromkeys(service._priorities)
    assert service._schedule_ids() == [
        "job-000002", "job-000003", "job-000001",
    ]


def test_queued_job_expires_before_launch(tmp_path):
    service = DiscoveryService(tmp_path, echo=_QUIET)
    job = service.submit({"targets": ["vax"], "deadline_s": 0.05})
    time.sleep(0.1)
    service.step()  # expiry runs before promotion: no worker ever spawns
    record = service.jobs.get(job["id"])
    assert record["state"] == jobstates.EXPIRED
    assert record["detail"] is None
    assert service._supervisors == {}


def test_adopt_expires_jobs_that_lapsed_while_down(tmp_path):
    store = JobStore(tmp_path)
    job = store.submit(["vax"], deadline_s=1)
    store.update(job["id"], submitted_at=job["submitted_at"] - 3600)
    service = DiscoveryService(tmp_path, echo=_QUIET)
    assert service.adopt() == []
    assert service.jobs.get(job["id"])["state"] == jobstates.EXPIRED
    assert service.ready


def test_running_job_expires_with_salvage(tmp_path):
    """A live worker past its deadline is killed, its campaign marked
    incomplete with a resume hint -- the supervisor escalation path --
    and the job lands in the terminal expired state."""
    service = DiscoveryService(
        tmp_path, fleet=1, poll_interval=0.05, echo=_QUIET
    )
    service.adopt()
    service.start()
    try:
        job = service.submit({"targets": ["vax"], "deadline_s": 2.0})
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            record = service.jobs.get(job["id"])
            if record["state"] in jobstates.TERMINAL_STATES:
                break
            time.sleep(0.1)
        assert record["state"] == jobstates.EXPIRED, record
        assert record["detail"] is not None
        assert record["detail"]["ok"] is False
        marker = tmp_path / "campaigns" / job["id"] / "vax" / "incomplete.json"
        assert marker.exists()
        salvage = json.loads(marker.read_text())
        assert salvage["state"] == "incomplete"
        assert "resume" in salvage
    finally:
        service.stop()


# -- cache GC ----------------------------------------------------------

FP_A, FP_B, FP_C = "aaaa0000aaaa0000", "bbbb0000bbbb0000", "cccc0000cccc0000"


def _aged_cache(tmp_path):
    """Three shards on disk with controlled last-touch times: A oldest,
    C newest.  Returned store is a fresh instance (no in-memory touch
    stamps), so retention decisions come from the file mtimes alone."""
    warm = ProbeCache(tmp_path)
    for fingerprint in (FP_A, FP_B, FP_C):
        for index in range(3):
            warm.put(fingerprint, "execute", f"h{index}", {"blob": "x" * 64})
    warm.close()
    for stamp, fingerprint in ((100, FP_A), (200, FP_B), (300, FP_C)):
        os.utime(tmp_path / f"probes-{fingerprint}.jsonl", (stamp, stamp))
    return ProbeCache(tmp_path)


def test_gc_size_bound_evicts_least_recently_touched(tmp_path):
    cache = _aged_cache(tmp_path)
    total = sum(
        p.stat().st_size for p in tmp_path.glob("probes-*.jsonl")
    )
    report = cache.gc(max_bytes=total - 1, now=400)
    assert report["evicted_shards"] == [FP_A]
    assert not (tmp_path / f"probes-{FP_A}.jsonl").exists()
    assert cache.get(FP_A, "execute", "h0") is None
    assert cache.get(FP_C, "execute", "h0") == {"blob": "x" * 64}
    remaining = sum(
        p.stat().st_size for p in tmp_path.glob("probes-*.jsonl")
    )
    assert remaining <= total - 1


def test_gc_never_evicts_pinned_shards(tmp_path):
    cache = _aged_cache(tmp_path)
    report = cache.gc(max_bytes=0, pinned=[FP_A], now=400)
    assert FP_A not in report["evicted_shards"]
    assert sorted(report["evicted_shards"]) == [FP_B, FP_C]
    assert (tmp_path / f"probes-{FP_A}.jsonl").exists()


def test_gc_age_rule_drops_stale_shards(tmp_path):
    cache = _aged_cache(tmp_path)
    report = cache.gc(max_age_s=150, now=400, pinned=[FP_B])
    # A (age 300) is stale; B is stale but pinned; C (age 100) is fresh
    assert report["evicted_shards"] == [FP_A]


def test_gc_journals_stats_for_cache_info(tmp_path):
    cache = _aged_cache(tmp_path)
    cache.gc(max_bytes=0, now=400)
    assert (tmp_path / ProbeCache.GC_SIDECAR).exists()
    info = cache_info(tmp_path)
    assert list(info["gc"]) == [
        "compacted_shards", "evicted_shards", "last", "reclaimed_bytes", "runs",
    ]
    assert info["gc"] == cache.gc_stats.as_dict()
    assert info["gc"]["runs"] == 1
    assert info["gc"]["evicted_shards"] == 3
    assert info["gc"]["reclaimed_bytes"] > 0


def test_service_gc_runs_inside_the_fleet_loop(tmp_path):
    service = DiscoveryService(
        tmp_path, cache_max_bytes=0, gc_interval=0.0, echo=_QUIET
    )
    service.cache.put(FP_A, "execute", "h0", {"n": 1})
    report = service._maybe_gc(force=True)
    assert report["evicted_shards"] == [FP_A]
    assert service.stats()["cache_gc"]["runs"] == 1


def test_service_without_bounds_never_gcs(tmp_path):
    service = DiscoveryService(tmp_path, echo=_QUIET)
    assert service._maybe_gc(force=True) is None


# -- drain -------------------------------------------------------------


def test_drain_closes_admission_and_flips_readiness(tmp_path):
    service = DiscoveryService(tmp_path, echo=_QUIET)
    server = serve(service, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        status, body, headers = _http(server.url, "/readyz")
        assert status == 503
        assert body["reason"] == "starting"
        assert "Retry-After" in headers

        service.adopt()
        assert _http(server.url, "/readyz")[0] == 200

        service.start()
        service.drain(timeout=2.0)
        status, body, _ = _http(server.url, "/readyz")
        assert status == 503
        assert body["reason"] == "draining"

        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as err:
            client.submit(["vax"])
        assert err.value.status == 503
        assert err.value.code == "draining"
        assert err.value.retry_after is not None

        assert service.drain() == 0  # idempotent
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def test_client_wait_honours_retry_after(monkeypatch):
    client = ServiceClient("http://127.0.0.1:1")
    calls = {"n": 0}

    def fake_status(job_id):
        calls["n"] += 1
        if calls["n"] < 3:
            raise ServiceError(
                "throttled", status=429, code="quota_exceeded", retry_after=0.01
            )
        return {"state": jobstates.DONE, "id": job_id}

    sleeps = []
    monkeypatch.setattr(client, "status", fake_status)
    monkeypatch.setattr(time, "sleep", lambda s: sleeps.append(s))
    final = client.wait("job-000001")
    assert final["state"] == jobstates.DONE
    assert sleeps[:2] == [0.01, 0.01]  # the server's hint, not the backoff


def test_sigterm_drain_then_restart_yields_identical_specs(
    tmp_path, ref_specs
):
    """The drain e2e contract: SIGTERM mid-campaign checkpoints the
    workers and exits 0; a restart on the same root adopts the open job
    and finishes with specs bit-for-bit identical to direct discovery."""
    root = tmp_path / "root"
    cache = tmp_path / "cache"  # cold: keeps the drain window open
    first_log = tmp_path / "serve-1.log"
    second_log = tmp_path / "serve-2.log"

    first = _spawn_serve(root, cache, first_log)
    second = None
    try:
        url = _wait_for_url(first_log, first)
        client = ServiceClient(url)
        job = client.submit(TARGETS)

        # let the first worker make real progress before draining
        run_dir = root / "campaigns" / job["id"] / TARGETS[0] / "run"
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            try:
                progress = json.loads((run_dir / "progress.json").read_text())
            except (OSError, ValueError):
                progress = {}
            if 2 <= len(progress.get("completed", [])) <= 10:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("campaign never reached the drain window")

        os.kill(first.pid, signal.SIGTERM)
        assert first.wait(timeout=60) == 0, first_log.read_text()
        log = first_log.read_text()
        assert "draining: admission closed" in log
        assert "drain complete; exiting" in log
        # the job is still open on disk -- drain never cancels work
        record = json.loads(
            (root / "jobs" / f"{job['id']}.json").read_text()
        )
        assert record["state"] in (jobstates.QUEUED, jobstates.RUNNING)

        second = _spawn_serve(root, cache, second_log)
        url = _wait_for_url(second_log, second)
        adopted = ServiceClient(url)
        final = adopted.wait(job["id"], timeout=480)
        assert final["state"] == jobstates.DONE, final
        assert "adopted 1 open job(s)" in second_log.read_text()

        specs = adopted.spec(job["id"])["specs"]
        for target in TARGETS:
            assert specs[target] == ref_specs[target], target
    finally:
        _kill(first.pid)
        if second is not None:
            _kill(second.pid)
            second.wait(timeout=10)
