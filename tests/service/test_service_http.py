"""End-to-end acceptance for the discovery service, over real HTTP.

Everything here talks to the session-scoped service stack through its
localhost socket -- the same path ``repro client`` and the worker-side
cache client use -- and asserts the control-plane contract: typed
progress while running, specs bit-for-bit identical to direct
discovery, a warm second campaign that issues zero remote probe verbs,
and typed JSON errors for every client mistake.
"""

import pytest

from repro.discovery.driver import ArchitectureDiscovery
from repro.service import jobs as jobstates
from repro.service.client import ServiceError

from .conftest import TARGETS

PHASES_TOTAL = len(ArchitectureDiscovery.PHASES)

#: campaign states a status poll may legitimately observe
CAMPAIGN_STATES = {
    "pending",
    "running",
    "waiting",
    "stalled",
    "done",
    "quarantined",
    "incomplete",
    "cancelled",
}


# -- liveness and shape --------------------------------------------------


def test_healthz(stack):
    assert stack.client.healthz() == {"ok": True}


def test_stats_shape(stack):
    stats = stack.client.stats()
    assert stats["fleet"] == 2
    assert isinstance(stats["jobs"], dict)
    assert isinstance(stats["active_workers"], int)
    assert isinstance(stats["running_jobs"], list)
    store = stack.service.cache
    assert stats["cache"] == {"entries": len(store), **store.stats.as_dict()}
    assert stats["cache_disk"]["directory"]


# -- the campaign lifecycle ----------------------------------------------


def test_campaign_completes_and_specs_match_direct_discovery(
    stack, finished_job, ref_specs
):
    """The acceptance centrepiece: a two-target campaign submitted over
    HTTP lands specs bit-for-bit identical to direct discovery."""
    final, _ = finished_job
    assert final["state"] == jobstates.DONE, final
    specs = stack.client.spec(final["id"])["specs"]
    assert sorted(specs) == sorted(TARGETS)
    for target in TARGETS:
        assert specs[target] == ref_specs[target], target


def test_status_is_typed_progress_not_a_blob(finished_job):
    """Every poll is typed: known states, per-target phase counters out
    of the pipeline total, per-phase timing records."""
    final, observed = finished_job
    assert observed, "wait() must surface at least one status"
    for status in observed:
        assert status["state"] in jobstates.OPEN_STATES + jobstates.TERMINAL_STATES
        assert [c["target"] for c in status["campaigns"]] == final["targets"]
        for campaign in status["campaigns"]:
            assert campaign["state"] in CAMPAIGN_STATES, campaign
            assert campaign["phases_total"] == PHASES_TOTAL
            completed = campaign["completed_phases"]
            assert isinstance(completed, list)
            assert len(completed) <= PHASES_TOTAL
    # the finished picture: all phases done, artifact paths advertised
    for campaign in final["campaigns"]:
        assert campaign["state"] == "done"
        assert len(campaign["completed_phases"]) == PHASES_TOTAL
        assert campaign["completed_phases"][0] == "enquire"
        assert campaign["spec"], campaign
        # completion-record counts cover the fan-out phases only; every
        # counted phase must be one the pipeline actually completed
        records = campaign["phase_records"]
        assert records, campaign
        assert set(records) <= set(campaign["completed_phases"])
        assert all(count > 0 for count in records.values())


def test_progress_grows_monotonically(finished_job):
    """Completed-phase counts never go backwards within a poll stream
    (the sidecar is written on durable commits, so each observation is
    a prefix of the next)."""
    final, observed = finished_job
    for target in final["targets"]:
        last = []
        for status in observed + [final]:
            campaign = next(
                c for c in status["campaigns"] if c["target"] == target
            )
            completed = campaign["completed_phases"]
            assert completed[: len(last)] == last, target
            last = completed


def test_job_listing_contains_the_finished_job(stack, finished_job):
    final, _ = finished_job
    jobs = {job["id"]: job for job in stack.client.jobs()}
    assert final["id"] in jobs
    assert jobs[final["id"]]["state"] == jobstates.DONE
    assert jobs[final["id"]]["targets"] == final["targets"]


# -- cross-campaign cache sharing ----------------------------------------


def test_warm_second_campaign_issues_zero_remote_probe_verbs(
    stack, finished_job, ref_specs
):
    """A second campaign over the same targets answers every probe --
    sizing probes included -- from the shared cache: the service's miss
    and write counters must not move, and the workers' own summaries
    must report zero remote verbs."""
    stats = stack.service.cache.stats
    misses_before, writes_before = stats.misses, stats.writes
    job = stack.client.submit(TARGETS, workers="auto")
    final = stack.client.wait(job["id"], timeout=600)
    assert final["state"] == jobstates.DONE, final
    assert stats.misses == misses_before, "warm campaign missed the cache"
    assert stats.writes == writes_before, "warm campaign wrote new entries"
    specs = stack.client.spec(job["id"])["specs"]
    for target in TARGETS:
        assert specs[target] == ref_specs[target], target
        log = (
            stack.service.root
            / "campaigns"
            / job["id"]
            / target
            / "logs"
            / "attempt-01.out"
        ).read_text()
        verb_lines = [
            line for line in log.splitlines() if line.split(":")[0].strip() == "total_verbs"
        ]
        assert verb_lines, f"{target}: no verb counter in worker log"
        assert verb_lines[0].rstrip().endswith(" 0"), verb_lines[0]


# -- cancellation --------------------------------------------------------


def test_cancel_is_terminal_and_double_cancel_conflicts(stack):
    job = stack.client.submit(["vax"])
    cancelled = stack.client.cancel(job["id"])
    assert cancelled["state"] == jobstates.CANCELLED
    status = stack.client.status(job["id"])
    assert status["state"] == jobstates.CANCELLED
    with pytest.raises(ServiceError) as excinfo:
        stack.client.cancel(job["id"])
    assert excinfo.value.status == 409
    with pytest.raises(ServiceError) as excinfo:
        stack.client.spec(job["id"])
    assert excinfo.value.status == 409


# -- typed errors --------------------------------------------------------


def test_unknown_job_is_404(stack):
    with pytest.raises(ServiceError) as excinfo:
        stack.client.status("job-999999")
    assert excinfo.value.status == 404


def test_unknown_target_is_400(stack):
    with pytest.raises(ServiceError) as excinfo:
        stack.client.submit(["pdp11-that-never-was"])
    assert excinfo.value.status == 400
    assert "unknown target" in str(excinfo.value)


def test_bogus_submit_knob_is_400(stack):
    with pytest.raises(ServiceError) as excinfo:
        stack.client.submit(["vax"], fleeet=9)
    assert excinfo.value.status == 400
    assert "unknown option" in str(excinfo.value)


def test_empty_targets_is_400(stack):
    with pytest.raises(ServiceError) as excinfo:
        stack.client.submit([])
    assert excinfo.value.status == 400


def test_unroutable_path_is_404(stack):
    with pytest.raises(ServiceError) as excinfo:
        stack.client._request("GET", "/no/such/route")
    assert excinfo.value.status == 404
    assert excinfo.value.code == "not_found"


# -- the shared-cache endpoints ------------------------------------------


def test_cache_roundtrip_over_http(stack):
    payload = {"stdout": "42\n", "returncode": 0}
    stack.client._request(
        "PUT", "/cache/feedfacefeedface/execute:deadbeef", body=payload
    )
    fetched = stack.client._request(
        "GET", "/cache/feedfacefeedface/execute:deadbeef"
    )
    assert fetched == payload


def test_cache_miss_is_typed_404(stack):
    with pytest.raises(ServiceError) as excinfo:
        stack.client._request("GET", "/cache/feedfacefeedface/execute:0b5cure")
    assert excinfo.value.status == 404
    assert excinfo.value.code == "cache_miss"


def test_cache_malformed_key_is_400(stack):
    with pytest.raises(ServiceError) as excinfo:
        stack.client._request("GET", "/cache/feedfacefeedface/nocolonhere")
    assert excinfo.value.status == 400
