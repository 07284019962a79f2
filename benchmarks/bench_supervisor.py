"""Cost of supervised campaigns: what adoption overhead buys.

The supervisor's promise is that a fleet under fire finishes anyway; the
bench prices that promise.  One campaign runs clean (zero injected
kills) and one runs under the chaos harness (two seeded worker SIGKILLs,
each adopted via ``--resume``), both against a pre-warmed probe cache so
the numbers compare supervision machinery rather than probe traffic.

``BENCH_supervisor.json`` records wall seconds and attempt counts for
both regimes plus the determinism verdict -- a chaos campaign's spec
must be bit-for-bit the clean one's.
"""

import os
import time

from repro.discovery.driver import ArchitectureDiscovery
from repro.discovery.supervisor import CampaignPolicy, CampaignSupervisor
from repro.machines.crashes import FleetKillPlan
from repro.machines.machine import RemoteMachine

LATENCY = float(os.environ.get("REPRO_BENCH_LATENCY", "0.002"))

TARGET = "vax"

KILLS = ["sample:register_discovery:2", "sample:mutation_analysis:3"]

_QUIET = lambda *args, **kwargs: None  # noqa: E731


def _campaign(root, cache, kill_plan=None):
    supervisor = CampaignSupervisor(
        [TARGET],
        root,
        fleet=1,
        policy=CampaignPolicy(backoff_base=0.05, poll_interval=0.05),
        cache_dir=cache,
        heartbeat_every=0.2,
        kill_plan=kill_plan,
        echo=_QUIET,
    )
    start = time.perf_counter()
    summary = supervisor.run()
    elapsed = time.perf_counter() - start
    assert summary["ok"], summary
    [campaign] = supervisor.campaigns
    return elapsed, campaign


def test_campaign_overhead_zero_vs_two_kills(benchmark, tmp_path):
    cache = str(tmp_path / "cache")

    def run():
        # Warm the shared probe cache (and pin the reference spec).
        reference = ArchitectureDiscovery(
            RemoteMachine(TARGET, latency=LATENCY), workers=1, cache=cache
        ).run()
        ref_spec = reference.spec.render_beg() + "\n"

        clean_s, clean = _campaign(tmp_path / "clean", cache)
        chaos_s, chaos = _campaign(
            tmp_path / "chaos",
            cache,
            kill_plan=FleetKillPlan.explicit({TARGET: KILLS}),
        )
        return {
            "clean_s": round(clean_s, 3),
            "chaos_s": round(chaos_s, 3),
            "clean_attempts": clean.attempts,
            "chaos_attempts": chaos.attempts,
            "injected_kills": len(KILLS),
            "latency_s": LATENCY,
            "clean_spec_identical": clean.spec_artifact().read_text() == ref_spec,
            "chaos_spec_identical": chaos.spec_artifact().read_text() == ref_spec,
        }

    payload = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(payload)

    # Identity is the contract; the wall-clock delta is the observation.
    assert payload["clean_spec_identical"]
    assert payload["chaos_spec_identical"]
    assert payload["clean_attempts"] == 1
    assert payload["chaos_attempts"] == len(KILLS) + 1
