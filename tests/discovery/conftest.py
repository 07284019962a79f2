"""Discovery-test fixtures.

Full architecture discovery takes a few seconds per target; the
``report`` fixture runs it once per target per session and caches the
result, so the per-figure experiment tests stay fast.
"""

import hashlib

import pytest

from repro.machines.machine import RemoteMachine
from repro.discovery.driver import ArchitectureDiscovery

_CACHE = {}

#: target -> :func:`work_done` of its cached report, taken as the run
#: ends: tests that drive a report's engine afterwards move its counters
WORK = {}

TARGETS = ("x86", "mips", "sparc", "alpha", "vax", "m68k")


def work_done(report):
    """The spec's sha256 and the search and mutation work that found it."""
    mutation = report.engine.stats
    return {
        "spec_sha256": hashlib.sha256(report.spec.render_beg().encode()).hexdigest(),
        "interpretations_tried": report.extraction.interpretations_tried,
        "budget_spent": report.extraction_stats.budget_spent,
        "attempted": mutation.attempted,
        "succeeded": mutation.succeeded,
        "runs": mutation.runs,
    }


def discovery_report(target):
    if target not in _CACHE:
        machine = RemoteMachine(target)
        _CACHE[target] = ArchitectureDiscovery(machine).run()
        WORK[target] = work_done(_CACHE[target])
    return _CACHE[target]


@pytest.fixture(params=TARGETS, scope="session")
def report(request):
    """Parametrized full-discovery report, one per simulated target."""
    return discovery_report(request.param)


@pytest.fixture(scope="session")
def x86_report():
    return discovery_report("x86")


@pytest.fixture(scope="session")
def mips_report():
    return discovery_report("mips")


@pytest.fixture(scope="session")
def sparc_report():
    return discovery_report("sparc")


@pytest.fixture(scope="session")
def alpha_report():
    return discovery_report("alpha")


@pytest.fixture(scope="session")
def vax_report():
    return discovery_report("vax")


@pytest.fixture(scope="session")
def m68k_report():
    return discovery_report("m68k")


def sample_named(report, name):
    for sample in report.corpus.samples:
        if sample.name == name:
            return sample
    raise LookupError(name)
