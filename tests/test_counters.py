"""Every counter set renders through ``Counters.as_dict()``: its fields,
then the derived properties its class declares, floats rounded to 4
places, and nothing of that reaches a checkpoint."""

from dataclasses import fields

import pytest

from repro.counters import Counters
from repro.discovery import portable
from repro.discovery.cache import CacheStats, GcStats
from repro.discovery.extract_pool import ExtractionStats
from repro.discovery.mutation import MutationStats
from repro.discovery.probe import ProbeLog
from repro.discovery.resilience import RetryStats
from repro.discovery.scheduler import SchedulerStats
from repro.machines.faults import FaultStats
from repro.machines.machine import MachineStats

#: every counter class, with the derived names it renders after its fields
DERIVED = {
    MachineStats: ("total_verbs",),
    FaultStats: ("injected",),
    RetryStats: (),
    SchedulerStats: (),
    CacheStats: ("lookups", "hit_rate"),
    MutationStats: (),
    ExtractionStats: ("memo_hit_rate", "budget_unspent"),
    GcStats: (),
    ProbeLog: (),
}

_BY_NAME = pytest.mark.parametrize("cls", list(DERIVED), ids=lambda cls: cls.__name__)


def _populated(cls):
    """An instance with every field moved off its default (floats at
    more than 4 places, containers non-empty)."""
    stats = cls()
    for index, f in enumerate(fields(stats), start=1):
        value = getattr(stats, f.name)
        if isinstance(value, bool):
            setattr(stats, f.name, not value)
        elif isinstance(value, int):
            setattr(stats, f.name, value + index)
        elif isinstance(value, float):
            setattr(stats, f.name, value + index + 1 / 3)
        elif isinstance(value, dict):
            value["phase"] = index + 1 / 7
        elif isinstance(value, list):
            value.append(index)
        else:  # GcStats.last: the newest pass's report
            setattr(stats, f.name, {"reclaimed_bytes": index})
    return stats


def test_every_counters_class_is_listed():
    assert set(Counters.__subclasses__()) == set(DERIVED)


@_BY_NAME
def test_as_dict_is_fields_then_declared_derived_names(cls):
    stats = _populated(cls)
    rendered = stats.as_dict()
    names = [f.name for f in fields(stats)]
    assert cls.DERIVED == DERIVED[cls]
    assert list(rendered) == names + list(DERIVED[cls])
    for name, value in rendered.items():
        expected = getattr(stats, name)
        if isinstance(expected, float):
            assert value == round(expected, 4) != expected
        elif isinstance(expected, dict) and name != "last":
            assert value == {key: round(item, 4) for key, item in expected.items()}
        else:
            assert value == expected
        if isinstance(expected, (dict, list)):
            assert value is not expected  # a rendering, never the live counter


@_BY_NAME
def test_rendering_never_reaches_a_checkpoint(cls):
    stats = _populated(cls)
    if cls is GcStats:  # journalled to gc-stats.json, never checkpointed
        with pytest.raises(portable.PortableError):
            portable.freeze(stats)
        return
    before = portable.freeze(stats)
    stats.as_dict()
    assert portable.freeze(stats) == before
    encoded = [name for name, _ in before["s"]["e"]]
    assert encoded == [f.name for f in fields(stats)]
