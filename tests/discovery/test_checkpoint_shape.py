"""A checkpoint carries each object's declared fields and nothing else.

The portable codec freezes an object's attribute dict, so an attribute
set by plain assignment rides every checkpoint although no class says
it exists, and readers have to guess at it with ``getattr``.  Freeze
each target's finished report and check every registered dataclass
instance: it carries exactly its declared fields, less its registry
``exclude``.
"""

import dataclasses
import json

from repro.discovery import portable
from repro.discovery.driver import DiscoveryCheckpoint
from repro.discovery.durable import freeze_body


def _objects(node):
    """Every frozen object node of a portable payload."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if node.get(portable.TAG) == "o":
                yield node
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)


def test_checkpoint_objects_carry_their_declared_fields(report):
    checkpoint = DiscoveryCheckpoint(report.target, [], report, {})
    registry, _ = portable._registry()
    mismatched = {}
    for node in _objects(json.loads(freeze_body(checkpoint))):
        entry = registry[node["t"]]
        if not dataclasses.is_dataclass(entry.cls):
            continue
        declared = {f.name for f in dataclasses.fields(entry.cls)} - entry.exclude
        carried = {name for name, _value in node["s"]["e"]}
        if carried != declared:
            mismatched.setdefault(node["t"], set()).update(carried ^ declared)
    assert not mismatched
