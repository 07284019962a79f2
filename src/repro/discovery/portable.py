"""Portable checkpoint serialisation: a schema-stable structured codec.

PR 5's checkpoints were :mod:`pickle` behind a checksummed envelope --
durable against power cuts, but **bound to one build**: a checkpoint
written by one interpreter/source tree could only be adopted by the
identical one, because pickle records class import paths and whatever
``__reduce__`` happens to produce today.  A fleet supervisor needs the
opposite property: *any* worker on *any* build adopts a crashed
campaign and resumes it bit-for-bit.

This module is that stable serialisation.  ``freeze(obj)`` turns the
whole checkpoint object graph into a JSON-safe structure built from
five explicitly tagged forms (object, dict, list, set/frozenset,
tuple, plus leaf encodings for bytes and seeded RNG state); ``thaw``
rebuilds the graph.  Three properties pickle does not give us:

* **Closed world.**  Only classes in the :data:`REGISTRY` serialise.
  An unregistered class is a hard error at freeze time -- a checkpoint
  can never smuggle live state whose layout nobody promised to keep --
  and a hard error at thaw time, so a forged or future-build payload
  cannot instantiate arbitrary types the way ``pickle.loads`` can.
* **Reference fidelity.**  Shared mutable objects (the corpus the
  mutation engine points at, the syntax the spec embeds) are encoded
  once and referenced thereafter, so aliasing -- which the resumed
  driver relies on -- survives the round trip, as do cycles.
* **Deterministic bytes.**  Encoding order is traversal order, dict
  entries keep insertion order (pair lists, never JSON objects whose
  key order a serialiser may rewrite), set elements are sorted by
  their canonical encoding, and :func:`canonical_bytes` renders with
  sorted keys and fixed separators.  Two freezes of equal state are
  byte-identical, which is what lets the lease-hygiene tests hash
  checkpoint bodies and what makes commit checksums comparable across
  workers.

The codec deliberately carries **state, not behaviour**: thawing
allocates with ``cls.__new__`` and restores attribute dicts, so code
upgrades apply to adopted campaigns immediately -- the stability
contract is field names (checked by the registry), not bytecode.

Wall-clock measurements are excluded by codec policy (see the
``DiscoveryReport`` entry): a checkpoint must describe *what was
decided*, never *when*, so equal runs freeze to equal bytes.
"""

from __future__ import annotations

import base64
import gc
import json
import math
import random

from repro.errors import DiscoveryError

#: bump when the encoding scheme itself (the tag forms) changes;
#: class-level layout changes are carried by the checkpoint schema
PORTABLE_FORMAT = "portable/1"

#: the reserved tag key; a plain JSON object is never emitted, so the
#: decoder can treat every dict it sees as a tagged form
TAG = "!"


class PortableError(DiscoveryError):
    """The object graph contains something outside the portable
    closed world (freeze), or a payload names an unknown tag/class or
    is structurally malformed (thaw)."""


# -- the class registry -------------------------------------------------


class _Entry:
    """How one class freezes: which attributes to drop, and how to
    finish a thawed instance (rebuild the dropped runtime bits)."""

    def __init__(self, cls, exclude=(), restore=None):
        self.cls = cls
        self.exclude = frozenset(exclude)
        self.restore = restore


def _restore_corpus(corpus):
    # Live connections never ride a checkpoint: the resuming driver
    # rebinds its own machine stack, and assembled init objects belong
    # to the connection that made them.
    corpus.machine = None
    corpus._init_cache = {}


def _restore_report(report):
    # Timings are excluded by policy (wall clock is not state); the
    # resumed run measures its own phases from here on.
    report.timings = []


def _build_registry():
    """tag -> _Entry for every class allowed inside a checkpoint.

    Imports live here (not at module top) because the driver imports
    the durable layer which imports this module; the registry is only
    needed once a checkpoint is actually frozen or thawed.
    """
    from repro.analysis.diagnostics import Diagnostic, DiagnosticSet
    from repro.beg.spec import MachineSpec, OpRule
    from repro.discovery.addresses import AddressMap
    from repro.discovery.asmmodel import (
        DImm,
        DInstr,
        DMem,
        DReg,
        DSym,
        DUnknown,
        Slot,
    )
    from repro.discovery.branches import BranchModel, BranchRule
    from repro.discovery.calling import CallProtocol
    from repro.discovery.dfg import Dfg
    from repro.discovery.driver import DiscoveryReport, PhaseTiming
    from repro.discovery.enquire import EnquireResult
    from repro.discovery.extract_pool import ExtractionStats, ShardOutcome
    from repro.discovery.frames import FrameModel
    from repro.discovery.graphmatch import MatchResult
    from repro.discovery.mutation import MutationEngine, MutationStats, ValueSet
    from repro.discovery.preprocess import LiveRange, RegionInfo
    from repro.discovery.probe import ProbeLog
    from repro.discovery.reverse_interp import ExtractionResult, OpSemantics
    from repro.discovery.cache import CacheStats
    from repro.discovery.resilience import RetryStats
    from repro.discovery.samples import Corpus, Sample
    from repro.discovery.scheduler import SchedulerStats
    from repro.discovery.syntax import DiscoveredSyntax, LoadImmTemplate
    from repro.machines.restore import machine_stats_classes

    MachineStats, FaultStats = machine_stats_classes()

    entries = {
        "Report": _Entry(
            DiscoveryReport, exclude=("timings",), restore=_restore_report
        ),
        "PhaseTiming": _Entry(PhaseTiming),
        "Sample": _Entry(Sample),
        "Corpus": _Entry(
            Corpus, exclude=("machine", "_init_cache"), restore=_restore_corpus
        ),
        "Syntax": _Entry(DiscoveredSyntax),
        "LoadImm": _Entry(LoadImmTemplate),
        "DReg": _Entry(DReg),
        "DImm": _Entry(DImm),
        "DMem": _Entry(DMem),
        "DSym": _Entry(DSym),
        "DUnknown": _Entry(DUnknown),
        "Slot": _Entry(Slot),
        # the rendered-text cache is derived, and clones never share it
        "DInstr": _Entry(DInstr, exclude=("rendered",)),
        "Enquire": _Entry(EnquireResult),
        # no run commits a probe log any more; older checkpoints carry one
        "ProbeLog": _Entry(ProbeLog),
        "LiveRange": _Entry(LiveRange),
        "RegionInfo": _Entry(RegionInfo),
        "Dfg": _Entry(Dfg),
        "MutationEngine": _Entry(MutationEngine),
        "MutationStats": _Entry(MutationStats),
        "ValueSet": _Entry(ValueSet),
        "AddressMap": _Entry(AddressMap),
        "MatchResult": _Entry(MatchResult),
        "OpSemantics": _Entry(OpSemantics),
        "ExtractionResult": _Entry(ExtractionResult),
        "ExtractionStats": _Entry(ExtractionStats),
        "ShardOutcome": _Entry(ShardOutcome),
        "BranchRule": _Entry(BranchRule),
        "BranchModel": _Entry(BranchModel),
        "CallProtocol": _Entry(CallProtocol),
        "FrameModel": _Entry(FrameModel),
        "OpRule": _Entry(OpRule),
        "MachineSpec": _Entry(MachineSpec),
        "Diagnostic": _Entry(Diagnostic),
        "DiagnosticSet": _Entry(DiagnosticSet),
        "SchedulerStats": _Entry(SchedulerStats),
        # post-run summary stats (a checkpoint of a *finished* run
        # carries these; mid-run commits leave them None)
        "MachineStats": _Entry(MachineStats),
        "RetryStats": _Entry(RetryStats),
        "FaultStats": _Entry(FaultStats),
        "CacheStats": _Entry(CacheStats),
    }
    return entries


_REGISTRY = None
_BY_CLASS = None


def _registry():
    global _REGISTRY, _BY_CLASS
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
        _BY_CLASS = {entry.cls: (tag, entry) for tag, entry in _REGISTRY.items()}
    return _REGISTRY, _BY_CLASS


# -- freezing -----------------------------------------------------------


#: exact types that freeze to themselves (subclasses and floats take
#: the checks in :meth:`_Freezer.freeze`)
_SCALARS = frozenset({str, int, bool, type(None)})


class _Freezer:
    def __init__(self):
        _, self.by_class = _registry()
        self.memo = {}  # id(obj) -> assigned reference id
        self.next_id = 0
        self.pins = []  # keep encoded objects alive so ids stay unique

    def _assign(self, obj):
        ref = self.next_id
        self.next_id += 1
        self.memo[id(obj)] = ref
        self.pins.append(obj)
        return ref

    def freeze(self, obj):
        # Three in four nodes of a checkpoint are scalar leaves, so the
        # element loops below test for them before recursing.
        if type(obj) in _SCALARS:
            return obj
        if isinstance(obj, float) and not math.isfinite(obj):
            # Strict JSON has no NaN/Infinity literals; a tagged leaf
            # keeps canonical payloads parseable by any JSON reader
            # (the service API ships checkpoint-adjacent payloads to
            # foreign clients) while round-tripping the value exactly.
            return {TAG: "f", "v": repr(obj)}
        if obj is None or isinstance(obj, (bool, int, str, float)):
            return obj
        ref = self.memo.get(id(obj))
        if ref is not None:
            return {TAG: "r", "i": ref}
        if isinstance(obj, list):
            ref = self._assign(obj)
            return {
                TAG: "l",
                "i": ref,
                "e": [x if type(x) in _SCALARS else self.freeze(x) for x in obj],
            }
        if isinstance(obj, dict):
            ref = self._assign(obj)
            return {
                TAG: "d",
                "i": ref,
                "e": [
                    [
                        k if type(k) in _SCALARS else self.freeze(k),
                        v if type(v) in _SCALARS else self.freeze(v),
                    ]
                    for k, v in obj.items()
                ],
            }
        if isinstance(obj, tuple):
            return {
                TAG: "t",
                "e": [x if type(x) in _SCALARS else self.freeze(x) for x in obj],
            }
        if isinstance(obj, (set, frozenset)):
            ref = self._assign(obj)
            frozen = [x if type(x) in _SCALARS else self.freeze(x) for x in obj]
            frozen.sort(key=lambda item: json.dumps(item, sort_keys=True))
            kind = "fs" if isinstance(obj, frozenset) else "s"
            return {TAG: kind, "i": ref, "e": frozen}
        if isinstance(obj, (bytes, bytearray)):
            return {TAG: "b", "b64": base64.b64encode(bytes(obj)).decode("ascii")}
        if isinstance(obj, random.Random):
            ref = self._assign(obj)
            return {TAG: "rng", "i": ref, "state": self.freeze(obj.getstate())}
        tagged = self.by_class.get(type(obj))
        if tagged is None:
            raise PortableError(
                f"{type(obj).__module__}.{type(obj).__qualname__} is not a "
                f"portable class; register it in repro.discovery.portable"
            )
        tag, entry = tagged
        ref = self._assign(obj)
        state = {
            name: value
            for name, value in vars(obj).items()
            if name not in entry.exclude
        }
        return {TAG: "o", "t": tag, "i": ref, "s": self.freeze(state)}


def freeze(obj):
    """Encode an object graph into the portable JSON-safe structure.

    Raises :class:`PortableError` (never a bare ``RecursionError``) on
    graphs nested beyond the interpreter's recursion limit: a payload
    the codec cannot commit to thawing is rejected with a typed error
    instead of a torn stack."""
    try:
        return _Freezer().freeze(obj)
    except RecursionError as exc:
        raise PortableError(
            "object graph is nested too deeply to encode portably"
        ) from exc


# -- thawing ------------------------------------------------------------


class _Thawer:
    def __init__(self):
        self.registry, _ = _registry()
        self.memo = {}  # reference id -> rebuilt object

    def thaw(self, data):
        if data is None or isinstance(data, (bool, int, str, float)):
            return data
        if isinstance(data, list):
            raise PortableError("bare list in payload (lists must be tagged)")
        if not isinstance(data, dict) or TAG not in data:
            raise PortableError(f"untagged node in payload: {data!r:.80}")
        tag = data[TAG]
        try:
            if tag == "r":
                return self.memo[data["i"]]
            if tag == "l":
                out = self.memo[data["i"]] = []
                out.extend(self.thaw(x) for x in data["e"])
                return out
            if tag == "d":
                out = self.memo[data["i"]] = {}
                for key, value in data["e"]:
                    out[self.thaw(key)] = self.thaw(value)
                return out
            if tag == "t":
                return tuple(self.thaw(x) for x in data["e"])
            if tag == "fs":
                out = self.memo[data["i"]] = frozenset(
                    self.thaw(x) for x in data["e"]
                )
                return out
            if tag == "s":
                out = self.memo[data["i"]] = set()
                out.update(self.thaw(x) for x in data["e"])
                return out
            if tag == "b":
                return base64.b64decode(data["b64"])
            if tag == "f":
                value = float(data["v"])
                if math.isfinite(value):
                    raise PortableError(
                        f"finite float {data['v']!r} under the non-finite tag"
                    )
                return value
            if tag == "rng":
                # seedless is sound here: setstate() on the next line
                # overwrites the OS-entropy state with the frozen one
                rng = self.memo[data["i"]] = random.Random()  # detlint: ok[DET001]
                rng.setstate(self.thaw(data["state"]))
                return rng
            if tag == "o":
                entry = self.registry.get(data["t"])
                if entry is None:
                    raise PortableError(f"unknown portable class tag {data['t']!r}")
                obj = self.memo[data["i"]] = entry.cls.__new__(entry.cls)
                obj.__dict__.update(self.thaw(data["s"]))
                if entry.restore is not None:
                    entry.restore(obj)
                return obj
        except PortableError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise PortableError(f"malformed {tag!r} node: {exc}") from exc
        raise PortableError(f"unknown portable tag {tag!r}")


def thaw(data):
    """Decode :func:`freeze` output back into the object graph.

    Malformed payloads -- including ones nested beyond the recursion
    limit -- raise :class:`PortableError`, never an untyped crash."""
    try:
        return _Thawer().thaw(data)
    except RecursionError as exc:
        raise PortableError(
            "payload is nested too deeply to decode portably"
        ) from exc


# -- canonical bytes ----------------------------------------------------


def canonical_bytes(data):
    """Render a frozen structure as deterministic UTF-8 JSON bytes.

    Key order inside tagged nodes is sorted and separators are fixed,
    so equal structures yield equal bytes on every build; dict entry
    order is data (the ``e`` pair list), not key order, so sorting is
    safe."""
    try:
        return json.dumps(
            data,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
            # freeze output is a tree of fresh nodes (sharing is an "r"
            # node), so the encoder's cycle bookkeeping is pure cost; a
            # cyclic structure still ends in the RecursionError below
            check_circular=False,
        ).encode("ascii")
    except ValueError as exc:
        # allow_nan=False rejects any non-finite float that slipped
        # through untagged -- a typed error beats emitting "NaN", which
        # strict JSON readers (and the service's clients) cannot parse.
        raise PortableError(f"payload is not strict JSON: {exc}") from exc
    except RecursionError as exc:
        raise PortableError(
            "payload is cyclic or nested too deeply to render"
        ) from exc


def from_canonical(blob):
    """Parse :func:`canonical_bytes` output (plain JSON)."""
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise PortableError(f"payload is not canonical JSON: {exc}") from exc
    except RecursionError as exc:
        raise PortableError(
            "payload is nested too deeply to parse"
        ) from exc


def dumps(obj):
    """Freeze and render in one step."""
    # The frozen tree is acyclic and reference counting frees it once it
    # is rendered, so the cyclic collections its allocations would
    # trigger only rescan the caller's heap.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return canonical_bytes(freeze(obj))
    finally:
        if collecting:
            gc.enable()


def loads(blob):
    """Parse and thaw in one step."""
    return thaw(from_canonical(blob))
