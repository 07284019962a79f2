"""Crash-durable discovery runs: on-disk checkpoints and exact resume.

PR 1 made the pipeline *interruption-aware*: a terminal phase failure
raises :class:`~repro.discovery.driver.DiscoveryInterrupted` carrying an
in-memory :class:`~repro.discovery.driver.DiscoveryCheckpoint`.  That
checkpoint dies with the process -- and the discovery unit is exactly
the workload where processes die: a long-running probe loop against a
slow, flaky remote target.  This module persists the checkpoint to a
**run directory** so ``repro discover --resume RUNDIR`` restarts after a
``kill -9`` and produces a spec bit-for-bit identical to an
uninterrupted run.

Layout of a run directory::

    RUNDIR/
      run.json           # schema, target, and the full machine config
      ckpt-000001.bin    # checkpoint generations, newest wins
      ckpt-000002.bin

Three guarantees:

* **Atomic commits.**  A checkpoint is written to a temp file, flushed
  and fsynced, then published with an atomic ``os.replace`` (and a
  directory fsync where the platform supports it).  A crash mid-commit
  leaves at worst a stray ``*.tmp`` file, never a half-written
  generation under a committed name.
* **Corruption fallback.**  Every generation carries a magic string, a
  schema version and a SHA-256 of its payload.  The loader walks
  generations newest-first and returns the first one that validates;
  truncated files, foreign schema versions and torn headers are
  reported as warnings, never exceptions.  The previous good generation
  is kept on disk for exactly this reason.
* **Exact mid-phase resume.**  The checkpoint state carries per-sample
  completion records for the fan-out phases (sample generation,
  register probing, mutation analysis, reverse interpretation), so a
  resumed run re-does only the samples whose results never committed --
  cheap with a warm probe cache, and still exact with a cold one.

Serialisation is the **portable structured codec**
(:mod:`repro.discovery.portable`) behind the same schema-versioned,
checksummed envelope: the checkpoint holds live analysis objects
(samples, DFGs, the mutation engine with its RNG mid-stream positions)
whose fidelity is what makes the resumed spec identical, and the codec
encodes them as deterministic, closed-world tagged JSON so *any* worker
on *any* build can adopt the run -- the property the campaign
supervisor's crash adoption rests on.  Nothing is ever unpickled: a
generation of any other schema, including the pickle-era schema 1, is
skipped with a warning like any foreign one.  Target connections are
*not* serialised -- the codec excludes them and the driver rebinds the
corpus to its freshly opened connection on resume;
:func:`machine_from_config` rebuilds the same connection stack (fault
plan, latency, fuel) from ``run.json``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import tempfile

from repro.discovery import portable
from repro.errors import DiscoveryError
from repro.machines import machine as facade

#: bump when the checkpoint payload layout changes.  Schema 2 is the
#: portable structured codec; anything else is foreign.
CHECKPOINT_SCHEMA = 2

#: first bytes of every checkpoint generation
MAGIC = b"repro-checkpoint\n"

#: committed generations kept on disk; older ones are pruned after a
#: successful commit, so corruption of the newest can always fall back
KEEP_GENERATIONS = 2

RUN_MANIFEST = "run.json"

#: lightweight progress sidecar, rewritten atomically at every commit.
#: Like the lease it is runtime state: outside the generation glob,
#: never read by the loader, carrying nothing spec-affecting -- it
#: exists so the service control plane (and ``repro client status``)
#: can report typed progress without thawing a full checkpoint body.
PROGRESS_FILE = "progress.json"


class CheckpointCorrupt(DiscoveryError):
    """One checkpoint generation failed validation (the loader falls
    back to an older generation; this never escapes :meth:`DurableRun.
    load_checkpoint`)."""


# -- machine-config introspection and reconstruction -------------------


def run_config(discovery):
    """The ``run.json`` payload for a driver: everything needed to
    rebuild the same machine stack and driver knobs on resume."""
    config = {
        "schema": CHECKPOINT_SCHEMA,
        "target": discovery.machine.target,
        "seed": discovery.seed,
        "workers": discovery.workers,
        "adaptive_workers": getattr(discovery, "adaptive_workers", False),
        "extract_procs": discovery.extractor.procs,
        "extract_memo": discovery.extractor.memo_enabled,
        "checkpoint_every": discovery.checkpoint_every,
        "flaky": 0.0,
        "fault_seed": None,
        "latency": 0.0,
        "fuel": None,
        "max_retries": None,
        "votes": None,
        "cache_dir": None,
        "cache_url": None,
    }
    if discovery.resilience is not None:
        config["max_retries"] = discovery.resilience.max_retries
        config["votes"] = discovery.resilience.votes
    cache = discovery.cache
    if cache is not None and getattr(cache, "directory", None) is not None:
        config["cache_dir"] = str(cache.directory)
    if cache is not None and getattr(cache, "url", None) is not None:
        config["cache_url"] = str(cache.url)
    plan = facade.layer_attr(discovery.machine, "plan")
    if plan is not None:
        config["flaky"] = plan.rate
        config["fault_seed"] = plan.seed
    fuel = facade.layer_attr(discovery.machine, "fuel")
    if fuel is not None:
        config["latency"] = facade.layer_attr(discovery.machine, "latency")
        config["fuel"] = fuel
    return config


def machine_from_config(config):
    """Rebuild the (possibly fault-injected) target machine a run was
    started against.  Returns ``(machine, resilience_config)``; the
    resilience wrapper itself is applied by the driver, as on a fresh
    run."""
    from repro.discovery.resilience import ResilienceConfig
    from repro.machines.restore import machine_from_manifest

    machine = machine_from_manifest(config)
    resilience = ResilienceConfig()
    if config.get("max_retries") is not None:
        resilience.max_retries = config["max_retries"]
    if config.get("votes") is not None:
        resilience.votes = config["votes"]
    return machine, resilience


# -- checkpoint serialisation ------------------------------------------


def freeze_body(checkpoint):
    """The portable payload bytes of a checkpoint -- deterministic, so
    equal checkpoints freeze to equal bytes on every build (this is
    what the lease-hygiene tests hash).  The codec leaves the corpus's
    live connection and its assembled init objects out."""
    return portable.dumps(
        {
            "target": checkpoint.target,
            "completed": list(checkpoint.completed),
            "state": checkpoint.state,
            "report": checkpoint.report,
        }
    )


def freeze_checkpoint(checkpoint):
    """Serialise a checkpoint into a self-validating binary blob."""
    payload = freeze_body(checkpoint)
    header = json.dumps(
        {
            "schema": CHECKPOINT_SCHEMA,
            "format": portable.PORTABLE_FORMAT,
            "target": checkpoint.target,
            "length": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
        },
        sort_keys=True,
    ).encode("utf-8")
    return MAGIC + header + b"\n" + payload


def parse_envelope(blob):
    """Validate a generation's envelope; ``(header, payload)`` on
    success, :class:`CheckpointCorrupt` on any defect."""
    if not blob.startswith(MAGIC):
        raise CheckpointCorrupt("bad magic (not a checkpoint file)")
    stream = io.BytesIO(blob[len(MAGIC) :])
    header_line = stream.readline()
    try:
        header = json.loads(header_line)
    except ValueError as exc:
        raise CheckpointCorrupt(f"unparsable header: {exc}") from exc
    payload = stream.read()
    if len(payload) != header.get("length"):
        raise CheckpointCorrupt(
            f"truncated payload: {len(payload)} of {header.get('length')} bytes"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise CheckpointCorrupt("payload checksum mismatch")
    return header, payload


def thaw_checkpoint(blob):
    """Validate and deserialise one checkpoint generation through the
    portable codec.  Raises :class:`CheckpointCorrupt` on any defect,
    including a schema other than :data:`CHECKPOINT_SCHEMA`; the caller
    falls back."""
    from repro.discovery.driver import DiscoveryCheckpoint

    header, payload = parse_envelope(blob)
    schema = header.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointCorrupt(
            f"schema version {schema!r} (this build reads {CHECKPOINT_SCHEMA})"
        )
    try:
        data = portable.loads(payload)
    except portable.PortableError as exc:
        raise CheckpointCorrupt(f"payload does not decode: {exc}") from exc
    return DiscoveryCheckpoint(
        target=data["target"],
        completed=data["completed"],
        report=data["report"],
        state=data["state"],
    )


# -- the run directory -------------------------------------------------


def _fsync_directory(path):
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platform without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path, data):
    """Publish *data* (bytes or str) at *path* so that no crash can tear
    it: write a temp file in the same directory, flush and fsync it,
    ``os.replace`` it over *path*, then fsync the directory.  Readers
    see the old content or the new, never a mix; on any failure the
    temp file is removed and *path* is untouched.  The one such write:
    checkpoints, manifests and progress, leases and campaign records,
    job records, compacted probe-cache shards and lint/verify reports
    all go through it."""
    path = pathlib.Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)


class DurableRun:
    """One discovery run's on-disk home: manifest plus checkpoint
    generations."""

    def __init__(self, directory, config=None):
        self.directory = pathlib.Path(directory)
        self.config = config
        self.commits = 0

    # -- construction --------------------------------------------------

    @classmethod
    def attach(cls, directory, config):
        """Create (or re-open) a run directory for a fresh run.  A
        pre-existing manifest must agree on the target -- resuming a
        ``vax`` run against ``mips`` answers would corrupt both."""
        run = cls(directory, config=dict(config))
        run.directory.mkdir(parents=True, exist_ok=True)
        manifest = run.directory / RUN_MANIFEST
        if manifest.exists():
            existing = cls.open(directory)
            if existing.config.get("target") != config.get("target"):
                raise DiscoveryError(
                    f"run directory {run.directory} belongs to target "
                    f"{existing.config.get('target')!r}, not {config.get('target')!r}"
                )
            run.config = existing.config
        else:
            run._write_manifest()
        run.commits = len(run.generations())
        return run

    @classmethod
    def open(cls, directory):
        """Open an existing run directory (the ``--resume`` path)."""
        run = cls(directory)
        manifest = run.directory / RUN_MANIFEST
        if not manifest.exists():
            raise DiscoveryError(f"no {RUN_MANIFEST} in {run.directory}")
        try:
            run.config = json.loads(manifest.read_text())
        except ValueError as exc:
            raise DiscoveryError(
                f"unreadable {RUN_MANIFEST} in {run.directory}: {exc}"
            ) from exc
        run.commits = len(run.generations())
        return run

    def _write_manifest(self):
        atomic_write(
            self.directory / RUN_MANIFEST,
            json.dumps(self.config, indent=2, sort_keys=True) + "\n",
        )

    # -- commits -------------------------------------------------------

    def generations(self):
        """Committed checkpoint paths, oldest first."""
        return sorted(self.directory.glob("ckpt-*.bin"))

    def _next_generation(self):
        paths = self.generations()
        if not paths:
            return 1
        last = paths[-1].stem.split("-")[-1]
        try:
            return int(last) + 1
        except ValueError:
            return len(paths) + 1

    def commit(self, checkpoint):
        """Durably publish a checkpoint as the newest generation, then
        prune generations beyond :data:`KEEP_GENERATIONS`."""
        blob = freeze_checkpoint(checkpoint)
        generation = self._next_generation()
        path = self.directory / f"ckpt-{generation:06d}.bin"
        atomic_write(path, blob)
        self.commits += 1
        for stale in self.generations()[:-KEEP_GENERATIONS]:
            try:
                stale.unlink()
            except OSError:
                pass
        self._write_progress(checkpoint, generation)
        return path

    def _write_progress(self, checkpoint, generation):
        """The :data:`PROGRESS_FILE` sidecar: completed phases plus
        per-phase completion-record counts, cheap enough to rewrite on
        every commit and cheap enough for a control plane to poll."""
        records = checkpoint.state.get("progress") or {}
        payload = {
            "target": checkpoint.target,
            "generation": generation,
            "completed": list(checkpoint.completed),
            "phase_records": {
                phase: len(store) for phase, store in sorted(records.items())
            },
        }
        try:
            atomic_write(
                self.directory / PROGRESS_FILE,
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
            )
        except OSError:
            pass  # progress is advisory; never fail a commit over it

    # -- loading -------------------------------------------------------

    def load_checkpoint(self):
        """The newest checkpoint that validates, plus warnings for every
        generation skipped on the way there.  ``(None, warnings)`` when
        no generation is loadable (the caller starts from scratch)."""
        warnings = []
        for path in reversed(self.generations()):
            try:
                checkpoint = thaw_checkpoint(path.read_bytes())
            except CheckpointCorrupt as exc:
                warnings.append(f"checkpoint {path.name} unusable: {exc}")
                continue
            except OSError as exc:
                warnings.append(f"checkpoint {path.name} unreadable: {exc}")
                continue
            if checkpoint.target != self.config.get("target"):
                warnings.append(
                    f"checkpoint {path.name} is for {checkpoint.target!r}, "
                    f"manifest says {self.config.get('target')!r}"
                )
                continue
            return checkpoint, warnings
        return None, warnings

    def describe(self):
        gens = self.generations()
        newest = gens[-1].name if gens else "(no checkpoints yet)"
        return f"run directory {self.directory}: {len(gens)} generation(s), {newest}"


def auto_run_directory(target):
    """A freshly created fallback run directory, used to persist the
    checkpoint of an interrupted run that was started without
    ``--run-dir`` (satellite: the caller must never lose the checkpoint
    just because they did not plan for the crash)."""
    return tempfile.mkdtemp(prefix=f"repro-run-{target}-")


# -- per-sample completion records -------------------------------------


class PhaseProgress:
    """The per-sample completion records of one fan-out phase.

    Lives inside ``checkpoint.state["progress"][phase]`` -- a plain dict
    of record-key -> payload -- so it serialises with the checkpoint.
    ``record`` stores the payload *then* notifies the driver, whose
    callback commits a new generation (and gives the crash-injection
    harness its sample boundary); a record is therefore durable before
    the next task starts, and a crash between records loses at most one
    chunk of work.
    """

    def __init__(self, store, chunk=8, on_record=None):
        self.store = store
        self.chunk = max(1, chunk)
        self.on_record = on_record

    def recorded(self, key):
        """The payload recorded under *key*, or None."""
        return self.store.get(key)

    def record(self, key, payload):
        self.store[key] = payload
        if self.on_record is not None:
            self.on_record(len(self.store))
        return payload

    def next_key(self):
        """A fresh record key (monotonic across resume: keys are counted,
        never reused)."""
        return f"chunk-{len(self.store):05d}"

    def payloads(self):
        """All recorded payloads, in record-key order."""
        return [self.store[key] for key in sorted(self.store)]


def chunked(items, size):
    """Contiguous chunks of at most *size* items, preserving order."""
    items = list(items)
    size = max(1, size)
    return [items[i : i + size] for i in range(0, len(items), size)]
