"""Persistent content-addressed probe cache for remote-target verbs.

The paper's discovery unit issues thousands of tiny compile / assemble /
execute probes, and its cost is dominated by target round-trips; yet the
answers are pure functions of (target, toolchain, probe content).  This
module memoises them so repeat and resumed runs skip remote work
entirely -- the incremental-rediscovery idea of "Retargeting GCC: Do We
Reinvent the Wheel Every Time?" applied at the probe level.

Three pieces:

* :func:`target_fingerprint` -- identifies *which machine's answers*
  an entry belongs to: target name, toolchain command lines, execution
  fuel and the cache schema version.  Two different architectures (or
  the same one behind different toolchain flags) can never share an
  entry, because the fingerprint prefixes every key.
* :class:`ProbeCache` -- a thread-safe content-addressed store.  Keys
  are ``fingerprint:verb:content-hash``; values are small JSON payloads.
  Persistence is an append-only JSONL shard per fingerprint (crash-safe:
  a torn write corrupts one line, which is detected, counted and treated
  as a miss), with LRU eviction above ``max_entries`` and hit / miss /
  write / eviction / corruption counters for the reports.  The store
  holds one append handle, that of the shard written last: a write to
  another shard closes it and opens that one.  It is flushed after
  every entry (so a killed process loses nothing it reported stored),
  and closed by :meth:`ProbeCache.close`, before compaction rewrites
  its shard, and when GC evicts its shard.
* :class:`CachingMachine` -- wraps any four-verb machine (normally the
  top of a resilience stack, so only *vetted* answers are cached) behind
  the same surface.  Object and executable handles become *lazy*: they
  carry the content hash of the sources they were built from, so a warm
  ``assemble -> link -> execute`` chain is answered from the cache
  without the target ever being contacted; the real toolchain runs only
  on a miss, to materialise the handle the inner machine needs.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.counters import Counters
from repro.discovery.durable import atomic_write
from repro.errors import AssemblerError, LinkerError
from repro.machines import machine as facade

#: bump when the entry payload schema changes: old entries must miss
CACHE_FORMAT = 1


@dataclass
class CachedExecResult:
    """A replayed execution outcome.  Mirrors the executor's ExecResult
    interface (output/exit_code/steps/error/ok/same_result) without
    importing machine internals -- discovery treats the target as a
    black box, cached or live."""

    output: str
    exit_code: int = 0
    steps: int = 0
    error: str | None = None

    @property
    def ok(self):
        return self.error is None

    def same_result(self, other):
        return self.ok and other.ok and self.output == other.output


def _hash_text(*parts):
    digest = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode("utf-8")
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()[:32]


def target_fingerprint(machine):
    """Content address of *the machine being asked*: target name,
    toolchain command lines and execution fuel.  Changing any toolchain
    flag changes the fingerprint, invalidating every cached answer."""
    toolchain = machine.toolchain
    return _hash_text(
        f"format={CACHE_FORMAT}",
        machine.target,
        toolchain.host,
        toolchain.cc,
        toolchain.asm,
        toolchain.ld,
        f"fuel={facade.layer_attr(machine, 'fuel')}",
    )[:16]


@dataclass
class CacheStats(Counters):
    """Counters the driver surfaces in the DiscoveryReport."""

    DERIVED = ("lookups", "hit_rate")

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    corrupt_entries: int = 0
    loaded: int = 0
    hits_by_verb: dict = field(default_factory=dict)
    misses_by_verb: dict = field(default_factory=dict)

    @property
    def lookups(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class GcStats(Counters):
    """Lifetime counters of a store's shard GC (see :meth:`ProbeCache.gc`);
    ``last`` is the report of the newest pass."""

    runs: int = 0
    evicted_shards: int = 0
    reclaimed_bytes: int = 0
    compacted_shards: int = 0
    last: dict | None = None


class ProbeCache:
    """Content-addressed probe store, persistent when given a directory.

    ``directory=None`` keeps a purely in-memory cache (deduplicates
    probes within one run).  Otherwise each target fingerprint gets an
    append-only ``probes-<fingerprint>.jsonl`` shard under the
    directory; shards are loaded lazily on first touch, entries are
    appended write-through, and shards shrunk by eviction are compacted
    on :meth:`close`.  A store that wrote must be closed: it holds the
    append handle of the shard it wrote last.
    """

    def __init__(self, directory=None, max_entries=1_000_000):
        self.directory = pathlib.Path(directory) if directory else None
        self.max_entries = max_entries
        self.stats = CacheStats()
        self.gc_stats = GcStats()
        self._entries = OrderedDict()  # key -> payload dict (LRU order)
        self._loaded_shards = set()  # fingerprints already read from disk
        self._dirty_shards = set()  # fingerprints needing compaction
        self._touched = {}  # fingerprint -> wall-clock stamp of last use
        self._held = None  # (fingerprint, append handle) of the shard written last
        self._lock = threading.RLock()

    @staticmethod
    def _wall_now():
        """Retention ages are compared against shard file mtimes, so
        the wall clock is the only coherent reference.  Venue-only: GC
        decides what the cache *retains*, never what a probe answers."""
        import time

        return time.time()  # detlint: ok[DET003] - venue-only retention clock

    # -- the store ----------------------------------------------------

    def get(self, fingerprint, verb, content_hash):
        """The cached payload for a probe, or None on a miss."""
        key = f"{fingerprint}:{verb}:{content_hash}"
        with self._lock:
            self._ensure_shard(fingerprint)
            self._touched[fingerprint] = self._wall_now()
            payload = self._entries.get(key)
            if isinstance(payload, dict):
                self._entries.move_to_end(key)
                self.stats.hits += 1
                by = self.stats.hits_by_verb
                by[verb] = by.get(verb, 0) + 1
                return payload
            self.stats.misses += 1
            by = self.stats.misses_by_verb
            by[verb] = by.get(verb, 0) + 1
            return None

    def put(self, fingerprint, verb, content_hash, payload):
        """Record a probe answer (write-through when persistent)."""
        key = f"{fingerprint}:{verb}:{content_hash}"
        with self._lock:
            self._ensure_shard(fingerprint)
            self._touched[fingerprint] = self._wall_now()
            if key in self._entries:
                return
            self._entries[key] = payload
            self.stats.writes += 1
            self._append(fingerprint, key, verb, payload)
            while len(self._entries) > self.max_entries:
                evicted_key, _ = self._entries.popitem(last=False)
                self.stats.evictions += 1
                self._dirty_shards.add(evicted_key.split(":", 1)[0])

    def close(self):
        """Close the held shard handle and compact shards that lost
        entries to eviction.  A later put reopens its shard."""
        with self._lock:
            self._close_handle()
            for fingerprint in sorted(self._dirty_shards):
                self._compact(fingerprint)
            self._dirty_shards.clear()

    def _compact(self, fingerprint):
        """Rewrite one shard file from the live entries (the same
        machinery :meth:`close` and :meth:`gc` share), published
        atomically: a process killed mid-compaction leaves the old
        shard whole."""
        path = self._shard_path(fingerprint)
        if path is None:
            return
        self._close_handle(fingerprint)
        prefix = f"{fingerprint}:"
        lines = [
            json.dumps({"k": key, "verb": key.split(":")[1], "v": payload})
            for key, payload in self._entries.items()
            if key.startswith(prefix)
        ]
        atomic_write(path, "".join(line + "\n" for line in lines))

    def shard_entries(self, fingerprint):
        """Every live entry of one shard, ``{"verb:hash": payload}`` --
        the whole-shard read behind the batched ``/cache/batch``
        endpoint.  Deliberately not counted as hits or misses: a bulk
        snapshot is transport, not a probe lookup."""
        prefix = f"{fingerprint}:"
        with self._lock:
            self._ensure_shard(fingerprint)
            self._touched[fingerprint] = self._wall_now()
            return {
                key[len(prefix):]: payload
                for key, payload in self._entries.items()
                if key.startswith(prefix)
            }

    def describe(self):
        where = str(self.directory) if self.directory else "(in-memory)"
        return f"probe cache at {where}: {len(self._entries)} entries"

    def live_stats(self):
        """The live entry count and the lifetime counters, read under
        the store's lock (the service ``/stats`` ``cache`` block)."""
        with self._lock:
            return {"entries": len(self._entries), **self.stats.as_dict()}

    def __len__(self):
        return len(self._entries)

    # -- shard GC -----------------------------------------------------

    GC_SIDECAR = "gc-stats.json"

    def _shard_inventory(self):
        """Every shard the store knows about -- loaded or still only on
        disk -- with its size and last-touch time (in-memory touch
        beats file mtime, which covers shards written by earlier
        service runs)."""
        inventory = {}
        if self.directory is not None and self.directory.exists():
            for path in sorted(self.directory.glob("probes-*.jsonl")):
                fingerprint = path.stem[len("probes-"):]
                try:
                    stat = path.stat()
                except OSError:
                    continue
                inventory[fingerprint] = {
                    "bytes": stat.st_size,
                    "last_touch": stat.st_mtime,
                }
        for fingerprint, stamp in self._touched.items():
            shard = inventory.setdefault(
                fingerprint, {"bytes": 0, "last_touch": stamp}
            )
            shard["last_touch"] = max(shard["last_touch"], stamp)
        return inventory

    def _evict_shard(self, fingerprint):
        prefix = f"{fingerprint}:"
        for key in [k for k in self._entries if k.startswith(prefix)]:
            del self._entries[key]
        self._loaded_shards.discard(fingerprint)
        self._dirty_shards.discard(fingerprint)
        self._touched.pop(fingerprint, None)
        self._close_handle(fingerprint)
        path = self._shard_path(fingerprint)
        if path is not None:
            try:
                path.unlink()
            except OSError:
                pass

    def gc(self, max_bytes=None, max_age_s=None, pinned=(), now=None):
        """Bound the store: drop whole shards, LRU by fingerprint.

        Two independent retention rules, both venue-only (a dropped
        shard costs re-probing, never a different answer):

        * **age** -- a shard untouched for more than *max_age_s*
          seconds is dropped (a target nobody discovers against any
          more should not hold disk forever);
        * **size** -- while the shard files sum to more than
          *max_bytes*, the least-recently-touched shard is dropped.

        Fingerprints in *pinned* (targets with campaigns currently
        running) are never dropped by either rule.  Dirty-but-retained
        shards are compacted in the same pass, so eviction debt does
        not wait for :meth:`close`.  Returns a report dict; lifetime
        counters accumulate in :attr:`gc_stats`, and a persistent
        store journals them, with the report as ``last``, to
        ``gc-stats.json`` so ``repro cache-info`` can show GC history
        for a cache nobody holds open."""
        pinned = set(pinned)
        with self._lock:
            if now is None:
                now = self._wall_now()
            inventory = self._shard_inventory()
            evicted, reclaimed = [], 0
            if max_age_s is not None:
                for fingerprint, shard in sorted(inventory.items()):
                    if fingerprint in pinned:
                        continue
                    if now - shard["last_touch"] > max_age_s:
                        self._evict_shard(fingerprint)
                        evicted.append(fingerprint)
                        reclaimed += shard["bytes"]
            if max_bytes is not None:
                live = {
                    fp: shard
                    for fp, shard in inventory.items()
                    if fp not in evicted
                }
                total = sum(shard["bytes"] for shard in live.values())
                # oldest-touched first; fingerprint tie-break for
                # determinism when stamps collide
                for fingerprint, shard in sorted(
                    live.items(), key=lambda item: (item[1]["last_touch"], item[0])
                ):
                    if total <= max_bytes:
                        break
                    if fingerprint in pinned:
                        continue
                    self._evict_shard(fingerprint)
                    evicted.append(fingerprint)
                    reclaimed += shard["bytes"]
                    total -= shard["bytes"]
            compacted = sorted(self._dirty_shards)
            for fingerprint in compacted:
                self._compact(fingerprint)
            self._dirty_shards.clear()
            report = {
                "evicted_shards": evicted,
                "reclaimed_bytes": reclaimed,
                "compacted_shards": len(compacted),
                "pinned": sorted(pinned),
                "shards_kept": len(inventory) - len(evicted),
            }
            self.gc_stats.bump(
                runs=1,
                evicted_shards=len(evicted),
                reclaimed_bytes=reclaimed,
                compacted_shards=len(compacted),
            )
            self.gc_stats.last = report
            if self.directory is not None:
                try:
                    self.directory.mkdir(parents=True, exist_ok=True)
                    atomic_write(
                        self.directory / self.GC_SIDECAR,
                        json.dumps(self.gc_stats.as_dict(), indent=2, sort_keys=True)
                        + "\n",
                    )
                except OSError:
                    pass  # GC bookkeeping must never fail the store
            return report

    # -- persistence --------------------------------------------------

    def _shard_path(self, fingerprint):
        if self.directory is None:
            return None
        return self.directory / f"probes-{fingerprint}.jsonl"

    def _ensure_shard(self, fingerprint):
        if fingerprint in self._loaded_shards:
            return
        self._loaded_shards.add(fingerprint)
        path = self._shard_path(fingerprint)
        if path is None or not path.exists():
            return
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                key, payload = entry["k"], entry["v"]
                if not isinstance(key, str) or not isinstance(payload, dict):
                    raise ValueError("malformed entry")
            except (ValueError, KeyError, TypeError):
                # A torn or tampered line: fall back to a live probe for
                # whatever it held, never fail the run.
                self.stats.corrupt_entries += 1
                self._dirty_shards.add(fingerprint)
                continue
            if key not in self._entries:
                self._entries[key] = payload
                self.stats.loaded += 1

    def _append(self, fingerprint, key, verb, payload):
        if self._held is None or self._held[0] != fingerprint:
            path = self._shard_path(fingerprint)
            if path is None:
                return
            self._close_handle()
            path.parent.mkdir(parents=True, exist_ok=True)
            self._held = (fingerprint, open(path, "a"))
        handle = self._held[1]
        handle.write(json.dumps({"k": key, "verb": verb, "v": payload}) + "\n")
        handle.flush()  # in the OS before put returns, as a close would be

    def _close_handle(self, fingerprint=None):
        """Close the held handle (only if it is *fingerprint*'s shard,
        when one is given)."""
        if self._held is not None and fingerprint in (None, self._held[0]):
            self._held[1].close()
            self._held = None


# -- lazy handles -----------------------------------------------------


class _LazyObject:
    """An object handle addressed by the hash of its assembly source.

    ``real`` stays None until some miss forces the inner machine to
    actually assemble the text; a fully warm run never materialises."""

    __slots__ = ("content_hash", "asm_text", "real")

    def __init__(self, content_hash, asm_text, real=None):
        self.content_hash = content_hash
        self.asm_text = asm_text
        self.real = real

    def __repr__(self):
        state = "materialised" if self.real is not None else "lazy"
        return f"<object {self.content_hash[:8]} {state}>"


class _LazyExecutable:
    """An executable addressed by the hashes of its linked objects."""

    __slots__ = ("content_hash", "parts", "real")

    def __init__(self, content_hash, parts, real=None):
        self.content_hash = content_hash
        self.parts = parts
        self.real = real

    def __repr__(self):
        state = "materialised" if self.real is not None else "lazy"
        return f"<a.out {self.content_hash[:8]} {state}>"


class CachingMachine(facade.MachineLayer):
    """The standard four-verb surface, answered from the cache first.

    Sits *outermost* in a connection stack -- above retry / voting /
    fault injection -- so cached answers are the resilience-vetted
    verdicts and a cache hit models a purely local lookup (no network,
    no faults, no invocation counters).  Verbs that can fail
    semantically (assemble, link) cache their accept/reject verdict, so
    warm accept/reject probing is free too; transient target errors are
    never cached.
    """

    def __init__(self, machine, cache):
        super().__init__(machine)
        self.cache = cache
        self.fingerprint = target_fingerprint(machine)

    def clone_connection(self, index=0):
        """A parallel connection sharing this cache (the cache itself is
        thread-safe; one store serves the whole worker pool)."""
        return CachingMachine(self.inner.clone_connection(index), self.cache)

    # -- the four remote verbs ----------------------------------------

    def compile_c(self, source, headers=None):
        headers = headers or {}
        content = _hash_text(source, *(f"{k}\n{v}" for k, v in sorted(headers.items())))
        cached = self.cache.get(self.fingerprint, "compile", content)
        if cached is not None and isinstance(cached.get("asm"), str):
            return cached["asm"]
        asm = self.inner.compile_c(source, headers)
        self.cache.put(self.fingerprint, "compile", content, {"asm": asm})
        return asm

    def assemble(self, asm_text):
        content = _hash_text(asm_text)
        cached = self.cache.get(self.fingerprint, "assemble", content)
        if cached is not None:
            if cached.get("ok"):
                return _LazyObject(content, asm_text)
            raise AssemblerError(str(cached.get("error", "rejected (cached)")))
        try:
            real = self.inner.assemble(asm_text)
        except AssemblerError as exc:
            self.cache.put(
                self.fingerprint, "assemble", content, {"ok": False, "error": str(exc)}
            )
            raise
        self.cache.put(self.fingerprint, "assemble", content, {"ok": True})
        return _LazyObject(content, asm_text, real=real)

    def link(self, objects):
        for handle in objects:
            if not isinstance(handle, _LazyObject):
                # A foreign handle (not assembled through this cache):
                # delegate untouched rather than guess its content.
                return self.inner.link(objects)
        content = _hash_text("link", *(obj.content_hash for obj in objects))
        cached = self.cache.get(self.fingerprint, "link", content)
        if cached is not None:
            if cached.get("ok"):
                return _LazyExecutable(content, list(objects))
            raise LinkerError(str(cached.get("error", "link failed (cached)")))
        try:
            real = self.inner.link([self._materialise(obj) for obj in objects])
        except LinkerError as exc:
            self.cache.put(
                self.fingerprint, "link", content, {"ok": False, "error": str(exc)}
            )
            raise
        self.cache.put(self.fingerprint, "link", content, {"ok": True})
        return _LazyExecutable(content, list(objects), real=real)

    def execute(self, executable):
        if not isinstance(executable, _LazyExecutable):
            return self.inner.execute(executable)
        cached = self.cache.get(self.fingerprint, "execute", executable.content_hash)
        if cached is not None and "output" in cached:
            return CachedExecResult(
                output=cached["output"],
                exit_code=cached.get("exit_code", 0),
                steps=cached.get("steps", 0),
                error=cached.get("error"),
            )
        result = self.inner.execute(self._materialise_exe(executable))
        self.cache.put(
            self.fingerprint,
            "execute",
            executable.content_hash,
            {
                "output": result.output,
                "exit_code": result.exit_code,
                "steps": result.steps,
                "error": result.error,
            },
        )
        return result

    # -- materialisation ----------------------------------------------

    def _materialise(self, obj):
        if obj.real is None:
            obj.real = self.inner.assemble(obj.asm_text)
        return obj.real

    def _materialise_exe(self, exe):
        if exe.real is None:
            exe.real = self.inner.link([self._materialise(obj) for obj in exe.parts])
        return exe.real


def make_caching(machine, cache):
    """Wrap *machine* unless already caching or no cache was given."""
    if cache is None or isinstance(machine, CachingMachine):
        return machine
    return CachingMachine(machine, cache)


# -- on-disk inspection ------------------------------------------------


def cache_info(directory):
    """Inventory of a probe-cache directory, without mutating it.

    Walks every ``probes-<fingerprint>.jsonl`` shard and counts valid
    entries, corrupt lines, bytes and the per-verb breakdown, purely
    from disk, so ``repro cache-info`` and the service ``/stats``
    endpoint (as ``cache_disk``) can describe a cache nobody currently
    holds open.  ``gc`` is the store's ``gc-stats.json`` journal."""
    directory = pathlib.Path(directory)
    shards = []
    for path in sorted(directory.glob("probes-*.jsonl")):
        fingerprint = path.stem[len("probes-") :]
        entries = corrupt = 0
        by_verb = {}
        seen = set()
        try:
            lines = path.read_text().splitlines()
        except OSError:
            continue
        for line in lines:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                key = entry["k"]
                if not isinstance(key, str) or not isinstance(entry["v"], dict):
                    raise ValueError("malformed entry")
            except (ValueError, KeyError, TypeError):
                corrupt += 1
                continue
            if key in seen:  # append-only shards may repeat a key
                continue
            seen.add(key)
            entries += 1
            verb = entry.get("verb") or key.split(":")[1]
            by_verb[verb] = by_verb.get(verb, 0) + 1
        shards.append(
            {
                "fingerprint": fingerprint,
                "file": path.name,
                "bytes": path.stat().st_size if path.exists() else 0,
                "entries": entries,
                "corrupt_lines": corrupt,
                "by_verb": by_verb,
            }
        )
    gc_stats = None
    try:
        gc_stats = json.loads((directory / ProbeCache.GC_SIDECAR).read_text())
    except (OSError, ValueError):
        pass
    return {
        "directory": str(directory),
        "shards": shards,
        "total_entries": sum(s["entries"] for s in shards),
        "total_bytes": sum(s["bytes"] for s in shards),
        "total_corrupt_lines": sum(s["corrupt_lines"] for s in shards),
        "gc": gc_stats,
    }
