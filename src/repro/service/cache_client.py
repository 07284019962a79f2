"""Worker-side client for the service's shared probe cache.

:class:`RemoteProbeCache` mirrors the :class:`~repro.discovery.cache.
ProbeCache` surface the :class:`~repro.discovery.cache.CachingMachine`
consumes -- ``get``/``put``/``stats``/``describe``/``close`` -- but
answers over HTTP from the service's store instead of a local
directory.  That makes the cache *shared across processes and hosts*:
the first campaign against a target warms it, and every later worker
(in the service's own fleet or a remote ``repro discover
--cache-url``) gets the warm entries, so a repeat campaign issues zero
remote probe verbs no matter which worker runs it.

Two writers on one JSONL shard directory would tear lines; routing
every worker through the service makes the service process the *only*
writer of its shard files, which is why ``--cache-url`` exists instead
of pointing N workers at one ``--cache-dir`` over a shared mount.

Round trips are batched both ways.  The first ``get`` against a
fingerprint prefetches the whole shard in one ``POST /cache/batch``
(a warm campaign then answers every probe locally); ``put`` buffers
into a pending overlay flushed in batches of :data:`FLUSH_THRESHOLD`
(and at :meth:`close`), so a cold campaign pays ~1/32 of the write
round trips.  A get that misses the snapshot still falls through to a
single-entry ``GET`` -- another worker may have written the entry
after our prefetch -- so observable hit/miss semantics are unchanged.

The cache stays advisory: a miss is the worst a broken service can
inflict.  Request failures count as misses, and after a few
consecutive failures the client stops calling out -- but not forever:
a cooldown with capped doubling backoff lets one request probe the
service again, so a restarted service gets its workers back without a
worker restart.  Caching is a venue knob, so none of this can change
the discovered spec.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse

from repro.discovery.cache import CacheStats
from repro.discovery.resilience import backoff_delay

#: consecutive transport failures before the client stops calling out
#: (each probe then misses locally until the cooldown elapses)
MAX_TRANSPORT_FAILURES = 3

#: cooldown before a disabled client lets one request probe the
#: service again; doubles per failed probe up to the cap
COOLDOWN_START = 1.0
COOLDOWN_CAP = 60.0

#: buffered puts are flushed to ``PUT /cache/batch`` at this many
#: pending entries (and at close)
FLUSH_THRESHOLD = 32

#: per-request timeout: a cache round trip should be far cheaper than
#: the probe it replaces, or it is not worth waiting for
REQUEST_TIMEOUT = 10.0


class RemoteProbeCache:
    """A ProbeCache lookalike backed by ``GET/PUT /cache/...``.

    Thread-safe the same way the local cache is: every worker thread
    gets its own keep-alive :class:`http.client.HTTPConnection`
    (connections are not shareable mid-response; counters and the
    pending overlay are guarded by one lock).  Cloned connections share
    the one instance, exactly like clones share a local ProbeCache.
    """

    def __init__(self, url, timeout=REQUEST_TIMEOUT, token=None):
        parsed = urllib.parse.urlsplit(url if "//" in url else f"http://{url}")
        if parsed.scheme not in ("", "http"):
            raise ValueError(f"cache url must be http://, got {url!r}")
        self.url = f"http://{parsed.netloc}"
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.timeout = timeout
        self.token = token
        self.stats = CacheStats()
        self.round_trips = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._transport_failures = 0
        self._disabled = False
        self._failed_probes = 0  # half-open probes failed since disabling
        self._cooldown_until = 0.0
        self.reenabled = 0
        self._shards = {}  # fingerprint -> prefetched snapshot (or None)
        self._pending = {}  # fingerprint -> {key: payload} awaiting flush

    # -- the store surface (what CachingMachine calls) -----------------

    def get(self, fingerprint, verb, content_hash):
        key = f"{verb}:{content_hash}"
        payload = self._lookup_local(fingerprint, key)
        if payload is None:
            self._prefetch(fingerprint)
            payload = self._lookup_local(fingerprint, key)
        if payload is None:
            # the snapshot can be stale (another worker wrote after our
            # prefetch): one single-entry GET keeps semantics identical
            # to the unbatched client
            payload = self._request("GET", f"/cache/{fingerprint}/{key}")
            if not isinstance(payload, dict):
                payload = None
        with self._lock:
            if payload is not None:
                self.stats.hits += 1
                by = self.stats.hits_by_verb
            else:
                self.stats.misses += 1
                by = self.stats.misses_by_verb
            by[verb] = by.get(verb, 0) + 1
        return payload

    def put(self, fingerprint, verb, content_hash, payload):
        with self._lock:
            pending = self._pending.setdefault(fingerprint, {})
            pending[f"{verb}:{content_hash}"] = payload
            should_flush = (
                sum(len(p) for p in self._pending.values()) >= FLUSH_THRESHOLD
            )
        if should_flush:
            self.flush()

    def flush(self):
        """Send the pending overlay in one batch per fingerprint.  A
        failed flush drops its entries -- the cache is advisory, and
        the service being down must never stall a probe."""
        with self._lock:
            batches = {fp: dict(p) for fp, p in self._pending.items() if p}
            self._pending.clear()
        for fingerprint, entries in sorted(batches.items()):
            body = json.dumps(
                {"fingerprint": fingerprint, "entries": entries}
            ).encode("utf-8")
            result = self._request("PUT", "/cache/batch", body=body)
            if result is not None:
                with self._lock:
                    self.stats.writes += len(entries)
                    snapshot = self._shards.get(fingerprint)
                    if snapshot is not None:
                        snapshot.update(entries)

    def close(self):
        self.flush()
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def describe(self):
        state = " (cooling down after transport failures)" if self._disabled else ""
        return (
            f"remote probe cache at {self.url}{state}: "
            f"{self.stats.hits} hits, {self.stats.misses} misses, "
            f"{self.round_trips} round trip(s)"
        )

    # -- batching internals --------------------------------------------

    def _lookup_local(self, fingerprint, key):
        """Pending overlay first (our own unflushed writes), then the
        prefetched shard snapshot."""
        with self._lock:
            pending = self._pending.get(fingerprint)
            if pending and key in pending:
                return pending[key]
            snapshot = self._shards.get(fingerprint)
            if snapshot:
                return snapshot.get(key)
        return None

    def _prefetch(self, fingerprint):
        """Whole-shard read, once per fingerprint: one round trip turns
        a warm repeat campaign into zero per-probe traffic.  A failed
        prefetch records an empty snapshot so we do not retry it per
        probe (single-entry GETs still run)."""
        with self._lock:
            if fingerprint in self._shards:
                return
            # claim the slot before releasing the lock so concurrent
            # workers do not issue duplicate whole-shard reads
            self._shards[fingerprint] = {}
        body = json.dumps({"fingerprint": fingerprint, "keys": None}).encode(
            "utf-8"
        )
        result = self._request("POST", "/cache/batch", body=body)
        if isinstance(result, dict) and isinstance(result.get("entries"), dict):
            with self._lock:
                self._shards[fingerprint] = dict(result["entries"])

    # -- transport -----------------------------------------------------

    def _connection(self):
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
        return conn

    def _may_attempt(self):
        """Gate behind the cooldown: a disabled client lets exactly one
        request through per elapsed cooldown window (half-open probe);
        everyone else misses locally until it succeeds."""
        with self._lock:
            if not self._disabled:
                return True
            now = time.monotonic()
            if now < self._cooldown_until:
                return False
            # claim this window: re-arm the clock so concurrent threads
            # do not stampede the possibly-still-dead service
            self._cooldown_until = now + self._cooldown()
            return True

    def _cooldown(self):
        return backoff_delay(self._failed_probes, COOLDOWN_START, COOLDOWN_CAP)

    def _request(self, method, path, body=None):
        """One round trip.  Returns the decoded JSON body for a 200, a
        truthy marker for 2xx without a body, and None for a 404 or any
        transport failure (both read as a miss)."""
        if not self._may_attempt():
            return None
        headers = {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except (http.client.HTTPException, OSError):
                # One reconnect attempt: a keep-alive connection the
                # server idled out looks like a send failure.
                conn.close()
                self._local.conn = None
                conn = self._connection()
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
        except (http.client.HTTPException, OSError):
            self._note_transport_failure()
            return None
        with self._lock:
            self.round_trips += 1
            self._transport_failures = 0
            if self._disabled:
                # the half-open probe came back: the service is alive
                self._disabled = False
                self._failed_probes = 0
                self._cooldown_until = 0.0
                self.reenabled += 1
        if response.status == 200:
            try:
                return json.loads(data)
            except ValueError:
                return None
        if 200 <= response.status < 300:
            return True
        return None  # 404 and friends: a miss

    def _note_transport_failure(self):
        try:
            self.close_connection_only()
        except OSError:
            pass
        with self._lock:
            self._transport_failures += 1
            if self._disabled:
                # the half-open probe failed too: back off harder
                self._failed_probes += 1
            elif self._transport_failures >= MAX_TRANSPORT_FAILURES:
                self._disabled = True
            else:
                return
            self._cooldown_until = time.monotonic() + self._cooldown()

    def close_connection_only(self):
        """Drop this thread's keep-alive socket without flushing (used
        on transport failure, where a flush would just fail again)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None
