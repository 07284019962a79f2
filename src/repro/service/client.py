"""Client for the discovery service: the ``repro client`` CLI's guts.

:class:`ServiceClient` wraps the control-plane API in typed Python:
submit a campaign, poll its status (with capped exponential backoff --
a finishing campaign is polled briskly, a long one cheaply), fetch the
finished specs, cancel.  Errors arrive as :class:`ServiceError`
carrying the server's typed envelope, never a raw HTML error page.

Everything rides :mod:`urllib.request`: the client issues a handful of
requests per campaign, so keep-alive plumbing (which the worker-side
cache client does need) would be over-engineering here.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from repro.discovery.resilience import backoff_delay
from repro.errors import DiscoveryError
from repro.service import jobs as jobstates

#: polling cadence: start brisk, back off to the cap
POLL_START = 0.2
POLL_CAP = 2.0
POLL_FACTOR = 1.5


class ServiceError(DiscoveryError):
    """A control-plane request failed; ``status`` and ``code`` carry
    the server's typed verdict (0/"unreachable" for transport errors),
    and ``retry_after`` the server's backoff hint when it sent one
    (the 429/503 family)."""

    def __init__(self, message, status=0, code="unreachable", retry_after=None):
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after = retry_after


class ServiceClient:
    def __init__(self, url, timeout=10.0, token=None):
        self.url = url.rstrip("/")
        if "//" not in self.url:
            self.url = f"http://{self.url}"
        self.timeout = timeout
        self.token = token

    # -- the API -------------------------------------------------------

    def healthz(self):
        return self._request("GET", "/healthz")

    def readyz(self):
        return self._request("GET", "/readyz")

    def stats(self):
        return self._request("GET", "/stats")

    def submit(self, targets, **knobs):
        payload = {"targets": list(targets)}
        payload.update({k: v for k, v in knobs.items() if v is not None})
        return self._request("POST", "/campaigns", body=payload)

    def jobs(self):
        return self._request("GET", "/campaigns")["jobs"]

    def status(self, job_id):
        return self._request("GET", f"/campaigns/{job_id}")

    def spec(self, job_id):
        return self._request("GET", f"/campaigns/{job_id}/spec")

    def cancel(self, job_id):
        return self._request("DELETE", f"/campaigns/{job_id}")

    def wait(self, job_id, timeout=None, on_progress=None):
        """Poll until the job reaches a terminal state; returns the
        final status.  ``on_progress(status)`` fires on every poll.
        Raises :class:`ServiceError` when *timeout* seconds pass first
        (the job keeps running server-side; waiting is just watching)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        polls = 0
        while True:
            try:
                status = self.status(job_id)
            except ServiceError as exc:
                # a throttling or draining service tells us exactly how
                # long to stand back; honour it instead of hammering
                if exc.status not in (429, 503):
                    raise
                pause = exc.retry_after if exc.retry_after is not None else POLL_CAP
                if deadline is not None:
                    pause = min(pause, max(0.0, deadline - time.monotonic()))
                    if time.monotonic() >= deadline:
                        raise ServiceError(
                            f"{job_id} unavailable after {timeout}s: {exc}",
                            status=exc.status,
                            code="timeout",
                        ) from None
                time.sleep(pause)
                continue
            if on_progress is not None:
                on_progress(status)
            if status["state"] in jobstates.TERMINAL_STATES:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"{job_id} still {status['state']} after {timeout}s",
                    status=0,
                    code="timeout",
                )
            time.sleep(backoff_delay(polls, POLL_START, POLL_CAP, POLL_FACTOR))
            polls += 1

    # -- transport -----------------------------------------------------

    def _request(self, method, path, body=None):
        data = None
        headers = {"Accept": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            detail, code = exc.reason, "http_error"
            retry_after = None
            header = exc.headers.get("Retry-After") if exc.headers else None
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    pass
            try:
                envelope = json.loads(exc.read())
                detail = envelope["error"]["message"]
                code = envelope["error"]["code"]
                if retry_after is None:
                    retry_after = envelope["error"].get("retry_after")
            except (ValueError, KeyError, TypeError):
                pass
            raise ServiceError(
                f"{method} {path} -> {exc.code}: {detail}",
                status=exc.code,
                code=code,
                retry_after=retry_after,
            ) from None
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise ServiceError(
                f"{method} {self.url}{path} failed: {exc}"
            ) from None
