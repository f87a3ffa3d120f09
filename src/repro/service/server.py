"""The stdlib HTTP front-end over :class:`CompilationService`.

Endpoints (all JSON; see ``docs/service.md`` for schemas and examples):

==========  =================================  =====================================
method      path                               meaning
==========  =================================  =====================================
``POST``    ``/v1/jobs``                       submit a manifest body, get a job id
``GET``     ``/v1/jobs``                       list submitted jobs (paginated)
``GET``     ``/v1/jobs/<id>``                  one job's status
``DELETE``  ``/v1/jobs/<id>``                  cancel a queued/running job
``GET``     ``/v1/jobs/<id>/results``          **stream** results as JSON lines
``GET``     ``/v1/schedules/<fingerprint>``    cached-schedule lookup
``GET``     ``/v1/cache/<fingerprint>``        raw binary cache entry (network tier)
``PUT``     ``/v1/cache/<fingerprint>``        store a binary cache entry
``GET``     ``/v1/compilers``                  the compiler registry listing
``GET``     ``/v1/healthz``                    liveness + scheduler/cache counters
``GET``     ``/v1/metrics``                    Prometheus text-format metrics
==========  =================================  =====================================

``POST /v1/jobs`` takes an optional ``?priority=<int>`` (larger runs
earlier); ``GET /v1/jobs`` takes ``?offset=`` / ``?limit=``.  Cancelling
an already-finished job answers ``409 Conflict`` with the job's terminal
status in the error body.

``GET /v1/metrics`` serves the service's whole observability surface
(scheduler, cache, engine, journal and the HTTP layer itself) in
Prometheus text exposition format — every other endpoint is instrumented
with per-route request counters and latency histograms recorded into the
service's shared :class:`~repro.obs.metrics.MetricsRegistry`.

The results endpoint answers with ``Transfer-Encoding: chunked`` and
media type ``application/x-ndjson``: one JSON object per line, each
flushed as soon as the corresponding compilation lands, so a client
reads the first result while the rest of the batch is still compiling.

Errors are structured — every non-2xx response carries
``{"error": {"type", "message", "status"}}`` — and client-side problems
(malformed JSON, unknown compiler names, bad device specs: everything
:class:`~repro.exceptions.ManifestError` covers) map to 400 rather than
500.

The fleet router (:mod:`repro.service.fleet`) answers through this same
handler: both :class:`CompilationService` and the router implement the
small :class:`ServiceBackend` protocol, so a route behaves identically
on a worker and on the router.

Built entirely on :mod:`http.server` (``ThreadingHTTPServer``); the
service has no dependencies beyond the standard library.
"""

from __future__ import annotations

import http.client
import json
import logging
import re
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterator, Protocol
from urllib.parse import parse_qs, urlparse

from repro.exceptions import ManifestError, ReproError, ServiceError
from repro.obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.service.app import CompilationService

logger = logging.getLogger("repro.service")

#: Request bodies larger than this are refused (413) instead of buffered.
MAX_BODY_BYTES = 16 * 1024 * 1024

_JOB_RESULTS = re.compile(r"^/v1/jobs/(?P<job_id>[0-9a-f]{16})/results$")
_JOB_STATUS = re.compile(r"^/v1/jobs/(?P<job_id>[0-9a-f]{16})$")
_SCHEDULE = re.compile(r"^/v1/schedules/(?P<fingerprint>[0-9a-f]{16,64})$")
_CACHE_ENTRY = re.compile(r"^/v1/cache/(?P<fingerprint>[0-9a-f]{16,64})$")


def _route_template(path: str) -> str:
    """Collapse a request path onto its route template for metric labels.

    Raw paths would explode label cardinality (every job id a new
    series), so the HTTP metrics label by template instead; unknown
    paths share one ``other`` bucket for the same reason.
    """
    if path in (
        "/v1/jobs",
        "/v1/compilers",
        "/v1/healthz",
        "/v1/metrics",
    ):
        return path
    if _JOB_RESULTS.match(path):
        return "/v1/jobs/{id}/results"
    if _JOB_STATUS.match(path):
        return "/v1/jobs/{id}"
    if _SCHEDULE.match(path):
        return "/v1/schedules/{fingerprint}"
    if _CACHE_ENTRY.match(path):
        return "/v1/cache/{fingerprint}"
    return "other"


def _encode(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


#: Query parameters every route shares: parser and the 400 message.
_QUERY_PARSERS = {
    "priority": (int, "priority must be an integer"),
    "offset": (_non_negative, "offset/limit must be non-negative integers"),
    "limit": (_non_negative, "offset/limit must be non-negative integers"),
    "timeout": (float, "timeout must be a number of seconds"),
}

#: What the length errors of each body-carrying method name.
_BODY_ROUTES = {
    "POST": ("POST /v1/jobs", "manifest bodies"),
    "PUT": ("PUT /v1/cache", "cache entries"),
}


class _BadRequest(Exception):
    """A request rejected while its query or body framing is parsed."""

    def __init__(self, status: int, error_type: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type


class ServiceBackend(Protocol):
    """What :class:`ServiceRequestHandler` serves: a service or a fleet.

    :class:`~repro.service.app.CompilationService` and
    :class:`~repro.service.fleet.FleetRouter` implement it.  Unknown job
    ids raise :class:`KeyError`; a :class:`ServiceError` carrying an
    ``{"error": ...}`` payload is answered verbatim with its status.
    A backend with a ``fleet_payload()`` method also serves
    ``GET /v1/fleet``.
    """

    def submit_body(self, body: bytes, priority: int = 0) -> "tuple[int, dict]": ...
    def job_status(self, job_id: str) -> dict: ...
    def cancel_job(self, job_id: str) -> dict: ...
    def jobs_payload(self, offset: int = 0, limit: "int | None" = None) -> dict: ...
    def stream_encoded(
        self, job_id: str, timeout: "float | None" = None
    ) -> Iterator[bytes]: ...
    def schedule_payload(self, compile_fingerprint: str) -> "dict | None": ...
    def compilers_payload(self) -> list: ...
    def health_payload(self) -> dict: ...
    def metrics_text(self) -> str: ...
    def cache_entry_bytes(self, compile_fingerprint: str) -> "bytes | None": ...
    def cache_store_bytes(self, compile_fingerprint: str, payload: bytes) -> bool: ...
    def observe_request(
        self, method: str, route: str, status: int, seconds: float
    ) -> None: ...


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """The one route table, served over the owning server's ``backend``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service"
    # Nagle off: on keep-alive connections the small header/chunk writes
    # otherwise collide with delayed ACKs into ~40 ms stalls per response.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def backend(self) -> ServiceBackend:
        return self.server.backend  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        """Route access logs through :mod:`logging` instead of stderr."""
        logger.debug("%s - %s", self.address_string(), format % args)

    def send_response(self, code: int, message: "str | None" = None) -> None:
        # Remember the status line for the per-request metrics recorded
        # in _dispatch; handlers answer through many paths, the status
        # line is the one thing they all emit.
        self._metrics_status = code
        super().send_response(code, message)

    def _send_bytes(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            # Advertise the closure, so a pooling client discards this
            # connection instead of reusing a socket we are about to
            # shut (or one with an unread request body still on it).
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: object) -> None:
        self._send_bytes(status, "application/json", _encode(payload))

    def _send_error_json(self, status: int, error_type: str, message: str) -> None:
        self._send_json(
            status,
            {"error": {"type": error_type, "message": message, "status": status}},
        )

    def _query(self, query: dict[str, list[str]], key: str, default: Any) -> Any:
        """One parsed query parameter; a bad value is a 400 ``bad_query``."""
        if key not in query:
            return default
        parse, message = _QUERY_PARSERS[key]
        try:
            return parse(query[key][0])
        except ValueError:
            raise _BadRequest(400, "bad_query", message) from None

    def _read_body(self, limit: int) -> bytes:
        """The request body, after checking its ``Content-Length`` framing."""
        route, noun = _BODY_ROUTES[self.command]
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise _BadRequest(
                411, "length_required", f"{route} needs a Content-Length header"
            )
        try:
            length = int(length_header)
        except ValueError:
            raise _BadRequest(
                400, "bad_request", f"invalid Content-Length {length_header!r}"
            ) from None
        if length < 0:
            raise _BadRequest(400, "bad_request", "Content-Length cannot be negative")
        if length > limit:
            raise _BadRequest(
                413, "payload_too_large", f"{noun} are capped at {limit} bytes"
            )
        body = self.rfile.read(length)
        self.close_connection = False  # body consumed; keep-alive is safe again
        return body

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("PUT")

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        self._metrics_status = 0  # no status line sent (client vanished)
        started = time.perf_counter()
        # A request body we never read would be parsed as the next
        # request line on a keep-alive connection.  Assume the worst
        # until a handler actually consumes it (_read_body clears the
        # flag), so every other path answers with Connection: close.
        if (self.headers.get("Content-Length") or "0").strip() not in ("0", ""):
            self.close_connection = True
        try:
            self._route(method, url.path, parse_qs(url.query))
        except (BrokenPipeError, ConnectionResetError):  # client went away
            self.close_connection = True
        except _BadRequest as exc:
            if method in _BODY_ROUTES:
                self.close_connection = True  # rejected before the body was read
            self._send_error_json(exc.status, exc.error_type, str(exc))
        except ManifestError as exc:
            self._send_error_json(400, "manifest_error", str(exc))
        except ServiceError as exc:
            # A backend's own error answer (a relayed worker error, a 409
            # cancel) keeps its status and body; a bare one is upstream.
            status = exc.status or 502
            if isinstance(exc.payload, dict) and "error" in exc.payload:
                self._send_json(status, exc.payload)
            else:
                self._send_error_json(status, "upstream_error", str(exc))
        except ReproError as exc:
            self._send_error_json(500, "repro_error", str(exc))
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            logger.exception("unhandled error serving %s %s", method, self.path)
            self._send_error_json(500, "internal_error", str(exc))
        finally:
            route = _route_template(url.path)
            if url.path == "/v1/fleet" and hasattr(self.backend, "fleet_payload"):
                route = url.path
            try:
                self.backend.observe_request(
                    method, route, self._metrics_status, time.perf_counter() - started
                )
            except Exception:  # noqa: BLE001 - metrics must never break serving
                logger.debug("failed to record request metrics", exc_info=True)

    def _route(self, method: str, path: str, query: dict[str, list[str]]) -> None:
        if path == "/v1/jobs":
            if method == "POST":
                return self._handle_submit(query)
            if method == "GET":
                return self._handle_list(query)
            return self._send_error_json(405, "method_not_allowed", f"{method} {path}")
        match = _JOB_STATUS.match(path)
        if match:
            if method == "GET":
                return self._send_job(self.backend.job_status, match.group("job_id"))
            if method == "DELETE":
                return self._send_job(self.backend.cancel_job, match.group("job_id"))
            return self._send_error_json(405, "method_not_allowed", f"{method} {path}")
        match = _CACHE_ENTRY.match(path)
        if match:
            if method == "GET":
                return self._handle_cache_get(match.group("fingerprint"))
            if method == "PUT":
                return self._handle_cache_put(match.group("fingerprint"))
            return self._send_error_json(405, "method_not_allowed", f"{method} {path}")
        if method != "GET":
            return self._send_error_json(405, "method_not_allowed", f"{method} {path}")
        match = _JOB_RESULTS.match(path)
        if match:
            return self._handle_results(match.group("job_id"), query)
        match = _SCHEDULE.match(path)
        if match:
            return self._handle_schedule(match.group("fingerprint"))
        if path == "/v1/compilers":
            return self._send_json(200, {"compilers": self.backend.compilers_payload()})
        if path == "/v1/healthz":
            return self._send_json(200, self.backend.health_payload())
        if path == "/v1/metrics":
            body = self.backend.metrics_text().encode("utf-8")
            return self._send_bytes(200, METRICS_CONTENT_TYPE, body)
        if path == "/v1/fleet" and hasattr(self.backend, "fleet_payload"):
            return self._send_json(200, self.backend.fleet_payload())
        return self._send_error_json(404, "not_found", f"no route for {path}")

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _handle_list(self, query: dict[str, list[str]]) -> None:
        offset = self._query(query, "offset", 0)
        limit = self._query(query, "limit", None)
        self._send_json(200, self.backend.jobs_payload(offset=offset, limit=limit))

    def _send_job(self, call: Callable[[str], dict], job_id: str) -> None:
        """Answer a job status or cancel call; unknown ids are a 404."""
        try:
            payload = call(job_id)
        except KeyError:
            return self._send_error_json(404, "unknown_job", f"no job {job_id!r}")
        self._send_json(200, payload)

    def _handle_submit(self, query: dict[str, list[str]]) -> None:
        priority = self._query(query, "priority", 0)
        body = self._read_body(MAX_BODY_BYTES)
        status, receipt = self.backend.submit_body(body, priority=priority)
        self._send_json(status, receipt)

    def _handle_schedule(self, fingerprint: str) -> None:
        payload = self.backend.schedule_payload(fingerprint)
        if payload is None:
            return self._send_error_json(
                404,
                "unknown_fingerprint",
                f"no cached schedule under compile fingerprint {fingerprint!r}",
            )
        self._send_json(200, payload)

    def _handle_cache_get(self, fingerprint: str) -> None:
        """Serve one cache entry as raw RCEN bytes (the network-tier GET)."""
        payload = self.backend.cache_entry_bytes(fingerprint)
        if payload is None:
            return self._send_error_json(
                404, "unknown_fingerprint", f"no cache entry for {fingerprint!r}"
            )
        self._send_bytes(200, "application/octet-stream", payload)

    def _handle_cache_put(self, fingerprint: str) -> None:
        """Accept one RCEN entry body into the backend's cache (network-tier PUT)."""
        body = self._read_body(MAX_BODY_BYTES)
        if not self.backend.cache_store_bytes(fingerprint, body):
            return self._send_error_json(
                400, "bad_entry", "body is not a current-format binary cache entry"
            )
        self.send_response(204)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _handle_results(self, job_id: str, query: dict[str, list[str]]) -> None:
        timeout = self._query(query, "timeout", None)
        try:
            # Each line arrives pre-encoded (the service serialised every
            # outcome record exactly once, when it landed; the router
            # relays a worker's lines), so streaming — and re-streaming —
            # writes cached bytes straight to the wire.
            lines = self.backend.stream_encoded(job_id, timeout=timeout)
        except KeyError:
            return self._send_error_json(404, "unknown_job", f"no job {job_id!r}")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        try:
            for line in lines:
                data = line + b"\n"
                self.wfile.write(b"%X\r\n%s\r\n" % (len(data), data))
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
        except (ServiceError, OSError, http.client.HTTPException):
            # Mid-stream (a timeout, a fleet failover that ran out of
            # workers, or the client went away), the status line is gone;
            # terminating the chunked body early is the only signal left.
            self.close_connection = True

    # BaseHTTPRequestHandler replies 501 for other verbs on its own.


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`CompilationService`.

    Handler threads are daemons, so a blocked streaming client never
    prevents interpreter exit; ``service`` (the handler's ``backend``)
    is shared by every handler.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, address: "tuple[str, int]", service: CompilationService
    ) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = self.backend = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def make_server(
    service: CompilationService | None = None,
    host: str = "127.0.0.1",
    port: int = 8000,
    **service_kwargs: object,
) -> ServiceServer:
    """Build a ready-to-serve :class:`ServiceServer`.

    When ``service`` is omitted a fresh :class:`CompilationService` is
    created from ``service_kwargs`` (``workers``, ``cache_dir``, ...).
    ``port=0`` binds an ephemeral port — read it back from
    :attr:`ServiceServer.server_address` (tests do).
    """
    if service is None:
        service = CompilationService(**service_kwargs)  # type: ignore[arg-type]
    service.start()
    return ServiceServer((host, port), service)


def serve(
    host: str = "127.0.0.1",
    port: int = 8000,
    **service_kwargs: object,
) -> None:
    """Run a compilation service until interrupted (the CLI entry point)."""
    server = make_server(host=host, port=port, **service_kwargs)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
