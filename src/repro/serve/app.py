"""The asyncio classification service: routes, HTTP transport, lifecycle.

The request handling is framework-neutral: :class:`ServeApp` maps
``(method, path, json body)`` to a :class:`Response`, independent of any web
framework. Two transports expose it:

* the **stdlib transport** (:class:`ServeServer`, built on
  ``asyncio.start_server`` with a minimal HTTP/1.1 keep-alive parser) — the
  default, so the service and its tier-1 tests need no packages beyond the
  standard library;
* an optional **FastAPI adapter** (:func:`create_fastapi_app`) that mounts
  the same handlers on a FastAPI application when the package is installed
  (for deployments that want its middleware/OpenAPI ecosystem).

Routes::

    GET    /health                     liveness + pool/session occupancy
    GET    /metrics                    Prometheus text exposition
    GET    /v1/sessions                list open sessions
    POST   /v1/sessions                create a session  {"config": {...RunConfig...}}
    POST   /v1/sessions/{id}/rounds    classify one round  {"chunks": [...]}
    GET    /v1/sessions/{id}/summary   live decision tallies + occupancy
    DELETE /v1/sessions/{id}           close; returns the final summary
    POST   /shutdown                   begin graceful draining (also SIGTERM)

Error mapping: config/chunk validation -> 400 (the ``RunConfig`` message,
naming the offending field; a non-finite signal sample names its
``chunk[i].signal``), a malformed ``Content-Length`` -> 400 and a body
above :data:`MAX_BODY_BYTES` -> 413, a request line longer than
:data:`MAX_LINE_BYTES` -> 400, a longer header line or more than
:data:`MAX_HEADERS` headers -> 431 (all of these close the connection
without reading the body), unknown session -> 404, closed session or
concurrent round -> 409, pool saturation -> 429 with a ``Retry-After``
header (admission control, not failure — clients retry and no round is
ever dropped), draining -> 503.

Graceful shutdown (:meth:`ServeServer.shutdown`) drains in order: stop
admitting requests, let queued rounds finish, close every session (which
releases execution backends and their thread pools),
then close the listening socket.
"""

from __future__ import annotations

import asyncio
import json
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.obs import MetricsRegistry
from repro.runtime import SessionClosedError
from repro.serve.manager import PoolSaturatedSessions, SessionManager, UnknownSessionError
from repro.serve.pool import BackendPool, PoolClosedError, PoolSaturatedError

__all__ = [
    "BackgroundServer",
    "Response",
    "ServeApp",
    "ServeServer",
    "create_fastapi_app",
    "serve_forever",
    "start_server",
]

# Largest request body the server reads. A full-flowcell round (256
# channels x 250 samples) is ~1.3 MB of JSON; the cap only stops a client
# from making the server buffer an unbounded body.
MAX_BODY_BYTES = 64 * 1024 * 1024
# Longest request or header line (the stream reader's buffer limit) and the
# most header lines one request may carry.
MAX_LINE_BYTES = 64 * 1024
MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Content Too Large",
    431: "Request Header Fields Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Response:
    """One transport-independent HTTP response."""

    status: int = 200
    body: Dict[str, Any] = field(default_factory=dict)
    text: Optional[str] = None  # non-JSON payload (the /metrics exposition)
    headers: Dict[str, str] = field(default_factory=dict)

    def payload(self) -> Tuple[bytes, str]:
        if self.text is not None:
            return self.text.encode(), "text/plain; version=0.0.4; charset=utf-8"
        return (json.dumps(self.body) + "\n").encode(), "application/json"


class ServeApp:
    """Framework-neutral request handling over one manager/pool/metrics."""

    def __init__(
        self,
        manager: SessionManager,
        *,
        on_shutdown: Optional[Any] = None,
    ) -> None:
        self.manager = manager
        self.pool = manager.pool
        self.metrics = manager.metrics
        self.draining = False
        self._on_shutdown = on_shutdown  # callable scheduling a graceful stop

    # ------------------------------------------------------------- dispatch
    async def handle(self, method: str, path: str, body: bytes) -> Response:
        """Route one request; every error becomes a structured response."""
        try:
            return await self._route(method.upper(), path.rstrip("/") or "/", body)
        except PoolSaturatedError as error:
            self.metrics.inc("repro_serve_rejected_total", reason="pool_saturated")
            return Response(
                status=429,
                body={"error": str(error), "retry_after_s": error.retry_after_s},
                headers={"Retry-After": f"{error.retry_after_s:g}"},
            )
        except PoolSaturatedSessions as error:
            self.metrics.inc("repro_serve_rejected_total", reason="session_limit")
            return Response(status=429, body={"error": str(error)})
        except UnknownSessionError as error:
            return Response(status=404, body={"error": str(error)})
        except SessionClosedError as error:
            return Response(status=409, body={"error": str(error)})
        except PoolClosedError as error:
            return Response(status=503, body={"error": str(error)})
        except (ValueError, json.JSONDecodeError) as error:
            return Response(status=400, body={"error": str(error)})
        except Exception as error:  # noqa: BLE001 - the service must not die
            traceback.print_exc()
            return Response(
                status=500, body={"error": f"{type(error).__name__}: {error}"}
            )

    async def _route(self, method: str, path: str, body: bytes) -> Response:
        if path == "/health" and method == "GET":
            return self._health()
        if path == "/metrics" and method == "GET":
            return Response(text=self.metrics.render())
        if self.draining:
            return Response(
                status=503, body={"error": "server is draining; no new requests"}
            )
        if path == "/shutdown" and method == "POST":
            if self._on_shutdown is not None:
                self._on_shutdown()
            return Response(body={"draining": True})
        if path == "/v1/sessions":
            if method == "GET":
                return Response(body={"sessions": self.manager.list_sessions()})
            if method == "POST":
                payload = _parse_json(body)
                config = payload.get("config", payload or None)
                return Response(body=self.manager.create(config))
            return Response(status=405, body={"error": f"{method} not allowed here"})
        parts = path.strip("/").split("/")
        if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "sessions" and len(parts) >= 3:
            session_id = parts[2]
            tail = parts[3] if len(parts) > 3 else None
            if tail == "rounds" and method == "POST":
                payload = _parse_json(body)
                chunks = payload.get("chunks")
                if chunks is None:
                    raise ValueError("chunks: the round payload names no chunks")
                return Response(body=await self.manager.submit_round(session_id, chunks))
            if tail == "summary" and method == "GET":
                return Response(body=self.manager.summary(session_id))
            if tail is None and method == "GET":
                return Response(body=self.manager.describe(session_id))
            if tail is None and method == "DELETE":
                return Response(body=await self.manager.close_session(session_id))
        return Response(status=404, body={"error": f"no route for {method} {path}"})

    def _health(self) -> Response:
        status = "draining" if self.draining else "ok"
        return Response(
            body={
                "status": status,
                "sessions": len(self.manager),
                "pool": self.pool.snapshot(),
            }
        )


def _parse_json(body: bytes) -> Dict[str, Any]:
    if not body:
        return {}
    data = json.loads(body.decode())
    if not isinstance(data, Mapping):
        raise ValueError("request body must be a JSON object")
    return dict(data)


# ----------------------------------------------------------- stdlib server
class ServeServer:
    """The stdlib asyncio HTTP transport around one :class:`ServeApp`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_concurrency: int = 2,
        max_queue: int = 32,
        default_config: Optional[Mapping[str, Any]] = None,
        max_sessions: int = 256,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.pool = BackendPool(max_concurrency=max_concurrency, max_queue=max_queue)
        self.metrics = MetricsRegistry()
        self.manager = SessionManager(
            self.pool,
            metrics=self.metrics,
            default_config=default_config,
            max_sessions=max_sessions,
        )
        self.app = ServeApp(self.manager, on_shutdown=self.request_shutdown)
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown_requested = asyncio.Event()
        self._connections: set = set()

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 to the ephemeral pick)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._requested_port

    async def start(self) -> "ServeServer":
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self._requested_port, limit=MAX_LINE_BYTES
        )
        return self

    def request_shutdown(self) -> None:
        """Signal-safe trigger for graceful draining (SIGTERM/SIGINT path)."""
        self._shutdown_requested.set()

    async def wait_shutdown_requested(self) -> None:
        await self._shutdown_requested.wait()

    async def shutdown(self) -> None:
        """Drain gracefully: refuse new work, finish the backlog, close all
        sessions (releasing their backends), stop listening."""
        self.app.draining = True
        await self.pool.close(drain=True)
        await self.manager.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle keep-alive connections block on readline forever; cancel them.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    # ------------------------------------------------------------- transport
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _BadRequest as error:
                    # The body was not read, so the stream cannot be resynced.
                    _write_response(writer, error.response, keep_alive=False)
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                response = await self.app.handle(method, path, body)
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                _write_response(writer, response, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
        ):
            pass  # the peer went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # shutdown cancelled an idle keep-alive connection
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


class _BadRequest(Exception):
    """A request the transport refuses before reading its body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.response = Response(status=status, body={"error": message})


def _content_length(value: str) -> int:
    """The declared body size; 400 unless a non-negative integer, 413 above the cap."""
    value = value.strip()
    if not value:
        return 0
    if not (value.isascii() and value.isdigit()):
        raise _BadRequest(400, f"Content-Length: expected a non-negative integer, got {value!r}")
    # Compare digit counts first: int() refuses strings of 4300+ digits.
    digits = value.lstrip("0") or "0"
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
        raise _BadRequest(
            413, f"Content-Length: the body exceeds the {MAX_BODY_BYTES}-byte limit"
        )
    return int(digits)


async def _read_line(reader: asyncio.StreamReader, status: int, what: str) -> bytes:
    """One CRLF-terminated line; ``status`` when it overruns the reader's limit."""
    try:
        return await reader.readline()
    except ValueError:  # StreamReader.readline's limit overrun
        raise _BadRequest(
            status, f"{what}: the line exceeds the {MAX_LINE_BYTES}-byte limit"
        ) from None


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    request_line = await _read_line(reader, 400, "request line")
    if not request_line or request_line in (b"\r\n", b"\n"):
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        return None
    headers: Dict[str, str] = {}
    for count in range(MAX_HEADERS + 1):
        line = await _read_line(reader, 431, "header")
        if line in (b"\r\n", b"\n", b""):
            break
        if count == MAX_HEADERS:
            raise _BadRequest(431, f"headers: more than {MAX_HEADERS} header lines")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = _content_length(headers.get("content-length", ""))
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return method, path, headers, body


def _write_response(
    writer: asyncio.StreamWriter, response: Response, keep_alive: bool
) -> None:
    payload, content_type = response.payload()
    reason = _REASONS.get(response.status, "Unknown")
    head = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{name}: {value}" for name, value in response.headers.items())
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)


async def start_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_concurrency: int = 2,
    max_queue: int = 32,
    default_config: Optional[Mapping[str, Any]] = None,
    max_sessions: int = 256,
) -> ServeServer:
    """Create and start a :class:`ServeServer` (port 0 picks a free port)."""
    server = ServeServer(
        host,
        port,
        max_concurrency=max_concurrency,
        max_queue=max_queue,
        default_config=default_config,
        max_sessions=max_sessions,
    )
    return await server.start()


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8093,
    *,
    max_concurrency: int = 2,
    max_queue: int = 32,
    default_config: Optional[Mapping[str, Any]] = None,
    max_sessions: int = 256,
    quiet: bool = False,
) -> int:
    """Run the service until SIGTERM/SIGINT (or ``POST /shutdown``), then
    drain gracefully. Returns 0 — the CLI's blocking entry point."""

    async def _main() -> int:
        server = await start_server(
            host,
            port,
            max_concurrency=max_concurrency,
            max_queue=max_queue,
            default_config=default_config,
            max_sessions=max_sessions,
        )
        loop = asyncio.get_running_loop()
        try:
            import signal

            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, server.request_shutdown)
        except (ImportError, NotImplementedError, RuntimeError):
            pass  # platforms without signal handler support: /shutdown only
        if not quiet:
            print(
                f"repro.serve listening on http://{server.host}:{server.port} "
                f"(pool: {max_concurrency} slots, queue {max_queue})",
                flush=True,
            )
        await server.wait_shutdown_requested()
        if not quiet:
            print("repro.serve draining...", flush=True)
        await server.shutdown()
        if not quiet:
            print("repro.serve stopped", flush=True)
        return 0

    return asyncio.run(_main())


# -------------------------------------------------------- background thread
class BackgroundServer:
    """Run a :class:`ServeServer` on a dedicated event-loop thread.

    The in-process harness examples, tests and synchronous clients use: the
    calling thread gets ``host``/``port`` once the server is listening and
    may then drive it with blocking clients. Exiting the context manager
    drains the server and joins the thread.
    """

    def __init__(self, **server_kwargs: Any) -> None:
        self._kwargs = dict(server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[ServeServer] = None

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError("serve thread failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        async def _main() -> None:
            try:
                self.server = await start_server(**self._kwargs)
            except BaseException as error:  # surface bind errors to the caller
                self._startup_error = error
                self._ready.set()
                return
            self._ready.set()
            await self.server.wait_shutdown_requested()
            await self.server.shutdown()

        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(_main())
        finally:
            self._loop.close()

    @property
    def host(self) -> str:
        assert self.server is not None
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    def __exit__(self, *exc_info: object) -> None:
        if self._loop is not None and self.server is not None:
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=60)


# ----------------------------------------------------------- fastapi adapter
def create_fastapi_app(server: Optional[ServeServer] = None, **server_kwargs: Any):
    """Mount the service on a FastAPI application (optional dependency).

    Raises :class:`RuntimeError` with an install hint when FastAPI is not
    importable — the stdlib transport (:func:`start_server` /
    :func:`serve_forever`) covers every feature without it.
    """
    try:
        from fastapi import FastAPI, Request
        from fastapi.responses import Response as FastAPIResponse
    except ImportError:
        raise RuntimeError(
            "create_fastapi_app needs FastAPI (pip install fastapi); the "
            "stdlib transport repro.serve.start_server works without it"
        ) from None

    serve = server if server is not None else ServeServer(**server_kwargs)
    api = FastAPI(title="repro.serve", version="1")

    @api.api_route(
        "/{path:path}", methods=["GET", "POST", "DELETE", "PUT", "PATCH"]
    )
    async def _dispatch(path: str, request: Request) -> FastAPIResponse:
        body = await request.body()
        response = await serve.app.handle(request.method, "/" + path, body)
        payload, content_type = response.payload()
        return FastAPIResponse(
            content=payload,
            status_code=response.status,
            media_type=content_type,
            headers=response.headers,
        )

    api.state.serve_server = serve
    return api
