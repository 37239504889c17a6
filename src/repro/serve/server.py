"""The always-on results service: asyncio HTTP/JSON over store + queue.

A small stdlib-only HTTP server (``asyncio`` streams, GET only) that
fronts the content-addressed result store and the durable work queue:

``GET /experiment/<name>``
    Resolve the request to the orchestrator's result key and serve the
    stored artifact's frames (JSON or CSV; ``?columns=``/``?where=``/
    ``?workload=`` slicing).  On a miss, enqueue the experiment as an
    interactive-priority queue item and answer ``202`` with a
    ``/job/<id>`` polling URL; ``?wait=SECONDS`` blocks up to the
    deadline for a cooperating worker to drain it first.
``GET /explore/<preset>``
    The same, addressed by grid-preset name (``frontend``/``smoke``/
    ``cmp``) through the registered ``explore-*`` experiments.
``GET /job/<id>``
    Poll an enqueued miss; once the artifact appears in the shared
    store the response is byte-identical to the warm
    ``/experiment/...`` response for the same parameters.
``GET /healthz`` and ``GET /stats``
    Liveness, the process counters (:func:`repro.counters.snapshot`),
    and per-route request/hit/miss/error/latency counters.

One :class:`~repro.api.runtime_config.RuntimeConfig` snapshot is
pinned at startup; every request derives (and activates) its own
frozen config, so concurrent requests with different instruction
budgets never cross-contaminate -- activation is ContextVar-based and
asyncio gives each connection task its own context.
"""

from __future__ import annotations

import asyncio
import contextlib
import statistics
import sys
import threading
import time
from collections import deque
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro import counters
from repro.api import runtime_config as rc
from repro.serve.jobs import JobRegistry
from repro.serve.resolve import ResolvedRequest, resolve_experiment, resolve_explore
from repro.serve.wire import (
    JSON_TYPE,
    HttpError,
    artifact_frame,
    dump_json,
    frame_body,
    parse_query,
    slice_frame,
)

#: Interval between store polls while a request blocks on ``?wait=``.
POLL_INTERVAL_SECONDS = 0.05

#: Latency samples kept per route (enough for a stable p50).
LATENCY_SAMPLES = 512

#: Maximum request-line plus header bytes read per request.
MAX_HEADER_BYTES = 32 * 1024

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class RouteStats:
    """Request/hit/miss/error counters and latency samples of one route."""

    def __init__(self) -> None:
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.latency_ns: deque = deque(maxlen=LATENCY_SAMPLES)

    def describe(self) -> Dict[str, Any]:
        samples = list(self.latency_ns)
        described: Dict[str, Any] = {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
        }
        if samples:
            described["p50_ms"] = round(statistics.median(samples) / 1e6, 4)
            described["mean_ms"] = round(statistics.fmean(samples) / 1e6, 4)
            described["max_ms"] = round(max(samples) / 1e6, 4)
        return described


class ResultsServer:
    """The results service (construct, :meth:`start`, :meth:`stop`)."""

    def __init__(
        self,
        config: Optional[rc.RuntimeConfig] = None,
        queue_dir: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ) -> None:
        self._config = config if config is not None else rc.RuntimeConfig.from_environment()
        self._host = host if host is not None else self._config.serve_host
        self._port = port if port is not None else self._config.serve_port
        queue_dir = queue_dir if queue_dir is not None else self._config.queue_dir
        self._jobs = JobRegistry(queue_dir) if queue_dir else None
        self._stats: Dict[str, RouteStats] = {}
        self._stats_lock = threading.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        self._started = time.time()

    # -- lifecycle ---------------------------------------------------

    @property
    def config(self) -> rc.RuntimeConfig:
        """The pinned startup config snapshot."""
        return self._config

    @property
    def port(self) -> int:
        """The bound TCP port (the OS choice under ``port=0``)."""
        if self._server is None:
            return self._port
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self._host,
            port=self._port,
            limit=MAX_HEADER_BYTES,
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- counters ----------------------------------------------------

    def _route_stats(self, route: str) -> RouteStats:
        with self._stats_lock:
            if route not in self._stats:
                self._stats[route] = RouteStats()
            return self._stats[route]

    def stats(self) -> Dict[str, Any]:
        """Per-route serve counters plus :func:`repro.counters.snapshot`."""
        with self._stats_lock:
            routes = {name: stats.describe() for name, stats in self._stats.items()}
        return {
            "serve": {
                "uptime_s": round(time.time() - self._started, 3),
                "jobs": len(self._jobs) if self._jobs is not None else 0,
                "routes": routes,
            },
            "caches": counters.snapshot(),
        }

    # -- the HTTP layer ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, content_type, body = await self._handle_request(reader)
            await self._write_response(writer, status, content_type, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown mid-request: close the transport quietly.
            pass
        finally:
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, str, bytes]:
        try:
            request_line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            return 400, JSON_TYPE, HttpError(400, "bad-request", "oversized request").body()
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            return 400, JSON_TYPE, HttpError(400, "bad-request", "malformed request line").body()
        method, target = parts[0], parts[1]
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                return 400, JSON_TYPE, HttpError(400, "bad-request", "oversized headers").body()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()
        if method.upper() != "GET":
            error = HttpError(405, "method-not-allowed", f"{method} not supported (GET only)")
            return error.status, JSON_TYPE, error.body()
        return await self._dispatch(target, headers)

    async def _write_response(
        self, writer: asyncio.StreamWriter, status: int, content_type: str, body: bytes
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- routing -----------------------------------------------------

    async def _dispatch(
        self, target: str, headers: Dict[str, str]
    ) -> Tuple[int, str, bytes]:
        path, _, raw_query = target.partition("?")
        segments = [segment for segment in path.split("/") if segment]
        route, handler = self._route(segments)
        stats = self._route_stats(route)
        stats.requests += 1
        started = time.perf_counter_ns()
        try:
            params = parse_query(raw_query)
            status, content_type, body = await handler(segments, params, headers)
        except HttpError as error:
            stats.errors += 1
            status, content_type, body = error.status, JSON_TYPE, error.body()
        except Exception as error:  # noqa: BLE001 - one request must not kill the server
            stats.errors += 1
            fallback = HttpError(500, "internal-error", f"{type(error).__name__}: {error}")
            status, content_type, body = fallback.status, JSON_TYPE, fallback.body()
        finally:
            stats.latency_ns.append(time.perf_counter_ns() - started)
        if status == 200:
            stats.hits += 1
        elif status == 202:
            stats.misses += 1
        return status, content_type, body

    def _route(
        self, segments: List[str]
    ) -> Tuple[str, Callable[..., Awaitable[Tuple[int, str, bytes]]]]:
        head = segments[0] if segments else ""
        if head == "healthz" and len(segments) == 1:
            return "healthz", self._handle_healthz
        if head == "stats" and len(segments) == 1:
            return "stats", self._handle_stats
        if head == "experiment" and len(segments) == 2:
            return "experiment", self._handle_experiment
        if head == "explore" and len(segments) == 2:
            return "explore", self._handle_explore
        if head == "job" and len(segments) == 2:
            return "job", self._handle_job
        return "other", self._handle_unknown

    # -- handlers ----------------------------------------------------

    async def _handle_unknown(self, segments, params, headers):
        raise HttpError(
            404,
            "unknown-route",
            "expected /experiment/<name>, /explore/<preset>, /job/<id>, "
            "/healthz, or /stats",
        )

    async def _handle_healthz(self, segments, params, headers):
        from repro.results.orchestrator import registry_names

        body = dump_json(
            {
                "status": "ok",
                "uptime_s": round(time.time() - self._started, 3),
                "experiments": len(registry_names()),
                "queue_dir": self._jobs.queue_dir if self._jobs is not None else None,
            }
        )
        return 200, JSON_TYPE, body

    async def _handle_stats(self, segments, params, headers):
        return 200, JSON_TYPE, dump_json(self.stats())

    async def _handle_experiment(self, segments, params, headers):
        resolved = resolve_experiment(
            segments[1], params, self._config, headers.get("accept")
        )
        return await self._serve_resolved(resolved, params)

    async def _handle_explore(self, segments, params, headers):
        resolved = resolve_explore(
            segments[1], params, self._config, headers.get("accept")
        )
        return await self._serve_resolved(resolved, params)

    async def _serve_resolved(
        self, resolved: ResolvedRequest, params: Dict[str, List[str]]
    ) -> Tuple[int, str, bytes]:
        artifact = self._load(resolved)
        if artifact is not None:
            return self._hit_response(resolved, params, artifact)
        if self._jobs is None:
            raise HttpError(
                503,
                "queue-unavailable",
                "result not stored and the service has no queue directory "
                "to enqueue it on (start with --queue-dir)",
            )
        job = self._jobs.submit(resolved)
        if resolved.wait > 0:
            artifact = await self._await_store(resolved, resolved.wait)
            if artifact is not None:
                return self._hit_response(resolved, params, artifact)
        body = dict(job.describe())
        body["status"] = "pending"
        return 202, JSON_TYPE, dump_json(body)

    async def _handle_job(self, segments, params, headers):
        if self._jobs is None:
            raise HttpError(404, "unknown-job", "this service has no job queue")
        job = self._jobs.get(segments[1])
        if job is None:
            raise HttpError(
                404,
                "unknown-job",
                f"unknown job {segments[1]!r} (job ids do not survive a "
                "service restart; re-request the experiment)",
            )
        resolved = resolve_experiment(
            job.experiment,
            {**params, "instructions": [str(job.instructions)]},
            self._config,
            headers.get("accept"),
        )
        artifact = self._load(resolved)
        if artifact is None and resolved.wait > 0:
            artifact = await self._await_store(resolved, resolved.wait)
        if artifact is None:
            body = dict(job.describe())
            body["status"] = "pending"
            return 202, JSON_TYPE, dump_json(body)
        return self._hit_response(resolved, params, artifact)

    # -- store access ------------------------------------------------

    def _load(self, resolved: ResolvedRequest) -> Optional[Dict[str, Any]]:
        from repro.results.store import load_result

        with rc.activated(resolved.config):
            return load_result(resolved.key, resolved.experiment)

    async def _await_store(
        self, resolved: ResolvedRequest, wait: float
    ) -> Optional[Dict[str, Any]]:
        deadline = time.monotonic() + wait
        while True:
            artifact = self._load(resolved)
            if artifact is not None:
                return artifact
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            await asyncio.sleep(min(POLL_INTERVAL_SECONDS, remaining))

    def _hit_response(
        self,
        resolved: ResolvedRequest,
        params: Dict[str, List[str]],
        artifact: Dict[str, Any],
    ) -> Tuple[int, str, bytes]:
        frame_name, frame = artifact_frame(artifact, resolved.frame)
        frame = slice_frame(frame, params)
        content_type, body = frame_body(
            resolved.experiment, resolved.key, frame_name, frame, resolved.format
        )
        return 200, content_type, body


async def _run_server(server: ResultsServer) -> None:
    await server.start()
    print(f"serving results on {server.url}", file=sys.stderr)
    await server.serve_forever()


def run_server(server: ResultsServer) -> int:
    """Run a server until interrupted (the CLI entry point)."""
    try:
        asyncio.run(_run_server(server))
    except KeyboardInterrupt:
        print("results service stopped", file=sys.stderr)
    return 0


@contextlib.contextmanager
def background_server(
    config: Optional[rc.RuntimeConfig] = None,
    queue_dir: Optional[str] = None,
    host: Optional[str] = None,
    port: int = 0,
):
    """Run a :class:`ResultsServer` on a daemon thread (tests, scripts).

    Yields the started server (its ``url`` reflects the bound port);
    the server and its event loop are torn down on exit.
    """
    server = ResultsServer(config=config, queue_dir=queue_dir, host=host, port=port)
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    async def _serve() -> None:
        await server.start()
        ready.set()
        assert server._server is not None
        await server._server.serve_forever()

    def _main() -> None:
        asyncio.set_event_loop(loop)
        with contextlib.suppress(asyncio.CancelledError):
            loop.run_until_complete(_serve())
        loop.close()

    thread = threading.Thread(target=_main, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=10):
        raise RuntimeError("results service failed to start within 10s")
    try:
        yield server
    finally:
        def _shutdown() -> None:
            if server._server is not None:
                server._server.close()
            for task in asyncio.all_tasks(loop):
                task.cancel()

        loop.call_soon_threadsafe(_shutdown)
        thread.join(timeout=10)
