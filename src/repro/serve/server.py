"""Asyncio JSON-lines TCP server over the worker pool.

One connection, many jobs: clients write one JSON object per line and
read one result object per line.  Results come back *as they finish* --
possibly out of submission order -- correlated by job ``id`` (the server
assigns ``srv-N`` ids to jobs submitted without one).  Control lines:

* ``{"op": "ping"}``            -> ``{"op": "pong"}``
* ``{"op": "stats"}``           -> pool/cache stats + metrics snapshot

Malformed lines are answered with ``status: "rejected"`` results and
backpressure (bounded pool queue at capacity, open circuit breaker)
with ``status: "overloaded"`` results carrying a ``retry_after_ms``
hint, rather than dropped connections, so a batch client can account
for every job it sent -- and knows which refusals are worth retrying
(:class:`~repro.serve.client.ServeClient` retries ``overloaded``
automatically with jittered backoff).

The bridge between the pool's threads and asyncio is one-way and safe:
pool tickets resolve on the manager thread, whose done-callback hops the
result onto the connection's outbound :class:`asyncio.Queue` via
``loop.call_soon_threadsafe``; a single writer task per connection drains
that queue, so line writes never interleave.

:class:`ServeServer` embeds in-process (``start_background`` /
``stop_background``, used by the tests and ``examples/batch_service.py``)
or runs in the foreground via :meth:`run_forever` (``funtal serve``).
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from typing import Optional

from repro.obs.events import OBS
from repro.serve.cache import ResultCache
from repro.serve.pool import (
    PoolClosed, QueueFull, SupervisorConfig, WorkerPool,
)
from repro.serve.protocol import (
    Job, JobResult, ProtocolError, decode_line, encode_line,
)

__all__ = ["ServeServer", "DEFAULT_PORT"]

DEFAULT_PORT = 4017


class ServeServer:
    """A TCP front-end over a :class:`~repro.serve.pool.WorkerPool`."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 *, workers: int = 2, cache_size: int = 1024,
                 queue_size: int = 256, default_timeout: float = 30.0,
                 max_retries: int = 2,
                 mp_context: Optional[str] = None,
                 supervisor: Optional[SupervisorConfig] = None):
        self.host = host
        self.port = port
        self.cache = ResultCache(cache_size) if cache_size else None
        self.pool = WorkerPool(
            workers, cache=self.cache, queue_size=queue_size,
            default_timeout=default_timeout, max_retries=max_retries,
            mp_context=mp_context, supervisor=supervisor)
        self._ids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._connections = 0

    # -- request handling ------------------------------------------------

    def _control(self, data: dict) -> Optional[dict]:
        op = data.get("op")
        if op in (None, "job"):
            return None
        if op == "ping":
            return {"op": "pong"}
        if op == "stats":
            return {
                "op": "stats",
                "pool": self.pool.stats(),
                "connections": self._connections,
                "metrics": OBS.metrics.snapshot(),
            }
        return {"op": "error", "error": f"unknown op {op!r}"}

    def _submit(self, data: dict, outbox: "asyncio.Queue",
                loop: asyncio.AbstractEventLoop) -> Optional[JobResult]:
        """Parse + submit one job line.  Immediate outcomes (parse
        failure, backpressure, cache hit) come back as a result; queued
        jobs reply later through the outbox."""
        try:
            job = Job.from_dict(data)
        except ProtocolError as err:
            return JobResult(id=str(data.get("id", "")),
                            kind=str(data.get("kind", "")),
                            status="rejected", error=str(err),
                            error_type="ProtocolError")
        if not job.id:
            job.id = f"srv-{next(self._ids)}"
        try:
            ticket = self.pool.submit(job, block=False)
        except QueueFull as err:
            # Transient: the bounded queue is at capacity.  Tell the
            # client when to come back instead of pretending the job
            # itself was bad.
            if OBS.enabled:
                OBS.metrics.inc("serve.jobs.overloaded")
            return JobResult.failure(
                job, "overloaded", str(err), error_type="QueueFull",
                output={"retry_after_ms":
                        getattr(err, "retry_after_ms", 0) or 50})
        except PoolClosed as err:
            # Terminal for this server: resubmission cannot succeed.
            if OBS.enabled:
                OBS.metrics.inc("serve.jobs.rejected")
            return JobResult.failure(job, "rejected", str(err),
                                     error_type="PoolClosed")
        if ticket.done:          # cache hit resolved synchronously
            return ticket.result
        ticket.add_done_callback(
            lambda result: loop.call_soon_threadsafe(
                outbox.put_nowait, result))
        return None

    async def _write_loop(self, writer: asyncio.StreamWriter,
                          outbox: "asyncio.Queue") -> None:
        while True:
            result = await outbox.get()
            if result is None:
                break
            writer.write(encode_line(result if isinstance(result, dict)
                                     else result.to_dict()))
            await writer.drain()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        loop = asyncio.get_running_loop()
        outbox: "asyncio.Queue" = asyncio.Queue()
        self._connections += 1
        if OBS.enabled:
            OBS.metrics.inc("serve.connections")
        writer_task = asyncio.ensure_future(self._write_loop(writer, outbox))
        try:
            try:
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    if not line.strip():
                        continue
                    try:
                        data = decode_line(line)
                    except ProtocolError as err:
                        outbox.put_nowait(JobResult(
                            id="", kind="", status="rejected",
                            error=str(err), error_type="ProtocolError"))
                        continue
                    reply = self._control(data)
                    if reply is not None:
                        outbox.put_nowait(reply)
                        continue
                    immediate = self._submit(data, outbox, loop)
                    if immediate is not None:
                        outbox.put_nowait(immediate)
            except asyncio.CancelledError:
                pass        # server shutdown; fall through to cleanup
        finally:
            self._connections -= 1
            outbox.put_nowait(None)
            try:
                await asyncio.wait_for(writer_task, timeout=5.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                writer_task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting (the caller owns the event loop)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started.set()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    def run_forever(self) -> None:
        """Foreground entry point (``funtal serve``): serve until
        interrupted, then drain the pool."""
        try:
            asyncio.run(self.serve_forever())
        except KeyboardInterrupt:
            pass
        finally:
            self.pool.close()

    # -- background embedding (tests, examples) --------------------------

    def start_background(self, timeout: float = 10.0) -> "ServeServer":
        """Serve from a daemon thread; returns once the port is bound."""

        def runner() -> None:
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.start())
                self._loop.run_forever()
                # Unwind inside the loop before closing it, so connection
                # handlers (and their writer tasks) are cancelled cleanly
                # instead of dying with "event loop is closed".
                self._loop.run_until_complete(self._shutdown())
            finally:
                self._loop.close()

        self._thread = threading.Thread(target=runner, daemon=True,
                                        name="funtal-serve")
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server failed to start")
        return self

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        tasks = [t for t in asyncio.all_tasks()
                 if t is not asyncio.current_task()]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def stop_background(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.pool.close()

    def __enter__(self) -> "ServeServer":
        return self.start_background()

    def __exit__(self, *exc) -> None:
        self.stop_background()
