"""An asyncio client for the violation-subscription push protocol.

:class:`ServeClient` speaks the wire contract of
``docs/serve-protocol.md``: it connects, consumes the ``hello``
greeting, and then multiplexes the connection between request/response
traffic (``subscribe`` → ``bootstrap``, ``update`` → ``ack``/``error``)
and the asynchronous push stream (``delta`` / ``resync`` / ``bootstrap``
re-bases / ``bye``).  A background reader task routes each incoming
frame: the ``hello`` greeting resolves one shared future, ``ack`` and
non-fatal ``error`` frames resolve the oldest pending request, and
everything else lands on the event queue read by :meth:`events` /
:meth:`next_event`.  Requests may be pipelined: any number of
concurrent :meth:`send_update` calls on a fresh client all wait on the
same greeting.

The CLI ``subscribe`` subcommand and the load harness are thin wrappers
over this class; ``examples/live_monitoring.py`` shows the intended
shape of a monitoring consumer.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, AsyncIterator

from repro.graph.io import update_to_dict
from repro.graph.update import GraphUpdate
from repro.telemetry import trace as _trace

from repro.serve.filters import SubscriptionFilter
from repro.serve.protocol import (
    LENGTH_PREFIXED,
    MAX_FRAME_BYTES,
    ProtocolError,
    attach_trace,
    read_frame,
    write_frame,
)

#: Frame types routed to a pending request instead of the event stream.
_RESPONSE_TYPES = ("ack", "error")


class ServeClient:
    """One connection to a :class:`~repro.serve.server.ViolationServer`.

    Use :meth:`connect` (the constructor wires an already-open stream
    pair).  The client works in either framing; the server adapts to
    whichever the first frame uses.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        framing: str = LENGTH_PREFIXED,
    ):
        self._reader = reader
        self._writer = writer
        self.framing = framing
        self.hello: dict[str, Any] | None = None
        self._events: asyncio.Queue = asyncio.Queue()
        self._pending: deque[asyncio.Future] = deque()
        self._hello: asyncio.Future | None = None
        self._task: asyncio.Task | None = None
        self.closed = False

    @classmethod
    async def connect(
        cls, host: str, port: int, *, framing: str = LENGTH_PREFIXED
    ) -> "ServeClient":
        """Open a connection, consume ``hello``, start the reader task."""
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_FRAME_BYTES + 16
        )
        client = cls(reader, writer, framing)
        await client._start()
        return client

    async def _start(self) -> None:
        """Spawn the reader task.

        The server stays silent until the client's first byte has told
        it which framing to speak, so the ``hello`` greeting is consumed
        lazily (:meth:`_ensure_hello`) after the first frame is written
        rather than here — reading it at connect time would deadlock.
        The reader task resolves one ``hello`` future with the first
        frame, which every waiter shares.
        """
        loop = asyncio.get_running_loop()
        self._hello = loop.create_future()
        # Retrieve a failure nobody awaited, so asyncio does not log it.
        self._hello.add_done_callback(lambda f: f.cancelled() or f.exception())
        self._task = loop.create_task(self._route())

    async def _ensure_hello(self) -> None:
        if self.hello is None:
            # Shielded: one cancelled waiter must not cancel the greeting
            # the others still wait on.
            self.hello = await asyncio.shield(self._hello)

    def _greet(self, frame: dict[str, Any]) -> None:
        """Resolve the ``hello`` future from the connection's first frame."""
        if frame.get("type") == "hello":
            self._hello.set_result(frame)
        else:
            self._hello.set_exception(
                ProtocolError(f"expected hello, got {frame.get('type')!r}")
            )

    async def _route(self) -> None:
        """The reader task: dispatch responses, queue pushed events."""
        try:
            while True:
                frame = await read_frame(self._reader, self.framing)
                if frame is None:
                    break
                if not self._hello.done():
                    self._greet(frame)
                    if frame["type"] == "hello":
                        continue
                if frame["type"] in _RESPONSE_TYPES and self._pending:
                    future = self._pending.popleft()
                    if not future.done():
                        future.set_result(frame)
                    continue
                await self._events.put(frame)
                if frame["type"] == "bye":
                    break
        except (ProtocolError, ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            self.closed = True
            if not self._hello.done():
                self._greet({"type": "bye"})
            await self._events.put({"type": "bye", "reason": "connection closed"})
            for future in self._pending:
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))

    async def _request(self, frame: dict[str, Any]) -> dict[str, Any]:
        """Send one frame and await its ``ack``/``error`` response."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending.append(future)
        await write_frame(self._writer, frame, self.framing)
        await self._ensure_hello()
        return await future

    async def subscribe(
        self, filter: SubscriptionFilter | dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """Subscribe (or re-subscribe with a new filter) and return the
        bootstrap frame.  ``filter`` is a :class:`SubscriptionFilter`
        or a plain dictionary following ``docs/serve-protocol.md``
        (``rules`` / ``nodes`` / ``labels``; omitted = everything)."""
        if isinstance(filter, SubscriptionFilter):
            filter = filter.to_dict()
        frame: dict[str, Any] = {"type": "subscribe"}
        if filter:
            frame["filter"] = filter
        await write_frame(self._writer, frame, self.framing)
        await self._ensure_hello()
        event = await self.next_event()
        if event.get("type") == "error":
            raise ProtocolError(event.get("message", "subscribe rejected"))
        if event.get("type") != "bootstrap":
            raise ProtocolError(f"expected bootstrap, got {event.get('type')!r}")
        return event

    async def send_update(
        self,
        update: "GraphUpdate | dict[str, Any]",
        *,
        trace: "_trace.TraceContext | None" = None,
    ) -> dict[str, Any]:
        """Submit one batch; returns the ``ack`` frame, or raises
        :class:`~repro.serve.protocol.ProtocolError` on rejection.

        ``trace`` attaches a trace context to the frame's optional
        ``trace`` field; when omitted, the client's active trace (if
        telemetry is enabled and a :func:`repro.telemetry.trace.tracing`
        block is open) propagates automatically, so the server-side
        batch tree hangs off the caller's span.  The ``ack`` echoes the
        batch's ``trace_id``.
        """
        if isinstance(update, GraphUpdate):
            update = update_to_dict(update)
        if trace is None:
            trace = _trace.propagation_context()
        frame = attach_trace({"type": "update", "update": update}, trace)
        response = await self._request(frame)
        if response["type"] == "error":
            raise ProtocolError(response.get("message", "update rejected"))
        return response

    async def next_event(self, timeout: float | None = None) -> dict[str, Any]:
        """The next pushed frame (bootstrap / delta / resync / bye)."""
        await self._ensure_hello()
        if timeout is None:
            return await self._events.get()
        return await asyncio.wait_for(self._events.get(), timeout)

    async def events(self) -> AsyncIterator[dict[str, Any]]:
        """Iterate pushed frames until the connection says ``bye``."""
        while True:
            frame = await self.next_event()
            yield frame
            if frame.get("type") == "bye":
                return

    async def close(self) -> None:
        """Say ``bye`` (best effort) and tear the connection down."""
        if not self.closed:
            try:
                await write_frame(
                    self._writer, {"type": "bye", "reason": "client closing"}, self.framing
                )
            except (ConnectionError, OSError):
                pass
        self.closed = True
        if self._task is not None:
            self._task.cancel()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()


__all__ = ["ServeClient"]
