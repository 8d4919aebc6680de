"""A wire-level load generator for ``repro.cli serve``.

One process drives the server over two connections built directly on
``repro.serve.protocol`` (``encode_frame`` / ``read_frame``): a
publisher that sends ``update`` frames and reads their acks, and a
subscriber that receives the bootstrap and every ``delta``.  It does
not use ``ServeClient``: that client cannot pipeline (concurrent
``send_update`` calls on a fresh client hang, see README.md).

A run is a few rounds of two phases each, with a pause after every
phase while the server is idle (the benchmark times its yardstick there).

* A closed phase keeps ``window`` batches in flight: a new batch goes
  out when an ack comes back.  It measures capacity.  The batches the
  open phases need are set aside first, so a faster server can run out
  of closed-phase batches (``closed_ran_out``) but never shortens an
  open phase.
* An open phase sends at a fixed rate.  Batch k is due at
  ``t0 + k / rate`` and goes out then whatever the server is doing;
  push and ack latencies are timed from the due time, so a stall also
  charges the batches queued behind it.  How late the generator itself
  sent each batch is recorded too.

The server answers the update frames of one connection in order, one
``ack`` or ``error`` each, so the i-th reply belongs to the i-th batch.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

#: How long to wait for outstanding acks and deltas after the last send.
DRAIN_TIMEOUT = 20.0


@dataclass
class Phase:
    """One closed or open phase of a run."""

    open: bool
    seconds: float = 0.0
    acked: list = field(default_factory=list)  # (batch index, seq) in ack order
    acks: list = field(default_factory=list)  # closed loop: (seq, ack time)
    ack_ms: list = field(default_factory=list)  # open loop, from due time
    pushes: list = field(default_factory=list)  # open loop: (seq, ms from due time)
    late_ms: list = field(default_factory=list)  # open loop: sent minus due


@dataclass
class LoadResult:
    """What the generator saw."""

    sent: int = 0
    acked: list = field(default_factory=list)  # (batch index, seq) in ack order
    rejected: int = 0
    closed_ran_out: bool = False
    phases: list = field(default_factory=list)
    pauses: list = field(default_factory=list)  # what ``pause`` returned, in order
    resyncs: int = 0
    gaps: int = 0
    undelivered: int = 0
    unanswered: int = 0
    state: dict = field(default_factory=dict)  # subscriber's violation set
    problems: list = field(default_factory=list)

    def _open(self, name: str) -> list:
        return [v for phase in self.phases if phase.open for v in getattr(phase, name)]

    @property
    def ack_ms(self) -> list:
        return self._open("ack_ms")

    @property
    def late_ms(self) -> list:
        return self._open("late_ms")

    @property
    def closed_batches(self) -> int:
        return sum(len(phase.acks) for phase in self.phases if not phase.open)


def key(violation: dict) -> str:
    """A violation's identity: its rule and embedding."""
    return json.dumps([violation["rule"], violation["match"]])


class _Subscriber:
    """Holds the violation set as bootstrap plus gap-free deltas."""

    def __init__(self, result: LoadResult):
        self.result = result
        self.seq = None
        self.arrived: dict[int, float] = {}
        self.progress = asyncio.Event()

    def bootstrap(self, frame: dict) -> None:
        self.result.state = {key(v): v for v in frame["violations"]}
        self.seq = frame["seq"]
        self.progress.set()

    def delta(self, frame: dict, now: float) -> None:
        if frame["seq"] != self.seq + 1:
            self.result.gaps += 1
        self.seq = frame["seq"]
        state = self.result.state
        for violation in frame["retired"]:
            state.pop(key(violation), None)
        for violation in frame["updated"] + frame["introduced"]:
            state[key(violation)] = violation
        self.arrived[frame["seq"]] = now
        self.progress.set()

    async def run(self, reader) -> None:
        from repro.serve.protocol import LENGTH_PREFIXED, read_frame

        while True:
            frame = await read_frame(reader, LENGTH_PREFIXED)
            now = time.perf_counter()
            if frame is None or frame["type"] == "bye":
                return
            if frame["type"] == "bootstrap":
                self.bootstrap(frame)
            elif frame["type"] == "delta":
                self.delta(frame, now)
            elif frame["type"] == "resync":
                self.result.resyncs += 1


async def drive(
    host: str,
    port: int,
    batches: list,
    rounds: int,
    closed_seconds: float,
    open_seconds: float,
    rate: float,
    window: int,
    pause=None,
) -> LoadResult:
    """Run ``rounds`` rounds of a closed phase then an open phase
    against a listening server; ``batches`` are ``GraphUpdate`` objects
    in stream order.  ``pause()``, when given, is called before the
    first phase and after every phase, once every batch sent has its
    reply and the subscriber holds every acknowledged delta, so the
    server is idle; what it returns is kept in ``pauses``."""
    from repro.graph.io import update_to_dict
    from repro.serve.protocol import LENGTH_PREFIXED, encode_frame, read_frame

    open_count = int(open_seconds * rate)
    if len(batches) - rounds * open_count < window:
        raise ValueError(f"{len(batches)} batches leave fewer than {window} for the closed phases")
    result = LoadResult()
    limit = 2**25
    sub_reader, sub_writer = await asyncio.open_connection(host, port, limit=limit)
    pub_reader, pub_writer = await asyncio.open_connection(host, port, limit=limit)
    subscriber = _Subscriber(result)
    tasks: list[asyncio.Task] = []
    try:
        sub_writer.write(encode_frame({"type": "subscribe"}))
        hello = await read_frame(sub_reader, LENGTH_PREFIXED)
        if hello is None or hello["type"] != "hello":
            raise ConnectionError(f"expected hello, got {hello!r}")
        sub_task = asyncio.create_task(subscriber.run(sub_reader))
        tasks.append(sub_task)
        await asyncio.wait_for(subscriber.progress.wait(), DRAIN_TIMEOUT)  # bootstrap

        replies: asyncio.Queue = asyncio.Queue()

        async def read_replies() -> None:
            while True:
                frame = await read_frame(pub_reader, LENGTH_PREFIXED)
                now = time.perf_counter()
                if frame is None:
                    return
                if frame["type"] in ("ack", "error"):
                    await replies.put((frame, now))

        tasks.append(asyncio.create_task(read_replies()))
        due: dict[int, float] = {}  # due time per batch index (open loop only)
        sent = 0  # batches sent so far: the next one to send is batches[sent]
        replied = 0  # replies taken so far: the next belongs to batches[replied]

        def send(index: int) -> None:
            frame = {"type": "update", "update": update_to_dict(batches[index])}
            pub_writer.write(encode_frame(frame))
            result.sent += 1

        async def take_reply(phase: Phase) -> bool:
            nonlocal replied
            try:
                frame, now = await asyncio.wait_for(replies.get(), DRAIN_TIMEOUT)
            except asyncio.TimeoutError:
                result.problems.append(f"no reply to batch {replied} (timed out)")
                return False
            index = replied
            replied += 1
            if frame["type"] == "error":
                result.rejected += 1
                result.problems.append(f"batch {index} rejected: {frame.get('message')}")
                return True
            result.acked.append((index, frame["seq"]))
            phase.acked.append((index, frame["seq"]))
            if phase.open:
                phase.ack_ms.append((now - due[index]) * 1e3)
            else:
                phase.acks.append((frame["seq"], now))
            return True

        async def settle() -> bool:
            """Wait until the subscriber holds every acknowledged delta."""
            last_seq = result.acked[-1][1] if result.acked else subscriber.seq
            give_up = time.perf_counter() + DRAIN_TIMEOUT
            while subscriber.seq is None or subscriber.seq < last_seq:
                subscriber.progress.clear()
                remaining = give_up - time.perf_counter()
                if remaining <= 0 or sub_task.done():
                    return False
                try:
                    await asyncio.wait_for(subscriber.progress.wait(), remaining)
                except asyncio.TimeoutError:
                    return False
            return True

        async def closed_phase(phase: Phase, last: int) -> bool:
            """Keep ``window`` batches in flight for ``closed_seconds``,
            sending no batch at or past index ``last``."""
            nonlocal sent
            started = time.perf_counter()
            deadline = started + closed_seconds
            while sent < last and sent - replied < window:
                send(sent)
                sent += 1
            await pub_writer.drain()
            while replied < sent:
                if not await take_reply(phase):
                    return False
                if time.perf_counter() >= deadline:
                    continue
                if sent == last:
                    result.closed_ran_out = True
                    continue
                send(sent)
                sent += 1
                await pub_writer.drain()
            phase.seconds = time.perf_counter() - started
            return True

        async def open_phase(phase: Phase) -> bool:
            nonlocal sent
            first = sent
            t0 = time.perf_counter() + 0.05
            for k in range(open_count):
                due[first + k] = t0 + k / rate

            async def sender() -> None:
                nonlocal sent
                for index in range(first, first + open_count):
                    delay = due[index] - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    phase.late_ms.append((time.perf_counter() - due[index]) * 1e3)
                    send(index)
                    sent = index + 1
                    if pub_writer.transport.get_write_buffer_size() > 1 << 20:
                        await pub_writer.drain()

            task = asyncio.create_task(sender())
            tasks.append(task)
            ok = True
            while ok and replied < first + open_count:
                ok = await take_reply(phase)
            await task
            phase.seconds = time.perf_counter() - t0
            return ok

        def rest() -> None:
            if pause is not None:
                result.pauses.append(pause())

        rest()
        for done_rounds in range(rounds):
            closed = Phase(open=False)
            result.phases.append(closed)
            last = len(batches) - (rounds - done_rounds) * open_count
            if not (await closed_phase(closed, last) and await settle()):
                break
            rest()
            opened = Phase(open=True)
            result.phases.append(opened)
            ok = await open_phase(opened) and await settle()
            for index, seq in opened.acked:
                if seq in subscriber.arrived:
                    opened.pushes.append((seq, (subscriber.arrived[seq] - due[index]) * 1e3))
            if not ok:
                break
            rest()
        result.undelivered = sum(seq not in subscriber.arrived for _, seq in result.acked)
    finally:
        for writer in (pub_writer, sub_writer):
            writer.close()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    result.unanswered = result.sent - len(result.acked) - result.rejected
    return result
