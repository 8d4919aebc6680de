"""serve-push: ``python -m repro.cli serve`` as its own process.

The server runs unindexed, as the CLI runs it, over a durable log in a
fresh directory with ``--checkpoint-every``.  The log writer's policy
is the program's own: one flush per record, no fsync.  The load comes
from :mod:`perfbench.loadgen` in this process: one publisher and one
subscriber connection.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from perfbench import gen, loadgen, tracing
from perfbench.common import (
    Outcome,
    keep_inputs_out_of_gc,
    median,
    note,
    process_peak_mb,
    quantile,
)
from perfbench.stream import AVG_DEGREE, BATCH_OPS, DELETE_FRACTION, STREAM_NODES
from perfbench.yardstick import Yardstick

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (logs, graph and rule files).
WORK = ROOT / ".perfbench-work"

CHECKPOINT_EVERY = 200
#: Closed-loop window: batches in flight in a closed phase.
WINDOW = 8
#: Open-loop rate, batches per second (recorded in BENCHMARK.json):
#: about a third of the closed-loop capacity at 20k nodes on 2 cores,
#: low enough that the backlog after each checkpoint drains well within
#: the checkpoint cycle even when the machine is slow, so the median
#: push stays clear of the stall and the p99 holds it.
OPEN_RATE = 150.0
#: Rounds of a closed then an open phase, with a yardstick block while
#: the server is idle before the first phase and after each one.
ROUNDS = 4
#: Share of the measuring time spent in closed phases.
CLOSED_SHARE = 0.5
#: Batches generated per second of closed phases: about 3x the
#: closed-loop capacity at 20k nodes on 2 cores, so a faster server
#: still fills them (a note says when it does not).
CLOSED_BATCHES_PER_SECOND = 2000
SERVER_STARTS = 5
#: Yardstick block after each probe start and in each pause, seconds.
YARD_BLOCK_S = 0.3
START_TIMEOUT = 120.0


class ServerProcess:
    """One server process, started and stopped from here."""

    def __init__(self, command: list[str], log_dir: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
        self.stderr = open(log_dir / "server.err", "ab")
        self.peak_mb = 0.0
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.stderr
        )
        try:
            listening = self._read_line(START_TIMEOUT)
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - started
        self.port = listening["port"]

    def _read_line(self, timeout: float) -> dict:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError("server did not report listening in time")
        line = self.proc.stdout.readline()
        record = json.loads(line) if line.strip() else {}
        if record.get("type") != "listening":
            raise RuntimeError(f"server did not start: {line!r}")
        return record

    def stop(self) -> None:
        """SIGINT (the CLI's shutdown), then wait for the process.  Its
        peak resident set is read first (the shutdown checkpoint is not
        in it; the periodic checkpoints of the run are)."""
        if self.proc.poll() is None:
            self.peak_mb = process_peak_mb(self.proc.pid)
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(10)
        self.proc.stdout.close()
        self.stderr.close()


def _write_inputs(work: Path, arrays: dict, rules: list) -> tuple[Path, Path]:
    from repro.deps.io import ged_to_dict
    from repro.graph.io import graph_from_arrays, graph_to_json

    graph_path, rules_path = work / "graph.json", work / "rules.json"
    graph_path.write_text(graph_to_json(graph_from_arrays(arrays)))
    rules_path.write_text(json.dumps([ged_to_dict(rule) for rule in rules]))
    return graph_path, rules_path


def _command(prefix: list[str], log: Path, graph: Path, rules: Path) -> list[str]:
    return prefix + [
        "serve",
        "--log", str(log),
        "--graph", str(graph),
        "--rules", str(rules),
        "--checkpoint-every", str(CHECKPOINT_EVERY),
    ]


def _without_last_record(log: Path) -> tuple[Path, dict]:
    """A copy of ``log`` without its last record, and that record."""
    copy = log.with_name(log.stem + ".cut.jsonl")
    previous = None
    with open(log, encoding="utf-8") as source, open(copy, "w", encoding="utf-8") as target:
        for line in source:
            if previous is not None:
                target.write(previous)
            previous = line
    return copy, json.loads(previous)


def _check(outcome, load, arrays, rules, batches, log: Path) -> None:
    """Bootstrap plus deltas equals a from-scratch validation of the
    final graph, and the log replays to that graph three ways: from the
    checkpoint the server writes at shutdown; from the last periodic
    checkpoint (the shutdown one removed) plus the records after it;
    and from the base graph, checkpoints ignored."""
    from repro.graph.io import graph_from_arrays, replay_update_log
    from repro.reasoning import find_violations
    from repro.reasoning.incremental import apply_update
    from repro.streaming import violation_to_dict

    final = graph_from_arrays(arrays)
    for index, _seq in load.acked:
        apply_update(final, batches[index])
    want = {loadgen.key(v): v for v in map(violation_to_dict, find_violations(final, rules))}
    if load.state != want:
        outcome.fail("subscriber state differs from a from-scratch validation")
    if replay_update_log(log).graph != final:
        outcome.fail("log replay from its shutdown checkpoint differs from the final graph")
    cut, last = _without_last_record(log)
    if last["type"] != "checkpoint":
        outcome.fail(f"the log ends with a {last['type']} record, not the shutdown checkpoint")
    recovered = replay_update_log(cut)
    if recovered.resumed_from != last["seq"] // CHECKPOINT_EVERY * CHECKPOINT_EVERY:
        outcome.fail(f"recovery resumed from seq {recovered.resumed_from}, "
                     f"not the last periodic checkpoint before {last['seq']}")
    if recovered.graph != final:
        outcome.fail("log replay from its last periodic checkpoint differs from the final graph")
    full = replay_update_log(log, graph_from_arrays(arrays), use_checkpoints=False)
    if full.graph != final:
        outcome.fail("full log replay differs from the final graph")


def _lifecycle(outcome, prefix, work, name, inputs, arrays, rules, batches, budget, pause=None):
    """Start a server, drive every round, stop it, check the outputs."""
    log = work / f"{name}.jsonl"
    server = ServerProcess(_command(prefix, log, *inputs), work)
    try:
        load = asyncio.run(
            loadgen.drive(
                "127.0.0.1", server.port, batches, ROUNDS,
                budget * CLOSED_SHARE / ROUNDS, budget * (1 - CLOSED_SHARE) / ROUNDS,
                OPEN_RATE, WINDOW, pause,
            )
        )
    finally:
        server.stop()
    if load.closed_ran_out:
        note("every closed-phase batch was used before a closed phase's time ran out")
    outcome.attempted += load.sent
    failures = load.rejected + load.unanswered + load.undelivered + load.gaps + load.resyncs
    outcome.failed += failures
    for problem in load.problems[:5]:
        outcome.problems.append(problem)
    _check(outcome, load, arrays, rules, batches, log)
    return server, load


def serve_push(seed: int, seconds: float, trace: bool, nodes: int = STREAM_NODES):
    started = time.perf_counter()
    arrays = gen.gnp_arrays(nodes, AVG_DEGREE, seed)
    rules = gen.bounded_rules()
    closed = max(WINDOW, int(seconds * CLOSED_SHARE * CLOSED_BATCHES_PER_SECOND))
    count = closed + ROUNDS * int(seconds * (1 - CLOSED_SHARE) / ROUNDS * OPEN_RATE)
    batches = gen.ChurnStream(arrays, seed, BATCH_OPS, DELETE_FRACTION).batches(count)
    keep_inputs_out_of_gc()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        inputs = _write_inputs(work, arrays, rules)
        note(f"inputs: {nodes} nodes, {len(arrays['edge_src'])} edges, {count} batches of "
             f"{BATCH_OPS} ops, generated in {time.perf_counter() - started:.2f}s")
        outcome = Outcome()
        cli = [sys.executable, "-m", "repro.cli"]
        if not trace:
            yard = Yardstick()
            setups = []
            for attempt in range(SERVER_STARTS - 1):
                probe = ServerProcess(_command(cli, work / f"probe{attempt}.jsonl", *inputs), work)
                probe.stop()
                setups.append(probe.setup_seconds / yard.after(YARD_BLOCK_S))
            server, load = _lifecycle(
                outcome, cli, work, "serve", inputs, arrays, rules, batches, seconds,
                lambda: yard.block(YARD_BLOCK_S),
            )
            # The first pause follows the measured server's start.
            setups.append(server.setup_seconds / load.pauses[0])
            pushes, stalls = _pushes(load)
            if not pushes:
                raise RuntimeError("no push was delivered in the open loop")
            outcome.latency(pushes, setups, _capacity(load), yard, stalls)
            outcome.put("peak_rss_mb", server.peak_mb, "MB")
            note(f"closed phases {load.closed_batches} batches; "
                 f"open phases {len(pushes)} pushes at {OPEN_RATE}/s")
            return outcome, None
        out = work / "child.json"
        child = [sys.executable, str(ROOT / "perfbench" / "serve_child.py"), str(out)]
        _server, load = _lifecycle(
            outcome, child, work, "traced", inputs, arrays, rules, batches, seconds
        )
        traced = json.loads(out.read_text())
        layers = traced["layers"]
        for name, value in traced["setup"].items():
            layers[name] = layers.get(name, 0.0) + value
        layers["loadgen.ack_p99_ms"] = _p99(load.ack_ms)
        layers["loadgen.late_p99_ms"] = _p99(load.late_ms)
        tracing.coverage(
            layers, traced["layer_sum"], traced["traced_apply"], traced["untraced_apply"]
        )
        return outcome, layers
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _phase_slowdowns(load):
    """Each phase with the host's slowdown over it: the mean of the
    yardstick blocks in the pauses before and after it."""
    pauses = load.pauses
    return [
        (phase, (pauses[i] + pauses[min(i + 1, len(pauses) - 1)]) / 2)
        for i, phase in enumerate(load.phases)
    ]


def _pushes(load) -> tuple[list[float], float]:
    """The open phases' push latencies in seconds, normalised by their
    phase's slowdown, and the tail: the slowest push of each checkpoint
    cycle (the checkpointed batch and the ones after it, up to the
    next), the median over the cycles whose checkpoint fell in an open
    phase; the slowest pushes of the run are its checkpoint stalls.
    A p99 over the run's ~1500 pushes would be the worst one or two of
    its ~7 stalls, and the stalls themselves vary by ±30%."""
    pushes, slowest = [], {}
    for phase, slowdown in _phase_slowdowns(load):
        if not phase.open:
            continue
        cycles = {seq // CHECKPOINT_EVERY for seq, _ms in phase.pushes
                  if seq % CHECKPOINT_EVERY == 0}
        for seq, ms in phase.pushes:
            push = ms / 1e3 / slowdown
            pushes.append(push)
            if seq // CHECKPOINT_EVERY in cycles:
                cycle = seq // CHECKPOINT_EVERY
                slowest[cycle] = max(slowest.get(cycle, 0.0), push)
    return pushes, median(list(slowest.values())) if slowest else max(pushes, default=0.0)


def _capacity(load) -> float:
    """Closed-loop batches per second, normalised by each closed
    phase's slowdown: the median over checkpoint cycles (from the ack of
    one checkpointed batch to the next within one closed phase), so every
    cycle holds exactly one checkpoint; the closed phases' whole time
    when they hold fewer than two cycles."""
    rates, batches, seconds = [], 0, 0.0
    for phase, slowdown in _phase_slowdowns(load):
        if phase.open:
            continue
        marks = [when for seq, when in phase.acks if seq % CHECKPOINT_EVERY == 0]
        rates += [CHECKPOINT_EVERY / (b - a) * slowdown for a, b in zip(marks, marks[1:])]
        batches += len(phase.acks)
        seconds += phase.seconds / slowdown
    if len(rates) < 2:
        return batches / seconds
    return median(rates)


def _p99(values: list[float]) -> float:
    return quantile(values, 0.99) if values else 0.0
