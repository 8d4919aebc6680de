"""Run ``repro.cli serve`` in this process for the traced serve-push run.

    python3 perfbench/serve_child.py <out.json> serve --log ... --rules ...

The program's public calls on the batch path are wrapped in spans (see
``perfbench/tracing.py``) before ``repro.cli.main`` runs.  Spans recorded
before ``ViolationServer.start`` returned are set-up.  After that every
other batch is traced (the phase flips each ``--checkpoint-every``
cycle, so half the checkpoints fall on traced batches); the server's own
``stats()["apply_seconds"]``, read as each batch starts, gives the apply
time of the batch before, so traced and untraced applies are compared on
the same stream and machine.  When the CLI returns (SIGINT) the folded
spans, the apply times and the push latencies are written to
``out.json``.  The shutdown checkpoint is not recorded.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro.cli
    import repro.serve.protocol as protocol
    import repro.serve.server as server_module

    from perfbench import tracing
    from perfbench.common import quantile

    rec = tracing.Recorder()
    tracing.wrap_validation(rec)
    tracing.wrap_update_path(rec)
    tracing.wrap_log(rec)

    def encoded(payload, args):
        if args[0].get("type") == "delta":
            rec.count("serve.push_frames")
            rec.count("serve.push_bytes", len(payload))

    rec.wrap(protocol, "encode_frame", "serve.encode", encoded)

    applies: dict[bool, list[float]] = {False: [], True: []}
    state: dict = {"server": None, "traced": None, "seen": 0.0}

    def batch_done(server) -> None:
        """Credit the apply time since the last reading to the batch
        that was running (traced or not)."""
        seen = server.stats()["apply_seconds"]
        if state["traced"] is not None:
            applies[state["traced"]].append(seen - state["seen"])
        state["seen"] = seen

    validate_update = server_module.validate_update
    every = int(cli_args[cli_args.index("--checkpoint-every") + 1])

    def validate_first(graph, update):
        server = state["server"]
        if server is not None:
            batch_done(server)
            # Alternate batches, with the phase flipped every checkpoint
            # cycle, so checkpointing batches are traced every other time.
            seq = server.seq + 1
            state["traced"] = (seq + seq // every) % 2 == 0
            rec.enabled = state["traced"]
        with rec.span("graph.validate_update"):
            validate_update(graph, update)

    rec.patch(server_module, "validate_update", validate_first)

    server_class = server_module.ViolationServer
    original_start, original_stop = server_class.start, server_class.stop
    marks: dict = {}

    async def start(self):
        await original_start(self)
        state["server"] = marks["server"] = self
        state["seen"] = self.stats()["apply_seconds"]
        marks["since"] = rec.mark()
        marks["setup_counters"] = rec.take_counters()

    async def stop(self, **kwargs):
        if state["server"] is not None:
            batch_done(self)
            state["server"] = state["traced"] = None
        rec.enabled = False
        await original_stop(self, **kwargs)

    server_class.start = start
    server_class.stop = stop
    code = repro.cli.main(cli_args)
    rec.restore()
    since = marks["since"]
    setup = tracing.layer_metrics(rec, 0, 1, until=since)
    tracing.add_counters(setup, marks["setup_counters"], 1)
    traced = max(1, len(applies[True]))
    layers = tracing.layer_metrics(rec, since, traced)
    tracing.add_counters(layers, rec.take_counters(), traced)
    encode = rec.self_times(since).get("serve.encode", 0.0) / traced
    in_apply = rec.total_self(since) / traced - encode
    traced_apply = statistics.fmean(applies[True] or [0.0])
    untraced_apply = statistics.fmean(applies[False] or [0.0])
    pushes = marks["server"].push_latencies()
    layers["serve.apply_s"] = untraced_apply
    # What the spans miss of a traced apply: the server's own delta-frame
    # building and fan-out (and anything a missing wrapper would leave).
    layers["serve.self_s"] = traced_apply - in_apply
    layers["serve.push_wait_p99_ms"] = quantile(pushes, 0.99) * 1e3 if pushes else 0.0
    layers["serve.resyncs"] = marks["server"].stats().get("serve.resyncs", 0)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "code": code,
                "traced_apply": traced_apply,
                "untraced_apply": untraced_apply,
                # The spans inside an apply, without the server's own
                # remainder: the coverage check fails when they fall short.
                "layer_sum": in_apply,
                "setup": setup,
                "layers": layers,
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
