"""The `serve` and `subscribe` CLI subcommands.

`serve` runs as a real subprocess (its ``listening`` NDJSON line is the
documented way scripts discover the ephemeral port); `subscribe` runs
as a second subprocess consuming the push stream; the publisher drives
both through :class:`~repro.serve.client.ServeClient` in-process.
"""

import http.client
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.deps import GED, ConstantLiteral
from repro.deps.io import ged_to_dict
from repro.graph import GraphBuilder
from repro.graph.io import graph_to_json
from repro.graph.update import GraphUpdate
from repro.patterns import Pattern

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@pytest.fixture
def fixture_files(tmp_path):
    graph = (
        GraphBuilder()
        .node("c1", "city", {"pop": 1})
        .node("p1", "person", {"age": 0})
        .edge("p1", "lives_in", "c1")
        .build()
    )
    rule = GED(
        Pattern({"p": "person", "c": "city"}, [("p", "lives_in", "c")]),
        [],
        [ConstantLiteral("p", "age", 30)],
        name="resident-age",
    )
    graph_path = tmp_path / "kb.json"
    graph_path.write_text(graph_to_json(graph))
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps([ged_to_dict(rule)]))
    return graph_path, rules_path, tmp_path / "updates.jsonl"


def publish(port: int, updates) -> list[dict]:
    """Send update batches from this process; returns the acks."""
    import asyncio

    from repro.serve import ServeClient

    async def run():
        client = await ServeClient.connect("127.0.0.1", port)
        acks = [await client.send_update(update) for update in updates]
        await client.close()
        return acks

    return asyncio.run(run())


def wait_for_subscribers(port: int, count: int, timeout: float = 10.0) -> None:
    """Poll ``GET /healthz`` until the server reports ``count`` attached
    subscribers; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        try:
            connection.request("GET", "/healthz")
            health = json.loads(connection.getresponse().read())
        finally:
            connection.close()
        if health["subscribers"] == count:
            return
        assert time.monotonic() < deadline, f"{count} subscriber(s) never attached: {health}"
        time.sleep(0.02)


def start_serve(args) -> tuple[subprocess.Popen, dict]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=subprocess_env(),
    )
    listening = json.loads(proc.stdout.readline())
    assert listening["type"] == "listening"
    return proc, listening


class TestServeSubscribeEndToEnd:
    def test_full_session_and_log_resume(self, fixture_files):
        graph_path, rules_path, log_path = fixture_files
        common = ["--log", str(log_path), "--rules", str(rules_path)]

        proc, listening = start_serve(
            [*common, "--graph", str(graph_path), "--max-batches", "2"]
        )
        try:
            assert listening["seq"] == 0 and listening["violations"] == 1
            port = listening["port"]

            consumer = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "subscribe",
                    "--port", str(port), "--label", "city",
                    "--lines", "--max-events", "2",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=subprocess_env(),
            )
            wait_for_subscribers(port, 1)

            acks = publish(
                port,
                [
                    GraphUpdate(
                        nodes=[("c9", "city", {})], edges=[("p1", "lives_in", "c9")]
                    ),
                    GraphUpdate(nodes=[("p9", "person", {"age": 30})]),
                ],
            )
            assert [ack["seq"] for ack in acks] == [1, 2]

            out, err = consumer.communicate(timeout=10)
            assert consumer.returncode == 0, err
            events = [json.loads(line) for line in out.splitlines()]
            assert events[0]["type"] == "hello"
            assert events[1]["type"] == "bootstrap"
            assert {v["rule"] for v in events[1]["violations"]} == {"resident-age"}
            deltas = [e for e in events if e["type"] == "delta"]
            assert deltas and deltas[0]["introduced"]

            out, err = proc.communicate(timeout=10)
            assert proc.returncode == 0, err
            served = json.loads(out.splitlines()[-1])
            assert served["type"] == "served"
            assert served["batches_applied"] == 2
        finally:
            if proc.poll() is None:
                proc.kill()

        # A second incarnation resumes seq numbering from the same log
        # (no --graph needed once the log exists).
        proc2, listening2 = start_serve([*common, "--max-batches", "1"])
        try:
            assert listening2["seq"] == 2 and listening2["epoch"] == 2
            publish(listening2["port"], [GraphUpdate(del_nodes=["p9"])])
            out, err = proc2.communicate(timeout=10)
            assert proc2.returncode == 0, err
            assert json.loads(out.splitlines()[-1])["seq"] == 3
        finally:
            if proc2.poll() is None:
                proc2.kill()


class TestArgumentHandling:
    def test_fresh_log_requires_graph(self, fixture_files, capsys):
        _, rules_path, log_path = fixture_files
        code = main(["serve", "--log", str(log_path), "--rules", str(rules_path)])
        assert code == 2
        assert "base_graph" in capsys.readouterr().err

    def test_subscribe_connection_refused_exits_2(self, capsys):
        # A port nothing listens on: bind-then-close to find a free one.
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        code = main(["subscribe", "--port", str(port), "--max-events", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_rule_filter_flag_parses_positions(self):
        """`--rule 0` means Σ position 0, `--rule name` a rule name."""
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["subscribe", "--port", "1", "--rule", "0", "--rule", "my-rule"]
        )
        entries = [
            int(entry) if entry.lstrip("-").isdigit() else entry
            for entry in args.rule
        ]
        assert entries == [0, "my-rule"]
