"""Smoke tests of the benchmark at tiny sizes.

    python -m pytest perfbench -q

Each workload runs for a fraction of a second on a graph of a few
hundred nodes, untraced and traced, and must pass its own output
checks.  The generators are checked for determinism and validity, and
BENCHMARK.json for agreement with the code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gen, loadgen, run, serve, stream, tracing  # noqa: E402
from perfbench.yardstick import Yardstick  # noqa: E402

END_TO_END = {"setup_s", "latency_p50_ms", "latency_tail_ms", "throughput_per_s", "peak_rss_mb"}
TINY = {"validate-sigma": 600, "validate-engine": 400, "stream-churn": 500, "serve-push": 500}


def _churn(arrays, seed):
    return gen.ChurnStream(arrays, seed, stream.BATCH_OPS, stream.DELETE_FRACTION)


def test_generators_are_deterministic():
    assert gen.gnp_arrays(300, 4, 7) == gen.gnp_arrays(300, 4, 7)
    assert gen.gnp_arrays(300, 4, 7) != gen.gnp_arrays(300, 4, 8)
    assert gen.overlapping_arrays(300, 7) == gen.overlapping_arrays(300, 7)
    first = _churn(gen.gnp_arrays(300, 4, 7), 7).batches(50)
    second = _churn(gen.gnp_arrays(300, 4, 7), 7).batches(50)
    assert first == second


def test_inputs_do_not_depend_on_the_hash_seed():
    script = (
        "import hashlib, sys; sys.path[:0] = ['src', '.']\n"
        "from perfbench import gen, stream\n"
        "arrays = gen.gnp_arrays(500, 4, 7)\n"
        "batches = gen.ChurnStream(arrays, 7, stream.BATCH_OPS, stream.DELETE_FRACTION)"
        ".batches(500)\n"
        "inputs = (arrays, batches, gen.overlapping_arrays(500, 7))\n"
        "print(hashlib.sha256(repr(inputs).encode()).hexdigest())\n"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONHASHSEED": hash_seed},
        ).stdout
        for hash_seed in ("1", "2", "3")
    }
    assert len(digests) == 1


def test_gnp_degree_and_no_loops():
    arrays = gen.gnp_arrays(2000, 4, 3)
    edges = list(zip(arrays["edge_src"], arrays["edge_dst"]))
    assert all(src != dst for src, dst in edges)
    assert len(set(edges)) == len(edges)
    assert 3.5 < 2 * len(edges) / 2000 < 4.5


def test_churn_batches_are_valid_in_order():
    from repro.graph.io import graph_from_arrays
    from repro.graph.update import validate_update
    from repro.reasoning.incremental import apply_update

    arrays = gen.gnp_arrays(300, 4, 5)
    graph = graph_from_arrays(arrays)
    deletions = operations = 0
    for update in _churn(arrays, 5).batches(400):
        validate_update(graph, update)
        apply_update(graph, update)
        operations += update.size()
        deletions += len(update.del_nodes) + len(update.del_edges) + len(update.del_attrs)
    assert 0.2 < deletions / operations < 0.4
    assert 200 < graph.num_nodes < 400


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_checks(workload, trace):
    outcome, layers = run.workloads()[workload](3, 0.8, trace, nodes=TINY[workload])
    assert outcome.correct, outcome.problems
    assert outcome.failed == 0 and outcome.attempted > 0
    if trace:
        table = tracing.finish_table(layers)
        assert set(table) == set(tracing.LAYER_METRICS)
        assert table["trace.coverage_frac"]["value"] > 0
    else:
        assert set(outcome.metrics) == END_TO_END
        # At a few hundred nodes the program can fit in memory the
        # process already holds, so its peak above the baseline may be 0.
        assert outcome.metrics.pop("peak_rss_mb")[0] >= 0
        assert all(value > 0 for value, _unit in outcome.metrics.values())


def test_yardstick_block_reads_a_slowdown():
    yard = Yardstick()
    slowdown = yard.block(0.01)
    assert len(yard.slices) >= 3
    assert slowdown > 0 and yard.slowdown() == slowdown


def test_serve_push_normalises_each_phase_and_takes_the_stall_per_cycle():
    every = serve.CHECKPOINT_EVERY
    closed = loadgen.Phase(open=False, seconds=6.0)
    closed.acks = [(seq, seq / 100.0) for seq in range(1, 3 * every + 1)]
    opened = loadgen.Phase(open=True)
    opened.pushes = [(every - 1, 1.0), (every, 300.0), (every + 1, 60.0), (2 * every, 240.0)]
    load = loadgen.LoadResult(phases=[closed, opened], pauses=[1.0, 2.0, 4.0])
    pushes, stall = serve._pushes(load)
    # The open phase lies between pauses reading 2.0 and 4.0: slowdown 3.
    assert pushes == pytest.approx([1e-3 / 3, 0.1, 0.02, 0.08])
    # Cycle 1 (seq 200..399) peaks at 300 ms, cycle 2 at 240 ms; seq 199
    # belongs to a cycle whose checkpoint was not in an open phase.
    assert stall == pytest.approx(0.09)
    # Two checkpoint cycles of 2 s each, at slowdown 1.5: 150 batches/s.
    assert serve._capacity(load) == pytest.approx(every / 2.0 * 1.5)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads())
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        tracing.LAYER_METRICS
    )
    serve_why = next(w["why"] for w in spec["workloads"] if w["name"] == "serve-push")
    assert f"{serve.OPEN_RATE:g} batches/s" in serve_why


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
