"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer table of a traced run.  The exit code is 1 when an output
check failed (the result line still says which), 2 on bad arguments.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def workloads() -> dict:
    from perfbench.serve import serve_push
    from perfbench.stream import stream_churn
    from perfbench.validate import validate_engine, validate_sigma

    return {
        "validate-sigma": validate_sigma,
        "validate-engine": validate_engine,
        "stream-churn": stream_churn,
        "serve-push": serve_push,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import tracing

    table = workloads()
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    outcome, layers = table[args.workload](args.seed, args.seconds, bool(args.trace))
    result = outcome.result()
    if layers is not None:
        result["metrics"] = tracing.finish_table(layers)
        if not tracing.coverage_ok(layers):
            outcome.fail("trace coverage outside its tolerance")
            result["correct"] = False
    for problem in outcome.problems:
        print(f"# check failed: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
