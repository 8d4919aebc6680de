"""Shared helpers: statistics, memory, child processes, result rows."""

from __future__ import annotations

import gc
import json
import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

#: A tail needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: The tail percentile.  Not p99: on this shared host a refresh's p99
#: is set by millisecond bursts of contention that no yardstick block
#: sees, and over ten stream-churn seeds its spread (IQR / median) read
#: 0.15-0.16 in two sets, against 0.06 for the p95 of the same runs.
TAIL_QUANTILE = 0.95
#: A run's samples are split, in time order, into this many segments;
#: tails and throughputs are the median over the segments, so a burst
#: of machine slowness in one segment does not move the run's figure.
SEGMENTS = 3
#: At most this many segments for percentile tails.
TAIL_SEGMENTS = 9


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def segments(values: list, count: int = SEGMENTS) -> list[list]:
    """``values`` cut into ``count`` consecutive, near-equal parts
    (fewer when there are fewer values)."""
    count = max(1, min(count, len(values)))
    size, extra = divmod(len(values), count)
    parts, start = [], 0
    for index in range(count):
        stop = start + size + (1 if index < extra else 0)
        parts.append(values[start:stop])
        start = stop
    return parts


def tail(values: list[float]) -> float:
    """With enough samples for ten beyond the TAIL_QUANTILE (200 for
    p95), the median over up to TAIL_SEGMENTS segments, each that large,
    of each segment's TAIL_QUANTILE.  With fewer (validate-* runs a
    handful of validations), the median over SEGMENTS segments of each
    one's largest sample."""
    least = round(TAIL_BEYOND / (1 - TAIL_QUANTILE))
    enough = min(len(values) // least, TAIL_SEGMENTS)
    if enough:
        return median([quantile(part, TAIL_QUANTILE) for part in segments(values, enough)])
    return median([max(part) for part in segments(values)])


def keep_inputs_out_of_gc() -> None:
    """Move everything allocated so far (the benchmark's generated
    inputs) out of the cyclic collector's reach, so the collections that
    land in measured operations scan the program's objects, not ours."""
    gc.collect()
    gc.freeze()


def throughput(seconds: list[float]) -> float:
    """Operations per second of operation time, closed loop: the median
    over segments."""
    return median([len(part) / sum(part) for part in segments(seconds)])


def median(values: list[float]) -> float:
    return statistics.median(values)


def _status_kib(field: str, pid: str = "self") -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def process_peak_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a running process, in MB: its own
    since it started its program.  (``ru_maxrss`` of a waited-for child
    would also count this process's resident set when the child was
    started.)"""
    return _status_kib("VmHWM", str(pid)) / 1024.0


def private_mb(pid: int) -> float:
    """Resident memory of a process that no other process shares
    (Private_Clean + Private_Dirty), in MB.  A forked worker's pages
    inherited from its parent and never written are not counted."""
    total = 0
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as rollup:
        for line in rollup:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1])
    return total / 1024.0


class ProgramMemory:
    """Peak resident memory the program adds to this process (Linux).

    Made once the benchmark's inputs are in place: the resident set at
    that moment is the baseline, so the inputs, the interpreter and the
    imported modules are not counted.  :meth:`reset` restarts the
    kernel's high-water mark (VmHWM) at the current resident set, and
    :meth:`sample` keeps the largest high-water mark above the baseline.
    Reset before a measured operation and sample before the benchmark's
    own checks allocate, so only the program's memory is in the peak.
    """

    def __init__(self) -> None:
        gc.collect()
        self.baseline = _status_kib("VmRSS")
        self.peak_kib = 0
        self.reset()

    def reset(self) -> None:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
            refs.write("5")

    def sample(self) -> None:
        self.peak_kib = max(self.peak_kib, _status_kib("VmHWM") - self.baseline)

    def mb(self) -> float:
        return self.peak_kib / 1024.0


def in_child(fn, *args):
    """``fn(*args)`` computed in a forked child process and returned by
    pickle.  Input generation and reference reports run there, so the
    memory they use and free never becomes heap that the program could
    later reuse without raising this process's resident set."""
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(1, mp_context=context) as executor:
        return executor.submit(fn, *args).result()


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every multiprocessing child of this process has ended
    (engine pools shut down without waiting for their workers)."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join(5.0)


def canonical_bytes(rules, violations) -> bytes:
    """A violation report serialized in canonical order (Σ position,
    then embedding): what two paths must agree on byte for byte.
    Violations are placed by rule name, so reports whose GED objects
    were copied (engine workers return unpickled ones) compare too."""
    from repro.streaming import violation_to_dict

    position = {ged.name: index for index, ged in enumerate(rules)}
    report = sorted(violations, key=lambda v: (position[v.ged.name], v.match))
    return json.dumps([violation_to_dict(v) for v in report]).encode()


class Outcome:
    """Counts and end-to-end metric values for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}

    def fail(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def latency(
        self, seconds: list[float], setups: list[float], per_second: float, yard,
        slowest: float | None = None,
    ) -> None:
        """The end-to-end row every workload reports, from the latency
        samples in time order, all normalised by ``yard``'s blocks (see
        ``perfbench/yardstick.py``).  The tail is ``tail(seconds)``
        unless the workload gives its own (``slowest``)."""
        note(f"host slowdown {yard.slowdown():.3f} over {len(yard.slices)} yardstick slices")
        self.put("setup_s", median(setups), "s")
        self.put("latency_p50_ms", median(seconds) * 1e3, "ms")
        self.put("latency_tail_ms", (tail(seconds) if slowest is None else slowest) * 1e3, "ms")
        self.put("throughput_per_s", per_second, "1/s")

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def note(message: str) -> None:
    """A progress line on stdout (the result is always the last line)."""
    print(f"# {message}", flush=True)
