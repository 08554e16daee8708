"""End-to-end benchmark of the HBH reproduction.

Runs one workload (see ``e2ebench/README.md``) in this process, closed
loop and serially, for about ``--seconds`` seconds, checks its output
and prints its metrics, one per line with its unit; the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends
half the time untraced and half with every layer boundary wrapped
(``e2ebench/tracing.py``) and reports the per-layer metrics, including
the tracing overhead.  ``--workload all`` runs every workload, each in
its own process, and prints all their metrics.

Run from the repository root::

    python3 e2ebench/run.py --workload paper-sweep --seed 1 --seconds 36 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Where the program under test lives, relative to the repository root.
SOURCE = ROOT / "src"
#: Child processes timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5
#: Passes every untraced run makes, however long they take.
MIN_PASSES = 3
#: Output digests pinned for the documented seeds: a change that moves
#: one of them changed the simulated output.
PINNED_DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Names the metrics a run must report, with their units.
SPEC = ROOT / "BENCHMARK.json"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _log(line: str = "") -> None:
    print(line, flush=True)


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One timed pass: wall time, item times and its checked result;
    traced passes add their per-layer metrics and span table."""

    wall: float
    item_seconds: List[float]
    result: object
    layers: Optional[Dict[str, float]] = None
    span_table: Optional[tuple] = None
    #: Turns this pass's wall times into reference times (see
    #: ``e2ebench/yardstick.py``); 1.0 when no yardstick ran.
    scale: float = 1.0


def run_passes(workload, seconds: float, min_passes: int,
               tracer=None, yardstick: bool = False) -> List[Pass]:
    """Closed loop: start the next pass when the previous one ended,
    until another pass would overrun ``seconds``.  With ``yardstick``,
    every pass samples a :class:`~e2ebench.yardstick.Yardstick` between
    its work items; the samples' time is left out of the pass's wall."""
    from e2ebench.tracing import layer_metrics, self_times
    from e2ebench.yardstick import Yardstick

    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        gc.collect()
        if tracer is None:
            # Unsampled, the yardstick spends 0 s and scales by 1.0.
            stick = Yardstick()
            begin = time.perf_counter()
            body = workload.body(stick if yardstick else None)
            wall = time.perf_counter() - begin
            passes.append(Pass(wall - stick.spent, body.item_seconds,
                               workload.check(body), scale=stick.scale()))
        else:
            tracer.reset()
            begin = time.perf_counter()
            body = tracer.span("pass", workload.body)
            wall = time.perf_counter() - begin
            spans = tracer.closed_spans()
            layers = layer_metrics(spans, tracer.counts)
            table = self_times(spans)
            # check() runs traced functions too: its spans and counts
            # are left out, and the next pass resets them.
            result = workload.check(body)
            layers.update(result.counts)
            passes.append(Pass(wall, body.item_seconds, result, layers,
                               table))
        # The next pass must not run with this one's output still on
        # the heap: fault-replay's 400 payloads would add ~55 MB for
        # the collector to walk.
        del body
        elapsed = time.perf_counter() - started
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes


def measure_setup(workload: str, seed: int) -> List[float]:
    """Wall time of fresh interpreters that set the workload up and
    exit: interpreter start, imports, configs, topology and schedule
    construction."""
    times = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL, cwd=str(ROOT),
        )
        times.append(time.perf_counter() - begin)
    return times


def item_stats(passes: List[Pass]) -> Tuple[int, float, float, float]:
    """(distinct items, median, tail, tail percentile) over the work
    items of a pass.

    Every pass repeats the same items in the same order.  Each item is
    timed by its median over the passes, each pass's time scaled by
    that pass's ``scale``.  The tail is the highest percentile with at
    least ten items beyond it (the slowest item when a pass has fewer
    than eleven).  Counting distinct items rather than pooled samples
    keeps the tail off the one or two heaviest items: pooled over seven
    fault-replay passes, the ten samples beyond the tail could come
    from two seeds.
    """
    per_item = zip(*([seconds * p.scale for seconds in p.item_seconds]
                     for p in passes))
    items = sorted(statistics.median(times) for times in per_item)
    count = len(items)
    if count > 10:
        tail, percentile = items[count - 11], 100.0 * (count - 10) / count
    else:
        tail, percentile = items[-1], 100.0
    return count, statistics.median(items), tail, percentile


def _digest_checks(workload, passes: List[Pass]) -> List[str]:
    """Problems with the output digests: all passes must agree, and
    with the pinned digest when the seed has one."""
    digests = sorted({p.result.digest for p in passes})
    problems = []
    if len(digests) != 1:
        problems.append(f"passes disagree on the output digest: {digests}")
    pinned = json.loads(PINNED_DIGESTS.read_text()).get(workload.name, {})
    expected = pinned.get(str(workload.seed))
    if expected is not None and digests != [expected]:
        problems.append(f"output digest {digests} differs from the one "
                        f"pinned for seed {workload.seed}: {expected}")
    return problems


def _verdict(workload, passes: List[Pass]) -> Tuple[bool, int, int]:
    attempted = sum(p.result.attempted for p in passes)
    failed = sum(p.result.failed for p in passes)
    problems = _digest_checks(workload, passes)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr, flush=True)
    _log(f"output digest: {passes[0].result.digest}")
    _log(f"checks: {attempted} attempted, {failed} failed, "
         f"fail_ratio {failed / attempted:g} (1)")
    return failed == 0 and not problems, attempted, failed


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def end_to_end(workload, seconds: float) -> dict:
    setups = measure_setup(workload.name, workload.seed)
    workload.setup()
    passes = run_passes(workload, seconds, MIN_PASSES, yardstick=True)
    # The median of scaled passes: the scale takes out the machine's
    # drift but adds a little noise of its own, which the fastest pass
    # would pick out.
    wall = statistics.median(p.wall * p.scale for p in passes)
    count, p50, tail, percentile = item_stats(passes)
    values = {
        "wall_s": wall,
        "throughput": passes[0].result.work / wall,
        "item_p50_ms": p50 * 1e3,
        "item_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    _log(f"== {workload.name} (seed {workload.seed}): {len(passes)} passes, "
         f"{count} items, each one {workload.item_unit}; "
         f"throughput in {workload.work_unit}/s; "
         f"tail = p{percentile:.1f}; times scaled to the reference "
         f"machine by a median factor of "
         f"{statistics.median(p.scale for p in passes):.3f}; setup = "
         f"median of {len(setups)} fresh interpreters (not scaled) ==")
    correct, attempted, failed = _verdict(workload, passes)
    units = _units("end_to_end", values)
    for name, value in values.items():
        _log(f"{name:<14} {value:>14.6g} {units[name]}")
    return _result(correct, attempted, failed, values, units)


def _units(section: str, values: Dict[str, float]) -> Dict[str, str]:
    """The units ``BENCHMARK.json`` gives the section's metrics, which
    must be exactly the ones measured."""
    units = {metric["name"]: metric["unit"]
             for metric in json.loads(SPEC.read_text())[section]}
    if set(units) != set(values):
        raise RuntimeError(
            f"{section} metrics measured {sorted(values)} but "
            f"{SPEC.name} names {sorted(units)}")
    return units


def _result(correct: bool, attempted: int, failed: int,
            values: Dict[str, float], units: Dict[str, str]) -> dict:
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced(workload, seconds: float) -> dict:
    from e2ebench.tracing import (
        LAYER_TARGETS,
        Tracer,
        install,
        median_metrics,
    )

    workload.setup()
    plain = run_passes(workload, seconds / 2, 1)
    tracer = Tracer()
    patches = install(tracer)
    try:
        traced_passes = run_passes(workload, seconds / 2, 1, tracer=tracer)
    finally:
        patches.restore()
    own, inclusive, calls = traced_passes[-1].span_table
    values = median_metrics(p.layers for p in traced_passes)
    values["trace.overhead_s"] = (min(p.wall for p in traced_passes)
                                  - min(p.wall for p in plain))
    _log(f"== {workload.name} (seed {workload.seed}) traced: "
         f"{len(plain)} untraced + {len(traced_passes)} traced passes; "
         f"per-pass medians, _s are self seconds; overhead compares the "
         f"fastest passes ==")
    correct, attempted, failed = _verdict(workload, plain + traced_passes)
    units = _units("per_layer", values)
    _log(f"{'metric':<32} {'value':>14} {'unit':<6} moves / works on")
    for name, value in values.items():
        layer = name if name in LAYER_TARGETS else name.split(".")[0]
        moves, on = LAYER_TARGETS[layer]
        _log(f"{name:<32} {value:>14.6g} {units[name]:<6} {moves} / {on}")
    _log("-- spans of the last traced pass: self s, inclusive s, calls --")
    for name in sorted(own, key=own.get, reverse=True):
        _log(f"  {name:<28} {own[name]:>12.6f} {inclusive[name]:>12.6f} "
             f"{calls[name]:>9}")
    return _result(correct, attempted, failed, values, units)


def run_all(args: argparse.Namespace) -> int:
    """Every workload, one process each; the last line merges them
    with metric names prefixed by the workload."""
    from e2ebench.workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        )
        lines = completed.stdout.splitlines()
        for line in lines[:-1]:
            _log(line)
        if completed.returncode != 0 or not lines:
            print(f"workload {name} failed", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
        _log()
    print(json.dumps(merged), flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"error: the program's source is missing: {SOURCE / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    from e2ebench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)}, all)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        workload.setup()
        return 0
    if args.trace:
        result = traced(workload, args.seconds)
    else:
        result = end_to_end(workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
