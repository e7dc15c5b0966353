"""Benchmark of the tightcycles library: certified-answer throughput on four
seeded batch workloads, and per-layer times from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload structure --seed 1 --seconds 22 --trace 0

The library is imported from ``src/`` of that checkout.  Load is a closed
loop: one client in one process, one operation at a time.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  ``--record`` rewrites the
answers recorded for the default seed instead of measuring.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected_seed0.json")
DEFAULT_SEED = 0
# Set-up, with one import of the library in a fresh process, runs
# SETUPS times in a timed run.
SETUPS = 5
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t0 = time.perf_counter(); "
    "import workloads; workloads.Library('tightcycles'); print(time.perf_counter() - t0)"
)
# Seconds the gauge operations take on the frozen library copy on a
# 2-vCPU Xeon VM at 2.0 GHz, Python 3.11.7 (see NOTES.md).
GAUGE_NOMINAL_S = {
    "lp-certify": 0.19,
    "barrier-search": 0.13,
    "structure": 0.13,
    "threshold-scan": 0.11,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "certified_per_s": "ops/s",
    "op_p50_ms": "ms",
    "certified_share": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("ms_per_solve"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


class Tally:
    """Outcomes and latencies of the operations of one pass or run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.certified = 0
        self.failed = 0
        self.answers: list = []
        self.round_certified: list[int] = []

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_ops(wl, rounds, first_round: int, tally: Tally, expected: dict | None,
            tracer=None) -> None:
    """Run, time and check each operation; checks stay outside the timing
    and outside the trace."""
    from tracing import NAME, SEARCH, VALUE
    from workloads import CheckFailed, need

    for r, ops in enumerate(rounds, first_round):
        tally.round_certified.append(0)
        for i, op in enumerate(ops):
            key = f"{r}:{i}"
            mark = len(tracer.spans) if tracer else 0
            # Each operation starts from a collected heap, so its time does
            # not depend on the garbage the one before it left.
            gc.collect()
            if tracer:
                tracer.active = True
            t0 = perf_counter()
            try:
                result = wl.run(op)
            except Exception:  # a raising operation is counted, not fatal
                result = None
                error = traceback.format_exc()
            else:
                error = None
            tally.latencies.append(perf_counter() - t0)
            if tracer:
                tracer.active = False
            tally.attempted += 1
            try:
                need(error is None, f"operation raised\n{error}")
                status, answer, record = wl.check(op, result)
                if expected is not None and key in expected:
                    need(json.loads(json.dumps(record)) == expected[key],
                         f"answer differs from the one recorded for seed {DEFAULT_SEED}")
                if tracer:
                    for span in tracer.spans[mark:]:
                        if span[NAME] == SEARCH[0] and span[VALUE] is not None:
                            wl.check_search(*span[VALUE])
            except (CheckFailed, wl.lib.walks.WalkError) as err:
                tally.failed += 1
                tally.answers.append(None)
                print(f"FAILED {wl.name} op {key}: {err}", file=sys.stderr)
                continue
            tally.answers.append(answer)
            if status == "certified":
                tally.certified += 1
                tally.round_certified[-1] += 1


def import_seconds() -> float:
    """Seconds one import of the library takes in a fresh process."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC, HERE],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def setup(wl, seed: int, workdir: str, count: int):
    """Seeded input generation of the first ``count`` rounds, .hg files and
    warm-up on separate inputs."""
    rounds = wl.make_rounds(seed, count, workdir)
    warm = Tally()
    run_ops(wl, [wl.warm_ops(workdir)], -1, warm, None)
    if warm.failed:
        raise SystemExit(f"{wl.name}: warm-up operation failed")
    return rounds


def time_gauge(gauge, ops, warm: bool = True) -> float:
    """Seconds the frozen copy of the library takes for the gauge operations.

    With ``warm``, each operation runs once untimed first, so that the
    frozen copy's code and data are as warm as the live copy's are inside
    a round.
    """
    total = 0.0
    for op in ops:
        if warm:
            gauge.run(op)
        gc.collect()
        t0 = perf_counter()
        gauge.run(op)
        total += perf_counter() - t0
    return total


def timed_setup(wl, gauge, gauge_ops, seed: int, workdir: str) -> tuple[list, float]:
    """Set-up and one fresh-process import, SETUPS times; returns the rounds
    and ``setup_s``.

    The machine's speed drifts within seconds, so each set-up is rescaled
    by a gauge pass right after it, as ``timed_run`` rescales its times,
    and ``setup_s`` is the median of the rescaled set-ups.
    """
    scaled = []
    for i in range(SETUPS):
        t0 = perf_counter()
        rounds = setup(wl, seed, workdir, wl.setup_rounds)
        setup_s = perf_counter() - t0
        import_s = import_seconds()
        gauge_s = time_gauge(gauge, gauge_ops, warm=i == 0)
        print(f"# set-up {i}: import {import_s:.4f} s, rounds and warm-up {setup_s:.4f} s, "
              f"gauge {gauge_s:.4f} s")
        scaled.append((import_s + setup_s) * GAUGE_NOMINAL_S[wl.name] / gauge_s)
    return rounds, statistics.median(scaled)


def timed_run(wl, gauge, gauge_ops, rounds, seconds: float, expected,
              seed: int, workdir: str) -> tuple[Tally, dict]:
    """Whole rounds until the busy time reaches ``seconds``; a round that
    would end more than half a round late is not started.  Rounds past
    the ones made at set-up are made as the run needs them, outside the
    timing.  Each search's answer is captured and checked.

    Before the first round and after any round that ends two seconds or
    more after the last pass, the gauge operations run on the frozen copy
    of the library; every time of the run is rescaled by ``speed``, from
    the median of those gauge times.  Every round has the same mix of
    operations, so throughput is the median over rounds.
    """
    from tracing import SEARCH, Tracer

    tally = Tally()
    gauge_s = [time_gauge(gauge, gauge_ops)]
    last_gauge = start = perf_counter()
    bounds = [0]
    capture = Tracer([SEARCH])
    capture.install()
    try:
        for r in itertools.count():
            ops = rounds[r] if r < len(rounds) else wl.make_round(seed, r, workdir)
            run_ops(wl, [ops], r, tally, expected, capture)
            capture.take()
            bounds.append(len(tally.latencies))
            if perf_counter() - last_gauge >= 2.0:
                gauge_s.append(time_gauge(gauge, gauge_ops))
                last_gauge = perf_counter()
            if tally.busy_s + tally.busy_s / (r + 1) / 2 >= seconds:
                break
            if perf_counter() - start > min(4 * seconds, 120):
                print(f"# warning: wall-time limit reached after {tally.busy_s:.3f} s "
                      f"of {seconds} s busy", file=sys.stderr)
                break
    finally:
        capture.remove()
    gauge_s.append(time_gauge(gauge, gauge_ops))
    speed = GAUGE_NOMINAL_S[wl.name] / statistics.median(gauge_s)
    rates = [tally.round_certified[r] / sum(tally.latencies[bounds[r]:bounds[r + 1]])
             for r in range(len(bounds) - 1)]
    raw = {
        "certified_per_s": statistics.median(rates),
        "op_p50_ms": 1000 * statistics.median(tally.latencies),
    }
    print(f"# {tally.attempted} operations in {len(rates)} rounds, {tally.busy_s:.3f} s busy; "
          f"{tally.certified} certified, {tally.failed} failed; unscaled p90 "
          f"{1000 * statistics.quantiles(tally.latencies, n=10)[-1]:.6g} ms")
    print(f"# gauge: median {statistics.median(gauge_s):.4f} s over {len(gauge_s)} "
          f"passes, speed {speed:.4f}; unscaled "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    metrics = {
        "certified_per_s": raw["certified_per_s"] / speed,
        "op_p50_ms": raw["op_p50_ms"] * speed,
        "certified_share": tally.certified / tally.attempted,
    }
    return tally, metrics


def traced_run(wl, rounds, expected, spans_path: str) -> tuple[Tally, dict]:
    """Four passes over the same inputs: a first untraced pass, which the
    overhead leaves out because the first pass runs slower than later
    ones, then two traced passes with an untraced one between them, so
    that a drift in machine speed falls on both sides of
    ``trace.overhead_share`` alike.

    Answers and the deterministic counts must repeat exactly across the
    passes; times are the mean of the two traced passes.
    """
    from tracing import DETERMINISTIC, Tracer, layer_metrics, layer_shares, write_spans
    from workloads import need

    tracer = Tracer()

    def traced_pass():
        tally = Tally()
        tracer.install()
        try:
            run_ops(wl, rounds, 0, tally, expected, tracer)
        finally:
            tracer.remove()
        return tally, tracer.take()

    total = Tally()
    first = Tally()
    run_ops(wl, rounds, 0, first, expected)
    passes = [traced_pass()]
    plain = Tally()
    run_ops(wl, rounds, 0, plain, expected)
    passes.append(traced_pass())
    write_spans(passes[-1][1], spans_path)
    for t in [first, plain] + [p[0] for p in passes]:
        total.attempted += t.attempted
        total.certified += t.certified
        total.failed += t.failed
    per_pass = [layer_metrics(spans) for _, spans in passes]
    try:
        for t in [first] + [p[0] for p in passes]:
            need(t.answers == plain.answers, "answers differ between traced and untraced passes")
        for name in DETERMINISTIC:
            need(per_pass[0][name] == per_pass[1][name], f"count {name} did not repeat")
    except AssertionError as err:
        total.failed += 1
        print(f"FAILED {wl.name}: {err}", file=sys.stderr)
    metrics = {
        name: (value if name in DETERMINISTIC
               else (value + per_pass[1][name]) / 2)
        for name, value in per_pass[0].items()
    }
    traced_s = statistics.mean(t.busy_s for t, _ in passes)
    metrics["trace.overhead_share"] = (traced_s - plain.busy_s) / plain.busy_s
    shares = layer_shares(passes[-1][1], passes[-1][0].busy_s)
    print(f"# untraced pass {plain.busy_s:.3f} s, traced pass {traced_s:.3f} s; layer shares: "
          + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    return total, metrics


def record(wl, rounds) -> None:
    """Store the answers of the default seed that carry no certificate."""
    tally = Tally()
    keyed = {}
    for r, ops in enumerate(rounds):
        for i, op in enumerate(ops):
            _, _, rec = wl.check(op, wl.run(op))
            if rec is not None:
                keyed[f"{r}:{i}"] = json.loads(json.dumps(rec))
            tally.attempted += 1
    data = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as fh:
            data = json.load(fh)
    data[wl.name] = keyed
    with open(EXPECTED, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {tally.attempted} answers of {wl.name} for seed {DEFAULT_SEED}")


def pin_to_one_cpu() -> None:
    """Keep this process on one core, so the scheduler does not move it."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["lp-certify", "barrier-search", "structure", "threshold-scan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tightcycles", "__init__.py")):
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, SRC)
    import workloads

    wl = workloads.WORKLOADS[args.workload](workloads.Library("tightcycles"))
    seed = DEFAULT_SEED if args.record else args.seed
    expected = None
    if seed == DEFAULT_SEED and wl.record and not args.record:
        with open(EXPECTED) as fh:
            expected = json.load(fh)[wl.name]
    workdir = os.path.join(HERE, ".work", f"{wl.name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.record:
            record(wl, setup(wl, seed, workdir, wl.trace_rounds))
            return 0
        if args.trace:
            rounds = setup(wl, seed, workdir, wl.trace_rounds)
            spans_path = os.path.join(HERE, ".work", f"spans-{wl.name}-{seed}.jsonl")
            tally, metrics = traced_run(wl, rounds, expected, spans_path)
            units = {name: layer_unit(name) for name in metrics}
        else:
            gauge = workloads.WORKLOADS[args.workload](workloads.Library("gauge_tightcycles"))
            gauge_ops = wl.gauge_ops(workdir)
            rounds, setup_s = timed_setup(wl, gauge, gauge_ops, seed, workdir)
            tally, metrics = timed_run(wl, gauge, gauge_ops, rounds,
                                       args.seconds, expected, seed, workdir)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name in sorted(metrics):
        print(f"{wl.name} {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
