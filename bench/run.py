"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload range-queries --seed 1 --seconds 25 --trace 0

The program is imported from `src/` next to this directory; nothing is
installed.  The run makes its inputs from the seed, sets up, and runs whole
rounds of the workload's operations in a closed loop, one at a time, until
`--seconds` have passed; every output is checked.  After each round it times
further set-ups (SETUP_SECONDS_PER_ROUND, at least one) in children forked
from a process that holds the inputs and nothing else, so each pays for
filling the program's caches; `setup_s` is the median of all set-ups, at
least MIN_SETUPS.
Each operation's latency is the median of its rounds, which keeps a moment
of interference from other work on the machine out of the tail.  `wall_s`
is the sum of these latencies (one round, checks excluded), `queries_per_s`
the operations per round over it, and the percentiles are taken over them.
The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (`--trace 0`) or the per-layer metrics of the
traced run (`--trace 1`).  A record of the run goes to `bench/runs/`.
Exit status: 0 when every operation passed, 1 when one failed, 2 when the
program cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RUNS = os.path.join(HERE, "runs")
MIN_SETUPS = 5
SETUP_SECONDS_PER_ROUND = 0.5
WORKLOAD_NAMES = ("range-queries", "lattice-analyses", "degree-proofs")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "queries_per_s": "1/s",
             "query_p50_ms": "ms", "query_p99_ms": "ms"}


class ColdSetups:
    """Times set-ups, each in a child forked from a process that has made the
    inputs and nothing else, so that every set-up starts cold whenever the
    run asks for one.  Fork, not spawn: the children need that in-memory
    state, and the process runs a single thread (see main), so forking is
    safe."""

    def __init__(self, workload, inputs):
        ask_r, self._ask = os.pipe()
        answer_r, answer_w = os.pipe()
        self._pid = os.fork()
        if self._pid == 0:
            os.close(self._ask)
            os.close(answer_r)
            try:
                while os.read(ask_r, 1) == b"s":
                    child = os.fork()
                    if child == 0:
                        _time_setup(workload, inputs, answer_w)
                    _, status = os.waitpid(child, 0)
                    if status:
                        os.write(answer_w, b"nan\n")
            finally:
                os._exit(0)
        os.close(ask_r)
        os.close(answer_w)
        self._answers = os.fdopen(answer_r)

    def time_one(self):
        os.write(self._ask, b"s")
        seconds = float(self._answers.readline())
        if seconds != seconds:
            raise RuntimeError("a set-up failed in its child process")
        return seconds

    def close(self):
        os.write(self._ask, b"q")
        os.close(self._ask)
        self._answers.close()
        os.waitpid(self._pid, 0)


def _time_setup(workload, inputs, answer_w):
    code = 1
    try:
        gc.collect()
        start = perf_counter()
        workload.setup(inputs)
        os.write(answer_w, b"%r\n" % (perf_counter() - start))
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(code)


def measure(workload, seed, seconds, tracer=None):
    inputs = workload.make_inputs(seed)
    cold = ColdSetups(workload, inputs)
    try:
        return _measure(workload, inputs, cold, seconds, tracer)
    finally:
        cold.close()


def _measure(workload, inputs, cold, seconds, tracer):
    from checks import CheckError

    gc.collect()
    start = perf_counter()
    state = workload.setup(inputs)
    setup_times = [perf_counter() - start]
    problems = []
    # checking the set-up's output counts as one operation
    attempted, failed = 1, 0
    if tracer:
        tracer.paused += 1
    try:
        workload.check_setup(inputs, state)
    except CheckError as exc:
        failed += 1
        problems.append("set-up: %s" % exc)
    if tracer:
        tracer.paused -= 1
        tracer.set_phase("round")

    samples = [[] for _ in state.ops]
    rounds = 0
    begin = perf_counter()
    while True:
        rounds += 1
        for op, times in zip(state.ops, samples):
            attempted += 1
            if tracer:
                tracer.request = attempted
            start = perf_counter()
            try:
                out = op.run()
            except Exception:
                failed += 1
                problems.append("%s raised:\n%s" % (op.label, traceback.format_exc()))
                continue
            times.append(perf_counter() - start)
            if tracer:
                tracer.paused += 1
            try:
                op.check(out)
            except CheckError as exc:
                failed += 1
                problems.append("%s: %s" % (op.label, exc))
            finally:
                if tracer:
                    tracer.paused -= 1
        # set-ups are timed between rounds, so that they sample the same
        # stretch of time as the operations
        spent = 0.0
        while spent < SETUP_SECONDS_PER_ROUND:
            setup_times.append(cold.time_one())
            spent += setup_times[-1]
        if perf_counter() - begin >= seconds:
            break
    while len(setup_times) < MIN_SETUPS:
        setup_times.append(cold.time_one())
    if tracer:
        tracer.set_phase("done")
    latencies = [statistics.median(times) for times in samples if times]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "queries_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "query_p50_ms": statistics.median(latencies) * 1e3 if latencies else 0.0,
        # linear interpolation between order statistics, as numpy's default
        "query_p99_ms": (statistics.quantiles(latencies, n=100, method="inclusive")[98] * 1e3
                         if len(latencies) > 1 else 0.0),
    }
    record = {"setup_times": setup_times, "rounds": rounds,
              "ops_per_round": len(state.ops), "samples": len(latencies),
              "problems": problems[:20]}
    return state, attempted, failed, metrics, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "arrwwid")):
        print("bench: the program's sources are missing (no %s)"
              % os.path.join(SRC, "arrwwid"), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # one thread per process, set before numpy loads: no idle BLAS threads
    # to disturb the timings or the forked set-ups
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        state, attempted, failed, metrics, record = measure(
            workload, args.seed, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    for problem in record["problems"]:
        print("bench: FAILED %s" % problem, file=sys.stderr)
    correct = failed == 0 and not record["problems"]
    e2e = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in metrics.items()}
    os.makedirs(RUNS, exist_ok=True)
    stem = os.path.join(RUNS, "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, end_to_end=e2e)
    if tracer:
        coords, sims = state.operands()
        micro = tracing.micro_timings(coords, sims, tracer.original_compose, args.seed)
        shown = tracing.layer_metrics(tracer, 1, record["rounds"], micro)
        record.update(per_layer=shown, spans_dropped=tracer.dropped)
        tracer.write_spans(stem + ".spans.jsonl")
    else:
        shown = e2e
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
