"""One benchmark pass in a fresh interpreter; started by run.py, not by hand.

The pass imports alcove_cells, builds its seeded inputs, times every item,
then (outside the timed region) checks the outputs and prints one JSON line.
With ``--mode setup`` it stops right before the first item, which gives
run.py a set-up sample without the workload.  With ``--mode trace`` the
layers are wrapped by tracer.Tracer for the timed loop only.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPANS_DIR = ROOT / ".bench_out"
MAX_REPORTED_FAILURES = 5


def timed_loop(run, inputs, order, mark=None, sample=True):
    """Time every item, visiting them in `order`; results by input position.

    The host speed reference is sampled before the first item and after the
    last one, and with `sample` also every hostspeed.SAMPLE_EVERY_S by an
    interval timer, in the middle of an item too.  The samples' time is in
    no latency and is taken out of the wall and CPU time.  Each latency is
    also returned scaled by the samples from the last one before the item
    to the first one after it.
    """
    n = len(inputs)
    spans, outputs = [(0.0, 0.0)] * n, [None] * n
    samples: list[tuple[float, float, float]] = []  # (start, end, ms)
    perf = time.perf_counter

    def take(*_) -> None:
        t = perf()
        ms = hostspeed.reference_ms()
        samples.append((t, perf(), ms))

    take()
    cpu0, start = time.process_time(), perf()
    if sample:
        signal.signal(signal.SIGALRM, take)
        signal.setitimer(signal.ITIMER_REAL, hostspeed.SAMPLE_EVERY_S, hostspeed.SAMPLE_EVERY_S)
    try:
        for pos in order:
            if mark is not None:
                mark(pos)
            t = perf()
            try:
                out = run(inputs[pos])
            except Exception as exc:  # counted as a failed item, the pass goes on
                out = exc
            spans[pos] = (t, perf())
            outputs[pos] = out
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
    end, cpu_end = perf(), time.process_time()
    take()
    starts = [s for s, _, _ in samples]
    in_loop = sum(e - s for s, e, _ in samples[1:-1])
    latencies, scaled = [0.0] * n, [0.0] * n
    for pos, (t, done) in enumerate(spans):
        before = bisect.bisect_left(starts, t) - 1
        after = bisect.bisect_left(starts, done)
        inside = sum(e - s for s, e, _ in samples[before + 1:after])
        latencies[pos] = done - t - inside
        around = [ms for _, _, ms in samples[before:after + 1]]
        scaled[pos] = latencies[pos] * hostspeed.scale(around)
    ref_ms = [ms for _, _, ms in samples]
    return latencies, scaled, outputs, end - start - in_loop, cpu_end - cpu0 - in_loop, ref_ms


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--mode", choices=("time", "trace", "setup"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import alcove_cells.cli  # noqa: F401  (loads every layer, as the CLI does)

    import workloads

    inputs = workloads.make_inputs(args.workload)
    order = workloads.visit_order(len(inputs), args.seed, args.pass_index)
    run = workloads.item_runner(args.workload)
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install()
    first_item_at = time.monotonic()
    doc = {"setup_s": first_item_at - args.spawned_at}
    if args.mode == "setup":
        print(json.dumps(doc))
        return 0

    mark = (lambda pos: setattr(tracer, "item", pos)) if tracer else None
    latencies, scaled, outputs, wall, cpu, ref_ms = timed_loop(
        run, inputs, order, mark, sample=tracer is None
    )
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        doc["trace"] = tracer.raw()
        doc["trace"]["missing"] = missing
        SPANS_DIR.mkdir(exist_ok=True)
        path = SPANS_DIR / f"spans-{args.workload}-pass{args.pass_index}.csv.gz"
        tracer.write_spans(path)
        doc["trace"]["spans_file"] = str(path.relative_to(ROOT))
    failures = workloads.check(args.workload, inputs, outputs, args.seed, args.pass_index)
    doc.update(
        wall_s=wall,
        cpu_s=cpu,
        attempted=len(inputs),
        failed=min(len(failures), len(inputs)),
        failures=failures[:MAX_REPORTED_FAILURES],
        work=workloads.work_of(args.workload),
        latencies_s=latencies,
        scaled_latencies_s=scaled,
        ref_ms=ref_ms,
        peak_rss_kb=peak_rss_kb,
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
