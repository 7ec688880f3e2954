"""Benchmark for alcove-cells: the atlas, certificate and verify workloads.

    python3 bench/run.py --workload atlas --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all                # every workload, one report

Run from the repository root.  Each pass runs in a fresh interpreter
(bench/worker.py), so the package's unbounded lru_caches start cold, as they
do for every CLI invocation.  Passes repeat while another one fits in
--seconds (at least MIN_PASSES).  With --trace 0 the end-to-end metrics are printed; with
--trace 1 each pass is run once untraced and once traced, and the per-layer
metrics of bench/tracer.py are printed instead.  The end-to-end times are
scaled to reference host speed (bench/hostspeed.py), with the unscaled ones
alongside.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
from tracer import CACHES, TARGETS  # noqa: E402
from workloads import SIZES, items_per_pass  # noqa: E402

WORKLOADS = ("atlas", "certificate", "verify")
MIN_PASSES = 3
PROBES_PER_ROUND = 4
TAIL_BEYOND = 10
# A run must end within 180 s: no round starts that would end past
# DEADLINE_S, and a worker still running at KILL_AFTER_S is killed.
DEADLINE_S = 160.0
KILL_AFTER_S = 172.0

# Callables whose zero call count in a traced pass means the wrapping or the
# workload is broken: each one is inherent to what the workload asks for.
MUST_CALL = {
    "atlas": ("support.weight_cell_of", "cells.s_partition", "cells.gamma"),
    "certificate": (
        "cli.main",
        "support.upper_bound_certificate",
        "support.construct_mu",
        "support.facette_lattice_point",
        "alcove.alcove_of",
        "alcove.facette_of",
    ),
    "verify": (
        "cli.main",
        "sweeps.lclosure_sweep",
        "sweeps.weak_order_sweep",
        "sweeps.facettes_meeting_box",
        "sweeps.dominant_alcoves",
        "alcove.lower_closure_contains_via_stabilizer",
        "alcove.weak_leq_oracle",
        "alcove.up_reachable",
    ),
}

# ROADMAP item 1 primitive rows: short name -> traced callable.
PRIMITIVES = {
    "pairing": "rootsys.ShiftedPoint.pairing",
    "ShiftedPoint": "rootsys.ShiftedPoint.__init__",
    "alcove_of": "alcove.alcove_of",
    "facette_of": "alcove.facette_of",
    "gamma": "cells.gamma",
    "s_partition": "cells.s_partition",
}

E2E_UNITS = {
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
ITEM = {"atlas": "points", "certificate": "certificates", "verify": "sweep cases"}


class SetupFailed(RuntimeError):
    """The benchmark cannot run here at all (e.g. no alcove_cells source)."""


# -- passes -------------------------------------------------------------------


class Runner:
    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.deadline = 0.0

    def spawn(self, workload: str, pass_index: int, mode: str):
        """Run one worker to completion; returns its JSON doc or an error string.

        A worker still running at the run's deadline is killed and reaped.
        """
        cmd = [
            sys.executable,
            str(BENCH / "worker.py"),
            "--workload", workload,
            "--seed", str(self.seed),
            "--pass-index", str(pass_index),
            "--mode", mode,
        ]
        spawned_at = time.monotonic()
        budget_s = max(self.deadline - spawned_at, 1.0)
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(spawned_at)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=budget_s,
            )
        except subprocess.TimeoutExpired:
            return f"{mode} pass {pass_index} killed at the deadline after {budget_s:.0f} s"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return f"{mode} pass {pass_index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        try:
            return json.loads(lines[-1])
        except ValueError:
            return f"{mode} pass {pass_index} printed no result: {lines[-1][:200]}"

    def setup_probe(self, workload: str) -> float:
        """One set-up-only spawn: interpreter, imports and inputs, no items."""
        doc = self.spawn(workload, 0, "setup")
        if isinstance(doc, str):
            raise SetupFailed(doc)
        return doc["setup_s"]

    def passes(self, workload: str, modes: tuple[str, ...], min_rounds: int):
        """Repeat the given modes per pass index while another round fits in the run time.

        Set-up probes run between the rounds, so that their median covers the
        whole run; the first probe also compiles bytecode and is dropped.
        """
        started = time.monotonic()
        self.deadline = started + KILL_AFTER_S
        self.setup_probe(workload)
        probes, rounds = [], []
        while True:
            t0 = time.monotonic()
            probes += [self.setup_probe(workload) for _ in range(PROBES_PER_ROUND)]
            rounds.append({m: self.spawn(workload, len(rounds), m) for m in modes})
            now = time.monotonic()
            elapsed = now - started
            if len(rounds) >= min_rounds and elapsed + (now - t0) > self.seconds:
                break
            if elapsed + (now - t0) > DEADLINE_S:
                break
        return probes, rounds


# -- metrics ------------------------------------------------------------------


def tail_of(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    With fewer than TAIL_BEYOND + 1 samples no such percentile exists and
    the maximum is reported, labelled as such.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} (fewer than {TAIL_BEYOND + 1} samples)"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return ordered[n - TAIL_BEYOND - 1], f"p{pct:.3f} of {n} ({TAIL_BEYOND} beyond)"


def tally(workload: str, docs: list) -> tuple[int, int, list[str]]:
    per_pass = items_per_pass(workload)
    attempted = failed = 0
    notes = []
    for doc in docs:
        if isinstance(doc, str):
            attempted += per_pass
            failed += per_pass
            notes.append(doc)
        else:
            attempted += doc["attempted"]
            failed += doc["failed"]
            notes.extend(doc["failures"])
    return attempted, failed, notes


def end_to_end(workload: str, probes: list[float], docs: list) -> tuple[dict, dict, dict]:
    """End-to-end metrics from each item's median time over the passes.

    The item times are the ones scaled to reference host speed by the
    worker (see hostspeed); the same metrics from the unscaled times are
    returned as `raw`.  A set-up lasts about 0.1 s and has no reference
    samples of its own, so the median set-up time is scaled by all the
    samples of the run's passes, which span the same minute as the spawns.
    """
    ok = [d for d in docs if not isinstance(d, str)]
    if not ok:
        return {}, {}, {}
    setups = probes + [d["setup_s"] for d in ok]
    setup_scale = hostspeed.scale([ms for d in ok for ms in d["ref_ms"]])
    item = ITEM[workload][:-1] if workload != "verify" else "suite run"

    def summary(key: str, setup_scale: float) -> tuple[dict, str, int]:
        per_item = [statistics.median(times) for times in zip(*(d[key] for d in ok))]
        tail, tail_label = tail_of(per_item)
        values = {
            "items_per_s": ok[0]["work"] / sum(per_item),
            "item_p50_ms": statistics.median(per_item) * 1e3,
            "item_tail_ms": tail * 1e3,
            "setup_s": statistics.median(setups) * setup_scale,
            "peak_rss_mb": statistics.median(d["peak_rss_kb"] for d in ok) / 1024,
        }
        return values, tail_label, len(per_item)

    values, tail_label, count = summary("scaled_latencies_s", setup_scale)
    raw, _, _ = summary("latencies_s", 1.0)
    over = f"median of {len(ok)} passes per {item}, at reference host speed"
    notes = {
        "items_per_s": f"{ITEM[workload]}/s, {over}",
        "item_p50_ms": f"p50 of {count}, {over}",
        "item_tail_ms": f"{tail_label}, {over}",
        "setup_s": f"spawn to first timed item, median of {len(setups)} spawns, "
                   "at reference host speed",
        "peak_rss_mb": f"max RSS of the pass process, median of {len(ok)} passes",
    }
    return values, notes, raw


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer, callables in TARGETS.items():
        for qual in callables:
            specs.append((f"{layer}.{qual}.calls", "count", "lower"))
            specs.append((f"{layer}.{qual}.self_s", "s", "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
    specs += [
        ("constraints.feasible.infeasible_ratio", "ratio", "lower"),
        ("cells.enumerate_good_bases.bases_per_call", "ratio", "lower"),
        ("cells.s_partition.partitions", "count", "lower"),
        ("cells.s_partition.distinct_ratio", "ratio", "higher"),
        ("sweeps.facettes_meeting_box.feasible_calls", "count", "lower"),
        ("sweeps.facettes_meeting_box.yield_ratio", "ratio", "higher"),
    ]
    for _, attr in CACHES:
        if attr != "positive_roots":
            specs.append((f"alcove.{attr}.lookups", "count", "lower"))
            specs.append((f"alcove.{attr}.hit_ratio", "ratio", "higher"))
        specs.append((f"cache.{attr}.entries", "count", "lower"))
    for short in PRIMITIVES:
        specs.append((f"primitive.{short}.self_us", "us", "lower"))
        specs.append((f"primitive.{short}.incl_us", "us", "lower"))
    specs += [
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return specs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rounds: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics per pass, averaged over the traced passes."""
    pairs = [
        (r["time"], r["trace"]) for r in rounds
        if not isinstance(r["time"], str) and not isinstance(r["trace"], str)
    ]
    if not pairs:
        return {}, []
    n = len(pairs)
    calls, self_ns, incl_ns, counters, caches = {}, {}, {}, {}, {}
    missing: set[str] = set()
    spans = 0
    for _, doc in pairs:
        tr = doc["trace"]
        for name, c in tr["callables"].items():
            calls[name] = calls.get(name, 0) + c["calls"]
            self_ns[name] = self_ns.get(name, 0) + c["self_ns"]
            incl_ns[name] = incl_ns.get(name, 0) + c["incl_ns"]
        for key, v in tr["counters"].items():
            counters[key] = counters.get(key, 0) + v
        for attr, info in tr["caches"].items():
            slot = caches.setdefault(attr, {"hits": 0, "misses": 0, "entries": 0})
            for key in slot:
                slot[key] += info[key]
        missing.update(tr["missing"])
        spans += tr["spans"]
    m: dict[str, float] = {}
    for layer, callables in TARGETS.items():
        layer_ns = 0
        for qual in callables:
            name = f"{layer}.{qual}"
            m[f"{name}.calls"] = calls.get(name, 0) / n
            m[f"{name}.self_s"] = self_ns.get(name, 0) / n / 1e9
            layer_ns += self_ns.get(name, 0)
        m[f"{layer}.self_s"] = layer_ns / n / 1e9
    feasible = calls.get("constraints.DifferenceSystem.feasible", 0)
    m["constraints.feasible.infeasible_ratio"] = _ratio(counters["feasible_infeasible"], feasible)
    m["cells.enumerate_good_bases.bases_per_call"] = _ratio(
        counters["good_bases"], calls.get("cells.enumerate_good_bases", 0)
    )
    m["cells.s_partition.partitions"] = counters["s_partition_partitions"] / n
    m["cells.s_partition.distinct_ratio"] = _ratio(
        counters["s_partition_distinct"], counters["s_partition_partitions"]
    )
    m["sweeps.facettes_meeting_box.feasible_calls"] = counters["feasible_in_box_search"] / n
    m["sweeps.facettes_meeting_box.yield_ratio"] = _ratio(
        counters["box_facettes"], counters["feasible_in_box_search"]
    )
    for _, attr in CACHES:
        info = caches.get(attr, {"hits": 0, "misses": 0, "entries": 0})
        if attr != "positive_roots":
            lookups = info["hits"] + info["misses"]
            m[f"alcove.{attr}.lookups"] = lookups / n
            m[f"alcove.{attr}.hit_ratio"] = _ratio(info["hits"], lookups)
        m[f"cache.{attr}.entries"] = info["entries"] / n
    for short, name in PRIMITIVES.items():
        m[f"primitive.{short}.self_us"] = _ratio(self_ns.get(name, 0), calls.get(name, 0)) / 1e3
        m[f"primitive.{short}.incl_us"] = _ratio(incl_ns.get(name, 0), calls.get(name, 0)) / 1e3
    untraced = [t["wall_s"] for t, _ in pairs]
    traced = [d["wall_s"] for _, d in pairs]
    m["trace.untraced_wall_s"] = statistics.median(untraced)
    m["trace.traced_wall_s"] = statistics.median(traced)
    m["trace.overhead_ratio"] = statistics.median(d / t - 1 for t, d in zip(untraced, traced))
    m["trace.spans"] = spans / n
    return m, sorted(missing)


# -- reporting ----------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def metadata(args, workloads: list[str]) -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": {w: SIZES[w] for w in workloads},
        "loadavg_start": _read("/proc/loadavg").split()[:3],
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(runner: Runner, workload: str, trace: bool) -> dict:
    modes = ("time", "trace") if trace else ("time",)
    probes, rounds = runner.passes(workload, modes, 1 if trace else MIN_PASSES)
    docs = [r[m] for r in rounds for m in modes]
    attempted, failed, notes = tally(workload, docs)
    result = {"workload": workload, "attempted": attempted, "failed": failed, "notes": notes}
    passes = [
        {"mode": m, "pass": k, **({"error": d} if isinstance(d, str) else
         {key: d[key] for key in ("setup_s", "wall_s", "cpu_s", "attempted", "failed")})}
        for k, r in enumerate(rounds) for m, d in r.items()
    ]
    result["passes"] = passes
    result["setup_probes_s"] = probes
    result["host_ref_ms"] = [d["ref_ms"] for d in docs if not isinstance(d, str)]
    if trace:
        metrics, missing = per_layer(rounds)
        zero = [name for name in MUST_CALL[workload] if not metrics.get(f"{name}.calls")]
        if zero:
            result["notes"].append(f"traced callables with zero calls: {zero}")
        result["missing_callables"] = missing
        result["metrics"] = {
            name: {"value": metrics[name], "unit": unit}
            for name, unit, _ in layer_metric_specs() if name in metrics
        }
        result["correct"] = failed == 0 and not zero and bool(metrics)
        for name, spec in result["metrics"].items():
            print(f"{workload:<12} {name:<58} {fmt(spec['value']):>12} {spec['unit']}")
    else:
        values, why, raw = end_to_end(workload, probes, [r["time"] for r in rounds])
        result["raw_metrics"] = raw
        result["metrics"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit in E2E_UNITS.items() if name in values
        }
        result["correct"] = failed == 0 and bool(values)
        for name, unit in E2E_UNITS.items():
            if name in values:
                unscaled = f" (unscaled {fmt(raw[name])})" if raw[name] != values[name] else ""
                print(f"{workload:<12} {name:<14} {fmt(values[name]):>12} {unit:<8} {why[name]}"
                      f"{unscaled}")
    ratio = failed / attempted if attempted else 1.0
    print(f"{workload:<12} {'fail_ratio':<14} {fmt(ratio):>12} {'ratio':<8} "
          f"{failed} failed of {attempted} attempted")
    for note in notes[:5]:
        print(f"{workload:<12} failure: {note}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "alcove_cells" / "__init__.py").is_file():
        print(f"bench: no alcove_cells source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    meta = metadata(args, workloads)
    runner = Runner(args.seed, args.seconds)
    try:
        results = [run_workload(runner, w, bool(args.trace)) for w in workloads]
    except SetupFailed as exc:
        print(f"bench: cannot start a pass: {exc}", file=sys.stderr)
        return 2
    meta["loadavg_end"] = _read("/proc/loadavg").split()[:3]
    meta["runs"] = [
        {k: r[k] for k in ("workload", "passes", "setup_probes_s", "host_ref_ms", "notes")}
        | {k: r[k] for k in ("raw_metrics", "missing_callables") if k in r}
        for r in results
    ]
    print(json.dumps({"metadata": meta}))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
