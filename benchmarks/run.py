"""Benchmark of diskclass: campaign throughput and query latency.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload coeff_campaign --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and then traced, and reports the per-layer metrics.
Every output is checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The package
is imported from ``src/`` next to this directory and nowhere else; without
it the run exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import gzip
import importlib
import json
import platform
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"

# Set-up (fresh import of the package, input generation, warm-up) is
# repeated this many times and its median reported.
SETUP_REPS = 11
# The latency tail is the highest percentile with at least this many
# samples beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "setup_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit
PER_LAYER = {
    "series.reciprocal.calls": "count",
    "series.reciprocal.self_ms": "ms",
    "catalog.build_member.calls": "count",
    "catalog.build_member.self_ms": "ms",
    "catalog.count_zeros_on_disk.calls": "count",
    "catalog.count_zeros_on_disk.self_ms": "ms",
    "catalog.certify_accept_ratio": "ratio",
    "catalog.rejected.DenominatorVanishes": "count",
    "catalog.rejected.ParamOutOfRange": "count",
    "catalog.rejected.other": "count",
    "catalog.make_catalog.self_ms": "ms",
    "hankel.hankel_det.calls": "count",
    "hankel.hankel_det.self_ms": "ms",
    "operators.decompose.self_ms": "ms",
    "operators.functional.calls": "count",
    "operators.functional.points": "count",
    "operators.functional.self_ms": "ms",
    "operators.u_operator.self_ms": "ms",
    "operators.g_transform.self_ms": "ms",
    "membership.extremal_on_circle.calls": "count",
    "membership.extremal_on_circle.self_ms": "ms",
    "membership.scan.coarse_ms": "ms",
    "membership.scan.refine_ms": "ms",
    "membership.test_class.calls": "count",
    "membership.test_class.self_ms": "ms",
    "membership.radius_of.calls": "count",
    "membership.radius_of.self_ms": "ms",
    "membership.radius_of.scans_per_call": "scans/call",
    "explorer.run_campaign.self_ms": "ms",
    "explorer.accept_ratio": "ratio",
    "explorer.thread_speedup": "ratio",
    "explorer.replay.ms_per_cert": "ms",
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "serialize.canonical_json.self_ms": "ms",
    "serialize.canonical_json.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

# metric prefix -> span name, where the two differ
SPAN_NAMES = {
    "series.reciprocal": "series.ComplexSeries.reciprocal",
    "operators.functional": "operators.PointFunctional.__call__",
}


class Tally:
    """Operations attempted and the problems found in their outputs."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.problems.append((label, problems))

    def run(self, op, tracer=None):
        """Time op.run() and check its output; returns the seconds, or None
        if it raised.  A tracer records spans only while op.run() runs."""
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception:
            self.record(op.label, [traceback.format_exc(limit=3)])
            return None
        finally:
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        try:
            problems = op.check(out)
        except Exception:  # an output of the wrong shape
            problems = [traceback.format_exc(limit=3)]
        self.record(op.label, problems)
        return elapsed

    @property
    def failed(self):
        return len(self.problems)


def import_package():
    """Fresh import of diskclass (and its CLI) from this checkout's src/."""
    for name in [m for m in sys.modules if m == "diskclass" or m.startswith("diskclass.")]:
        del sys.modules[name]
    dc = importlib.import_module("diskclass")
    importlib.import_module("diskclass.cli")
    if not Path(dc.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"diskclass imported from {dc.__file__}, not {SRC}")
    return dc


def set_up(name, seed, meter):
    """Median scaled set-up time and the workload built by the last set-up."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        dc = import_package()
        workload = workloads.make(dc, name, seed)
        workload.warm_up()
        elapsed = perf_counter() - t0
        times.append(elapsed * meter.scale())
    return statistics.median(times), workload


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples."""
    xs = sorted(latencies)
    rank = len(xs) - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs)


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------
def measure(workload, seconds, tally, meter):
    """Run the operations round-robin for `seconds`, in batches of at least
    speed.BATCH_S with the speed kernel between them; returns the scaled
    times of each operation."""
    times = defaultdict(list)
    deadline = perf_counter() + seconds
    i = 0
    meter.scale()  # the first batch starts from a fresh kernel time
    while perf_counter() < deadline:
        batch = []
        start = perf_counter()
        while perf_counter() - start < speed.BATCH_S:
            index = i % len(workload.ops)
            batch.append((index, tally.run(workload.ops[index])))
            i += 1
        factor = meter.scale()
        for index, elapsed in batch:
            if elapsed is not None:
                times[index].append(elapsed * factor)
    return times


def end_to_end(workload, seconds, setup_s, tally, notes, meter):
    times = measure(workload, seconds, tally, meter)
    for label, problems in workload.final_checks():
        tally.record(label, problems)
    latencies = [t for ts in times.values() for t in ts]
    # Throughput of one cycle through the operations, each at its median.
    work = sum(workload.ops[i].weight for i in times)
    cycle = sum(statistics.median(ts) for ts in times.values())
    tail_s, pct = tail(latencies)
    notes.append(f"{len(latencies)} timed operations; tail = p{pct:.1f}")
    return {
        "throughput_per_s": work / cycle,
        "latency_ms_p50": 1e3 * statistics.median(latencies),
        "latency_ms_tail": 1e3 * tail_s,
        "setup_s": setup_s,
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------
def run_cycle(workload, tally, tracer=None):
    """Every operation once; returns the summed operation time in seconds."""
    times = (tally.run(op, tracer) for op in workload.ops)
    return sum(t for t in times if t is not None)


def _counts(by_name, extra):
    return ({name: row["calls"] for name, row in by_name.items()},
            by_name.get(SPAN_NAMES["operators.functional"], {}).get("size"),
            extra["radius_scans"], dict(extra["rejected"]))


def per_layer(workload, seconds, tally, notes, seed):
    # Untraced and traced cycles alternate, so a change in the host's load
    # touches both sides of the overhead ratio alike.
    tracer = tracing.Tracer()
    slices, untraced, traced, kept = [], [], [], None
    deadline = perf_counter() + seconds
    while not slices or perf_counter() < deadline:
        untraced.append(run_cycle(workload, tally))
        tracer.install()
        try:
            traced.append(run_cycle(workload, tally, tracer))
        finally:
            tracer.uninstall()
        spans = tracer.take()
        kept = kept or spans
        slices.append(tracing.layer_metrics(spans))
    for k, sl in enumerate(slices[1:], start=1):
        same = _counts(*sl) == _counts(*slices[0])
        tally.record(f"traced slice {k} counts",
                     [] if same else ["call counts differ from the first traced slice"])
    for label, problems in workload.final_checks():
        tally.record(label, problems)
    notes.append(f"{len(slices)} traced slice(s), {len(kept)} spans in the first")
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload.name}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        tracing.dump_spans(kept, fh)
    notes.append(f"spans of the first traced slice: {path.relative_to(ROOT)}")

    def span(metric):
        return SPAN_NAMES.get(metric, metric)

    def first(metric, field):
        return slices[0][0].get(span(metric), {}).get(field, 0)

    def median_of(fn):
        return statistics.median(fn(by_name, extra) for by_name, extra in slices)

    def self_ms(metric):
        return median_of(lambda b, e: b.get(span(metric), {}).get("self_ms", 0.0))

    extra0 = slices[0][1]
    builds = first("catalog.build_member", "calls")
    radii = first("membership.radius_of", "calls")
    out = {}
    for name in PER_LAYER:
        metric, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = first(metric, "calls")
        elif field == "self_ms":
            out[name] = self_ms(metric)
    out.update({
        "catalog.certify_accept_ratio": extra0["build_ok"] / builds if builds else 0.0,
        "operators.functional.points": first("operators.functional", "size"),
        "membership.scan.coarse_ms": median_of(lambda b, e: e["coarse_ms"]),
        "membership.scan.refine_ms": median_of(lambda b, e: e["refine_ms"]),
        "membership.radius_of.scans_per_call": extra0["radius_scans"] / radii if radii else 0.0,
        "explorer.accept_ratio": workload.accept_ratio(),
        "explorer.thread_speedup": workload.thread_speedup(),
        "explorer.replay.ms_per_cert": workload.replay_ms_per_cert(),
        "serialize.canonical_json.bytes": first("serialize.canonical_json", "size"),
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
    })
    for reason in tracing.REJECTIONS + ("other",):
        out[f"catalog.rejected.{reason}"] = extra0["rejected"].get(reason, 0)
    return out


# ---------------------------------------------------------------------------
def machine_facts():
    import numpy

    return (f"nproc={workloads.nproc()} python={platform.python_version()} "
            f"numpy={numpy.__version__}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    meter = speed.Meter()
    try:
        setup_s, workload = set_up(args.workload, args.seed, meter)
    except ImportError as exc:
        print(f"error: cannot import diskclass from {SRC}: {exc}", file=sys.stderr)
        return 2
    tally, notes = Tally(), [machine_facts()]
    if args.trace:
        metrics, units = per_layer(workload, args.seconds, tally, notes, args.seed), PER_LAYER
    else:
        metrics, units = (end_to_end(workload, args.seconds, setup_s, tally, notes, meter),
                          END_TO_END)
    notes.append(meter.note())
    tally.record("speed kernel ran alone", meter.problems())
    for label, problems in tally.problems[:20]:
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(f"# {note}")
    print(f"# failed_ratio = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
