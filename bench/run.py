"""lieq benchmark: one seeded workload, closed loop, one client, one thread.

    python3 bench/run.py --workload straighten --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; lieq is imported from its `src/`.  The
workload's op list (one pass) is built from the seed, then passes are run
back to back until `--seconds` have elapsed, always finishing a pass.  Every
op's result is checked against a known answer.  Timings are medians: over
the ops of a pass of each op's mean latency (op_p50_s), of pass times
(ops_per_s) and of fresh-process set-ups (setup_s).  Every timing is
scaled to a fixed machine speed by the probe in speed.py, which runs between
ops; the wall times are printed on the human lines.

--trace 0 prints the end-to-end metrics; --trace 1 alternates passes with
every lieq layer wrapped (see tracing.py) and passes without, at least two
of each, and prints the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  See README.md in this directory.
"""

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("report", "straighten", "tables")
SETUP_SAMPLES = 25
# Ops are scaled to nominal speed in stretches of at least this much wall time.
SEGMENT_S = 0.3

# A fresh interpreter that does the set-up of every workload, then exits.
SETUP_CHILD = (
    "import sys; sys.path[:0] = [%r, %r]; import workloads; workloads.setup()"
    % (str(SRC), str(HERE))
)


def import_lieq():
    """Import lieq from this checkout's src/, never from anywhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import lieq
    except ImportError as e:
        sys.exit("error: cannot import lieq from %s: %s" % (SRC, e))
    if Path(lieq.__file__).resolve().parent != SRC / "lieq":
        sys.exit("error: lieq was imported from %s, not from %s" % (lieq.__file__, SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def measure_setup():
    """Median time of fresh processes from start to end of set-up, at
    nominal speed and as wall time."""
    probe = speed.Speed()
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES):
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CHILD], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - t0)
        scaled.extend(probe.scale(wall[-1:]))
    return statistics.median(scaled), statistics.median(wall)


class Loop:
    """Closed loop over whole passes of one op list.

    `wall` holds each op's wall time.  `latencies` holds the same ops at
    nominal speed: after every stretch of at least SEGMENT_S, and at the end
    of every pass, the probe runs and the stretch is scaled.
    """

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.speed = speed.Speed()
        self.wall = []
        self.pending = []  # wall times not yet scaled
        self.latencies = []
        self.failed = 0
        self.errors = []
        self.passes = []  # per-layer metrics of each traced pass
        self.pass_seconds = []

    def run_op(self, kind, run):
        tracer = self.tracer
        token = tracer.begin_op(len(self.wall), kind) if tracer else None
        t0 = time.perf_counter()
        try:
            ok = run()
        except Exception as e:  # an op that raises is a failed op, not a crash
            ok = False
            self.errors.append("%s: %s: %s" % (kind, type(e).__name__, e))
        wall = time.perf_counter() - t0
        if tracer:
            tracer.end_op(token)
        self.wall.append(wall)
        self.pending.append(wall)
        if not ok:
            self.failed += 1

    def scale_pending(self):
        self.latencies.extend(self.speed.scale(self.pending))
        self.pending = []

    def run_pass(self):
        if self.tracer:
            self.tracer.reset()
        first = len(self.latencies)
        for kind, _, run in self.ops:
            self.run_op(kind, run)
            if sum(self.pending) >= SEGMENT_S:
                self.scale_pending()
        self.scale_pending()
        self.pass_seconds.append(sum(self.latencies[first:]))
        if self.tracer:
            self.passes.append(self.tracer.pass_metrics())

    def run(self, seconds):
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not self.pass_seconds:
            self.run_pass()
        return self

    @property
    def attempted(self):
        return len(self.wall)

    @property
    def op_p50_s(self):
        """Median over the ops of one pass of each op's mean latency across
        passes, at nominal speed.  The mean over passes evens out the
        machine's short bursts of speed; the median picks the middle op."""
        n = len(self.ops)
        return statistics.median(statistics.fmean(self.latencies[i::n]) for i in range(n))

    @property
    def ops_per_s(self):
        """Ops of one pass over the median time of a pass, at nominal speed."""
        return len(self.ops) / statistics.median(self.pass_seconds)


def warm_up(name, ops):
    """The report workload calls the report once before timing starts."""
    loop = Loop(ops)
    if name == "report":
        loop.run_op(ops[0][0], ops[0][2])
    return loop


def end_to_end(workloads, name, seed, seconds, fault, echo):
    setup_s, setup_wall_s = measure_setup()
    workloads.setup()
    ops = workloads.MAKE_PASS[name](random.Random(seed), fault)
    warm = warm_up(name, ops)
    loop = Loop(ops).run(seconds)
    lat = loop.latencies
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (loop.op_p50_s, "s"),
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    shown = dict(metrics)
    if len(lat) >= 100:
        shown["op_p90_s"] = (statistics.quantiles(lat, n=10)[8], "s")
    shown["fail_ratio"] = (loop.failed / loop.attempted, "ratio")
    for key, (value, unit) in shown.items():
        echo("  %-14s %12.6g %s" % (key, value, unit))
    probes = loop.speed.probes
    echo("  wall times: setup_s %.6g s, op_p50_s %.6g s; probe median %.6g s"
         " (nominal %g s), %d probes" % (
             setup_wall_s, statistics.median(loop.wall), statistics.median(probes),
             speed.NOMINAL_S, len(probes)))
    echo("  %d ops in %d passes over %.2f s of wall time" % (
        loop.attempted, len(loop.pass_seconds), sum(loop.wall)))
    out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return [warm, loop], out, True


def per_layer(workloads, name, seed, seconds, fault, echo):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.setup()
        build_s = tracer.inclusive("catalog.catalog")
        ops = workloads.MAKE_PASS[name](random.Random(seed), fault)
        warm = warm_up(name, ops)
    finally:
        tracer.uninstall()
    # Traced and untraced passes alternate, so a drift in the machine's speed
    # hits both sides of trace.overhead_ratio alike.
    traced, plain = Loop(ops, tracer), Loop(ops)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced.passes) < 2:
        tracer.install()
        try:
            traced.run_pass()
        finally:
            tracer.uninstall()
        plain.run_pass()

    first = traced.passes[0]
    counts_repeat = all(
        p[k] == v for p in traced.passes for k, v in first.items() if not k.endswith("_s"))
    metrics = dict(first)
    for key in first:
        if key.endswith("_s"):
            metrics[key] = statistics.median(p[key] for p in traced.passes)
    metrics["catalog.build_s"] = build_s
    metrics["trace.overhead_ratio"] = traced.ops_per_s / plain.ops_per_s

    for key, unit in tracing.PER_LAYER:
        echo("  %-32s %14.6g %s" % (key, metrics[key], unit))
    echo("  traced: %d passes, %.4g ops/s; untraced: %d passes, %.4g ops/s" % (
        len(traced.pass_seconds), traced.ops_per_s, len(plain.pass_seconds), plain.ops_per_s))
    echo("  counts repeat in every traced pass: %s" % counts_repeat)
    echo("  wrappers rebound where imported: %s" % ", ".join(tracer.rebinds))
    path = OUT / ("trace-%s-seed%d.jsonl.gz" % (name, seed))
    tracer.write_spans(path, {"workload": name, "seed": seed,
                              "inputs": [inp for _, inp, _ in ops]})
    echo("  %d spans written to %s (%d more not kept)" % (
        len(tracer.spans), path.relative_to(ROOT), tracer.dropped_spans))
    out = {k: {"value": metrics[k], "unit": unit} for k, unit in tracing.PER_LAYER}
    return [warm, traced, plain], out, counts_repeat


def benchmark(name, seed, seconds, trace, fault=False, echo=print):
    """Run one workload; returns the result object printed as the last line."""
    workloads = import_lieq()
    echo("workload %s, seed %d, %g s, trace %d" % (name, seed, seconds, trace))
    measure = per_layer if trace else end_to_end
    loops, metrics, correct = measure(workloads, name, seed, seconds, fault, echo)
    failed = sum(loop.failed for loop in loops)
    for error in sorted(set(e for loop in loops for e in loop.errors))[:5]:
        echo("  error in %s" % error)
    return {
        "correct": correct and failed == 0,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
