"""Write BENCH_<pr>.json: every workload's end-to-end metrics, the Tier-1 wall
time and the layer micro-ops, each as a median with its quartiles.

    python3 tools/bench_pr.py --pr <number>

Run from anywhere; the checkout is the parent of this directory.  Each
workload of bench/run.py runs RUNS times as a subprocess, SECONDS each
(seed SEED, --trace 0), with PYTHONDONTWRITEBYTECODE=1 so that no run
leaves a __pycache__ that changes the next one's setup_s.  The Tier-1
suite runs once.  The micro-ops run in this process on lieq from src/,
each of its REPEATS timed over enough calls to last MIN_REPEAT_S and
scaled to nominal machine speed by the probe in bench/speed.py, as
bench/run.py scales its ops.  These settings are constants, not options,
so that the files of different checkouts compare.

One file describes one checkout.  A claimed gain still needs alternated
pairs of bench/run.py runs against the parent; the spreads here say how
wide a gap such a claim must beat.  Stdlib only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
WORKLOADS = ("report", "straighten", "tables")
RUNS = 5
SECONDS = 10.0
SEED = 1
REPEATS = 7
MIN_REPEAT_S = 0.05


def spread(values):
    """Median and quartiles of values (a single value is its own quartiles)."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values}


def summarize_runs(outputs):
    """The summary of one workload's bench/run.py outputs, one stdout text per run.

    The last line of each is run.py's JSON result.  Each metric gets its
    unit and spread; the workload is correct only if every run was.
    """
    results = [json.loads(out.strip().splitlines()[-1]) for out in outputs]
    units, values = {}, {}
    for result in results:
        for key, metric in result["metrics"].items():
            units[key] = metric["unit"]
            values.setdefault(key, []).append(metric["value"])
    return {
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {key: dict(unit=units[key], **spread(vals)) for key, vals in values.items()},
    }


def run_workloads():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = {}
    for name in WORKLOADS:
        outputs = []
        for k in range(RUNS):
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name, "--seed", str(SEED),
                 "--seconds", str(SECONDS), "--trace", "0"],
                cwd=ROOT, env=env, capture_output=True, text=True, check=True)
            outputs.append(done.stdout)
            print("%s run %d of %d done" % (name, k + 1, RUNS), file=sys.stderr)
        out[name] = dict(seed=SEED, seconds=SECONDS, **summarize_runs(outputs))
    return out


def time_tier1():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"seconds": seconds, "returncode": done.returncode,
            "summary": lines[-1] if lines else ""}


def micro_ops():
    """(name, callable) of each layer micro-op, on lieq from src/ (put on sys.path first)."""
    import lieq
    from lieq.contraction import STD_PE_MAP

    S = lieq.Scalar
    const_a, const_b = S.rational(3, 7), S.gaussian(2, 5)
    sym_a = S.symbol("c", 2) + S.symbol("eps", -1) * S.symbol("m") + S.i()
    sym_b = S.symbol("c") * S.symbol("w") + S.rational(1, 3)
    four = sym_a + S.symbol("m0", 3)
    three = sym_b + S.symbol("t")
    poincare = lieq.catalog("poincare")
    x = lieq.UEAElement.gen(poincare, "KPx") + lieq.UEAElement.gen(poincare, "Px")
    x11 = x ** 11
    c4p = lieq.casimir_entries("poincare")["C4P"]
    full = lieq.catalog("full_relativistic")
    hbar = lieq.catalog("poincare_trivial_ext_hbar")
    c4pe = lieq.casimir_entries("poincare_trivial_ext_hbar")["C4PE"]
    return [
        ("Scalar add, constant", lambda: const_a + const_b),
        ("Scalar add, symbolic", lambda: sym_a + sym_b),
        ("Scalar mul, constant", lambda: const_a * const_b),
        ("Scalar mul, symbolic (4 x 3 terms)", lambda: four * three),
        ("x**7 * x, x = KPx+Px on poincare", lambda: x ** 7 * x),
        ("x11 * x, x11 = x**11 held", lambda: x11 * x),
        ("is_casimir(C4P)", lambda: lieq.is_casimir(c4p)),
        ("ordering_study('poincare')", lambda: lieq.ordering_study("poincare")),
        ("validate() of full_relativistic", full.validate),
        ("contract(poincare_trivial_ext_hbar, STD_PE_MAP), built fresh",
         lambda: lieq.contract(hbar, STD_PE_MAP)),
        ("contract_casimir(C4PE, STD_PE_MAP)", lambda: lieq.contract_casimir(c4pe, STD_PE_MAP)),
        ("report_paper()", lieq.report_paper),
    ]


def time_micro_ops():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import speed

    probe = speed.Speed()
    out = {}
    for name, op in micro_ops():
        calls = 1
        while True:  # the calls per repeat that last MIN_REPEAT_S
            start = time.perf_counter()
            for _ in range(calls):
                op()
            wall = time.perf_counter() - start
            if wall >= MIN_REPEAT_S:
                break
            calls *= 2
        probe.scale([wall])  # the calibration is not a repeat
        per_call = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(calls):
                op()
            per_call.append(probe.scale([time.perf_counter() - start])[0] / calls)
        out[name] = dict(unit="s", calls_per_repeat=calls, **spread(per_call))
    return out, {"nominal_s": speed.NOMINAL_S, "median_s": statistics.median(probe.probes)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args(argv)
    workloads = run_workloads()
    tier1 = time_tier1()
    layers, probe = time_micro_ops()
    doc = {
        "pr": args.pr,
        "python": platform.python_version(),
        "machine": "%s, %d cores" % (platform.machine(), os.cpu_count() or 0),
        "probe": probe,
        "workloads": workloads,
        "tier1": tier1,
        "layers": layers,
    }
    path = ROOT / ("BENCH_%d.json" % args.pr)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print("wrote %s" % path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
