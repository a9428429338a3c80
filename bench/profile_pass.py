"""One cProfile pass of a workload: top lieq functions and self time per layer.

    python3 bench/profile_pass.py --workload straighten

cProfile adds a cost to every Python call, so the shares are a map of where
to look, not a measurement; measure with run.py.
"""

import argparse
import cProfile
import pstats
import random
from collections import defaultdict
from pathlib import Path

import run

SEED = 1
TOP = 15


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    args = parser.parse_args(argv)

    workloads = run.import_lieq()
    workloads.setup()
    ops = workloads.MAKE_PASS[args.workload](random.Random(SEED))
    if args.workload == "report":
        ops[0][2]()  # the same warm-up as run.py
    profile = cProfile.Profile()
    profile.enable()
    for _, _, op in ops:
        op()
    profile.disable()

    stats = pstats.Stats(profile)
    total = stats.total_tt
    print("workload %s, seed %d: one pass of %d ops, %.2f s under cProfile"
          % (args.workload, SEED, len(ops), total))

    rows = []
    for (path, line, func), (_, calls, tottime, cumtime, _) in stats.stats.items():
        if Path(path).parent.name == "lieq":
            rows.append((cumtime, tottime, calls, "%s:%s" % (Path(path).stem, func)))
    rows.sort(reverse=True)
    print("top %d lieq functions by cumulative time:" % TOP)
    print("  %9s %9s %10s  function" % ("cum s", "self s", "calls"))
    for cumtime, tottime, calls, name in rows[:TOP]:
        print("  %9.3f %9.3f %10d  %s" % (cumtime, tottime, calls, name))

    layers = defaultdict(float)
    for (path, _, func), (_, _, tottime, _, _) in stats.stats.items():
        p = Path(path)
        if p.parent.name == "lieq":
            layers[p.stem] += tottime
        elif "fractions" in p.name:
            layers["fractions (stdlib)"] += tottime
        else:
            layers["other"] += tottime
    print("self time by layer:")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print("  %-20s %7.3f s %5.1f%%" % (layer, seconds, 100 * seconds / total))


if __name__ == "__main__":
    main()
