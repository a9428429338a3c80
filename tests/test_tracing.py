"""The benchmark's per-layer tracer (bench/tracing.py) still reads every lieq name.

The tracer wraps lieq's public functions from outside the package and reads
some of them back by name.  A name that stops being a plain function (for
example one wrapped in functools.cache) gets no wrapper, and
`bench/run.py --trace 1` then fails with a KeyError.  The benchmark's own
self-tests live outside testpaths; this one runs with the suite.
"""

import importlib.util
from pathlib import Path

import lieq
import lieq.cli  # noqa: F401  (the tracer wraps every loaded lieq module)

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_tracer_reads_every_metric_name():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.reset()
        lieq.casimir_catalog("poincare")
        lieq.conceptual_limit_check()
        metrics = tracer.pass_metrics()
        tracer.inclusive("catalog.catalog")  # read by bench/run.py
    finally:
        tracer.uninstall()
    assert metrics["casimirs.entries_builds"] == 3  # poincare, then both groups once
    assert metrics["contraction.calls"] == 3
    assert metrics["contraction.validates_per_call"] == 1.0
