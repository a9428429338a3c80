"""The benchmark's per-layer tracer (bench/tracing.py) still reads every lieq name.

The tracer wraps lieq's public functions from outside the package and reads
some of them back by name.  A name that stops being a plain function (for
example one wrapped in functools.cache) gets no wrapper, and
`bench/run.py --trace 1` then fails with a KeyError.  The benchmark's own
self-tests live outside testpaths; this one runs with the suite.
"""

import importlib.util
import json
from pathlib import Path

import lieq
import lieq.cli  # noqa: F401  (the tracer wraps every loaded lieq module)
from lieq.catalog import shifted_energy_basis
from lieq.uea import UEAElement

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_tracing", _ROOT / "bench" / "tracing.py")
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
    # the source is a catalog() table, validated once when it was built
    assert metrics["contraction.validates_per_call"] == 0.0


def test_traced_straightening_and_table_sums_give_every_metric():
    # Straightening and the table sums run on raw coefficient maps, which
    # bypass Scalar.__mul__/__add__; the layer counts and times still arrive.
    declared = {m["name"] for m in json.loads((_ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    poi = lieq.catalog("poincare")
    ext = lieq.catalog("poincare_trivial_ext")
    x = UEAElement.gen(poi, "KPx") + UEAElement.gen(poi, "Px")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.reset()
        square = x * x
        check = lieq.is_casimir(square)
        report = ext.validate()
        shifted = ext.change_basis(*shifted_energy_basis(ext))
        metrics = tracer.pass_metrics()
    finally:
        tracer.uninstall()
    assert square.term_count() == 4 and not check.ok and report.ok and shifted.dim == ext.dim
    # bench/run.py adds the last two from its own set-up and plain runs
    assert set(metrics) | {"catalog.build_s", "trace.overhead_ratio"} == declared
    assert metrics["uea.products"] == 1 and metrics["uea.terms_out"] == 4
    assert metrics["uea.is_casimir_calls"] == 1 and metrics["uea.bracket_lookups"] > 0
    assert metrics["algebra.validate_calls"] == 1
    assert metrics["algebra.validate_s"] > 0 and metrics["algebra.change_basis_s"] > 0
    assert metrics["scalars.mul_calls"] > 0 and metrics["scalars.add_calls"] > 0  # change_basis
    assert metrics["uea.self_s"] > 0 and metrics["algebra.self_s"] > 0
