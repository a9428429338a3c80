"""Self-tests of the benchmark: fault injection, exact counts, seeds, tracing.

    python3 -m pytest -q bench/test_bench.py

They take about two minutes: the count check runs each workload twice in
fresh processes, each with at least two traced passes.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402

workloads = run.import_lieq()

import lieq  # noqa: E402
import tracing  # noqa: E402


def quiet(*_):
    pass


@pytest.mark.parametrize("name", ["report", "tables"])
def test_fault_counts_as_failed_op_without_crash(name):
    lines = []
    result = run.benchmark(name, 1, 0.01, 0, fault=True, echo=lines.append)
    assert result["failed"] > 0
    assert not result["correct"]
    fail_ratio = next(float(line.split()[1]) for line in lines if "fail_ratio" in line)
    assert fail_ratio > 0
    assert not any(line.startswith("  error in") for line in lines)  # a check failed, nothing raised


def test_fault_free_run_is_correct():
    result = run.benchmark("tables", 1, 0.01, 0, echo=quiet)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "op_p50_s", "ops_per_s", "peak_rss_mb"}


def test_speed_scaling_is_one_factor_per_stretch():
    probe = speed.Speed()
    scaled = probe.scale([0.2, 0.1])
    assert scaled[0] == pytest.approx(2 * scaled[1])
    assert scaled[0] > 0
    assert len(probe.probes) >= 2 * speed.MIN_PROBES


def test_raising_op_is_a_failure_not_a_crash():
    def boom():
        raise ZeroDivisionError("inside the program")

    loop = run.Loop([("x", "", boom), ("y", "", lambda: True)]).run(0)
    assert (loop.attempted, loop.failed) == (2, 1)
    assert loop.errors == ["x: ZeroDivisionError: inside the program"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_second_seed_changes_inputs_not_the_size_mix(name):
    ops1 = workloads.MAKE_PASS[name](random.Random(1))
    ops2 = workloads.MAKE_PASS[name](random.Random(2))
    assert sorted(kind for kind, _, _ in ops1) == sorted(kind for kind, _, _ in ops2)
    inputs1 = {inp for _, inp, _ in ops1}
    inputs2 = {inp for _, inp, _ in ops2}
    if name == "report":
        assert inputs1 == inputs2  # the report has no inputs
    else:
        assert len(inputs1 & inputs2) <= len(ops1) // 5
    assert [inp for _, inp, _ in ops1] == [
        inp for _, inp, _ in workloads.MAKE_PASS[name](random.Random(1))]


def test_install_rebinds_imported_names_and_uninstall_restores():
    originals = (lieq.uea.is_casimir, lieq.report.is_casimir, lieq.Scalar.__mul__,
                 lieq.UEAElement.word)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert "lieq.report.is_casimir" in tracer.rebinds
        assert lieq.report.is_casimir is lieq.uea.is_casimir is not originals[0]
        tracer.reset()
        c2p = lieq.casimir_entries("poincare")["C2P"]
        assert lieq.is_casimir(c2p).ok
        metrics = tracer.pass_metrics()
    finally:
        tracer.uninstall()
    assert (lieq.uea.is_casimir, lieq.report.is_casimir, lieq.Scalar.__mul__,
            lieq.UEAElement.word) == originals
    rebinds = list(tracer.rebinds)
    tracer.install()  # again, as between alternating passes
    try:
        assert lieq.report.is_casimir is lieq.uea.is_casimir is not originals[0]
        assert tracer.rebinds == rebinds
    finally:
        tracer.uninstall()
    assert lieq.report.is_casimir is originals[0]
    assert metrics["uea.is_casimir_calls"] == 1
    assert metrics["casimirs.entries_builds"] == 1
    assert metrics["uea.bracket_lookups"] > 0 and metrics["scalars.mul_calls"] > 0


def _traced_counts(name, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] != "s" and k != "trace.overhead_ratio"}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_exactly_across_processes(name):
    first = _traced_counts(name, 1)
    assert first == _traced_counts(name, 2)
    assert any(first.values())


def test_bare_directory_fails_without_a_result():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "report", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
