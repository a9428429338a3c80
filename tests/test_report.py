"""Full-pipeline report: ordering, determinism, fault injection."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lieq import casimirs, contraction
from lieq.algebra import LieAlgebra, ValidationReport
from lieq.contraction import ContractionError
from lieq.report import Check, Report, _validation_detail, report_paper
from lieq.scalars import Scalar

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "bench" / "golden_report.json"


@pytest.fixture(scope="module")
def pristine():
    return report_paper()


def strip_timing(report):
    doc = json.loads(report.to_json())
    del doc["elapsed_seconds"]
    return doc


def test_pristine_run_all_pass(pristine):
    report = pristine
    assert isinstance(report, Report)
    assert report.all_pass
    counts = report.counts()
    assert counts["fail"] == 0 and counts["warn"] == 0
    assert counts["pass"] == len(report.checks)


def test_step_order_and_expected_checks(pristine):
    names = [c.name for c in pristine.checks]
    # validations come first, one per catalog algebra
    assert names[0].startswith("validate ")
    assert sum(1 for n in names if n.startswith("validate ")) == 9

    def pos(fragment):
        hits = [k for k, n in enumerate(names) if fragment in n]
        assert hits, fragment
        return hits[0]

    assert pos("validate ") < pos("casimir galilei_central C1G")
    assert pos("casimir ") < pos("basis change")
    assert pos("basis change") < pos("rescaled boost-boost bracket")
    assert pos("contraction lands") < pos("contract C1PE")
    assert pos("contract C4PE") < pos("conceptual: ")
    assert pos("conceptual: ") < pos("boost limit: ")
    assert pos("boost limit: ") < pos("full-group contraction")
    assert pos("full-group contraction") < pos("observables galilei_central")
    assert pos("observables ") < pos("n-particle labels n=1")
    assert "particle-number additivity" in names

    row = next(c for c in pristine.checks
               if c.name == "contract C1PE with automatic power")
    assert "power 2" in row.detail
    row = next(c for c in pristine.checks
               if c.name == "contract C2PE with automatic power")
    assert "power 4" in row.detail


def test_ordering_outcomes_reported(pristine):
    checks = {c.name: c for c in pristine.checks}
    c4 = checks["casimir galilei_central C4G"]
    assert c4.status == "pass"
    assert "catalog uses factored ordering" in c4.detail
    assert "verbatim fails at H" in c4.detail
    assert "weyl_mirrored passes" in c4.detail
    c1 = checks["casimir u1 C1U"]
    assert "verbatim passes" in c1.detail


def test_json_deterministic_modulo_timing(pristine):
    second = report_paper()
    assert strip_timing(pristine) == strip_timing(second)
    doc = strip_timing(pristine)
    assert set(doc) == {"checks", "counts"}
    for entry in doc["checks"]:
        assert set(entry) == {"name", "status", "detail", "residue"}
        assert entry["status"] in ("pass", "fail", "warn")


def test_json_matches_golden_report(pristine):
    # the same normalization the benchmark applies before its golden check
    text = re.sub(r'"elapsed_seconds": [-+.0-9eE]+', '"elapsed_seconds": 0',
                  pristine.to_json())
    assert text == GOLDEN.read_text()


def test_json_does_not_depend_on_the_hash_seed():
    # Scalar and element hashes change with PYTHONHASHSEED; no output may.
    code = ("import sys; from lieq.cli import run_command; "
            "sys.exit(run_command(['report', 'paper', '--format', 'json']))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=600, check=True)
        outputs.append(re.sub(r'"elapsed_seconds": [-+.0-9eE]+', "", run.stdout))
    assert outputs[0] == outputs[1]
    assert '"counts"' in outputs[0]


def test_fault_injection_names_the_bracket():
    report = report_paper(fault=("galilei_central", "KGx", "H", "Px"))
    assert not report.all_pass
    failed = [c for c in report.checks if c.status == "fail"]
    assert failed
    first = failed[0]
    assert first.name == "validate galilei_central"
    assert "[KGx, H]" in first.detail
    assert "Jacobi" in first.detail
    # only the corrupted algebra's validation fails; everything later is clean
    assert all(c.name == "validate galilei_central" for c in failed)


def test_a_fault_naming_no_table_fails_the_validation_stage():
    # A misspelled table name must not leave the run untouched and all-pass.
    report = report_paper(fault=("poincaré", "KPx", "Px", "H"))
    failed = [c for c in report.checks if c.status == "fail"]
    assert [c.name for c in failed] == ["catalog validations"]
    assert "unknown catalog algebra 'poincaré'" in failed[0].detail


def test_a_faulty_basis_change_fails_only_its_own_row(monkeypatch):
    # No catalog table is built by a basis change, so a wrong change_basis shows
    # in the one row that checks it.  Negating the matrix's off-diagonal entries
    # still gives a valid Lie table, so every validate row keeps passing.
    monkeypatch.setattr(sys.modules["lieq.catalog"], "_CACHE", {})
    monkeypatch.setattr(casimirs, "_CATALOG_CACHE", {})
    change_basis = LieAlgebra.change_basis

    def faulty(self, matrix, *args, **kwargs):
        negated = [[x if r == c else -x for c, x in enumerate(row)]
                   for r, row in enumerate(matrix)]
        return change_basis(self, negated, *args, **kwargs)

    monkeypatch.setattr(LieAlgebra, "change_basis", faulty)
    failed = [c.name for c in report_paper().checks if c.status == "fail"]
    assert failed == ["basis change to the shifted energy"]


def test_a_warm_report_builds_each_derived_table_once(monkeypatch):
    # The contraction stage holds its contracted table to the end of the run,
    # so the standard Casimir limits get the same live table, not a rebuild.
    report_paper()
    built = []
    primed = contraction._primed_algebra

    def counting(algebra, upper, suffix):
        built.append(algebra.name + suffix)
        return primed(algebra, upper, suffix)

    monkeypatch.setattr(contraction, "_primed_algebra", counting)
    assert report_paper().all_pass
    assert built == ["poincare_trivial_ext_hbar_rescaled", "poincare_trivial_ext_hbar_contracted",
                     "full_relativistic_contracted"]


def test_a_failure_inside_the_limits_fails_the_casimir_contraction_stage(monkeypatch):
    def broken():
        raise ContractionError("no limits")

    monkeypatch.setattr("lieq.report.standard_casimir_limits", broken)
    failed = [(c.name, c.detail) for c in report_paper().checks if c.status == "fail"]
    assert failed == [("casimir contraction", "raised ContractionError: no limits"),
                      ("conceptual limit", "raised ContractionError: no limits")]


def test_text_rendering(pristine):
    text = pristine.to_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("PASS validate ")
    assert all(line.startswith(("PASS", "FAIL", "WARN")) for line in lines[:-1])
    assert "0 failed" in lines[-1]

    bad = report_paper(fault=("poincare", "KPx", "KPy", "Jz"))
    bad_lines = bad.to_text().splitlines()
    assert any(line.startswith("FAIL validate poincare") for line in bad_lines)


def test_text_shows_a_residue_and_validation_shows_its_issues():
    report = Report([Check("limit", "fail", "nonzero residue", "i*M"),
                     Check("table", "pass", "", None)], 0.25)
    assert report.to_text() == (
        "FAIL limit -- nonzero residue [residue: i*M]\n"
        "PASS table\n"
        "2 checks: 1 passed, 1 failed, 0 warnings (0.250 s)\n")
    issues = ["undeclared symbols ['m'] in [A,B]", "undeclared symbols ['w'] in [B,C]"]
    assert _validation_detail(ValidationReport(issues=issues)) == \
        "undeclared symbols ['m'] in [A,B]; and 1 more"
    jacobi = [(("A", "B", "C"), {"D": Scalar.one(), "C": Scalar.one()})]
    assert _validation_detail(ValidationReport(jacobi=jacobi, issues=issues[:1])) == \
        "Jacobi fails on (A, B, C) with residue on C, D; undeclared symbols ['m'] in [A,B]"
