"""One-shot reproduction report: every catalog claim checked in a fixed order.

The pipeline runs: catalog validations, Casimir verifications with their
ordering outcomes, the shifted-energy basis change, the boost/translation
contraction with table comparison, the Casimir contractions with automatic
powers, the conceptual limit rows, the low-velocity boost rows, the
full-group contraction, the observable descriptors, and the n-particle
labels.  Failures never raise; they become report entries.
"""

import json
import time
from collections import namedtuple
from functools import cached_property

from lieq.casimirs import CASIMIR_GROUPS, _ordering_studies, casimir_entries
from lieq.catalog import CATALOG_NAMES, catalog, shifted_energy_basis
from lieq.contraction import (
    STD_FULL_MAP,
    STD_FULL_RENAME,
    STD_PE_MAP,
    STD_PE_POWERS,
    STD_PE_RENAME,
    contract,
    rescale_algebra,
    tables_equal,
)
from lieq.limits import conceptual_limit_rows, standard_casimir_limits, traditional_limit_report
from lieq.mhi import MHI_GROUPS, actual_valued_observables, n_particle_labels
from lieq.scalars import Scalar
from lieq.uea import UEAElement, is_casimir, rename_element

__all__ = ["Check", "Report", "report_paper"]

Check = namedtuple("Check", ["name", "status", "detail", "residue"])


class Report(namedtuple("Report", ["checks", "elapsed_seconds"])):
    """Ordered check results plus wall-clock duration."""

    def counts(self):
        out = {"pass": 0, "fail": 0, "warn": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def all_pass(self):
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self):
        return {
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail,
                 "residue": c.residue}
                for c in self.checks
            ],
            "counts": self.counts(),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self):
        lines = []
        for c in self.checks:
            line = "%s %s" % (c.status.upper().ljust(4), c.name)
            if c.detail:
                line += " -- " + c.detail
            if c.residue is not None:
                line += " [residue: %s]" % c.residue
            lines.append(line)
        counts = self.counts()
        lines.append(
            "%d checks: %d passed, %d failed, %d warnings (%.3f s)"
            % (len(self.checks), counts["pass"], counts["fail"], counts["warn"],
               self.elapsed_seconds)
        )
        return "\n".join(lines) + "\n"


class _Builder:
    """Checks of one report run plus the facts its stages share."""

    def __init__(self, fault):
        self.fault = fault
        self.checks = []
        self.pe_contracted = None  # held to the end, so casimir_limits shares the table

    def add(self, name, ok, detail="", residue=None):
        self.checks.append(Check(name, "pass" if ok else "fail", detail, residue))

    def add_match(self, name, got, want, rename, detail):
        """A row for tables_equal(got, want, rename); a failing row names the first mismatch."""
        ok, diff = tables_equal(got, want, rename)
        self.add(name, ok, detail if ok else "first mismatch at [%s, %s]" % diff[0].pair_a)

    @cached_property
    def studies(self):
        """One ordering study per Casimir group; steps[-1] is each entry's verdict.

        A table that only adds spectators (central generators no bracket
        reaches, listed last) to another shares that table's C4 study, built
        once for this report; see lieq.casimirs.
        """
        return _ordering_studies(CASIMIR_GROUPS)

    @cached_property
    def casimir_limits(self):
        """The standard Casimir limits, shared by the contraction and conceptual stages."""
        return standard_casimir_limits()


def _validation_detail(report):
    if report.ok:
        return "antisymmetry and Jacobi hold"
    parts = []
    if report.jacobi:
        (a, b, c), residues = report.jacobi[0]
        parts.append(
            "Jacobi fails on (%s, %s, %s) with residue on %s"
            % (a, b, c, ", ".join(sorted(residues)))
        )
    if report.issues:
        parts.append(report.issues[0])
    more = len(report.jacobi) + len(report.issues) - len(parts)
    if more > 0:
        parts.append("and %d more" % more)
    return "; ".join(parts)


def _ordering_detail(steps):
    bits = []
    for step in steps:
        if step.ok:
            bits.append("%s passes" % step.variant)
        else:
            bits.append("%s fails at %s" % (step.variant, step.witness))
    return "catalog uses %s ordering; %s" % (steps[-1].variant, ", ".join(bits))


def _check_validations(b):
    fault = b.fault
    if fault is not None:
        catalog(fault[0])  # a fault that names no catalog table fails this stage
    for name in CATALOG_NAMES:
        alg = catalog(name)
        if fault is not None and fault[0] == name:
            alg = alg.flip_sign(*fault[1:])
        report = alg.validate()
        detail = _validation_detail(report)
        if fault is not None and fault[0] == name:
            detail = "bracket [%s, %s] corrupted: %s" % (fault[1], fault[2], detail)
        b.add("validate %s" % name, report.ok, detail)


def _check_casimirs(b):
    for name, study in b.studies.items():
        for label, steps in study.items():
            verdict = steps[-1]
            b.add(
                "casimir %s %s" % (name, label),
                verdict.ok,
                _ordering_detail(steps),
                None if verdict.ok else str(verdict.residue),
            )


def _check_basis_change(b):
    ext = catalog("poincare_trivial_ext")
    shifted = ext.change_basis(*shifted_energy_basis(ext))
    b.add(
        "basis change to the shifted energy",
        shifted == catalog("poincare_trivial_ext_hbar"),
        "subtracting the central mass from the energy reproduces the catalog table",
    )


def _check_contraction(b):
    peb = catalog("poincare_trivial_ext_hbar")
    rescaled = rescale_algebra(peb, STD_PE_MAP)
    i_s = Scalar.i()
    eps2 = Scalar.symbol("eps", 2)
    b.add(
        "rescaled boost-boost bracket",
        rescaled.bracket("KPxp", "KPyp") == {"Jzp": -i_s * eps2},
        "[KPx', KPy'] = -i*eps^2*Jz'",
    )
    b.add(
        "rescaled boost-translation bracket",
        rescaled.bracket("KPxp", "Pxp") == {"Hbp": i_s * eps2, "Mp": i_s},
        "[KPx', Px'] = i*(eps^2*Hb' + M')",
    )
    b.pe_contracted = contract(peb, STD_PE_MAP)
    b.add_match("contraction lands on the central extension", b.pe_contracted,
                catalog("galilei_central"), STD_PE_RENAME,
                "all brackets agree under the standard renaming")


def _check_casimir_contraction(b):
    limits = b.casimir_limits
    for label, expected in STD_PE_POWERS.items():
        element, power = limits[label]
        verdict = is_casimir(element)
        b.add(
            "contract %s with automatic power" % label,
            power == expected and verdict.ok,
            "power %d (expected %d); the limit %s a Casimir of the contracted algebra"
            % (power, expected, "is" if verdict.ok else "is not"),
        )
    c1, c2, c4 = (limits[label][0] for label in ("C1PE", "C2PE", "C4PE"))
    mass = UEAElement.gen(c1.algebra, "Mp")
    b.add("contracted C1 is the central mass", c1 == mass, "limit element is M'")
    b.add("contracted C2 is the squared central mass", c2 == mass ** 2,
          "limit element is M'^2")
    b.add(
        "contracted C4 matches the catalog quartic",
        rename_element(c4, catalog("galilei_central"), STD_PE_RENAME)
        == casimir_entries("galilei_central")["C4G"],
        "limit element equals C4G under the standard renaming",
    )


def _check_conceptual(b):
    for row in conceptual_limit_rows(b.casimir_limits):
        b.add("conceptual: %s" % row.name, row.ok, row.detail)


def _check_traditional(b):
    for row in traditional_limit_report():
        b.add(
            "boost limit: %s" % row.name,
            row.ok,
            "exact" if row.ok else "nonzero residue",
            None if row.ok else str(row.residue),
        )


def _check_full_groups(b):
    b.add_match("full-group contraction", contract(catalog("full_relativistic"), STD_FULL_MAP),
                catalog("full_nonrelativistic"), STD_FULL_RENAME,
                "charge sector rides along with exponent 0")


def _check_mhi(b):
    descriptors = {group: actual_valued_observables(group) for group in MHI_GROUPS}
    for group, descriptor in descriptors.items():
        verdicts = b.studies[group]
        b.add(
            "observables %s" % group,
            all(verdicts[row.casimir][-1].ok for row in descriptor.rows),
            "keys: %s" % ", ".join(descriptor.observables()),
        )
    b.add(
        "nonrelativistic observable set",
        descriptors["full_nonrelativistic"].observables()
        == ("M", "W", "S2", "Q"),
        "mass, internal energy, spin, charge",
    )
    b.add(
        "relativistic observable set",
        descriptors["full_relativistic"].observables()
        == ("M", "S2", "Q"),
        "mass, spin, charge",
    )


def _check_nparticle(b):
    labels = {n: n_particle_labels(n) for n in (1, 2, 3)}
    for n, lab in labels.items():
        ok = (
            lab.particle_number == n
            and lab.mass.label == Scalar.from_int(n) * Scalar.symbol("m0")
        )
        b.add(
            "n-particle labels n=%d" % n,
            ok,
            "mass %s, particle number %d" % (lab.mass.label, lab.particle_number),
        )
    b.add(
        "particle-number additivity",
        labels[1].particle_number + labels[2].particle_number
        == labels[3].particle_number
        and labels[1].mass.label + labels[2].mass.label == labels[3].mass.label,
        "labels of 1 and 2 particles sum to the 3-particle labels",
    )


_STAGES = (
    ("catalog validations", _check_validations),
    ("casimir verifications", _check_casimirs),
    ("basis change", _check_basis_change),
    ("contraction", _check_contraction),
    ("casimir contraction", _check_casimir_contraction),
    ("conceptual limit", _check_conceptual),
    ("traditional limit", _check_traditional),
    ("full-group contraction", _check_full_groups),
    ("observable descriptors", _check_mhi),
    ("n-particle labels", _check_nparticle),
)


def report_paper(fault=None):
    """Run the full pipeline; fault=(algebra, a, b, d) negates one constant.

    The fault hook flips the sign of one structure constant before the
    validation step only; it exists for exercising the failure paths. A
    fault that names no catalog table, or a constant its table lacks, fails
    the validation stage.
    """
    start = time.monotonic()
    b = _Builder(fault)
    for stage, check in _STAGES:
        try:
            check(b)
        except Exception as e:  # failures are report entries, never raises
            b.add(stage, False, "raised %s: %s" % (type(e).__name__, e))
    return Report(tuple(b.checks), time.monotonic() - start)
