"""Labeled Casimir elements for the catalog algebras, with ordering diagnostics.

This module is the one registry of which groups carry which Casimir labels
(_SPECS, listed as CASIMIR_GROUPS); the report and the observable layer read
their groups and labels from here.

The degree-4 invariants appear in the source tables as sums of products of
noncommuting factors, printed without an ordering convention.  The catalog
stores the grouped vector form

    sum_i N_i^2 [- (J.P)^2],    N_i = prefactor * J_i - (K x P)_i

(prefactor M for the central-extended Galilei algebra, H resp. Hb+M for the
Poincare family), which commutes with every generator exactly.
casimir_variant exposes the other candidate orderings — the verbatim printed
transcription and its Weyl (fully symmetrized) version in both cross-term
orientations — and ordering_study runs is_casimir once over each of them, the
catalog element included, so reports can state which ordering each catalog
entry uses, whether it commutes, and what the alternatives do.
"""

from __future__ import annotations

from collections import namedtuple

from lieq.algebra import AlgebraError
from lieq.catalog import AXES, catalog, eps3
from lieq.scalars import Scalar
from lieq.uea import UEAElement, is_casimir, weyl_word

CasimirEntry = namedtuple("CasimirEntry", ["label", "element", "ordering"])
OrderingStep = namedtuple("OrderingStep", ["variant", "ok", "witness", "shift", "residue"])

C4_VARIANTS = ("verbatim", "weyl", "weyl_mirrored", "factored")

# family: which low-order invariants exist and how the quartic is built.
#   boost: generator-name prefix of the boost family
#   pref: generator names whose sum multiplies J_i in N_i
#   jp: whether the quartic subtracts (J.P)^2 (Poincare family)
_SPECS = {
    "galilei_central": dict(labels=("C1G", "C2G", "C4G"), boost="KG", pref=("M",), jp=False),
    "poincare": dict(labels=("C2P", "C4P"), boost="KP", pref=("H",), jp=True),
    "poincare_trivial_ext": dict(
        labels=("C1PE", "C2PE", "C4PE"), boost="KP", pref=("H",), jp=True),
    "poincare_trivial_ext_hbar": dict(
        labels=("C1PE", "C2PE", "C4PE"), boost="KP", pref=("Hb", "M"), jp=True),
    "u1": dict(labels=("C1U",)),
    "full_relativistic": dict(
        labels=("C1PE", "C2PE", "C4PE", "C1U"), boost="KP", pref=("Hb", "M"), jp=True),
    "full_nonrelativistic": dict(
        labels=("C1G", "C2G", "C4G", "C1U"), boost="KG", pref=("M",), jp=False),
}

CASIMIR_GROUPS = tuple(_SPECS)


def _spec(name):
    if name not in _SPECS:
        raise AlgebraError(
            "no Casimir catalog for %r (have: %s)" % (name, ", ".join(sorted(_SPECS)))
        )
    return _SPECS[name]


def _gen(alg, n):
    return UEAElement.gen(alg, n)


def _word(alg, names, coeff=None):
    return UEAElement.word(alg, names, coeff)


def _dot_sq(alg, prefix):
    return sum((_gen(alg, prefix + ax) ** 2 for ax in AXES), UEAElement.zero(alg))


def _cross(alg, boost, i):
    """(K x P)_i = eps_ijk K_j P_k, expanded."""
    out = UEAElement.zero(alg)
    for j in AXES:
        for k in AXES:
            e = eps3(i, j, k)
            if e:
                out = out + _word(alg, (boost + j, "P" + k), Scalar.from_int(e))
    return out


def _jdotp(alg):
    return sum((_word(alg, ("J" + ax, "P" + ax)) for ax in AXES), UEAElement.zero(alg))


def _c2_element(alg, spec):
    if spec["pref"] == ("M",):
        # M*H - P^2/2
        return _word(alg, ("M", "H")) - Scalar.rational(1, 2) * _dot_sq(alg, "P")
    if spec["pref"] == ("Hb", "M"):
        # -(P.P) + Hb^2 + M^2 + 2*Hb*M, the printed four-term form
        return (
            -_dot_sq(alg, "P")
            + _gen(alg, "Hb") ** 2
            + _gen(alg, "M") ** 2
            + Scalar.from_int(2) * _word(alg, ("Hb", "M"))
        )
    return _gen(alg, "H") ** 2 - _dot_sq(alg, "P")


def _c4_factored(alg, spec):
    out = UEAElement.zero(alg)
    for i in AXES:
        n_i = sum((_word(alg, (p, "J" + i)) for p in spec["pref"]), UEAElement.zero(alg))
        n_i = n_i - _cross(alg, spec["boost"], i)
        out = out + n_i * n_i
    if spec["jp"]:
        jp = _jdotp(alg)
        out = out - jp * jp
    return out


def _c4_monomials(spec, cross_sign):
    """The printed quartic as (names, integer coeff) monomials, printed order."""
    pref, boost = spec["pref"], spec["boost"]
    for a in pref:
        for b in pref:
            for i in AXES:
                yield (a, b, "J" + i, "J" + i), 1
    for i in AXES:
        for j in AXES:
            yield ("P" + i, "P" + i, boost + j, boost + j), 1
    for i in AXES:
        for j in AXES:
            yield ("P" + i, boost + i, "P" + j, boost + j), -1
    if spec["jp"]:
        for i in AXES:
            for j in AXES:
                yield ("J" + i, "P" + i, "J" + j, "P" + j), -1
    for a in pref:
        for i in AXES:
            for j in AXES:
                for k in AXES:
                    e = eps3(i, j, k)
                    if e:
                        yield (a, "J" + k, "P" + i, boost + j), 2 * cross_sign * e


def casimir_variant(name, label, variant):
    """One candidate ordering of the quartic invariant (label must be a C4)."""
    spec = _spec(name)
    if label not in spec["labels"] or not label.startswith("C4"):
        raise AlgebraError("no ordering variants for %s in %r" % (label, name))
    alg = catalog(name)
    if variant == "factored":
        return _c4_factored(alg, spec)
    if variant in ("verbatim", "weyl", "weyl_mirrored"):
        sign = 1 if variant == "weyl_mirrored" else -1
        build = _word if variant == "verbatim" else weyl_word
        out = UEAElement.zero(alg)
        for names, coeff in _c4_monomials(spec, sign):
            out = out + build(alg, names, Scalar.from_int(coeff))
        return out
    raise AlgebraError("unknown variant %r (have: %s)" % (variant, ", ".join(C4_VARIANTS)))


_CATALOG_CACHE = {}


def casimir_catalog(name):
    """Labeled invariants of the named algebra, in table order (cached, immutable).

    Every returned element commutes with all generators; the `ordering`
    field records whether the printed ordering was usable as-is (verbatim)
    or the grouped vector form replaced it (factored).
    """
    if name in _CATALOG_CACHE:
        return _CATALOG_CACHE[name]
    spec = _spec(name)
    alg = catalog(name)
    entries = []
    for label in spec["labels"]:
        if label.startswith("C4"):
            entries.append(CasimirEntry(label, _c4_factored(alg, spec), "factored"))
        elif label == "C1U":
            entries.append(CasimirEntry(label, _gen(alg, "Q"), "verbatim"))
        elif label.startswith("C1"):
            entries.append(CasimirEntry(label, _gen(alg, "M"), "verbatim"))
        else:
            entries.append(CasimirEntry(label, _c2_element(alg, spec), "verbatim"))
    _CATALOG_CACHE[name] = tuple(entries)
    return _CATALOG_CACHE[name]


def casimir_entries(name):
    """casimir_catalog as a {label: element} dict."""
    return {e.label: e.element for e in casimir_catalog(name)}


def ordering_study(name):
    """Run is_casimir once over every ordering candidate of every labeled invariant.

    Returns {label: (OrderingStep, ...)} in table order.  C1/C2 entries have
    a single verbatim step; C4 entries get all four variants.  The last step
    of every label checks the catalog element itself (its own ordering), so
    steps[-1] is the verdict on the entry, residue included.  `shift` is the
    exact difference variant - catalog element for passing variants (it is
    a Casimir itself), None for failing ones.
    """
    out = {}
    for entry in casimir_catalog(name):
        candidates = [
            (variant, casimir_variant(name, entry.label, variant))
            for variant in C4_VARIANTS
            if entry.label.startswith("C4") and variant != entry.ordering
        ]
        candidates.append((entry.ordering, entry.element))
        steps = []
        for variant, e in candidates:
            check = is_casimir(e)
            shift = e - entry.element if check.ok else None
            steps.append(OrderingStep(variant, check.ok, check.witness, shift, check.residue))
        out[entry.label] = tuple(steps)
    return out
