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
orientations — and ordering_study checks each of them, the catalog element
included, so reports can state which ordering each catalog entry uses,
whether it commutes, and what the alternatives do.  The printed orderings
differ only in the sign of the cross monomials: each is base ± cross, where
the base and cross pieces are each straightened (or Weyl ordered) in one
pass, and ordering_study straightens each [piece, G] once for all orderings.
"""

from __future__ import annotations

from collections import namedtuple

from lieq.algebra import AlgebraError
from lieq.catalog import AXES, catalog, eps3
from lieq.scalars import Scalar
from lieq.uea import UEAElement, _casimir_checks, _index_words, _normalize, _weyl_sum, is_casimir

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


def _dot_sq(alg, prefix):
    return sum((UEAElement.gen(alg, prefix + ax) ** 2 for ax in AXES), UEAElement.zero(alg))


def _cross(alg, boost, i):
    """(K x P)_i = eps_ijk K_j P_k, expanded."""
    out = UEAElement.zero(alg)
    for j in AXES:
        for k in AXES:
            e = eps3(i, j, k)
            if e:
                out = out + UEAElement.word(alg, (boost + j, "P" + k), Scalar.from_int(e))
    return out


def _jdotp(alg):
    return sum((UEAElement.word(alg, ("J" + ax, "P" + ax)) for ax in AXES), UEAElement.zero(alg))


def _c2_element(alg, spec):
    if spec["pref"] == ("M",):
        # M*H - P^2/2
        return UEAElement.word(alg, ("M", "H")) - Scalar.rational(1, 2) * _dot_sq(alg, "P")
    if spec["pref"] == ("Hb", "M"):
        # -(P.P) + Hb^2 + M^2 + 2*Hb*M, the printed four-term form
        return (
            -_dot_sq(alg, "P")
            + UEAElement.gen(alg, "Hb") ** 2
            + UEAElement.gen(alg, "M") ** 2
            + Scalar.from_int(2) * UEAElement.word(alg, ("Hb", "M"))
        )
    return UEAElement.gen(alg, "H") ** 2 - _dot_sq(alg, "P")


def _c4_factored(alg, spec):
    out = UEAElement.zero(alg)
    for i in AXES:
        n_i = sum((UEAElement.word(alg, (p, "J" + i)) for p in spec["pref"]), UEAElement.zero(alg))
        n_i = n_i - _cross(alg, spec["boost"], i)
        out = out + n_i * n_i
    if spec["jp"]:
        jp = _jdotp(alg)
        out = out - jp * jp
    return out


def _c4_monomials(spec):
    """The printed quartic's (base, cross) (names, int coeff) monomials; cross at +2*eps_ijk."""
    pref, boost = spec["pref"], spec["boost"]
    base = [((a, b, "J" + i, "J" + i), 1) for a in pref for b in pref for i in AXES]
    base += [(("P" + i, "P" + i, boost + j, boost + j), 1) for i in AXES for j in AXES]
    base += [(("P" + i, boost + i, "P" + j, boost + j), -1) for i in AXES for j in AXES]
    if spec["jp"]:
        base += [(("J" + i, "P" + i, "J" + j, "P" + j), -1) for i in AXES for j in AXES]
    cross = [((a, "J" + k, "P" + i, boost + j), 2 * eps3(i, j, k))
             for a in pref for i in AXES for j in AXES for k in AXES if eps3(i, j, k)]
    return base, cross


# The printed orderings by piece kind (Weyl ordered or not): {variant: sign of the cross piece}.
_PRINTED = {False: {"verbatim": -1}, True: {"weyl": -1, "weyl_mirrored": 1}}


def _c4_pieces(alg, spec, weyl):
    """[N(B), N(X)], or [W(B), W(X)] when weyl: the base and cross monomials
    straightened (N) or Weyl ordered (W), each in one pass.  N and W are
    linear, so a printed ordering is base + sign * cross."""
    pieces = []
    for monomials in _c4_monomials(spec):
        raw = _index_words(alg, ((names, Scalar.from_int(c)) for names, c in monomials))
        pieces.append(_weyl_sum(alg, raw) if weyl else UEAElement(alg, _normalize(alg, raw)))
    return pieces


def casimir_variant(name, label, variant):
    """One candidate ordering of the quartic invariant (label must be a C4)."""
    spec = _spec(name)
    if label not in spec["labels"] or not label.startswith("C4"):
        raise AlgebraError("no ordering variants for %s in %r" % (label, name))
    alg = catalog(name)
    if variant == "factored":
        return _c4_factored(alg, spec)
    for weyl, signs in _PRINTED.items():
        if variant in signs:
            base, cross = _c4_pieces(alg, spec, weyl)
            return base + cross * signs[variant]
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
            entries.append(CasimirEntry(label, UEAElement.gen(alg, "Q"), "verbatim"))
        elif label.startswith("C1"):
            entries.append(CasimirEntry(label, UEAElement.gen(alg, "M"), "verbatim"))
        else:
            entries.append(CasimirEntry(label, _c2_element(alg, spec), "verbatim"))
    _CATALOG_CACHE[name] = tuple(entries)
    return _CATALOG_CACHE[name]


def casimir_entries(name):
    """casimir_catalog as a {label: element} dict."""
    return {e.label: e.element for e in casimir_catalog(name)}


def ordering_study(name):
    """Check every ordering candidate of every labeled invariant, as is_casimir does.

    Returns {label: (OrderingStep, ...)} in table order.  C1/C2 entries have
    a single verbatim step; C4 entries get all four variants.  The last step
    of every label checks the catalog element itself (its own ordering), so
    steps[-1] is the verdict on the entry, residue included.  `shift` is the
    exact difference variant - catalog element for passing variants (it is
    a Casimir itself), None for failing ones.
    """
    spec, alg = _spec(name), catalog(name)
    out = {}
    for entry in casimir_catalog(name):
        candidates = []
        if entry.label.startswith("C4"):
            for weyl, signs in _PRINTED.items():
                base, cross = _c4_pieces(alg, spec, weyl)
                checks = _casimir_checks((base, cross), [(1, s) for s in signs.values()])
                candidates += [(v, base + cross * s, check)
                               for (v, s), check in zip(signs.items(), checks)]
        candidates.append((entry.ordering, entry.element, is_casimir(entry.element)))
        out[entry.label] = tuple(
            OrderingStep(variant, check.ok, check.witness,
                         e - entry.element if check.ok else None, check.residue)
            for variant, e, check in candidates)
    return out
