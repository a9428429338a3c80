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

Some catalog tables are another table plus spectators: central generators
outside kp, which no bracket reaches and which the table lists last
(poincare_trivial_ext is poincare plus M; full_relativistic and
full_nonrelativistic add Q to poincare_trivial_ext_hbar and
galilei_central).  The shared generators keep their indices and brackets,
and no C4 word holds a spectator, so every normal form, every [piece, G]
and every residue has the same index words in both tables; a spectator S
adds only [e, S] = 0, checked last, so no witness changes either.
_ordering_studies therefore builds one C4 study per row with its spectators
dropped and carries it into the other tables of that row by index, words
unchanged; it keeps the studies for that one call only.

Every element here starts as a word table: _words lists a catalog label's
(names, coefficient) pairs, C4 expanded word by word from N_i, and
_c4_monomials the printed quartic's, both read from the group's _Kinematical
row in lieq.catalog (kp, kk, boost).  lieq.uea._from_words straightens a
whole table (or Weyl orders it) in one pass; no element is assembled from
products and sums of smaller elements.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from lieq.algebra import AlgebraError
from lieq.catalog import _TABLES, AXES, catalog, eps3
from lieq.scalars import Scalar
from lieq.uea import UEAElement, _casimir_checks, _from_words, _indexed, is_casimir

CasimirEntry = namedtuple("CasimirEntry", ["label", "element", "ordering"])
OrderingStep = namedtuple("OrderingStep", ["variant", "ok", "witness", "shift", "residue"])

# The printed orderings by piece kind (Weyl ordered or not): {variant: sign of the cross piece}.
_PRINTED = {False: {"verbatim": -1}, True: {"weyl": -1, "weyl_mirrored": 1}}
C4_VARIANTS = tuple(v for signs in _PRINTED.values() for v in signs) + ("factored",)

# group: its Casimir labels
_SPECS = {
    "galilei_central": ("C1G", "C2G", "C4G"),
    "poincare": ("C2P", "C4P"),
    "poincare_trivial_ext": ("C1PE", "C2PE", "C4PE"),
    "poincare_trivial_ext_hbar": ("C1PE", "C2PE", "C4PE"),
    "u1": ("C1U",),
    "full_relativistic": ("C1PE", "C2PE", "C4PE", "C1U"),
    "full_nonrelativistic": ("C1G", "C2G", "C4G", "C1U"),
}

CASIMIR_GROUPS = tuple(_SPECS)


def _labels(name):
    if name not in _SPECS:
        raise AlgebraError(
            "no Casimir catalog for %r (have: %s)" % (name, ", ".join(sorted(_SPECS)))
        )
    return _SPECS[name]


def _words(kin, label):
    """The catalog element `label` of the group whose _Kinematical row is kin,
    as unstraightened (names, int or Fraction) pairs.

    C1 is M (Q for u(1)); C2 is the printed form (Galilei: M*H - P.P/2,
    Poincare family: the energy square expanded as printed, minus P.P); C4 is
    sum_i N_i N_i [- (J.P)^2] expanded word by word, N_i's prefactor the sum
    of kin.kp and (J.P)^2 subtracted when kin.kk ([K_i, K_j] != 0).
    """
    if label.startswith("C1"):
        return [(("Q",) if label == "C1U" else ("M",), 1)]
    pref = kin.kp
    if label.startswith("C2"):
        if not kin.kk:
            return [(("M", "H"), 1)] + [(("P" + a, "P" + a), Fraction(-1, 2)) for a in AXES]
        square = [((p, q), 1 if p == q else 2) for n, p in enumerate(pref) for q in pref[n:]]
        return square + [(("P" + a, "P" + a), -1) for a in AXES]
    words = []
    for i in AXES:
        n_i = [((p, "J" + i), 1) for p in pref]
        n_i += [((kin.boost + j, "P" + k), -eps3(i, j, k))
                for j in AXES for k in AXES if eps3(i, j, k)]
        words += [(u + v, a * b) for u, a in n_i for v, b in n_i]
    if kin.kk:
        words += [(("J" + i, "P" + i, "J" + j, "P" + j), -1) for i in AXES for j in AXES]
    return words


def _element(alg, words, weyl=False):
    """(names, int or Fraction) pairs straightened, or Weyl ordered when weyl, in one pass."""
    terms = _indexed(alg, ((names, Scalar.rational(c)) for names, c in words))
    return _from_words(alg, terms, weyl)


def _c4_monomials(kin):
    """The printed quartic's (base, cross) (names, int coeff) monomials; cross at +2*eps_ijk."""
    pref, boost = kin.kp, kin.boost
    base = [((a, b, "J" + i, "J" + i), 1) for a in pref for b in pref for i in AXES]
    base += [(("P" + i, "P" + i, boost + j, boost + j), 1) for i in AXES for j in AXES]
    base += [(("P" + i, boost + i, "P" + j, boost + j), -1) for i in AXES for j in AXES]
    if kin.kk:
        base += [(("J" + i, "P" + i, "J" + j, "P" + j), -1) for i in AXES for j in AXES]
    cross = [((a, "J" + k, "P" + i, boost + j), 2 * eps3(i, j, k))
             for a in pref for i in AXES for j in AXES for k in AXES if eps3(i, j, k)]
    return base, cross



def _c4_pieces(alg, kin, weyl):
    """[N(B), N(X)], or [W(B), W(X)] when weyl: the base and cross monomials
    straightened (N) or Weyl ordered (W), each in one pass.  N and W are
    linear, so a printed ordering is base + sign * cross."""
    return [_element(alg, monomials, weyl) for monomials in _c4_monomials(kin)]


def casimir_variant(name, label, variant):
    """One candidate ordering of the quartic invariant (label must be a C4)."""
    if label not in _labels(name) or not label.startswith("C4"):
        raise AlgebraError("no ordering variants for %s in %r" % (label, name))
    alg, kin = catalog(name), _TABLES[name]
    if variant == "factored":
        return _element(alg, _words(kin, label))
    for weyl, signs in _PRINTED.items():
        if variant in signs:
            base, cross = _c4_pieces(alg, kin, weyl)
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
    labels = _labels(name)
    alg, kin = catalog(name), _TABLES[name]
    entries = [CasimirEntry(label, _element(alg, _words(kin, label)),
                            "factored" if label.startswith("C4") else "verbatim")
               for label in labels]
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
    return _ordering_studies((name,))[name]


def _spectator_free(kin):
    """kin without its spectators: central generators outside kin.kp, which no bracket reaches."""
    return kin._replace(central=tuple(c for c in kin.central if c in kin.kp))


def _steps(entry, candidates):
    """OrderingSteps of (variant, element, CasimirCheck) candidates, then of the entry itself."""
    own = (entry.ordering, entry.element, is_casimir(entry.element))
    return tuple(OrderingStep(variant, check.ok, check.witness,
                              e - entry.element if check.ok else None, check.residue)
                 for variant, e, check in (*candidates, own))


def _c4_candidates(alg, kin):
    """(variant, element, CasimirCheck) of each printed quartic ordering, checked together."""
    candidates = []
    for weyl, signs in _PRINTED.items():
        base, cross = _c4_pieces(alg, kin, weyl)
        checks = _casimir_checks((base, cross), [(1, s) for s in signs.values()])
        candidates += [(v, base + cross * s, check)
                       for (v, s), check in zip(signs.items(), checks)]
    return candidates


def _ordering_studies(names):
    """{name: ordering_study(name)} for each name, each distinct C4 study built once.

    Tables whose _Kinematical rows differ only in spectators share one C4
    study (see the module docstring for why it is exact): it is built on the
    first such table named and carried into the others by index, each step's
    residue and shift keeping its words.  The studies live only this call.
    """
    c4 = {}  # {spectator-free row: (table the study was built on, its C4 steps)}
    out = {}
    for name in names:
        entries = casimir_catalog(name)
        alg, kin = catalog(name), _TABLES[name]
        study = out[name] = {}
        for entry in entries:
            if not entry.label.startswith("C4"):
                study[entry.label] = _steps(entry, ())
                continue
            key = _spectator_free(kin)
            if key not in c4:
                c4[key] = alg, _steps(entry, _c4_candidates(alg, kin))
            home, steps = c4[key]
            study[entry.label] = steps if home is alg else tuple(
                step._replace(shift=None if step.shift is None
                              else UEAElement(alg, step.shift._terms),
                              residue=UEAElement(alg, step.residue._terms))
                for step in steps)
    return out
