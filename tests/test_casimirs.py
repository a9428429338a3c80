"""Casimir catalog: labeled invariants per algebra plus ordering diagnostics.

The quartic invariants are printed in the source tables as products of
noncommuting factors; the catalog stores the grouped vector form that
commutes exactly, and ordering_study records how each printed variant fares.
Expected values here were fixed against an independently written
normal-ordering oracle before this module existed.
"""

import pytest

from lieq.algebra import AlgebraError
from lieq.casimirs import (
    C4_VARIANTS,
    CASIMIR_GROUPS,
    casimir_catalog,
    casimir_entries,
    casimir_variant,
    ordering_study,
)
from lieq.catalog import catalog
from lieq.expr import parse_element
from lieq.scalars import Scalar
from lieq.uea import UEAElement, commutator, is_casimir, rename_element, substitute

GC = catalog("galilei_central")
POI = catalog("poincare")
PEH = catalog("poincare_trivial_ext")
PEB = catalog("poincare_trivial_ext_hbar")
U1 = catalog("u1")
FR = catalog("full_relativistic")
FNR = catalog("full_nonrelativistic")

I = Scalar.i()
HALF = Scalar.rational(1, 2)


def gen(alg, n):
    return UEAElement.gen(alg, n)


def word(alg, *names):
    return UEAElement.word(alg, names)


def psq(alg):
    return sum((gen(alg, "P" + ax) ** 2 for ax in "xyz"), UEAElement.zero(alg))


def jsq(alg):
    return sum((gen(alg, "J" + ax) ** 2 for ax in "xyz"), UEAElement.zero(alg))


def test_labels_and_orderings():
    assert [(e.label, e.ordering) for e in casimir_catalog("galilei_central")] == [
        ("C1G", "verbatim"), ("C2G", "verbatim"), ("C4G", "factored")]
    assert [(e.label, e.ordering) for e in casimir_catalog("poincare")] == [
        ("C2P", "verbatim"), ("C4P", "factored")]
    assert [(e.label, e.ordering) for e in casimir_catalog("poincare_trivial_ext")] == [
        ("C1PE", "verbatim"), ("C2PE", "verbatim"), ("C4PE", "factored")]
    assert [(e.label, e.ordering) for e in casimir_catalog("poincare_trivial_ext_hbar")] == [
        ("C1PE", "verbatim"), ("C2PE", "verbatim"), ("C4PE", "factored")]
    assert [(e.label, e.ordering) for e in casimir_catalog("u1")] == [("C1U", "verbatim")]
    assert [e.label for e in casimir_catalog("full_relativistic")] == [
        "C1PE", "C2PE", "C4PE", "C1U"]
    assert [e.label for e in casimir_catalog("full_nonrelativistic")] == [
        "C1G", "C2G", "C4G", "C1U"]


def test_unknown_or_uncataloged_name():
    with pytest.raises(AlgebraError):
        casimir_catalog("galilei")  # no central charge, no catalog entry
    with pytest.raises(AlgebraError):
        casimir_catalog("heisenberg3")
    with pytest.raises(AlgebraError):
        casimir_catalog("nope")


@pytest.mark.parametrize("name", CASIMIR_GROUPS)
def test_every_catalog_entry_commutes(name):
    for entry in casimir_catalog(name):
        check = is_casimir(entry.element)
        assert check.ok, "%s/%s witness %s" % (name, entry.label, check.witness)


def test_low_order_forms():
    ent = casimir_entries("galilei_central")
    assert ent["C1G"] == gen(GC, "M")
    assert ent["C2G"] == word(GC, "H", "M") - HALF * psq(GC)
    assert casimir_entries("poincare")["C2P"] == gen(POI, "H") ** 2 - psq(POI)
    assert casimir_entries("poincare_trivial_ext")["C2PE"] == gen(PEH, "H") ** 2 - psq(PEH)
    hb, m = gen(PEB, "Hb"), gen(PEB, "M")
    four_term = -psq(PEB) + hb ** 2 + m ** 2 + Scalar.from_int(2) * word(PEB, "Hb", "M")
    assert casimir_entries("poincare_trivial_ext_hbar")["C2PE"] == four_term
    assert casimir_entries("u1")["C1U"] == gen(U1, "Q")


def test_c4g_verbatim_fails_at_energy():
    c4v = casimir_variant("galilei_central", "C4G", "verbatim")
    check = is_casimir(c4v)
    assert not check.ok
    assert check.witness == "H"
    expected = -(word(GC, "Px", "Px", "M") + word(GC, "Py", "Py", "M")
                 + word(GC, "Pz", "Pz", "M"))
    assert check.residue == expected


def test_c4g_verbatim_boost_residue():
    c4v = casimir_variant("galilei_central", "C4G", "verbatim")
    r = commutator(c4v, gen(GC, "KGx"))
    i4 = Scalar.gaussian(0, 4)
    expected = (
        word(GC, "KGx", "M", "M")
        - i4 * word(GC, "Jy", "KGz", "M", "M")
        + i4 * word(GC, "Jz", "KGy", "M", "M")
        + i4 * word(GC, "KGx", "KGy", "Py", "M")
        + i4 * word(GC, "KGx", "KGz", "Pz", "M")
        - i4 * word(GC, "KGy", "KGy", "Px", "M")
        - i4 * word(GC, "KGz", "KGz", "Px", "M")
    )
    assert r == expected


def test_c4g_weyl_rungs():
    wp = casimir_variant("galilei_central", "C4G", "weyl")
    check = is_casimir(wp)
    assert not check.ok and check.witness == "KGx"
    # same boost residue as the verbatim form, minus its KGx*M*M term
    verb_res = commutator(casimir_variant("galilei_central", "C4G", "verbatim"),
                          gen(GC, "KGx"))
    assert check.residue == verb_res - word(GC, "KGx", "M", "M")

    wm = casimir_variant("galilei_central", "C4G", "weyl_mirrored")
    assert is_casimir(wm).ok
    c4 = casimir_entries("galilei_central")["C4G"]
    assert wm - c4 == -HALF * word(GC, "M", "M")


def test_c4p_rungs():
    verb = casimir_variant("poincare", "C4P", "verbatim")
    check = is_casimir(verb)
    assert not check.ok and check.witness == "H"
    expected = -(word(POI, "H", "Px", "Px") + word(POI, "H", "Py", "Py")
                 + word(POI, "H", "Pz", "Pz"))
    assert check.residue == expected

    assert not is_casimir(casimir_variant("poincare", "C4P", "weyl")).ok
    wm = casimir_variant("poincare", "C4P", "weyl_mirrored")
    assert is_casimir(wm).ok
    ent = casimir_entries("poincare")
    assert wm - ent["C4P"] == -HALF * ent["C2P"]


def test_c4pe_hbar_rungs():
    verb = casimir_variant("poincare_trivial_ext_hbar", "C4PE", "verbatim")
    check = is_casimir(verb)
    assert not check.ok and check.witness == "Hb"
    pword = lambda *names: word(PEB, *names)
    expected = -(
        pword("Hb", "Px", "Px") + pword("Hb", "Py", "Py") + pword("Hb", "Pz", "Pz")
        + pword("Px", "Px", "M") + pword("Py", "Py", "M") + pword("Pz", "Pz", "M")
    )
    assert check.residue == expected

    wm = casimir_variant("poincare_trivial_ext_hbar", "C4PE", "weyl_mirrored")
    assert is_casimir(wm).ok
    ent = casimir_entries("poincare_trivial_ext_hbar")
    assert wm - ent["C4PE"] == -HALF * ent["C2PE"]


def test_c4pe_h_basis_rungs():
    verb = casimir_variant("poincare_trivial_ext", "C4PE", "verbatim")
    check = is_casimir(verb)
    assert not check.ok and check.witness == "H"
    wm = casimir_variant("poincare_trivial_ext", "C4PE", "weyl_mirrored")
    assert is_casimir(wm).ok
    ent = casimir_entries("poincare_trivial_ext")
    assert wm - ent["C4PE"] == -HALF * ent["C2PE"]


def test_rest_frame_specializations():
    m0 = Scalar.symbol("m0")
    m = Scalar.symbol("m")
    zero3 = {"Px": 0, "Py": 0, "Pz": 0}
    c2p = casimir_entries("poincare")["C2P"]
    out = substitute(c2p, dict(zero3, H=m0), formal=True)
    assert out == (m0 * m0) * UEAElement.unit(POI)

    c4p = casimir_entries("poincare")["C4P"]
    out = substitute(c4p, dict(zero3, H=m0), formal=True)
    assert out == (m0 * m0) * jsq(POI)

    c4g = casimir_entries("galilei_central")["C4G"]
    out = substitute(c4g, dict(zero3, M=m), formal=True)
    assert out == (m * m) * jsq(GC)


def test_c2_extension_restricts_to_poincare():
    c2pe = casimir_entries("poincare_trivial_ext")["C2PE"]
    restricted = substitute(c2pe, {"M": 0})
    assert rename_element(restricted, POI) == casimir_entries("poincare")["C2P"]


def test_full_group_catalogs_embed():
    ent = casimir_entries("full_nonrelativistic")
    assert ent["C1U"] == gen(FNR, "Q")
    for label in ("C1G", "C2G", "C4G"):
        assert ent[label] == rename_element(casimir_entries("galilei_central")[label], FNR)
    ent = casimir_entries("full_relativistic")
    assert ent["C1U"] == gen(FR, "Q")
    for label in ("C1PE", "C2PE", "C4PE"):
        assert ent[label] == rename_element(
            casimir_entries("poincare_trivial_ext_hbar")[label], FR)


def test_ordering_study_shape():
    study = ordering_study("galilei_central")
    assert set(study) == {"C1G", "C2G", "C4G"}
    assert [s.variant for s in study["C1G"]] == ["verbatim"]
    assert study["C1G"][0].ok and study["C1G"][0].witness is None
    steps = study["C4G"]
    assert [s.variant for s in steps] == list(C4_VARIANTS)
    assert [s.ok for s in steps] == [False, False, True, True]
    by = {s.variant: s for s in steps}
    assert by["verbatim"].witness == "H" and by["verbatim"].shift is None
    assert by["weyl"].witness == "KGx"
    assert by["weyl_mirrored"].shift == -HALF * word(GC, "M", "M")
    assert by["factored"].shift == UEAElement.zero(GC)

    study = ordering_study("u1")
    assert [s.variant for s in study["C1U"]] == ["verbatim"]


@pytest.mark.parametrize("name", CASIMIR_GROUPS)
def test_study_verdict_is_the_entry_check(name):
    study = ordering_study(name)
    assert list(study) == [e.label for e in casimir_catalog(name)]
    for entry in casimir_catalog(name):
        own = study[entry.label][-1]
        assert own.variant == entry.ordering
        check = is_casimir(entry.element)
        assert (own.ok, own.witness, own.residue) == tuple(check), entry.label


@pytest.mark.parametrize("name", CASIMIR_GROUPS)
def test_casimir_catalog_is_built_once(name):
    assert casimir_catalog(name) is casimir_catalog(name)


def test_catalog_is_parse_stable():
    for name in CASIMIR_GROUPS:
        alg = catalog(name)
        for entry in casimir_catalog(name):
            assert parse_element(alg, str(entry.element)) == entry.element


@pytest.mark.parametrize("label, variant, message", [
    ("C2G", "factored", "no ordering variants"),
    ("C4X", "factored", "no ordering variants"),
    ("C4G", "sideways", "unknown variant"),
], ids=["not_quartic", "unknown_label", "unknown_variant"])
def test_casimir_variant_rejects_bad_input(label, variant, message):
    with pytest.raises(AlgebraError, match=message):
        casimir_variant("galilei_central", label, variant)
