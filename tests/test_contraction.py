"""Generalized Inonu-Wigner contraction: rescaling, limits, Casimir transport."""

import json
from pathlib import Path

import pytest

from lieq.algebra import LieAlgebra
from lieq.casimirs import casimir_entries
from lieq.catalog import catalog
from lieq.contraction import (
    STD_FULL_MAP,
    STD_FULL_RENAME,
    STD_PE_MAP,
    STD_PE_RENAME,
    ContractionError,
    DivergentContraction,
    DivergentLimit,
    ZeroLimitWarning,
    contract,
    contract_casimir,
    rescale_algebra,
    rescale_element,
    tables_equal,
)
from lieq.scalars import Scalar
from lieq.uea import UEAElement, is_casimir, rename_element

GC = catalog("galilei_central")
GAL = catalog("galilei")
POI = catalog("poincare")
PEB = catalog("poincare_trivial_ext_hbar")
FR = catalog("full_relativistic")
FNR = catalog("full_nonrelativistic")

I = Scalar.i()
DATA = Path(__file__).resolve().parent.parent / "data"

POI_MAP = {"H": 0, "Jx": 0, "Jy": 0, "Jz": 0,
           "KPx": 1, "KPy": 1, "KPz": 1, "Px": 1, "Py": 1, "Pz": 1}
POI_TO_GAL = {"H": "Gtau", "Jx": "Gthx", "Jy": "Gthy", "Jz": "Gthz",
              "KPx": "Gux", "KPy": "Guy", "KPz": "Guz",
              "Px": "Grx", "Py": "Gry", "Pz": "Grz"}


def prime(mapping):
    return {k + "p": v for k, v in mapping.items()}


def test_map_validation():
    with pytest.raises(ContractionError):
        rescale_algebra(POI, {k: v for k, v in POI_MAP.items() if k != "H"})
    with pytest.raises(ContractionError):
        rescale_algebra(POI, dict(POI_MAP, Extra=1))
    with pytest.raises(ContractionError):
        rescale_algebra(POI, dict(POI_MAP, H=0.5))


def test_rescaled_intermediates():
    r = rescale_algebra(PEB, STD_PE_MAP)
    assert r.generators == tuple(n + "p" for n in PEB.generators)
    assert "eps" in r.symbols
    assert r.validate().ok
    eps2 = Scalar.symbol("eps", 2)
    assert r.bracket("KPxp", "KPyp") == {"Jzp": -I * eps2}
    assert r.bracket("KPxp", "Pxp") == {"Hbp": I * eps2, "Mp": I}
    assert r.bracket("KPxp", "Hbp") == {"Pxp": I}
    assert r.bracket("Jxp", "Jyp") == {"Jzp": I}


def test_rescale_zero_map_and_additivity():
    zero_map = {n: 0 for n in POI.generators}
    r0 = rescale_algebra(POI, zero_map)
    ok, diff = tables_equal(r0, POI, {n + "p": n for n in POI.generators})
    assert ok and diff == ()

    ones = {n: 1 for n in PEB.generators}
    twice = rescale_algebra(rescale_algebra(PEB, ones), prime(ones))
    summed = rescale_algebra(PEB, {n: 2 for n in PEB.generators})
    ok, diff = tables_equal(twice, summed, {n + "pp": n + "p" for n in PEB.generators})
    assert ok, diff


def test_contract_std_reaches_central_extension():
    con = contract(PEB, STD_PE_MAP)
    assert con.validate().ok
    assert con.bracket("KPxp", "Pxp") == {"Mp": I}  # the eps^2 Hb' term is gone
    assert con.bracket("KPxp", "KPyp") == {}
    assert con.bracket("KPxp", "Hbp") == {"Pxp": I}
    ok, diff = tables_equal(con, GC, STD_PE_RENAME)
    assert ok and diff == ()


def test_contract_plain_poincare_reaches_galilei():
    con = contract(POI, POI_MAP)
    ok, diff = tables_equal(con, GAL, prime(POI_TO_GAL))
    assert ok and diff == ()


def test_contract_divergent_rotation_scaling():
    bad = {n: (1 if n.startswith("J") else 0) for n in POI.generators}
    with pytest.raises(DivergentContraction) as exc:
        contract(POI, bad)
    offenders = set(exc.value.offenders)
    assert offenders == {
        (("KPx", "KPy", "Jz"), 1),
        (("KPx", "KPz", "Jy"), 1),
        (("KPy", "KPz", "Jx"), 1),
    }


def test_tables_equal_diff_content():
    ok, diff = tables_equal(POI, POI, {n: n for n in POI.generators})
    assert ok and diff == ()
    ok, diff = tables_equal(POI, GAL, POI_TO_GAL)
    assert not ok
    pairs = {row.pair_a for row in diff}
    assert pairs == {("KPx", "KPy"), ("KPx", "KPz"), ("KPy", "KPz"),
                     ("KPx", "Px"), ("KPy", "Py"), ("KPz", "Pz")}
    row = next(r for r in diff if r.pair_a == ("KPx", "KPy"))
    assert row.pair_b == ("Gux", "Guy")
    assert row.left == {"Gthz": -I} and row.right == {}

    with pytest.raises(ContractionError):
        tables_equal(POI, GC, POI_TO_GAL)  # dimension mismatch
    with pytest.raises(ContractionError):
        tables_equal(POI, GAL, dict(POI_TO_GAL, H="Gthx"))  # not a bijection


def test_rescale_element_examples():
    r = rescale_algebra(PEB, STD_PE_MAP)
    eps = Scalar.symbol("eps")
    m_res = rescale_element(UEAElement.gen(PEB, "M"), STD_PE_MAP)
    assert m_res == Scalar.symbol("eps", -2) * UEAElement.gen(r, "Mp")

    c2 = casimir_entries("poincare_trivial_ext_hbar")["C2PE"]
    c2_res = rescale_element(c2, STD_PE_MAP)
    hb, m = UEAElement.gen(r, "Hbp"), UEAElement.gen(r, "Mp")
    psq = sum((UEAElement.gen(r, "P" + ax + "p") ** 2 for ax in "xyz"),
              UEAElement.zero(r))
    expected = (
        -Scalar.symbol("eps", -2) * psq
        + hb ** 2
        + Scalar.symbol("eps", -4) * m ** 2
        + (Scalar.from_int(2) * Scalar.symbol("eps", -2)) * UEAElement.word(r, ("Hbp", "Mp"))
    )
    assert c2_res == expected

    zero_map = {n: 0 for n in PEB.generators}
    r0 = rescale_algebra(PEB, zero_map)
    assert rescale_element(c2, zero_map) == rename_element(
        c2, r0, {n: n + "p" for n in PEB.generators})


def test_contract_casimir_auto_powers():
    ent = casimir_entries("poincare_trivial_ext_hbar")
    con = contract(PEB, STD_PE_MAP)
    c1, p1 = contract_casimir(ent["C1PE"], STD_PE_MAP, "auto")
    assert p1 == 2 and c1 == UEAElement.gen(con, "Mp")
    c2, p2 = contract_casimir(ent["C2PE"], STD_PE_MAP, "auto")
    assert p2 == 4 and c2 == UEAElement.gen(con, "Mp") ** 2
    assert c2 == c1 * c1
    c4, p4 = contract_casimir(ent["C4PE"], STD_PE_MAP, "auto")
    assert p4 == 4
    assert rename_element(c4, GC, STD_PE_RENAME) == casimir_entries("galilei_central")["C4G"]
    for e in (c1, c2, c4):
        assert is_casimir(e).ok


def test_contract_casimir_explicit_powers():
    ent = casimir_entries("poincare_trivial_ext_hbar")
    with pytest.raises(DivergentLimit) as exc:
        contract_casimir(ent["C2PE"], STD_PE_MAP, 2)
    assert exc.value.pole_order == 2
    with pytest.raises(DivergentLimit) as exc:
        contract_casimir(ent["C2PE"], STD_PE_MAP, 3)
    assert exc.value.pole_order == 1
    # auto power minus one diverges (the auto choice is sharp)
    with pytest.raises(DivergentLimit):
        contract_casimir(ent["C1PE"], STD_PE_MAP, 1)

    with pytest.warns(ZeroLimitWarning):
        e, p = contract_casimir(ent["C1PE"], STD_PE_MAP, 5)
    assert p == 5 and e.is_zero()


@pytest.mark.parametrize("flip", [
    ("KPx", "KPy", "Jz"), ("KPx", "Px", "M"), ("Jx", "Jy", "Jz"), ("KPx", "Px", "Hb"),
])
def test_contract_casimir_rejects_sign_flips(flip):
    # (KPx, KPy, Jz) and (KPx, Px, Hb) only touch terms that vanish in the
    # limit, so only the check of the source table can catch them
    broken = PEB.flip_sign(*flip)
    with pytest.raises(ContractionError):
        contract_casimir(UEAElement.gen(broken, "M"), STD_PE_MAP, "auto")
    with pytest.raises(ContractionError):
        contract(broken, STD_PE_MAP)


def test_auto_power_window():
    free = LieAlgebra("free1", ("A",), {})
    with pytest.raises(ContractionError):
        contract_casimir(UEAElement.gen(free, "A"), {"A": 11}, "auto")
    e, p = contract_casimir(UEAElement.gen(free, "A"), {"A": 10}, "auto")
    assert p == 10


def test_full_group_contraction():
    con = contract(FR, STD_FULL_MAP)
    ok, diff = tables_equal(con, FNR, STD_FULL_RENAME)
    assert ok and diff == ()
    assert con.bracket("Qp", "Mp") == {}


def test_shipped_map_files_match_constants():
    assert json.loads((DATA / "std.json").read_text()) == STD_PE_MAP
    assert json.loads((DATA / "std-rename.json").read_text()) == STD_PE_RENAME
    assert json.loads((DATA / "std-full.json").read_text()) == STD_FULL_MAP
    assert json.loads((DATA / "std-full-rename.json").read_text()) == STD_FULL_RENAME
