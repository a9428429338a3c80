"""Generalized Inonu-Wigner contraction: rescaling, limits, Casimir transport."""

import gc
import json
import random
import warnings
import weakref
from pathlib import Path

import pytest

from lieq import algebra, contraction, uea
from lieq.algebra import LieAlgebra
from lieq.casimirs import CASIMIR_GROUPS, casimir_entries
from lieq.catalog import algebra_from_json, algebra_to_json, catalog
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
from lieq.expr import parse_scalar
from lieq.scalars import Scalar, ScalarError
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
    with pytest.raises(ContractionError, match="total"):
        tables_equal(POI, GAL, {"H": "Gthx"})  # not total


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


def test_auto_power_is_minus_the_lowest_eps_degree():
    free = LieAlgebra("free1", ("A",), {})
    e, p = contract_casimir(UEAElement.gen(free, "A"), {"A": 11}, "auto")
    assert p == 11 and str(e) == "Ap"
    e, p = contract_casimir(UEAElement.gen(PEB, "M") ** 6, STD_PE_MAP, "auto")
    assert p == 12 and str(e) == "Mp^6"


def test_contract_casimir_of_zero_keeps_the_power():
    zero = UEAElement.zero(PEB)
    assert contract_casimir(zero, STD_PE_MAP) == (UEAElement.zero(contract(PEB, STD_PE_MAP)), 0)
    assert contract_casimir(zero, STD_PE_MAP, 3)[1] == 3


@pytest.mark.parametrize("element", [UEAElement.gen(PEB, "M"), UEAElement.zero(PEB)],
                         ids=["M", "zero"])
@pytest.mark.parametrize("power", ["2", 2.0, True, None])
def test_contract_casimir_rejects_a_non_int_power(element, power):
    with pytest.raises(ContractionError, match="power must be an integer"):
        contract_casimir(element, STD_PE_MAP, power)


def test_a_non_int_power_is_rejected_before_any_contraction(monkeypatch):
    monkeypatch.setattr(contraction, "contract", lambda *a: pytest.fail("contracted"))
    with pytest.raises(ContractionError, match="power must be an integer"):
        contract_casimir(UEAElement.gen(PEB, "M"), STD_PE_MAP, 1.5)


# -- the validity fact: a source found valid is not validated again ------------

CONTRACTIONS = {
    "rescale_algebra": lambda alg: rescale_algebra(alg, STD_PE_MAP),
    "contract": lambda alg: contract(alg, STD_PE_MAP),
    "contract_casimir": lambda alg: contract_casimir(UEAElement.gen(alg, "M"), STD_PE_MAP),
}


def validated_names(monkeypatch):
    """The list that every later validate() call appends its table's name to."""
    names = []
    real_validate = LieAlgebra.validate

    def counting_validate(self):
        names.append(self.name)
        return real_validate(self)

    monkeypatch.setattr(LieAlgebra, "validate", counting_validate)
    return names


def named_copy(alg):
    return LieAlgebra(alg.name, alg.generators, dict(alg.nonzero_brackets()), alg.symbols)


@pytest.mark.parametrize("run", CONTRACTIONS.values(), ids=CONTRACTIONS)
def test_a_source_is_validated_once_unless_found_valid(run, monkeypatch):
    names = validated_names(monkeypatch)
    run(PEB)  # catalog() validated it when it built it
    assert names == []
    for _ in range(3):
        run(named_copy(PEB))  # no validate() has passed the copy
        assert names == [PEB.name]
        del names[:]
    source = named_copy(PEB)
    run(source)
    run(source)  # the first call found it valid
    assert names == [PEB.name]


@pytest.mark.parametrize("run", CONTRACTIONS.values(), ids=CONTRACTIONS)
@pytest.mark.parametrize("flip", [("KPx", "KPy", "Jz"), ("KPx", "Px", "Hb")])
def test_a_broken_source_is_checked_on_every_call(run, flip, monkeypatch):
    broken = PEB.flip_sign(*flip)
    names = validated_names(monkeypatch)
    for _ in range(2):
        with pytest.raises(ContractionError, match="is not a Lie algebra"):
            run(broken)
    assert names == [broken.name] * 2


def test_an_undeclared_symbol_is_not_marked_valid(monkeypatch):
    alg = LieAlgebra("q_table", ("A", "B"), {("A", "B"): {"B": Scalar.symbol("q")}})
    report = alg.validate()
    assert not report.jacobi and report.issues  # Jacobi holds, the report is not ok
    names = validated_names(monkeypatch)
    exponents = {"A": 0, "B": 1}
    for run in (lambda: rescale_algebra(alg, exponents), lambda: contract(alg, exponents),
                lambda: contract_casimir(UEAElement.gen(alg, "A"), exponents)):
        with pytest.raises(ContractionError, match=r"\(0 Jacobi failures, 1 issues\)"):
            run()
    assert names == ["q_table"] * 3


def test_validate_recomputes_on_every_call(monkeypatch):
    products = []
    real_mac = algebra._mac

    def counting_mac(acc, t1, t2):
        products.append(1)
        real_mac(acc, t1, t2)

    monkeypatch.setattr(algebra, "_mac", counting_mac)
    first = POI.validate()
    once = len(products)
    second = POI.validate()
    assert once > 0 and len(products) == 2 * once
    assert first.ok and second.ok and first is not second


# -- live derived tables are shared, and nothing is kept ------------------------

def test_the_casimir_limits_share_the_contracted_table():
    con = contract(PEB, STD_PE_MAP)
    entries = casimir_entries("poincare_trivial_ext_hbar")
    for label in ("C1PE", "C2PE", "C4PE"):
        limit, _ = contract_casimir(entries[label], STD_PE_MAP)
        assert limit.algebra is con, label
    assert contract(PEB, STD_PE_MAP) is con


def test_rescale_element_shares_the_rescaled_table_of_its_map():
    rescaled = rescale_algebra(PEB, STD_PE_MAP)
    mass = UEAElement.gen(PEB, "M")
    assert rescale_element(mass, STD_PE_MAP).algebra is rescaled
    other = rescale_element(mass, dict(STD_PE_MAP, M=1)).algebra
    assert other is not rescaled and other != rescaled
    assert contract(PEB, STD_PE_MAP) is not rescaled  # another kind of table


def test_a_dropped_table_is_not_kept():
    source = named_copy(PEB)
    con = contract(source, STD_PE_MAP)
    rescaled = rescale_element(UEAElement.gen(source, "M"), STD_PE_MAP)
    dead = weakref.ref(con)
    assert len(source._derived) == 2
    del con, rescaled
    gc.collect()
    assert dead() is None and len(source._derived) == 0


def test_a_task_builds_one_table_and_one_rewrite_table(monkeypatch):
    source = named_copy(PEB)
    identity = {g: g for g in source.generators}
    elements = [rename_element(e, source, identity)
                for e in casimir_entries("poincare_trivial_ext_hbar").values()]
    tables, rewrites = [], []
    primed = contraction._primed_algebra
    monkeypatch.setattr(contraction, "_primed_algebra",
                        lambda *a: tables.append(1) or primed(*a))
    descents = uea._descents

    def counting_descents(alg):
        if alg._descents is None:
            rewrites.append(1)
        return descents(alg)

    monkeypatch.setattr(uea, "_descents", counting_descents)
    for task in (1, 2):  # the second task keeps nothing of the first, so it builds again
        con = contract(source, STD_PE_MAP)
        for element in elements:
            limit, _ = contract_casimir(element, STD_PE_MAP)
            assert limit.algebra is con and is_casimir(limit).ok
        assert (len(tables), len(rewrites)) == (task, task)
        del con, limit
        gc.collect()


def test_a_source_without_eps_gets_it_declared_last():
    # The rescaled and contracted tables of a source that does not declare eps
    # append it to the source's symbols; the tables and limits are PEB's.
    doc = json.loads(algebra_to_json(PEB))
    doc["symbols"] = []
    sources = [LieAlgebra("bare", PEB.generators, dict(PEB.nonzero_brackets()), symbols=()),
               algebra_from_json(json.dumps(doc)),
               LieAlgebra("bare_m", PEB.generators, dict(PEB.nonzero_brackets()), symbols=("m",))]
    want = contract(PEB, STD_PE_MAP)
    entries = casimir_entries("poincare_trivial_ext_hbar")
    for source in sources:
        primed = source.symbols + ("eps",)
        for table in (rescale_algebra(source, STD_PE_MAP), contract(source, STD_PE_MAP)):
            assert table.symbols == primed and table.validate().ok, source.name
        con = contract(source, STD_PE_MAP)
        assert list(con.nonzero_brackets()) == list(want.nonzero_brackets())
        for label, element in entries.items():
            limit, power = contract_casimir(rename_element(element, source), STD_PE_MAP)
            assert limit.algebra is con and is_casimir(limit).ok, label
            want_limit, want_power = contract_casimir(element, STD_PE_MAP)
            assert (str(limit), power) == (str(want_limit), want_power), label


@pytest.mark.parametrize("run", CONTRACTIONS.values(), ids=CONTRACTIONS)
def test_a_source_that_fails_its_check_registers_nothing(run):
    broken = PEB.flip_sign("KPx", "Px", "Hb")
    for _ in range(2):
        with pytest.raises(ContractionError, match="is not a Lie algebra"):
            run(broken)
    assert not broken._derived


def test_a_divergent_map_registers_nothing():
    source = named_copy(POI)
    bad = {n: (1 if n.startswith("J") else 0) for n in POI.generators}
    for _ in range(2):
        with pytest.raises(DivergentContraction):
            contract(source, bad)
        with pytest.raises(DivergentContraction):
            contract_casimir(UEAElement.gen(source, "H"), bad)
    assert not source._derived


# -- the raw eps limits against the chain of Scalar operations -----------------

def ref_contract(algebra, exponents):
    """contract as mul_power -> min_degree -> limit0 on each constant, built by name."""
    contraction._check_map(algebra, exponents)
    gens = algebra.generators
    brackets = {}
    offenders = []
    for (a, b), combo in algebra.nonzero_brackets():
        for d, coeff in combo.items():
            scaled = coeff.mul_power("eps", exponents[a] + exponents[b] - exponents[d])
            low = scaled.min_degree("eps")
            if low < 0:
                offenders.append(((a, b, d), -low))
                continue
            kept = scaled.limit0("eps")
            if not kept.is_zero():
                brackets.setdefault((a + "p", b + "p"), {})[d + "p"] = kept
    if offenders:
        raise DivergentContraction(offenders)
    if not algebra.validate().ok:
        raise ContractionError("%r is not a Lie algebra" % algebra.name)
    symbols = algebra.symbols + (() if "eps" in algebra.symbols else ("eps",))
    return LieAlgebra(algebra.name + "_contracted", tuple(g + "p" for g in gens), brackets,
                      symbols)


def ref_contract_casimir(element, exponents, power="auto"):
    """contract_casimir as the same chain of Scalar operations on each word."""
    contracted = ref_contract(element.algebra, exponents)
    gens = element.algebra.generators
    rescaled = {word: coeff.mul_power("eps", -sum(exponents[gens[k]] for k in word))
                for word, coeff in element._terms.items()}
    if not rescaled:
        return UEAElement.zero(contracted), 0 if power == "auto" else power
    low = min(coeff.min_degree("eps") for coeff in rescaled.values())
    used = -low if power == "auto" else power
    if low + used < 0:
        raise DivergentLimit(-(low + used))
    terms = {}
    for word, coeff in rescaled.items():
        kept = coeff.mul_power("eps", used).limit0("eps")
        if not kept.is_zero():
            terms[word] = kept
    if not terms:
        warnings.warn("eps**%d suppresses every term; the limit is zero" % used,
                      ZeroLimitWarning)
        return UEAElement.zero(contracted), used
    return UEAElement(contracted, terms), used


def shown(result):
    """A table, or an (element, power) pair, as plain data in listing order."""
    if isinstance(result, LieAlgebra):
        return (result.name, result.generators, result.symbols,
                [(pair, list(combo.items())) for pair, combo in result.nonzero_brackets()])
    element, power = result
    return shown(element.algebra), list(element._terms.items()), str(element), power


def outcome(run, *args):
    """(what run(*args) returns or raises, as plain data, [(warning class, message)])."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = ("ok", shown(run(*args)))
        except DivergentContraction as e:
            got = ("diverges", e.offenders)
        except DivergentLimit as e:
            got = ("pole", e.pole_order)
        except (ContractionError, ScalarError) as e:
            got = (type(e).__name__, str(e).split(" (")[0])
    return got, [(w.category, str(w.message)) for w in caught]


def assert_same_limits(alg, exponents, elements, powers=("auto",)):
    """contract and contract_casimir agree with the references; the kind of
    outcome of contract ("ok", "diverges" or an error class name)."""
    got = outcome(contract, alg, exponents)
    assert got == outcome(ref_contract, alg, exponents), exponents
    for element in elements:
        for power in powers:
            want = outcome(ref_contract_casimir, element, exponents, power)
            assert outcome(contract_casimir, element, exponents, power) == want, (
                exponents, str(element), power)
    return got[0][0]


def test_raw_limits_match_the_scalar_chain_on_seeded_maps():
    rng = random.Random(24)
    kinds = []
    for name in CASIMIR_GROUPS:
        alg = catalog(name)
        elements = list(casimir_entries(name).values())
        for _ in range(6):
            exponents = {g: rng.randrange(-2, 4) for g in alg.generators}
            kinds.append(assert_same_limits(alg, exponents, elements))
        for _ in range(2):  # k_a + k_b - k_d >= 0 for exponents in {1, 2}: a finite limit
            exponents = {g: rng.randrange(1, 3) for g in alg.generators}
            assert assert_same_limits(alg, exponents, elements) == "ok"
    assert kinds.count("diverges") >= len(CASIMIR_GROUPS) and "ok" in kinds


MIXED_TABLE = json.dumps({
    "name": "mixed",
    "generators": ["H", "A", "B", "Z"],
    "symbols": ["eps", "c", "m"],
    # [H, A] = p A, [H, B] = q B, [A, B] = r Z, [H, Z] = (p + q) Z is Lie for any p, q, r
    "brackets": [
        {"a": "H", "b": "A", "result": [{"coeff": "c*eps^-1 + m", "gen": "A"}]},
        {"a": "H", "b": "B", "result": [{"coeff": "(2+i)*c^2*eps^-3 - 3*m*eps", "gen": "B"}]},
        {"a": "A", "b": "B", "result": [{"coeff": "eps^2 - i*c*m + 5", "gen": "Z"}]},
        {"a": "H", "b": "Z", "result": [
            {"coeff": "c*eps^-1 + m + (2+i)*c^2*eps^-3 - 3*m*eps", "gen": "Z"}]},
    ],
})


def test_raw_limits_match_the_scalar_chain_on_a_table_with_poles():
    alg = algebra_from_json(MIXED_TABLE)
    assert alg.validate().ok
    words = {("Z",): "1", ("H", "Z"): "eps^-1*c + m", ("A", "B"): "i*m^2 - eps^3",
             ("H", "H", "A"): "c*eps^-2", ("B", "Z", "Z"): "7*eps^4 + eps^-1"}
    elements = [UEAElement.zero(alg), UEAElement.gen(alg, "Z")]
    elements.append(UEAElement.from_terms(alg, {w: parse_scalar(t, alg.symbols)
                                                for w, t in words.items()}))
    rng = random.Random(7)
    kinds = []
    for _ in range(60):
        exponents = {g: rng.randrange(-2, 4) for g in alg.generators}
        kinds.append(assert_same_limits(alg, exponents, elements, ("auto", 0, 3)))
    assert "diverges" in kinds and len(set(kinds)) > 1


HUGE = [2**31, 2**32 - 1, 2**32, 2**32 + 2, 2**33, 2**40, 2**128, -2**32, -2**33, -2**128]


def test_raw_limits_match_the_scalar_chain_on_explicit_powers():
    entries = casimir_entries("poincare_trivial_ext_hbar")
    elements = [entries[label] for label in ("C1PE", "C2PE", "C4PE")]
    elements.append(UEAElement.zero(PEB))
    powers = ["auto"] + list(range(-1, 9)) + HUGE
    assert assert_same_limits(PEB, STD_PE_MAP, elements, powers) == "ok"
    kinds = {outcome(contract_casimir, e, STD_PE_MAP, p)[0][0]
             for e in elements for p in powers}
    assert {"ok", "pole", "ScalarError"} <= kinds
    with pytest.warns(ZeroLimitWarning):
        contract_casimir(entries["C1PE"], STD_PE_MAP, 2**32 - 3)


@pytest.mark.parametrize("exponent", HUGE)
@pytest.mark.parametrize("generator", ["M", "KPx"])
def test_raw_limits_match_the_scalar_chain_on_huge_map_exponents(generator, exponent):
    entries = casimir_entries("poincare_trivial_ext_hbar")
    exponents = dict(STD_PE_MAP, **{generator: exponent})
    assert_same_limits(PEB, exponents, [UEAElement.gen(PEB, "M"), entries["C2PE"]],
                       ("auto", 0, 2))


def std_cases():
    """(group, map) for each Casimir group that a standard map covers."""
    maps = (STD_PE_MAP, STD_FULL_MAP)
    return [(name, m) for name in CASIMIR_GROUPS for m in maps
            if set(catalog(name).generators) == set(m)]


def from_primed_names(target, element, exponents, power=None):
    """The element rescaled (and, given a power, contracted) by name, then straightened."""
    terms = {}
    for names, coeff in element.terms():
        coeff = coeff.mul_power("eps", -sum(exponents[n] for n in names))
        if power is not None:
            coeff = coeff.mul_power("eps", power).limit0("eps")
        if not coeff.is_zero():
            terms[tuple(n + "p" for n in names)] = coeff
    return UEAElement.from_terms(target, terms)


def test_rescaled_and_contracted_casimirs_match_the_straightened_names():
    cases = std_cases()
    assert [name for name, _ in cases] == ["poincare_trivial_ext_hbar", "full_relativistic"]
    for name, exponents in cases:
        rescaled = rescale_algebra(catalog(name), exponents)
        contracted = contract(catalog(name), exponents)
        for label, element in casimir_entries(name).items():
            got = rescale_element(element, exponents)
            want = from_primed_names(rescaled, element, exponents)
            assert got == want and str(got) == str(want), (name, label)
            got, power = contract_casimir(element, exponents)
            want = from_primed_names(contracted, element, exponents, power)
            assert got == want and str(got) == str(want), (name, label)


def test_rescaling_and_contracting_elements_never_straighten(monkeypatch):
    elements = [(e, m) for name, m in std_cases() for e in casimir_entries(name).values()]
    calls = []
    normalize = uea._normalize
    monkeypatch.setattr(uea, "_normalize", lambda *a: calls.append(1) or normalize(*a))
    for element, exponents in elements:
        rescale_element(element, exponents)
        contract_casimir(element, exponents)
    assert calls == []


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


# -- tables_equal against the name-level comparison ------------------------------------


def ref_tables_equal(algebra_a, algebra_b, renaming):
    """tables_equal as it was written on generator names: brackets re-summed by name."""
    index = {g: k for k, g in enumerate(algebra_a.generators)}
    inverse = {t: s for s, t in renaming.items()}
    pairs = {pair for pair, _ in algebra_a.nonzero_brackets()}
    pairs.update(tuple(sorted((inverse[x], inverse[y]), key=index.get))
                 for (x, y), _ in algebra_b.nonzero_brackets())
    diff = []
    for x, y in sorted(pairs, key=lambda pair: (index[pair[0]], index[pair[1]])):
        left = {renaming[d]: c for d, c in algebra_a.bracket(x, y).items()}
        right = algebra_b.bracket(renaming[x], renaming[y])
        if left != right:
            diff.append(contraction.TableDiff((x, y), (renaming[x], renaming[y]), left, right))
    return (not diff, tuple(diff))


def assert_same_comparison(a, b, renaming):
    got, want = tables_equal(a, b, renaming), ref_tables_equal(a, b, renaming)
    assert got == want
    assert [(list(r.left.items()), list(r.right.items())) for r in got[1]] == \
        [(list(r.left.items()), list(r.right.items())) for r in want[1]]
    return got


def reordered(rng, alg):
    """(copy of alg on fresh names in a shuffled basis order, renaming of alg's names onto it)."""
    renaming = {g: "N%d" % k for k, g in enumerate(alg.generators)}
    order = list(renaming.values())
    rng.shuffle(order)
    brackets = {(renaming[a], renaming[b]): {renaming[d]: c for d, c in combo.items()}
                for (a, b), combo in alg.nonzero_brackets()}
    return LieAlgebra(alg.name + "_reordered", order, brackets, alg.symbols), renaming


def test_tables_equal_matches_the_name_level_reference_on_contractions():
    for a, b, renaming in (
            (contract(PEB, STD_PE_MAP), GC, STD_PE_RENAME),  # report and `tables` CLI call
            (contract(FR, STD_FULL_MAP), FNR, STD_FULL_RENAME),  # report
            (contract(POI, POI_MAP), GAL, prime(POI_TO_GAL)),
            (POI, GAL, POI_TO_GAL)):
        ok, diff = assert_same_comparison(a, b, renaming)
        assert ok == (a is not POI) and ok == (diff == ())


def test_tables_equal_matches_the_name_level_reference_on_flipped_signs():
    con = contract(PEB, STD_PE_MAP)
    for a, b, d in GC.nonzero_constants():
        flipped = GC.flip_sign(a, b, d)
        assert not assert_same_comparison(con, flipped, STD_PE_RENAME)[0]
        assert not assert_same_comparison(flipped, GC, {g: g for g in GC.generators})[0]


@pytest.mark.parametrize("name", ["poincare", "galilei_central", "full_relativistic"])
def test_tables_equal_matches_the_name_level_reference_on_reordered_bases(name):
    rng = random.Random(7207 + len(name))
    alg = catalog(name)
    for _ in range(4):
        copy, renaming = reordered(rng, alg)
        assert assert_same_comparison(alg, copy, renaming)[0]
        assert assert_same_comparison(copy, alg, {t: s for s, t in renaming.items()})[0]
        a, b, d = rng.choice(alg.nonzero_constants())
        assert not assert_same_comparison(alg.flip_sign(a, b, d), copy, renaming)[0]
        # a bijection that is not the true one: many pairs differ, in a's order
        targets = list(renaming.values())
        rng.shuffle(targets)
        wrong = dict(zip(alg.generators, targets))
        assert not assert_same_comparison(alg, copy, wrong)[0]
        assert not assert_same_comparison(copy, alg, {t: s for s, t in wrong.items()})[0]
