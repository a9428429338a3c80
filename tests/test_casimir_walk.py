"""Casimir checks walk only the brackets each generator reaches.

_casimir_checks indexes each piece's terms by the letters they hold, builds
[piece, G] from the letters with [letter, G] != 0 only, and straightens no
empty sum.  The reference below is the per-generator sweep it replaced: for
every planned generator, every letter of every term, then one straightening
pass per piece, empty or not.  Both must give the same CasimirCheck (ok,
witness, residue) for every combination, on validated catalog tables, on
contracted tables and on copies that break Jacobi.
"""

import random

import pytest

from lieq import uea
from lieq.casimirs import _PRINTED, CASIMIR_GROUPS, _c4_pieces, casimir_entries
from lieq.catalog import _TABLES, CATALOG_NAMES, catalog
from lieq.contraction import STD_FULL_MAP, STD_PE_MAP, contract, contract_casimir
from lieq.scalars import _mac
from lieq.uea import (
    CasimirCheck,
    UEAElement,
    UEAError,
    _casimir_checks,
    _casimir_plan,
    _key,
    _normalize,
    _term_cap,
    is_casimir,
)
from test_single_pass import (
    C4_GROUPS,
    assert_same_check,
    flipped,
    random_element,
    random_scalar,
)


def ref_casimir_checks(pieces, combos):
    """The per-generator sweep: every letter of every term, every [piece, G] straightened."""
    alg = pieces[0].algebra
    keyed = [[(_key(w), c._terms) for w, c in piece._terms.items()] for piece in pieces]
    checks = [None] * len(combos)
    pending = range(len(combos))
    for g in _casimir_plan(alg):
        brackets = {}
        residues = []
        for terms in keyed:
            raw = {}
            for key, coeff in terms:
                for k in range(1, len(key)):
                    bracket = brackets.get(key[k])
                    if bracket is None:
                        bracket = brackets[key[k]] = tuple(
                            (-d, c._terms) for d, c in alg.bracket_index(-key[k], g).items())
                    for nd, c in bracket:
                        _mac(raw.setdefault(key[:k] + (nd,) + key[k + 1:], {}), c, coeff)
            residues.append(UEAElement(alg, _normalize(alg, raw, _term_cap())))
        if not any(residues):
            continue
        for i in pending:
            residue = sum((r if s > 0 else -r for s, r in zip(combos[i], residues)),
                          UEAElement.zero(alg))
            if residue:
                checks[i] = CasimirCheck(False, alg.generators[g], residue)
        pending = [i for i in pending if checks[i] is None]
        if not pending:
            break
    return [check or CasimirCheck(True, None, UEAElement.zero(alg)) for check in checks]


def assert_same_checks(pieces, combos):
    got = _casimir_checks(pieces, combos)
    want = ref_casimir_checks(pieces, combos)
    assert len(got) == len(want) == len(combos)
    for check, ref in zip(got, want):
        assert_same_check(check, ref)
        assert str(check.residue) == str(ref.residue)


def draw_admissible(rng, alg):
    """A seeded eps-power map in {0, 1, 2} under which every bracket has a limit."""
    while True:
        powers = {g: rng.choice((0, 1, 2)) for g in alg.generators}
        if len(set(powers.values())) > 1 and all(
                powers[a] + powers[b] >= powers[d] for a, b, d in alg.nonzero_constants()):
            return powers


def elements(rng, alg, entries=()):
    """Seeded elements of alg: random sums, the given entries, and each times a generator."""
    out = [random_element(rng, alg, max_len=4, max_terms=5) for _ in range(6)]
    for e in entries:
        g = UEAElement.gen(alg, rng.choice(alg.generators))
        out += [e, e * g, g * e + e]
    return out


def assert_all_agree(rng, alg, entries=()):
    items = elements(rng, alg, entries)
    for e in items:
        assert_same_checks((e,), ((1,),))
        assert_same_check(is_casimir(e), ref_casimir_checks((e,), ((1,),))[0])
    for _ in range(6):
        a, b = rng.choice(items), rng.choice(items) * random_scalar(rng)
        assert_same_checks((a, b), ((1, 1), (1, -1), (-1, 1)))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_validated_catalog_tables_match_the_sweep(name):
    rng = random.Random(2713 + len(name))
    alg = catalog(name)
    assert alg._valid
    entries = list(casimir_entries(name).values()) if name in CASIMIR_GROUPS else []
    assert_all_agree(rng, alg, entries)


@pytest.mark.parametrize("name, exponents", [
    ("poincare_trivial_ext_hbar", STD_PE_MAP),
    ("full_relativistic", STD_FULL_MAP),
    ("poincare", None), ("galilei_central", None), ("poincare_trivial_ext", None),
    ("full_nonrelativistic", None),
])
def test_contracted_tables_match_the_sweep(name, exponents):
    rng = random.Random(5003 + len(name))
    source = catalog(name)
    for exponents in [exponents] if exponents else [draw_admissible(rng, source)
                                                    for _ in range(3)]:
        con = contract(source, exponents)
        assert not con._valid  # no contracted table is validated: every generator is planned
        limits = [contract_casimir(e, exponents)[0] for e in casimir_entries(name).values()]
        assert all(limit.algebra is con for limit in limits)
        assert_all_agree(rng, con, limits)


@pytest.mark.parametrize("name", ("poincare", "galilei_central", "full_relativistic"))
def test_a_table_that_breaks_jacobi_matches_the_sweep(name):
    rng = random.Random(7741 + len(name))
    alg = catalog(name)
    for _ in range(50):
        broken = flipped(rng, alg)
        if broken.validate().jacobi:
            break
    assert not broken._valid and list(_casimir_plan(broken)) == list(range(broken.dim))
    entries = [uea.rename_element(e, broken) for e in casimir_entries(name).values()]
    assert_all_agree(rng, broken, entries)


@pytest.mark.parametrize("name", C4_GROUPS)
def test_quartic_pieces_match_the_sweep(name):
    alg, kin = catalog(name), _TABLES[name]
    broken = flipped(random.Random(9173), alg)
    broken.validate()
    for table in (alg, broken):
        for weyl, signs in _PRINTED.items():
            base, cross = _c4_pieces(table, kin, weyl)
            assert_same_checks((base, cross), [(1, s) for s in signs.values()])
            assert_same_checks((base, cross), [(1, -s) for s in signs.values()])


# -- skipped work and the term cap ---------------------------------------------------


def test_a_central_element_of_a_contracted_table_is_never_straightened(monkeypatch):
    con = contract(catalog("poincare_trivial_ext_hbar"), STD_PE_MAP)
    calls = []
    normalize = uea._normalize
    monkeypatch.setattr(uea, "_normalize", lambda *a: calls.append(1) or normalize(*a))
    check = is_casimir(UEAElement.gen(con, "Mp"))
    assert check.ok and check.witness is None and not check.residue
    assert calls == []


def test_a_malformed_term_cap_fails_a_check_with_nothing_to_straighten(monkeypatch):
    con = contract(catalog("poincare_trivial_ext_hbar"), STD_PE_MAP)
    monkeypatch.setenv("LIEQ_TERM_CAP", "abc")
    with pytest.raises(UEAError, match="LIEQ_TERM_CAP must be a positive integer"):
        is_casimir(UEAElement.gen(con, "Mp"))
    with pytest.raises(UEAError, match="LIEQ_TERM_CAP must be a positive integer"):
        is_casimir(UEAElement.gen(catalog("poincare_trivial_ext"), "M"))
