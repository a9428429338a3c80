"""Single-pass straightening against the per-piece algorithms it replaced.

The library builds each whole unstraightened sum (all rows of a product,
the whole [e, G] of a Casimir check, every arrangement of every monomial of
a Weyl ordering, every row of a substitution) and straightens it once.  The
references below straighten one row, one term of e, one monomial or one
substituted letter at a time and add the normal forms.  Straightening always
rewrites a word at its leftmost descent, so its normal form is linear in
words, N(u·v) = N(N(u)·v), and the two must agree exactly, on catalog tables
and on copies that break Jacobi alike.
"""

import itertools
import random
from fractions import Fraction

import pytest

from lieq import casimirs, uea
from lieq.casimirs import (
    C4_VARIANTS,
    CASIMIR_GROUPS,
    OrderingStep,
    _ordering_studies,
    casimir_catalog,
    casimir_variant,
    ordering_study,
)
from lieq.catalog import _TABLES, AXES, catalog, eps3
from lieq.report import report_paper
from lieq.scalars import Scalar
from lieq.uea import (
    CasimirCheck,
    UEAElement,
    _casimir_checks,
    _casimir_plan,
    _key,
    _normalize,
    _term_cap,
    is_casimir,
    rename_element,
    substitute,
    weyl_symmetrize,
    weyl_word,
)

C4_GROUPS = tuple(g for g in CASIMIR_GROUPS if any(
    label.startswith("C4") for label in casimirs._SPECS[g]))

# -- references: one straightening per row, term or monomial ------------------


def _accumulate(terms, key, coeff):
    """Add coeff into terms[key] of a {key: Scalar} map, dropping the key at zero."""
    cur = terms.get(key)
    cur = coeff if cur is None else cur + coeff
    if cur.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = cur


def normalize(alg, raw):
    """_normalize on a {word: Scalar} map, through keyed rows of fresh raw maps."""
    return _normalize(alg, {_key(w): dict(c._terms) for w, c in raw.items()}, _term_cap())


def ref_mul(a, b):
    terms = {}
    for w2, c2 in b._terms.items():
        raw = {w1 + w2: c1 * c2 for w1, c1 in a._terms.items()}
        for w, c in normalize(a.algebra, raw).items():
            _accumulate(terms, w, c)
    return UEAElement(a.algebra, terms)


def ref_is_casimir(e):
    alg = e.algebra
    for g in _casimir_plan(alg):
        residue = {}
        for word, coeff in e._terms.items():
            raw = {}
            for k, letter in enumerate(word):
                for d, c in alg.bracket_index(letter, g).items():
                    _accumulate(raw, word[:k] + (d,) + word[k + 1:], c * coeff)
            if raw:
                for w, c in normalize(alg, raw).items():
                    _accumulate(residue, w, c)
        if residue:
            return CasimirCheck(False, alg.generators[g], UEAElement(alg, residue))
    return CasimirCheck(True, None, UEAElement.zero(alg))


def ref_weyl_word(alg, names, coeff=None):
    coeff = Scalar.one() if coeff is None else coeff
    word = tuple(alg.generator(n).index for n in names)
    if len(word) <= 1:
        return UEAElement(alg, {word: coeff} if not coeff.is_zero() else {})
    arrangements = sorted(set(itertools.permutations(word)))
    weight = coeff * Scalar.rational(1, len(arrangements))
    return UEAElement(alg, normalize(alg, {arr: weight for arr in arrangements}))


def ref_weyl_symmetrize(e):
    alg = e.algebra
    out = UEAElement.zero(alg)
    for word, coeff in e._terms.items():
        out = out + ref_weyl_word(alg, tuple(alg.generators[k] for k in word), coeff)
    return out


def ref_substitute(e, mapping):
    """substitute, one product per letter and one sum per word (checks left out)."""
    alg = e.algebra
    values = {alg.generator(name).index: value if isinstance(value, UEAElement)
              else UEAElement.unit(alg) * value for name, value in mapping.items()}
    out = UEAElement.zero(alg)
    for word, coeff in e._terms.items():
        term = UEAElement.unit(alg) * coeff
        for letter in word:
            factor = values.get(letter)
            if factor is None:
                factor = UEAElement(alg, {(letter,): Scalar.one()})
            term = term * factor
        out = out + term
    return out


def ref_casimir_variant(alg, name, variant):
    kin = _TABLES[name]
    out = UEAElement.zero(alg)
    if variant == "factored":
        # sum_i N_i N_i [- (J.P)^2], N_i = sum_pref p J_i - eps_ijk K_j P_k, expanded
        # into words here and each word straightened on its own, so the reference
        # holds on every table, Jacobi or not.
        for i in AXES:
            n_i = [((p, "J" + i), 1) for p in kin.kp]
            for j in AXES:
                for k in AXES:
                    if eps3(i, j, k):
                        n_i.append(((kin.boost + j, "P" + k), -eps3(i, j, k)))
            for u, a in n_i:
                for v, b in n_i:
                    out = out + UEAElement.word(alg, u + v, Scalar.from_int(a * b))
        if kin.kk:
            for i in AXES:
                for j in AXES:
                    out = out - UEAElement.word(alg, ("J" + i, "P" + i, "J" + j, "P" + j))
        return out
    sign = 1 if variant == "weyl_mirrored" else -1
    build = UEAElement.word if variant == "verbatim" else ref_weyl_word
    base, cross = casimirs._c4_monomials(kin)
    for names, coeff in base + [(names, sign * coeff) for names, coeff in cross]:
        out = out + build(alg, names, Scalar.from_int(coeff))
    return out


# -- inputs -----------------------------------------------------------------------


def random_scalar(rng):
    s = Scalar.gaussian(Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
                        Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
    if rng.random() < 0.25:
        s = s * rng.choice((Scalar.symbol("c"), Scalar.symbol("eps", -1)))
    return s


def random_element(rng, alg, max_len=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        names = tuple(rng.choice(alg.generators) for _ in range(rng.randint(0, max_len)))
        terms[names] = random_scalar(rng)
    return UEAElement.from_terms(alg, terms)


def broken_copy(rng, alg, mutate):
    """The first of 50 random mutate(rng, alg) copies that fails Jacobi."""
    for _ in range(50):
        copy = mutate(rng, alg)
        if copy.validate().jacobi:
            return copy
    raise AssertionError("no Jacobi-breaking copy of %s" % alg.name)


def flipped(rng, alg):
    (a, b), combo = rng.choice(list(alg.nonzero_brackets()))
    return alg.flip_sign(a, b, rng.choice(sorted(combo)))


def rebracketed(rng, alg):
    x, y = rng.sample(alg.generators, 2)
    return alg.with_bracket(x, y, {rng.choice(alg.generators): random_scalar(rng)})


def tables(rng, name):
    alg = catalog(name)
    return alg, broken_copy(rng, alg, flipped), broken_copy(rng, alg, rebracketed)


# -- comparisons -------------------------------------------------------------------------


def assert_same_element(got, want):
    assert got.algebra is want.algebra
    assert got._terms == want._terms


def assert_same_check(got, want):
    assert (got.ok, got.witness) == (want.ok, want.witness)
    assert_same_element(got.residue, want.residue)


@pytest.mark.parametrize("name", ("poincare", "galilei", "galilei_central", "full_relativistic"))
def test_products_checks_and_weyl_match_the_per_piece_reference(name):
    rng = random.Random(8111 + len(name))
    for alg in tables(rng, name):
        entries = [rename_element(e.element, alg) for e in casimir_catalog(name)] \
            if name in CASIMIR_GROUPS else []
        for _ in range(12):
            a, b = random_element(rng, alg), random_element(rng, alg)
            assert_same_element(a * b, ref_mul(a, b))
            assert_same_check(is_casimir(a), ref_is_casimir(a))
            assert_same_element(weyl_symmetrize(a), ref_weyl_symmetrize(a))
            names = tuple(rng.choice(alg.generators) for _ in range(rng.randint(0, 4)))
            coeff = random_scalar(rng)
            assert_same_element(weyl_word(alg, names, coeff), ref_weyl_word(alg, names, coeff))
        for entry in entries:
            g = UEAElement.gen(alg, rng.choice(alg.generators))
            for e in (entry, entry * g, g * entry):
                assert_same_element(e * g, ref_mul(e, g))
                assert_same_check(is_casimir(e), ref_is_casimir(e))
            assert_same_element(weyl_symmetrize(entry), ref_weyl_symmetrize(entry))


@pytest.mark.parametrize("name", C4_GROUPS)
def test_c4_variants_match_the_per_monomial_reference(name, monkeypatch):
    rng = random.Random(6007 + len(name))
    label = next(lbl for lbl in casimirs._SPECS[name] if lbl.startswith("C4"))
    for alg in tables(rng, name):
        monkeypatch.setattr(casimirs, "catalog", lambda _name, alg=alg: alg)
        monkeypatch.setattr(casimirs, "_CATALOG_CACHE", {})  # "factored" is the catalog entry
        for variant in C4_VARIANTS:
            got = casimir_variant(name, label, variant)
            want = ref_casimir_variant(alg, name, variant)
            assert_same_element(got, want)
            assert_same_check(is_casimir(got), ref_is_casimir(want))


def test_factored_quartic_matches_the_per_word_reference_on_an_overlapping_copy(monkeypatch):
    # [M, Jx] = Q and [Q, M] = M break Jacobi where straightening N_i before
    # multiplying changes the quartic (by Q); the per-word reference still agrees.
    one = Scalar.one()
    alg = catalog("full_relativistic").with_bracket("M", "Jx", {"Q": one}) \
        .with_bracket("Q", "M", {"M": one})
    assert alg.validate().jacobi
    monkeypatch.setattr(casimirs, "catalog", lambda _name: alg)
    monkeypatch.setattr(casimirs, "_CATALOG_CACHE", {})
    for variant in C4_VARIANTS:
        got = casimir_variant("full_relativistic", "C4PE", variant)
        assert_same_element(got, ref_casimir_variant(alg, "full_relativistic", variant))


# -- shared straightening across the printed orderings -------------------------------


def ref_ordering_study(name):
    """ordering_study(name) step by step: build each variant, then is_casimir it."""
    alg = catalog(name)
    out = {}
    for entry in casimir_catalog(name):
        candidates = [(variant, ref_casimir_variant(alg, name, variant))
                      for variant in C4_VARIANTS
                      if entry.label.startswith("C4") and variant != entry.ordering]
        candidates.append((entry.ordering, entry.element))
        steps = []
        for variant, e in candidates:
            check = is_casimir(e)
            shift = e - entry.element if check.ok else None
            steps.append(OrderingStep(variant, check.ok, check.witness, shift, check.residue))
        out[entry.label] = tuple(steps)
    return out


def assert_same_study(got, want):
    assert list(got) == list(want)
    for label, steps in got.items():
        assert len(steps) == len(want[label])
        for step, ref in zip(steps, want[label]):
            assert (step.variant, step.ok, step.witness) == (ref.variant, ref.ok, ref.witness)
            assert (step.shift is None) == (ref.shift is None)
            if ref.shift is not None:
                assert_same_element(step.shift, ref.shift)
            assert_same_element(step.residue, ref.residue)


@pytest.mark.parametrize("name", CASIMIR_GROUPS)
def test_ordering_study_matches_the_step_by_step_reference(name):
    assert_same_study(ordering_study(name), ref_ordering_study(name))


# -- one C4 study per table up to spectators ---------------------------------------------


@pytest.fixture(scope="module")
def shared_studies():
    return _ordering_studies(CASIMIR_GROUPS)


@pytest.mark.parametrize("name", CASIMIR_GROUPS)
def test_shared_studies_match_the_step_by_step_reference(name, shared_studies):
    # Three of these studies are carried from another table, not built here.
    assert_same_study(shared_studies[name], ref_ordering_study(name))


def test_tables_that_share_a_study_differ_only_by_trailing_spectators():
    by_key = {}
    for name in C4_GROUPS:
        by_key.setdefault(casimirs._spectator_free(_TABLES[name]), []).append(catalog(name))
    shared = [algs for algs in by_key.values() if len(algs) > 1]
    assert {tuple(alg.name for alg in algs) for algs in shared} == {
        ("galilei_central", "full_nonrelativistic"),
        ("poincare", "poincare_trivial_ext"),
        ("poincare_trivial_ext_hbar", "full_relativistic")}
    for small, large in shared:
        assert large.generators[:small.dim] == small.generators
        assert large._table == small._table


def test_c4_pieces_are_built_once_per_key_and_call(monkeypatch):
    calls = []
    c4_pieces = casimirs._c4_pieces

    def counting(alg, kin, weyl):
        calls.append(alg.name)
        return c4_pieces(alg, kin, weyl)

    monkeypatch.setattr(casimirs, "_c4_pieces", counting)
    _ordering_studies(CASIMIR_GROUPS)
    assert len(calls) == 6
    calls.clear()
    report_paper()
    report_paper()
    assert len(calls) == 12


@pytest.mark.parametrize("name", ("poincare", "galilei_central", "full_relativistic"))
def test_shared_checks_match_is_casimir_on_each_combination(name):
    # Pairs (a, b) whose sum and difference fail at different generators, or
    # where one of them commutes, so every combination runs its own course.
    rng = random.Random(3301 + len(name))
    half = Scalar.rational(1, 2)
    for alg in tables(rng, name):
        entries = [rename_element(e.element, alg) for e in casimir_catalog(name)]
        for _ in range(8):
            u = random_element(rng, alg)
            v = UEAElement.gen(alg, rng.choice(alg.generators)) * random_scalar(rng)
            v = v + rng.choice(entries)
            for a, b in ((u, v), (half * (u + v), half * (u - v)),
                         (half * (v + rng.choice(entries)), half * (v - rng.choice(entries)))):
                combos = ((1, 1), (1, -1)) if rng.random() < 0.5 else ((1, -1), (1, 1))
                got = _casimir_checks((a, b), combos)
                assert len(got) == 2
                for check, (_, sign) in zip(got, combos):
                    e = a + b if sign > 0 else a - b
                    want = ref_is_casimir(e)
                    assert_same_check(check, want)
                    assert_same_check(is_casimir(e), want)


# -- substitution in one pass ------------------------------------------------------------


def random_value(rng, alg):
    """A substitution value: an int, a Fraction, a Scalar or a multi-term element."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    if kind == 2:
        return random_scalar(rng)
    return random_element(rng, alg, max_len=2, max_terms=3)


@pytest.mark.parametrize("name", ("poincare", "galilei_central", "heisenberg3",
                                  "poincare_trivial_ext", "full_relativistic"))
def test_substitute_matches_the_per_letter_reference(name):
    rng = random.Random(4409 + len(name))
    alg = catalog(name)
    # every sign flip of the Heisenberg table keeps Jacobi
    copy = flipped(rng, alg) if name == "heisenberg3" else broken_copy(rng, alg, flipped)
    for table in (alg, copy):
        central = [g for k, g in enumerate(table.generators)
                   if not any(table.bracket_index(k, j) for j in range(table.dim))]
        for _ in range(12):
            e = random_element(rng, table, max_len=4, max_terms=5)
            chosen = rng.sample(table.generators, rng.randint(1, 3))
            mapping = {g: random_value(rng, table) for g in chosen}
            assert_same_element(substitute(e, mapping, formal=True), ref_substitute(e, mapping))
            if central:
                mapping = {g: random_value(rng, table) for g in central}
                assert_same_element(substitute(e, mapping), ref_substitute(e, mapping))
        for entry in casimir_catalog(name) if name in CASIMIR_GROUPS else ():
            e = rename_element(entry.element, table)
            mapping = {g: random_value(rng, table) for g in rng.sample(table.generators, 2)}
            assert_same_element(substitute(e, mapping, formal=True), ref_substitute(e, mapping))


def test_substitute_straightens_once(monkeypatch):
    alg = catalog("poincare_trivial_ext")
    e = casimir_catalog("poincare_trivial_ext")[2].element
    calls = []
    normalize_once = uea._normalize
    monkeypatch.setattr(uea, "_normalize", lambda *a: calls.append(1) or normalize_once(*a))
    mapping = {"H": UEAElement.gen(alg, "M") + UEAElement.gen(alg, "Px"), "M": 2, "Jx": Scalar.i()}
    substitute(e, mapping, formal=True)
    assert len(calls) == 1

