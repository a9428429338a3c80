"""Randomized property suites: confluence, derivation law, substitution, Casimir checks."""

import random
from fractions import Fraction

from lieq.algebra import LieAlgebra
from lieq.casimirs import C4_VARIANTS, CASIMIR_GROUPS, casimir_catalog, casimir_variant
from lieq.catalog import CATALOG_NAMES, catalog
from lieq.scalars import Scalar
from lieq.uea import (
    CasimirCheck,
    UEAElement,
    _casimir_plan,
    commutator,
    is_casimir,
    substitute,
)
from test_sparse_tables import coboundary_overrides, unitriangular

GC = catalog("galilei_central")
DIM = GC.dim


def _symbolic_algebra():
    """poincare_trivial_ext_hbar after a unitriangular basis change with entries
    in c and eps^-1, so its structure constants carry both symbols."""
    base = catalog("poincare_trivial_ext_hbar")
    c, pole = Scalar.symbol("c"), Scalar.symbol("eps", -1)
    upper = {(0, 4): c, (1, 5): c + pole, (4, 7): pole, (5, 10): c * pole, (7, 9): -c}
    matrix = [
        [Scalar.one() if r == k else upper.get((r, k), Scalar.zero()) for k in range(base.dim)]
        for r in range(base.dim)
    ]
    return base.change_basis(matrix, base.generators, name="pte_hbar_symbolic")


SYMBOLIC = _symbolic_algebra()


def _acc(target, word, coeff):
    cur = target.get(word)
    cur = coeff if cur is None else cur + coeff
    if cur.is_zero():
        target.pop(word, None)
    else:
        target[word] = cur


def brute_normal_form(alg, word, memo):
    """Explore every rewrite order; assert they agree; return {word: Scalar}.

    At each word every descent position is tried as the next step; shared
    memoization makes this an exhaustive check of all rewrite sequences.
    """
    word = tuple(word)
    if word in memo:
        return memo[word]
    descents = [k for k in range(len(word) - 1) if word[k] > word[k + 1]]
    if not descents:
        memo[word] = {word: Scalar.one()}
        return memo[word]
    results = []
    for k in descents:
        out = {}
        swapped = word[:k] + (word[k + 1], word[k]) + word[k + 2:]
        for w2, c2 in brute_normal_form(alg, swapped, memo).items():
            _acc(out, w2, c2)
        for d, coeff in alg.bracket_index(word[k], word[k + 1]).items():
            shorter = word[:k] + (d,) + word[k + 2:]
            for w2, c2 in brute_normal_form(alg, shorter, memo).items():
                _acc(out, w2, c2 * coeff)
        results.append(out)
    first = results[0]
    for other in results[1:]:
        assert other == first, "rewrite orders disagree at %r" % (word,)
    memo[word] = first
    return first


def random_scalar(rng):
    return Scalar.gaussian(
        Fraction(rng.randint(-8, 8), rng.randint(1, 8)),
        Fraction(rng.randint(-8, 8), rng.randint(1, 8)),
    )


def random_raw_terms(rng, max_len, n_words, letters=tuple(range(DIM))):
    terms = {}
    for _ in range(n_words):
        word = tuple(letters[rng.randrange(len(letters))] for _ in range(rng.randint(0, max_len)))
        _acc(terms, word, random_scalar(rng))
    return terms


def cancelling_raw_terms(rng, alg, max_len):
    """c*w - c*w' + one random word, where w' is w with its leftmost descent
    swapped: rewriting w first sends c*w' to the pending w', which then
    holds zero and must be dropped."""
    while True:
        word = tuple(rng.randrange(alg.dim) for _ in range(rng.randint(2, max_len)))
        descents = [k for k in range(len(word) - 1) if word[k] > word[k + 1]]
        if descents:
            break
    k = descents[0]
    coeff = random_scalar(rng)
    terms = {word: coeff}
    _acc(terms, word[:k] + (word[k + 1], word[k]) + word[k + 2:], -coeff)
    extra = tuple(rng.randrange(alg.dim) for _ in range(rng.randint(0, max_len)))
    _acc(terms, extra, random_scalar(rng))
    return terms


def to_element(raw, alg=GC):
    names = {
        tuple(alg.generators[k] for k in word): coeff for word, coeff in raw.items()
    }
    return UEAElement.from_terms(alg, names)


def assert_matches_brute_force(alg, raw, memo):
    expected = {}
    for word, coeff in raw.items():
        for w2, c2 in brute_normal_form(alg, word, memo).items():
            _acc(expected, w2, c2 * coeff)
    got = dict(to_element(raw, alg).terms())
    want = {
        tuple(alg.generators[k] for k in word): coeff
        for word, coeff in expected.items()
    }
    assert got == want


def test_pbw_confluence_against_brute_force():
    rng = random.Random(20260816)
    memo = {}
    for _ in range(200):
        raw = random_raw_terms(rng, max_len=4, n_words=rng.randint(1, 3))
        assert_matches_brute_force(GC, raw, memo)


def test_pbw_confluence_long_words_and_symbolic_constants():
    rng = random.Random(4111)
    for alg in (GC, SYMBOLIC):
        memo = {}
        letters = tuple(range(alg.dim))
        for _ in range(40):
            raw = random_raw_terms(rng, max_len=6, n_words=rng.randint(1, 2), letters=letters)
            assert_matches_brute_force(alg, raw, memo)


def test_pending_coefficients_that_cancel_are_dropped():
    rng = random.Random(3329)
    for alg in (GC, SYMBOLIC):
        memo = {}
        for _ in range(60):
            assert_matches_brute_force(alg, cancelling_raw_terms(rng, alg, max_len=6), memo)


def test_commutator_is_a_derivation():
    rng = random.Random(6151)
    for _ in range(200):
        a = to_element(random_raw_terms(rng, max_len=2, n_words=2))
        b = to_element(random_raw_terms(rng, max_len=2, n_words=2))
        g = UEAElement.gen(GC, GC.generators[rng.randrange(DIM)])
        assert commutator(a * b, g) == a * commutator(b, g) + commutator(a, g) * b


def test_substitute_is_linear():
    rng = random.Random(977)
    mapping = {"M": Scalar.rational(3, 2), "Px": Scalar.zero()}
    for _ in range(50):
        a = to_element(random_raw_terms(rng, max_len=3, n_words=2))
        b = to_element(random_raw_terms(rng, max_len=3, n_words=2))
        s = random_scalar(rng)
        assert substitute(a + b, mapping, formal=True) == (
            substitute(a, mapping, formal=True) + substitute(b, mapping, formal=True)
        )
        assert substitute(s * a, mapping, formal=True) == (
            s * substitute(a, mapping, formal=True)
        )


def two_sided_casimir_check(e):
    """The definition: the first generator G, in basis order, with e*G - G*e != 0."""
    alg = e.algebra
    for name in alg.generators:
        residue = commutator(e, UEAElement.gen(alg, name))
        if not residue.is_zero():
            return CasimirCheck(False, name, residue)
    return CasimirCheck(True, None, UEAElement.zero(alg))


# The first generator, in basis order, that each failing C4 ordering variant
# does not commute with; variants not listed are Casimirs.
C4_VARIANT_WITNESSES = {
    "galilei_central": {"verbatim": "H", "weyl": "KGx"},
    "poincare": {"verbatim": "H", "weyl": "KPx"},
    "poincare_trivial_ext": {"verbatim": "H", "weyl": "KPx"},
    "poincare_trivial_ext_hbar": {"verbatim": "Hb", "weyl": "KPx"},
    "full_relativistic": {"verbatim": "Hb", "weyl": "KPx"},
    "full_nonrelativistic": {"verbatim": "H", "weyl": "KGx"},
}


def test_is_casimir_matches_the_two_sided_definition():
    rng = random.Random(7121)
    samples = []
    for name in ("poincare", "galilei_central", "heisenberg3"):
        alg = catalog(name)
        for _ in range(40):
            # words over a random subset of letters, so the witness varies
            letters = tuple(rng.sample(range(alg.dim), rng.randint(1, alg.dim)))
            raw = random_raw_terms(rng, max_len=3, n_words=rng.randint(1, 3), letters=letters)
            samples.append(to_element(raw, alg))
    for group in CASIMIR_GROUPS:
        alg = catalog(group)
        for entry in casimir_catalog(group):
            samples.append(entry.element)
            samples.extend(entry.element * UEAElement.gen(alg, g) for g in alg.generators)
            if entry.label.startswith("C4"):
                for variant in C4_VARIANTS:
                    e = casimir_variant(group, entry.label, variant)
                    assert is_casimir(e).witness == C4_VARIANT_WITNESSES[group].get(variant)
                    samples.append(e)
    for e in samples:
        assert is_casimir(e) == two_sided_casimir_check(e), e


# [X,Y] = A + B has two indices outside {X, Y}, so X and Y imply nothing about
# A or B; Z commutes with X and Y, but [A,Z] = Z, so A must be checked for Z.
SPLIT = LieAlgebra("split", ("X", "Y", "A", "B", "Z"),
                   {("X", "Y"): {"A": Scalar.one(), "B": Scalar.one()},
                    ("A", "Z"): {"Z": Scalar.one()}, ("B", "Z"): {"Z": -Scalar.one()}})


def test_is_casimir_matches_the_two_sided_definition_on_non_catalog_tables():
    # is_casimir skips generators only on validated tables (_casimir_plan);
    # compare it with the definition on valid tables outside the catalog
    rng = random.Random(2741)
    tables = [SPLIT]
    for name in ("poincare", "galilei_central", "heisenberg3", "galilei"):
        alg = catalog(name)
        tables.append(alg.change_basis(unitriangular(rng, alg.dim), alg.generators))
    tables.append(SPLIT.change_basis(unitriangular(rng, SPLIT.dim), SPLIT.generators))
    tables += [SPLIT.direct_product(catalog("heisenberg3")),
               catalog("galilei").direct_product(SPLIT),
               catalog("poincare").direct_product(catalog("galilei_central"))]
    for alg in (SPLIT, catalog("galilei"), catalog("poincare")):
        tables.append(alg.central_extension("Z9", coboundary_overrides(alg, "Z9", rng)))
    for alg in tables:
        assert alg.validate().ok, alg.name
        gens = [UEAElement.gen(alg, g) for g in alg.generators]
        samples = gens + [x * y for x in gens for y in rng.sample(gens, min(3, len(gens)))]
        for e in samples:
            assert is_casimir(e) == two_sided_casimir_check(e), (alg.name, e)
    split_z = UEAElement.gen(SPLIT, "Z")
    assert is_casimir(split_z) == CasimirCheck(False, "A", -split_z)


# Generators is_casimir straightens against on each validated catalog table;
# every other generator follows from these by the derivation rule.
CASIMIR_PLANS = {
    "galilei": ("Gtau", "Gthx", "Gthy", "Gux"),
    "galilei_central": ("H", "Jx", "Jy", "KGx"),
    "poincare": ("H", "Jx", "Jy", "KPx"),
    "poincare_trivial_ext": ("H", "Jx", "Jy", "KPx", "M"),
    "poincare_trivial_ext_hbar": ("Hb", "Jx", "Jy", "KPx"),
    "u1": ("Q",),
    "heisenberg3": ("Xx", "Xy", "Xz", "Px", "Py", "Pz"),
    "full_relativistic": ("Hb", "Jx", "Jy", "KPx", "Q"),
    "full_nonrelativistic": ("H", "Jx", "Jy", "KGx", "Q"),
}


def test_casimir_plans_of_the_catalog_tables():
    assert tuple(CASIMIR_PLANS) == CATALOG_NAMES
    for name, plan in CASIMIR_PLANS.items():
        alg = catalog(name)
        assert tuple(alg.generators[g] for g in _casimir_plan(alg)) == plan, name
