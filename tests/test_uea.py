"""Enveloping-algebra elements: PBW normal form, commutators, Casimir checks."""

import gc
import itertools
import time
from fractions import Fraction

import pytest

from lieq import uea
from lieq.algebra import AlgebraError
from lieq.casimirs import casimir_entries, casimir_variant, ordering_study
from lieq.catalog import catalog, shifted_energy_basis
from lieq.expr import parse_element
from lieq.scalars import Scalar, ScalarError
from lieq.uea import (
    TermBudgetExceeded,
    UEAElement,
    UEAError,
    commutator,
    is_casimir,
    normal_form,
    rename_element,
    scalar_substitute,
    substitute,
    weyl_symmetrize,
    weyl_word,
)

I = Scalar.i()
ONE = Scalar.one()
GC = catalog("galilei_central")
POI = catalog("poincare")


def gen(alg, name):
    return UEAElement.gen(alg, name)


def test_ordered_monomial_is_fixed():
    e = UEAElement.word(GC, ("KGx", "Px"))
    assert e.terms() == ((("KGx", "Px"), ONE),)
    assert normal_form(e) == e


def test_basic_straightening():
    # P_x K_x -> K_x P_x - iM  (one application of [KGx, Px] = iM)
    e = UEAElement.word(GC, ("Px", "KGx"))
    assert e == UEAElement.word(GC, ("KGx", "Px")) - I * UEAElement.gen(GC, "M")
    assert e.terms() == ((("M",), -I), (("KGx", "Px"), ONE))

    # commuting pair just reorders
    assert UEAElement.word(POI, ("Px", "H")) == UEAElement.word(POI, ("H", "Px"))


def test_product_and_unit():
    kx, px = gen(GC, "KGx"), gen(GC, "Px")
    assert px * kx == UEAElement.word(GC, ("KGx", "Px")) - I * gen(GC, "M")
    one = UEAElement.unit(GC)
    assert one * kx == kx
    assert kx * one == kx
    assert (kx + px) * Scalar.from_int(2) == kx * Scalar.from_int(2) + px + px


def test_pow(monkeypatch):
    px = gen(GC, "Px")
    assert px ** 0 == UEAElement.unit(GC)
    assert px ** 3 == UEAElement.word(GC, ("Px", "Px", "Px"))
    x = gen(GC, "KGx") + px + I * gen(GC, "M")
    assert x ** 1 == x
    calls = []
    normalize_once = uea._normalize
    monkeypatch.setattr(uea, "_normalize", lambda *a: calls.append(1) or normalize_once(*a))
    for n in range(5):
        calls.clear()
        power = x ** n
        assert len(calls) == max(n - 1, 0)
        assert power == (x ** (n - 1) * x if n else UEAElement.unit(GC))


def test_commutators_match_table():
    assert commutator(gen(GC, "KGx"), gen(GC, "H")) == I * gen(GC, "Px")
    assert commutator(gen(GC, "KGx"), gen(GC, "Px")) == I * gen(GC, "M")
    e = gen(GC, "KGx") + gen(GC, "Py")
    assert commutator(e, e).is_zero()
    # Leibniz-derived: [KGx^2, Px] = 2iM*KGx
    ksq = gen(GC, "KGx") ** 2
    expected = UEAElement.word(GC, ("KGx", "M"), Scalar.from_int(2) * I)
    assert commutator(ksq, gen(GC, "Px")) == expected


@pytest.mark.parametrize("call, message", [
    (lambda: gen(GC, "Px") ** -1, "nonnegative integer"),
    (lambda: gen(GC, "Px") ** 1.5, "nonnegative integer"),
    (lambda: substitute(gen(GC, "M"), {"M": "m"}), "must be UEAElement or Scalar"),
], ids=["pow_negative", "pow_float", "substitute_str"])
def test_rejects_bad_input(call, message):
    with pytest.raises(UEAError, match=message):
        call()


def test_cross_algebra_operations_rejected():
    with pytest.raises(UEAError):
        gen(GC, "Px") * gen(POI, "Px")
    with pytest.raises(UEAError):
        UEAElement.gen(GC, "KPx")


def test_is_casimir_known_cases():
    assert is_casimir(gen(GC, "M")).ok
    c2p = gen(POI, "H") ** 2 - sum(
        (gen(POI, "P" + ax) ** 2 for ax in "xyz"), UEAElement.zero(POI)
    )
    assert is_casimir(c2p).ok
    check = is_casimir(gen(GC, "H"))
    assert not check.ok
    assert check.witness == "KGx"
    assert check.residue == -I * gen(GC, "Px")


def plan_names(alg):
    return tuple(alg.generators[g] for g in uea._casimir_plan(alg))


def test_is_casimir_checks_every_generator_of_a_broken_table():
    # Skipping generators relies on confluent rewriting, which a table that
    # fails Jacobi does not have: a failing validate() changes nothing.
    doubled = {"Jz": Scalar.gaussian(0, 2)}
    for broken in (POI.flip_sign("KPx", "Px", "H"), POI.with_bracket("Jx", "Jy", doubled)):
        assert plan_names(broken) == POI.generators
        assert broken.validate().jacobi
        assert plan_names(broken) == POI.generators


def test_is_casimir_checks_every_generator_until_a_copy_is_validated():
    ext = catalog("poincare_trivial_ext")
    copies = (
        (POI.rename({"H": "E"}), ("E", "Jx", "Jy", "KPx")),
        (ext.change_basis(*shifted_energy_basis(ext)), ("Hb", "Jx", "Jy", "KPx")),
    )
    for copy, plan in copies:
        assert plan_names(copy) == copy.generators
        assert copy.validate().ok
        assert plan_names(copy) == plan


def test_substitute_rest_frame():
    c2p = gen(POI, "H") ** 2 - sum(
        (gen(POI, "P" + ax) ** 2 for ax in "xyz"), UEAElement.zero(POI)
    )
    m0 = Scalar.symbol("m0")
    rest = substitute(
        c2p,
        {"H": m0, "Px": 0, "Py": 0, "Pz": 0},
        formal=True,
    )
    assert rest == UEAElement.unit(POI) * (m0 * m0)


def test_substitute_requires_centrality_unless_formal():
    with pytest.raises(UEAError):
        substitute(gen(GC, "H"), {"H": Scalar.symbol("w")})
    # M is central: allowed without the formal flag
    out = substitute(gen(GC, "M"), {"M": Scalar.symbol("m")})
    assert out == UEAElement.unit(GC) * Scalar.symbol("m")
    # empty substitution is the identity
    e = gen(GC, "KGx") * gen(GC, "Px")
    assert substitute(e, {}) == e


def test_substitute_with_element_values():
    # replace H by H + M inside [KGx, .] context: formal, term-by-term
    e = UEAElement.word(GC, ("H", "Px"))
    out = substitute(e, {"H": gen(GC, "H") + gen(GC, "M")}, formal=True)
    assert out == UEAElement.word(GC, ("H", "Px")) + UEAElement.word(GC, ("Px", "M"))


def test_scalar_substitute():
    e = UEAElement.gen(GC, "Px") * (Scalar.symbol("c") ** 2) + UEAElement.gen(GC, "M")
    out = scalar_substitute(e, {"c": ONE})
    assert out == gen(GC, "Px") + gen(GC, "M")


def test_scalar_substitute_rejects_a_non_scalar_value():
    # an int would leak a TypeError from Scalar * int; the error names the symbol
    e = gen(GC, "Px") * Scalar.symbol("c")
    with pytest.raises(ScalarError, match="^substitution value for 'c' must be a Scalar$"):
        Scalar.symbol("c").substitute({"c": 2})
    with pytest.raises(ScalarError, match="'c'"):
        scalar_substitute(e, {"c": 2})


def test_weyl_word():
    # sym{Px,KGx} = (Px*KGx + KGx*Px)/2 = KGx*Px - (i/2) M
    half_i = Scalar.gaussian(0, Fraction(1, 2))
    expected = UEAElement.word(GC, ("KGx", "Px")) - half_i * gen(GC, "M")
    assert weyl_word(GC, ("Px", "KGx")) == expected
    # the average depends only on the multiset of letters, not the written order
    assert weyl_word(GC, ("KGx", "Px")) == expected
    assert weyl_word(GC, ("Px", "Px")) == UEAElement.word(GC, ("Px", "Px"))
    assert weyl_word(GC, ("M",), Scalar.from_int(3)) == Scalar.from_int(3) * gen(GC, "M")


def test_weyl_word_expands_distinct_arrangements_only(monkeypatch):
    # n!/(m1!...mk!) arrangements, never all n! permutations of a word with repeats
    for letters in ((0, 0, 1, 2), (0, 0, 1, 1, 2), (0, 1, 2, 3), (1, 1, 1)):
        got = uea._arrangements(letters)
        assert sorted(got) == sorted(set(itertools.permutations(letters)))
        assert len(got) == len(set(got))
    assert weyl_word(POI, ("Px",) * 30) == gen(POI, "Px") ** 30
    sizes = []
    normalize = uea._normalize

    def counting(alg, raw, budget):
        sizes.append(len(raw))
        return normalize(alg, raw, budget)

    monkeypatch.setattr(uea, "_normalize", counting)
    weyl_word(POI, ("Px",) * 11 + ("KPx",))
    assert sizes == [12]


def test_weyl_budget_counts_arrangements_before_building_them(monkeypatch):
    # eight distinct letters have 8! arrangements; the cap trips on that count
    monkeypatch.setenv("LIEQ_TERM_CAP", "1000")
    monkeypatch.setattr(uea, "_arrangements", lambda letters: pytest.fail("enumerated"))
    letters = POI.generators[:8]
    start = time.perf_counter()
    with pytest.raises(TermBudgetExceeded) as info:
        weyl_word(POI, letters)
    assert time.perf_counter() - start < 0.05
    assert (info.value.budget, info.value.live) == (1000, 40320)
    assert sorted(info.value.word) == sorted(letters)


def test_weyl_budget_stops_twelve_distinct_letters_under_the_default_cap():
    fr = catalog("full_relativistic")
    assert len(fr.generators) == 12
    start = time.perf_counter()
    with pytest.raises(TermBudgetExceeded) as info:
        weyl_word(fr, fr.generators)
    assert time.perf_counter() - start < 1
    assert (info.value.budget, info.value.live) == (uea.DEFAULT_TERM_CAP, 479001600)


def test_weyl_symmetrize():
    # element-level map: symmetrize each normal word of the element
    assert weyl_symmetrize(gen(GC, "KGx")) == gen(GC, "KGx")
    assert weyl_symmetrize(UEAElement.unit(GC)) == UEAElement.unit(GC)
    assert weyl_symmetrize(UEAElement.word(GC, ("KGx", "Px"))) == weyl_word(GC, ("KGx", "Px"))
    # well-defined on elements: equal inputs give equal outputs even when built
    # from differently-ordered words (word() normalizes before sym sees it)
    a = weyl_symmetrize(UEAElement.word(GC, ("Px", "KGx")))
    b = weyl_symmetrize(UEAElement.word(GC, ("KGx", "Px")) - I * gen(GC, "M"))
    assert a == b
    assert weyl_symmetrize(UEAElement.word(GC, ("Px", "Px"))) == UEAElement.word(GC, ("Px", "Px"))


def test_term_budget(monkeypatch):
    monkeypatch.setenv("LIEQ_TERM_CAP", "1")
    with pytest.raises(TermBudgetExceeded):
        UEAElement.word(GC, ("Px", "KGx"))
    monkeypatch.delenv("LIEQ_TERM_CAP")
    assert UEAElement.word(GC, ("Px", "KGx"))  # default cap is plenty


def test_term_budget_carries_its_context(monkeypatch):
    monkeypatch.setenv("LIEQ_TERM_CAP", "1")
    with pytest.raises(TermBudgetExceeded) as info:
        UEAElement.word(GC, ("Px", "KGx"))
    err = info.value
    # one rewrite of Px*KGx leaves KGx*Px and -i*M pending
    assert (err.budget, err.live, err.word) == (1, 2, ("Px", "KGx"))
    assert str(err) == "normalization exceeded 1 live terms (set LIEQ_TERM_CAP to raise)"


def test_term_budget_bounds_a_whole_product(monkeypatch):
    # The budget counts the live terms of one straightening pass, and a
    # product is one pass over all its rows: each row of x*x fits in 3 live
    # terms, the whole product does not.
    x = gen(POI, "KPx") + gen(POI, "Px")
    monkeypatch.setenv("LIEQ_TERM_CAP", "3")
    assert str(x * gen(POI, "KPx")) == "-i*H + KPx^2 + KPx*Px"
    assert str(x * gen(POI, "Px")) == "KPx*Px + Px^2"
    with pytest.raises(TermBudgetExceeded) as info:
        x * x
    assert (info.value.budget, info.value.live, info.value.word) == (3, 4, ("Px", "KPx"))


def test_term_budget_bounds_a_whole_casimir_check(monkeypatch):
    # is_casimir straightens each whole [e, G] in one pass, so the cap bounds
    # all of it: 1577 live terms here, though no single term of e needs 1500.
    c4 = casimir_entries("poincare")["C4P"]
    square = c4 * c4
    monkeypatch.setenv("LIEQ_TERM_CAP", "1500")
    with pytest.raises(TermBudgetExceeded) as info:
        is_casimir(square)
    assert (info.value.budget, info.value.live) == (1500, 1577)


def straightening_calls(x):
    """{name: one call of a straightening operation} on the GC element x."""
    return {
        "*": lambda: x * x,
        "zero *": lambda: UEAElement.zero(GC) * x,
        "word": lambda: UEAElement.word(GC, ("Px", "KGx")),
        "from_terms": lambda: UEAElement.from_terms(GC, {("Px", "KGx"): ONE}),
        "normal_form": lambda: normal_form(x),
        "weyl_word": lambda: weyl_word(GC, ("Px", "KGx", "H")),
        "weyl_symmetrize": lambda: weyl_symmetrize(x),
        "substitute": lambda: substitute(x, {"M": 2}),
        "rename_element": lambda: rename_element(x, GC),
        "is_casimir": lambda: is_casimir(x),
    }


def test_every_straightening_operation_reads_the_term_cap_once(monkeypatch):
    # An operation reads LIEQ_TERM_CAP when it starts and passes it to its
    # pass; a power is n - 1 products, one read each.
    x = UEAElement.word(GC, ("Px", "KGx")) + gen(GC, "M") + gen(GC, "H")
    reads = []
    term_cap = uea._term_cap
    monkeypatch.setattr(uea, "_term_cap", lambda: reads.append(1) or term_cap())
    for name, call in straightening_calls(x).items():
        reads.clear()
        call()
        assert len(reads) == 1, name
    for n in range(1, 6):
        reads.clear()
        x ** n
        assert len(reads) == n - 1, n


def test_a_malformed_term_cap_fails_every_straightening_operation(monkeypatch):
    x = UEAElement.word(GC, ("Px", "KGx")) + gen(GC, "M") + gen(GC, "H")
    monkeypatch.setenv("LIEQ_TERM_CAP", "abc")
    for name, call in {**straightening_calls(x), "**": lambda: x ** 2}.items():
        with pytest.raises(UEAError, match="LIEQ_TERM_CAP must be a positive integer"):
            call()


def count_pops(monkeypatch):
    """Count the words _normalize pops from now on; returns a one-item list."""
    pops = [0]
    heappop = uea.heappop

    def counting(heap):
        pops[0] += 1
        return heappop(heap)

    monkeypatch.setattr(uea, "heappop", counting)
    return pops


def test_straightening_merges_equal_words(monkeypatch):
    # Equal intermediate words merge before they are rewritten, so one product
    # step costs work per distinct word, not per rewrite path: 500 words popped.
    x = gen(POI, "KPx") + gen(POI, "Px")
    power = x ** 10
    pops = count_pops(monkeypatch)
    assert (power * x).term_count() == 107
    assert pops[0] <= 575


def test_weyl_ordering_merges_words_across_monomials(monkeypatch):
    # Every arrangement of every base monomial is straightened in one pass,
    # and of every cross monomial in another: 159 words popped, where one
    # pass per monomial pops 321.
    pops = count_pops(monkeypatch)
    assert casimir_variant("poincare", "C4P", "weyl").term_count() == 31
    assert pops[0] <= 195


def test_casimir_check_merges_words_across_terms(monkeypatch):
    # Each [e, G] is straightened in one pass over all terms of e: 3,752
    # words popped, where one pass per term pops 5,111.
    c4 = casimir_entries("poincare")["C4P"]
    square = c4 * c4
    pops = count_pops(monkeypatch)
    assert is_casimir(square).ok
    assert pops[0] <= 4_180


def test_ordering_study_shares_straightening_across_orderings(monkeypatch):
    # Base and cross monomials are straightened, and Weyl ordered, once each,
    # and each [piece, G] once for all orderings: 307 words popped, where
    # building and checking each of the four orderings on its own pops 558.
    casimir_entries("poincare")
    uea._casimir_plan(POI)
    pops = count_pops(monkeypatch)
    study = ordering_study("poincare")
    assert [step.ok for step in study["C4P"]] == [False, False, True, True]
    assert pops[0] <= 360


def test_only_words_with_a_branching_descent_are_queued(monkeypatch):
    # Normal words stay in the pending map and are never queued: every key
    # that enters the heap has a leftmost descent whose bracket is nonzero.
    queued = []

    def descent(key):
        return next((key[i:i + 2] for i in range(1, len(key) - 1) if key[i] < key[i + 1]), None)

    def check(alg, keys):
        table = uea._descents(alg)
        for key in keys:
            assert descent(key) in table, key
        queued.extend(keys)

    for alg, run in (
        (POI, lambda: (gen(POI, "KPx") + gen(POI, "Px")) ** 4),
        (POI, lambda: is_casimir(casimir_entries("poincare")["C4P"])),
        (GC, lambda: weyl_word(GC, ("Px", "KGx", "Jz", "H"))),
    ):
        heapify, heappush = uea.heapify, uea.heappush
        monkeypatch.setattr(uea, "heapify", lambda heap: check(alg, heap) or heapify(heap))
        monkeypatch.setattr(uea, "heappush",
                            lambda heap, key: check(alg, [key]) or heappush(heap, key))
        before = len(queued)
        run()
        assert len(queued) > before
        monkeypatch.undo()


def test_printing_roundtrip_shape():
    c2g = UEAElement.word(GC, ("H", "M")) - Scalar.rational(1, 2) * sum(
        (gen(GC, "P" + ax) ** 2 for ax in "xyz"), UEAElement.zero(GC)
    )
    assert str(c2g) == "H*M - 1/2*Px^2 - 1/2*Py^2 - 1/2*Pz^2"
    assert str(UEAElement.zero(GC)) == "0"
    assert str(UEAElement.unit(GC)) == "1"
    assert str(I * gen(GC, "M")) == "i*M"
    assert str(UEAElement.unit(GC) * (ONE + Scalar.symbol("eps"))) == "(1 + eps)"


def test_normal_form_idempotent_on_samples():
    samples = [
        UEAElement.word(GC, ("Pz", "KGz", "Jx", "H")),
        UEAElement.word(GC, ("M", "Px", "KGy")) * Scalar.symbol("eps", -1),
        gen(GC, "Jz") * gen(GC, "Jy") * gen(GC, "Jx"),
    ]
    for e in samples:
        assert normal_form(e) == e


def test_rename_element():
    full = catalog("full_nonrelativistic")
    e = UEAElement.word(GC, ("KGx", "Px")) - I * gen(GC, "M")
    moved = rename_element(e, full)
    assert moved == UEAElement.word(full, ("KGx", "Px")) - I * UEAElement.gen(full, "M")
    # renaming across boost families re-normalizes under the target brackets
    poi = catalog("poincare")
    boosts = {"KGx": "KPx", "KGy": "KPy", "KGz": "KPz"}
    hkx = rename_element(UEAElement.word(GC, ("H", "KGx")), poi, boosts)
    assert hkx == UEAElement.word(poi, ("H", "KPx"))
    with pytest.raises(UEAError, match=r"^cannot rename into 'poincare': "
                       r"unknown generator\(s\) \['KGx'\]$"):
        rename_element(e, poi)  # KGx and M have no image in poincare
    with pytest.raises(AlgebraError, match=r"^unknown generator 'Q' in algebra 'poincare'$"):
        UEAElement.from_terms(poi, {("H",): I, ("Q", "H"): I})


def test_casimir_check_of_a_long_word_grows_quadratically():
    # [Px^n, Jy] has n rows Px^k·Pz·Px^(n-k-1), and Pz commutes past the
    # Px to its right.  With the swaps of a row made in one list the check
    # grows as n^2 (x4 per doubling); rebuilding the row per swap made it
    # n^3, and this ratio read 7 to 11.  Collection runs before each timed
    # call and is off during it, so garbage from earlier tests adds no pause.
    best = {}
    for n in (600, 1200):
        e = parse_element(POI, "Px^%d" % n)
        want = parse_element(POI, "%d*i*Px^%d*Pz" % (n, n - 1))
        times = []
        for _ in range(3):
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                check = is_casimir(e)
                times.append(time.perf_counter() - start)
            finally:
                gc.enable()
            assert (check.ok, check.witness, check.residue) == (False, "Jy", want)
        best[n] = min(times)
    assert best[1200] / best[600] < 6, best
