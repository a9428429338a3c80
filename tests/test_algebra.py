"""Structure-constant tables: brackets, validation, extensions, basis changes."""

from fractions import Fraction

import pytest

from lieq.algebra import AlgebraError, InvalidCocycle, LieAlgebra, _invert
from lieq.catalog import catalog
from lieq.contraction import STD_PE_MAP, rescale_algebra
from lieq.scalars import DEFAULT_SYMBOLS, Scalar, ScalarError
from lieq.uea import UEAElement, is_casimir

I = Scalar.i()
ONE = Scalar.one()


def test_bracket_generator_pairs():
    gal = catalog("galilei")
    assert gal.bracket("Gux", "Grx") == {}
    assert gal.bracket("Gthx", "Gthy") == {"Gthz": I}
    assert gal.bracket("Gux", "Gtau") == {"Grx": I}

    gc = catalog("galilei_central")
    assert gc.bracket("KGx", "Px") == {"M": I}
    assert gc.bracket("Px", "KGx") == {"M": -I}  # derived antisymmetry
    assert gc.bracket("KGx", "Py") == {}
    assert gc.bracket("KGx", "H") == {"Px": I}

    poi = catalog("poincare")
    assert poi.bracket("KPx", "KPy") == {"Jz": -I}
    assert poi.bracket("KPx", "Px") == {"H": I}


def test_bracket_index_reads_one_read_only_entry():
    gc = catalog("galilei_central")
    kx, px, py, m = (gc.generator(n).index for n in ("KGx", "Px", "Py", "M"))
    entry = gc.bracket_index(px, kx)
    assert entry == {m: -I}  # the lower triangle, derived once at construction
    assert gc.bracket_index(px, kx) is entry  # no copy per lookup
    with pytest.raises(TypeError):
        entry[m] = I
    assert gc.bracket("Px", "KGx") == {"M": -I}
    assert gc.bracket_index(kx, kx) == {}
    assert gc.bracket_index(kx, py) == {}


def test_bracket_linear_combinations():
    gc = catalog("galilei_central")
    # [KGx + KGy, Px] = iM (only the KGx part contributes)
    combo = {"KGx": ONE, "KGy": ONE}
    assert gc.bracket(combo, "Px") == {"M": I}
    # bilinearity with scalar weights
    two = Scalar.from_int(2)
    assert gc.bracket({"KGx": two}, {"Px": ONE}) == {"M": two * I}
    # [x, x] = 0 for a combination
    assert gc.bracket(combo, combo) == {}


def test_bracket_unknown_generator():
    gc = catalog("galilei_central")
    with pytest.raises(AlgebraError):
        gc.bracket("KGx", "nope")


def test_validate_catalog_and_abelian():
    assert catalog("galilei").validate().ok
    abelian = LieAlgebra("abelian2", ("A", "B"), {})
    assert abelian.validate().ok


def test_validate_lists_undeclared_symbols_once_per_constant():
    m, w = Scalar.symbol("m"), Scalar.symbol("w")
    alg = LieAlgebra("x", ("A", "B", "C"), {("A", "B"): {"C": m}}, symbols=("eps",))
    assert alg.validate().issues == ["undeclared symbols ['m'] in [A,B]"]  # not per triangle

    # Issues follow the basis order, so equal tables give equal reports.
    given = {("C", "B"): {"A": w}, ("A", "B"): {"C": m}}
    alg = LieAlgebra("y", ("A", "B", "C"), given, symbols=("eps",))
    flipped = LieAlgebra("y", ("A", "B", "C"), dict(reversed(given.items())), symbols=("eps",))
    assert alg == flipped
    assert alg.validate().issues == flipped.validate().issues == [
        "undeclared symbols ['m'] in [A,B]", "undeclared symbols ['w'] in [B,C]"]


def test_an_undeclared_symbol_leaves_every_generator_checked():
    # Jacobi holds, but the report lists the undeclared m, so the table is not
    # found ok and is_casimir checks all of its generators.  Its answers are
    # those of the declared twin, whose plan skips the central C.
    m = Scalar.symbol("m")
    brackets = {("A", "B"): {"C": m}, ("A", "C"): {}}
    alg = LieAlgebra("x", ("A", "B", "C"), brackets, symbols=("eps",))
    declared = LieAlgebra("x", ("A", "B", "C"), brackets, symbols=("eps", "m"))
    report = alg.validate()
    assert not report.jacobi and not report.ok and declared.validate().ok
    assert not alg._valid and declared._valid
    assert list(alg._casimir_plan()) == [0, 1, 2] and declared._casimir_plan() == (0, 1)
    for word in (("C",), ("C", "C"), ("A",), ("B", "C"), ("A", "B")):
        got = is_casimir(UEAElement.from_terms(alg, {word: ONE}))
        want = is_casimir(UEAElement.from_terms(declared, {word: ONE}))
        assert (got.ok, got.witness, str(got.residue)) == \
            (want.ok, want.witness, str(want.residue)), word
        assert got.ok == (word in (("C",), ("C", "C")))


def test_a_pair_is_given_twice_in_either_order_empty_or_not():
    zero_first = {("A", "B"): {}, ("B", "A"): {"A": ONE}}
    with pytest.raises(AlgebraError, match=r"^bracket \(B,A\) given twice$"):
        LieAlgebra("x", ("A", "B"), zero_first)
    with pytest.raises(AlgebraError, match=r"^bracket \(A,B\) given twice$"):
        LieAlgebra("x", ("A", "B"), dict(reversed(zero_first.items())))
    assert LieAlgebra("x", ("A", "B"), {("A", "A"): {}, ("B", "A"): {}}).validate().ok


def test_forced_zero_rotation_bracket_breaks_jacobi():
    # Killing [Jy,Jz] inside galilei_central violates Jacobi — but only on
    # mixed triples where the rotations act on a vector operator; every pure
    # rotation triple still sums to zero (each term hits a diagonal bracket).
    gc = catalog("galilei_central")
    mutated = gc.with_bracket("Jy", "Jz", {})
    report = mutated.validate()
    assert not report.ok
    failures = {triple: residue for triple, residue in report.jacobi}
    assert ("Jx", "Jy", "Jz") not in failures
    assert failures[("Jy", "Jz", "KGy")] == {"KGz": ONE}
    assert failures[("Jy", "Jz", "Py")] == {"Pz": ONE}


def test_mutated_rotation_only_table_is_still_a_lie_algebra():
    # In isolation {Jx,Jy,Jz} with [Jy,Jz] killed *is* a Lie algebra
    # (Heisenberg-like); the violation above needs the vector operators.
    rot = LieAlgebra(
        "rot_mutated",
        ("Jx", "Jy", "Jz"),
        {("Jx", "Jy"): {"Jz": I}, ("Jx", "Jz"): {"Jy": -I}},
    )
    assert rot.validate().ok


def test_trivial_extension():
    poi = catalog("poincare")
    ext = poi.trivial_extension("M")
    assert ext.generators == poi.generators + ("M",)
    assert ext.validate().ok
    for g in poi.generators:
        assert ext.bracket(g, "M") == {}
    with pytest.raises(AlgebraError):
        poi.trivial_extension("H")  # duplicate name
    gal_ext = catalog("galilei").trivial_extension("M")
    assert gal_ext.validate().ok


def test_central_extension_builds_galilei_central():
    gal = catalog("galilei")
    ext = gal.central_extension(
        "M",
        {("Gu%s" % ax, "Gr%s" % ax): {"M": I} for ax in "xyz"},
    )
    renamed = ext.rename(
        {"Gtau": "H", "Gthx": "Jx", "Gthy": "Jy", "Gthz": "Jz",
         "Gux": "KGx", "Guy": "KGy", "Guz": "KGz",
         "Grx": "Px", "Gry": "Py", "Grz": "Pz"}
    )
    assert renamed == catalog("galilei_central")


def test_central_extension_empty_overrides_is_trivial():
    gal = catalog("galilei")
    assert gal.central_extension("M", {}) == gal.trivial_extension("M")


def test_central_extension_invalid_cocycle():
    # Replacing [Gthx,Gthy] by iM drops the iGthz term; Jacobi then fails on
    # mixed rotation/vector triples (the pure rotation triple still vanishes).
    gal = catalog("galilei")
    with pytest.raises(InvalidCocycle) as exc:
        gal.central_extension("M", {("Gthx", "Gthy"): {"M": I}})
    assert exc.value.report.jacobi


def test_change_basis_energy_shift():
    ext = catalog("poincare_trivial_ext")
    n = len(ext.generators)
    idx = {g: k for k, g in enumerate(ext.generators)}
    matrix = [[ONE if r == c else Scalar.zero() for c in range(n)] for r in range(n)]
    matrix[idx["H"]][idx["M"]] = -ONE  # Hb = H - M
    names = tuple("Hb" if g == "H" else g for g in ext.generators)
    hbar = ext.change_basis(matrix, names)
    assert hbar.bracket("KPx", "Px") == {"Hb": I, "M": I}
    assert hbar.validate().ok
    assert hbar == catalog("poincare_trivial_ext_hbar")  # equality ignores the label

    # round-trip: applying the inverse matrix restores the original table
    inverse = [[ONE if r == c else Scalar.zero() for c in range(n)] for r in range(n)]
    inverse[idx["H"]][idx["M"]] = ONE
    back = hbar.change_basis(inverse, ext.generators)
    assert back == ext


def test_change_basis_identity_and_functoriality():
    poi = catalog("poincare")
    n = len(poi.generators)
    ident = [[ONE if r == c else Scalar.zero() for c in range(n)] for r in range(n)]
    assert poi.change_basis(ident, poi.generators) == poi

    # compose: scale H by 2, then shift J by H — equals the matrix product
    a = [row[:] for row in ident]
    a[0][0] = Scalar.from_int(2)
    b = [row[:] for row in ident]
    b[1][0] = ONE
    step = poi.change_basis(a, poi.generators).change_basis(b, poi.generators)
    prod = [
        [sum((b[r][k] * a[k][c] for k in range(n)), Scalar.zero()) for c in range(n)]
        for r in range(n)
    ]
    assert poi.change_basis(prod, poi.generators) == step


def test_change_basis_by_eps_powers_is_the_rescaling():
    # G_a' = eps**k_a G_a is a diagonal basis change; its inverse pivots on
    # eps monomials, and the result must equal the contraction module's table.
    alg = catalog("poincare_trivial_ext_hbar")
    gens = alg.generators
    matrix = [[Scalar.symbol("eps", STD_PE_MAP[g]) if r == c else Scalar.zero()
               for c in range(len(gens))] for r, g in enumerate(gens)]
    primed = tuple(g + "p" for g in gens)
    assert alg.change_basis(matrix, primed) == rescale_algebra(alg, STD_PE_MAP)


def test_change_basis_singular_matrix_rejected():
    u1 = catalog("u1")
    with pytest.raises(AlgebraError):
        u1.change_basis([[Scalar.zero()]], ("Q2",))


def test_invert_takes_only_eps_monomial_pivots():
    eps = Scalar.symbol("eps")
    pivot = Scalar.gaussian(2, 1) * Scalar.symbol("eps", -3)
    inverse = Scalar.gaussian(Fraction(2, 5), Fraction(-1, 5)) * Scalar.symbol("eps", 3)
    assert _invert([[pivot]]) == [[inverse]]
    for non_unit in (Scalar.symbol("c"), Scalar.one() + eps, eps * Scalar.symbol("c")):
        with pytest.raises(AlgebraError, match=r"singular \(no unit pivot in column 0\)"):
            _invert([[non_unit]])
    with pytest.raises(ScalarError):  # the inverse eps^(2^32) is out of range
        _invert([[Scalar.symbol("eps", -2**32)]])


def test_direct_product():
    prod = catalog("poincare_trivial_ext").direct_product(catalog("u1"))
    assert len(prod.generators) == 12
    for g in prod.generators:
        assert prod.bracket("Q", g) == {}
    assert prod.validate().ok

    uu = catalog("u1").direct_product(catalog("u1"))
    assert len(uu.generators) == 2
    assert uu.validate().ok  # clashing names auto-suffixed
    assert catalog("galilei_central").direct_product(catalog("u1")).validate().ok


def test_flip_sign_mutation_suite():
    # Flipping any single structure-constant sign must break consistency.
    for name in ("galilei_central", "poincare"):
        alg = catalog(name)
        entries = alg.nonzero_constants()
        assert len(entries) == (21 if name == "galilei_central" else 24)
        for a, b, d in entries:
            assert not alg.flip_sign(a, b, d).validate().ok, (name, a, b, d)


@pytest.mark.parametrize("build, message", [
    (lambda: LieAlgebra("x", ("A", "A"), {}), "duplicate generator"),
    (lambda: LieAlgebra("x", ("A", "c"), {}), "collides with a scalar symbol"),
    (lambda: LieAlgebra("x", ("A", "i"), {}), "collides with a scalar symbol"),
    (lambda: LieAlgebra("x", ("A", "B"), {("A", "B"): {"A": 1}}), "is not a Scalar"),
    (lambda: LieAlgebra("x", ("A", "B"), {("A", "A"): {"B": ONE}}), r"nonzero bracket \[A,A\]"),
    (lambda: LieAlgebra("x", ("A", "B"), {("A", "B"): {"A": ONE}, ("B", "A"): {"A": -ONE}}),
     "given twice"),
    (lambda: catalog("poincare").flip_sign("Px", "Py", "H"), "no constant"),
    (lambda: catalog("u1").change_basis([[ONE, ONE]], ("A",)), "basis matrix must be"),
    (lambda: catalog("u1").change_basis([[ONE]], ("A", "B")), "need 1 new names"),
    (lambda: catalog("u1").central_extension("Q", {}), "already present"),
    (lambda: catalog("u1").central_extension("Z", {("Q", "Z"): {"Z": ONE}}),
     "must pair existing generators"),
    (lambda: LieAlgebra("x", ("Q", "Q_2"), {}).direct_product(catalog("u1")),
     "cannot disambiguate clashing generator 'Q'"),
    (lambda: LieAlgebra("x", ("A",), {}).direct_product(LieAlgebra("y", ("A", "A_2"), {})),
     "cannot disambiguate clashing generator 'A'"),
    # the product's names are checked in its generator order
    (lambda: LieAlgebra("x", ("Y", "X"), {}).direct_product(
        LieAlgebra("y", ("X",), {}, DEFAULT_SYMBOLS + ("X_2", "Y"))),
     "^generator name 'Y' collides with a scalar symbol$"),
    # the pair and the bracket given are indexed against the copy
    (lambda: catalog("galilei").with_bracket("Gux", "Grx", {"Zz": ONE}),
     "^unknown generator 'Zz' in algebra 'galilei_mut'$"),
    (lambda: catalog("galilei").with_bracket("Gux", "Zz", {}),
     "^unknown generator 'Zz' in algebra 'galilei_mut'$"),
    (lambda: catalog("poincare").flip_sign("Jx", "Jy", "Nope"),
     r"^no constant c_Jx,Jy\^Nope to flip$"),
    (lambda: catalog("galilei").central_extension("M", {("Q", "Gux"): {"M": I}}),
     "^unknown generator 'Q' in algebra 'galilei_central'$"),
    # a pair given in both orders is given twice
    (lambda: catalog("galilei").central_extension(
        "M", {("Gux", "Grx"): {"M": I}, ("Grx", "Gux"): {"M": -I}}),
     r"^bracket \(Grx,Gux\) given twice$"),
    # of two faulty overrides, the one given first is blamed
    (lambda: catalog("galilei").central_extension(
        "M", {("Gux", "Grx"): {"Yy": I}, ("Gthx", "Gthy"): {"Zz": I}}),
     "^unknown generator 'Yy' in algebra 'galilei_central'$"),
    # an unknown name is blamed before a later override that names the central generator
    (lambda: catalog("galilei").central_extension(
        "M", {("Q", "Gux"): {"M": I}, ("Gux", "M"): {"M": I}}),
     "^unknown generator 'Q' in algebra 'galilei_central'$"),
], ids=["duplicate_names", "symbol_clash", "i_clash", "not_a_scalar", "self_bracket",
        "pair_twice", "flip_missing", "matrix_shape", "name_count", "central_present",
        "central_override", "product_clash", "product_clash_in_other", "product_symbol_clash",
        "mutated_result_generator", "mutated_pair", "flip_unknown_result",
        "central_unknown_pair", "central_pair_both_orders", "central_first_listed_fault",
        "central_unknown_before_central_pair"])
def test_rejects_bad_input(build, message):
    with pytest.raises(AlgebraError, match=message):
        build()
