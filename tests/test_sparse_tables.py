"""Sparse table sums against the dense loops they replaced.

`validate` builds each Jacobi residue from products of two stored entries,
`change_basis` sums only over stored entries and nonzero matrix entries, and
`_invert` reduces sparse rows.  The references below are the dense loops:
every sorted triple and its three cyclic orders through `bracket_index`,
every (c, d) index pair of the basis change, and a dense Gauss-Jordan over
every entry.  The arithmetic is exact, so reports, tables and inverses must
agree exactly, violations in the same order and errors at the same column,
on catalog tables and on tables that break Jacobi alike.

The constructions (with_bracket, flip_sign, rename, trivial_extension,
central_extension, direct_product) build from index rows; their references
below spell the table out in names and hand it to the constructor, and
both must give the same table, or the same error.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from lieq import algebra
from lieq.algebra import AlgebraError, InvalidCocycle, LieAlgebra, ValidationReport, _invert
from lieq.catalog import AXES, CATALOG_NAMES, algebra_from_json, algebra_to_json, catalog
from lieq.contraction import DivergentContraction, contract, rescale_algebra
from lieq.scalars import DEFAULT_SYMBOLS, Scalar, ScalarError, _freeze, _mac, _unit_inverse

I = Scalar.i()
ONE = Scalar.one()
ZERO = Scalar.zero()
EPS = Scalar.symbol("eps")

# -- references: the dense loops ---------------------------------------------


def ref_validate(alg):
    """Every a < b < c, every cyclic order, every lookup through bracket_index."""
    issues = []
    declared = set(alg.symbols)
    for (a, b), combo in alg.nonzero_brackets():
        for coeff in combo.values():
            extra = coeff.symbols() - declared
            if extra:
                issues.append("undeclared symbols %s in [%s,%s]" % (sorted(extra), a, b))
    jacobi = []
    n = alg.dim
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                residue = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for e, ce in alg.bracket_index(x, y).items():
                        for d, coeff in alg.bracket_index(e, z).items():
                            _mac(residue.setdefault(d, {}), ce._terms, coeff._terms)
                residue = _freeze(residue)
                if residue:
                    names = (alg.generators[a], alg.generators[b], alg.generators[c])
                    jacobi.append(
                        (names, {alg.generators[d]: r for d, r in sorted(residue.items())})
                    )
    return ValidationReport(jacobi=jacobi, issues=issues)


def ref_invert(matrix):
    """Dense Gauss-Jordan over every entry; the pivot of column k is the first
    unit at or below row k, and a row operation runs across the whole row."""
    n = len(matrix)
    a = [row[:] for row in matrix]
    inv = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    for col in range(n):
        pivot_row = None
        pivot_inv = None
        for r in range(col, n):
            pivot_inv = _unit_inverse(a[r][col])
            if pivot_inv is not None:
                pivot_row = r
                break
        if pivot_row is None:
            raise AlgebraError(
                "basis matrix is singular (no unit pivot in column %d)" % col)
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        a[col] = [x * pivot_inv for x in a[col]]
        inv[col] = [x * pivot_inv for x in inv[col]]
        for r in range(n):
            if r == col or a[r][col].is_zero():
                continue
            factor = a[r][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return inv


def ref_change_basis(alg, matrix, new_names, name=None):
    """c'_ab^f = sum over every c, d of A[a][c] A[b][d] c_cd^e Ainv[e][f]."""
    n = alg.dim
    inv = ref_invert(matrix)
    table = {}
    for a in range(n):
        for b in range(a + 1, n):
            old = {}
            for c in range(n):
                ac = matrix[a][c]
                if ac.is_zero():
                    continue
                for d in range(n):
                    bd = matrix[b][d]
                    if bd.is_zero():
                        continue
                    w = ac * bd
                    for e, coeff in alg.bracket_index(c, d).items():
                        _mac(old.setdefault(e, {}), w._terms, coeff._terms)
            entry = {}
            for e, coeff in old.items():
                for f in range(n):
                    w = inv[e][f]
                    if not w.is_zero():
                        _mac(entry.setdefault(f, {}), coeff, w._terms)
            table[(new_names[a], new_names[b])] = {
                new_names[f]: coeff for f, coeff in _freeze(entry).items()}
    return LieAlgebra(name or alg.name + "_basis", new_names, table, alg.symbols)


def ref_with_bracket(alg, a, b, combo):
    brackets = dict(alg.nonzero_brackets())
    brackets.pop((a, b), None)
    brackets.pop((b, a), None)
    brackets[(a, b)] = combo
    return LieAlgebra(alg.name + "_mut", alg.generators, brackets, alg.symbols)


def ref_flip_sign(alg, a, b, d):
    entry = alg.bracket(a, b)
    if d not in entry:
        raise AlgebraError("no constant c_%s,%s^%s to flip" % (a, b, d))
    entry[d] = -entry[d]
    return ref_with_bracket(alg, a, b, entry)


def renamed_listing(alg, mapping):
    return {(mapping.get(a, a), mapping.get(b, b)):
            {mapping.get(d, d): coeff for d, coeff in combo.items()}
            for (a, b), combo in alg.nonzero_brackets()}


def ref_rename(alg, mapping, name=None):
    return LieAlgebra(name or alg.name, tuple(mapping.get(g, g) for g in alg.generators),
                      renamed_listing(alg, mapping), alg.symbols)


def ref_trivial_extension(alg, new_gen, name=None):
    if new_gen in alg.generators:
        raise AlgebraError("generator %r already present" % new_gen)
    return LieAlgebra(name or alg.name + "_ext", alg.generators + (new_gen,),
                      dict(alg.nonzero_brackets()), alg.symbols)


def ref_central_extension(alg, central, overrides, name=None):
    """The listing without the pairs given, then the overrides as given: the order of the checks."""
    if central in alg.generators:
        raise AlgebraError("generator %r already present" % central)
    brackets = dict(alg.nonzero_brackets())
    for a, b in overrides:
        if a == central or b == central:
            raise AlgebraError("overrides must pair existing generators")
        brackets.pop((a, b), None)
        brackets.pop((b, a), None)
    brackets.update(overrides)
    ext = LieAlgebra(name or alg.name + "_central", alg.generators + (central,), brackets,
                     alg.symbols)
    report = ext.validate()
    if not report.ok:
        raise InvalidCocycle("central extension by %r fails Jacobi" % central, report)
    return ext


def ref_direct_product(alg, other, name=None):
    mapping = {}
    for g in other.generators:
        if g in alg.generators:
            mapping[g] = g + "_2"
            if mapping[g] in alg.generators or mapping[g] in other.generators:
                raise AlgebraError("cannot disambiguate clashing generator %r" % g)
    brackets = dict(alg.nonzero_brackets())
    brackets.update(renamed_listing(other, mapping))
    symbols = alg.symbols + tuple(s for s in other.symbols if s not in alg.symbols)
    return LieAlgebra(name or "%s_x_%s" % (alg.name, other.name),
                      alg.generators + tuple(mapping.get(g, g) for g in other.generators),
                      brackets, symbols)


REFERENCES = {
    "with_bracket": ref_with_bracket,
    "flip_sign": ref_flip_sign,
    "rename": ref_rename,
    "trivial_extension": ref_trivial_extension,
    "central_extension": ref_central_extension,
    "direct_product": ref_direct_product,
}


# -- helpers ----------------------------------------------------------------


def listing(report):
    """The whole report with every dict's key order kept."""
    return [(names, list(residue.items())) for names, residue in report.jacobi], report.issues


def assert_same_report(alg):
    ref = ref_validate(alg)
    got = alg.validate()
    assert listing(got) == listing(ref), alg.name
    assert alg._valid == ref.ok
    return got


def assert_same_basis_change(alg, matrix, names=None):
    names = names or tuple(g + "_n" for g in alg.generators)
    got = alg.change_basis(matrix, names)
    ref = ref_change_basis(alg, matrix, names)
    assert got == ref
    assert got.name == ref.name
    assert list(got.nonzero_brackets()) == list(ref.nonzero_brackets())
    assert_same_report(got)
    return got


def random_constant(rng):
    """A nonzero constant: Gaussian, c, m*eps or eps^-1 times a Gaussian."""
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = rng.choice((0, 0, 1, -1, 2))
    g = Scalar.gaussian(re, im) if re or im else I
    kind = rng.randrange(4)
    if kind == 1:
        return g * Scalar.symbol("c")
    if kind == 2:
        return g * Scalar.symbol("m") * EPS
    if kind == 3:
        return g * Scalar.symbol("eps", -1)
    return g


def random_table(rng, k):
    """A seeded antisymmetric table on 3-6 generators; it usually breaks Jacobi."""
    n = rng.randint(3, 6)
    gens = tuple("G%d" % i for i in range(n))
    brackets = {}
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < 0.5:
            combo = {gens[d]: random_constant(rng) for d in rng.sample(range(n), rng.randint(1, 2))}
            if rng.random() < 0.05:
                combo[gens[rng.randrange(n)]] = Scalar.symbol("q")  # an undeclared symbol
            brackets[(gens[a], gens[b]) if rng.random() < 0.5 else (gens[b], gens[a])] = combo
    return LieAlgebra("random%d" % k, gens, brackets)


def unitriangular(rng, n):
    """I + N with a few symbolic entries above the diagonal."""
    entries = (Scalar.symbol("c"), Scalar.symbol("m") * EPS, Scalar.gaussian(2, -1),
               ONE + Scalar.symbol("c"), Scalar.symbol("eps", -1))
    matrix = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    upper = list(itertools.combinations(range(n), 2))
    for r, c in rng.sample(upper, min(len(upper), rng.randint(1, 4))):
        matrix[r][c] = rng.choice(entries)
    return matrix


def eps_diagonal(rng, n):
    return [[Scalar.symbol("eps", rng.randint(-2, 2)) if r == c else ZERO for c in range(n)]
            for r in range(n)]


def permutation(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return [[ONE if order[r] == c else ZERO for c in range(n)] for r in range(n)]


CATALOG_DIMS = sorted({catalog(name).dim for name in CATALOG_NAMES})


def identity(n):
    return [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]


def matmul(x, y):
    n = len(x)
    return [[sum((x[r][k] * y[k][c] for k in range(n)), ZERO) for c in range(n)]
            for r in range(n)]


def matrices(rng, n):
    """A unitriangular, an eps-power diagonal, a permutation and their product."""
    u, d, p = unitriangular(rng, n), eps_diagonal(rng, n), permutation(rng, n)
    return (u, d, p, matmul(matmul(p, u), d))


# -- validate ------------------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_validate_matches_dense_loop_on_catalog(name):
    assert assert_same_report(catalog(name)).ok


@pytest.mark.parametrize("name", ["poincare", "galilei_central"])
def test_validate_matches_dense_loop_on_every_flip(name):
    alg = catalog(name)
    broken = 0
    for a, b, d in alg.nonzero_constants():
        report = assert_same_report(alg.flip_sign(a, b, d))
        broken += not report.ok
    assert broken > 0


def test_validate_matches_dense_loop_on_copies():
    poi, gc = catalog("poincare"), catalog("galilei_central")
    copies = [
        poi.with_bracket("Jx", "Jy", {"Jz": I, "H": ONE}),
        poi.with_bracket("KPx", "Px", {}),
        gc.with_bracket("H", "M", {"Px": Scalar.symbol("c")}),
        gc.with_bracket("KGx", "Px", {"M": I, "Jz": Scalar.symbol("eps", -1)}),
        poi.direct_product(catalog("heisenberg3")),
        gc.direct_product(poi.flip_sign("Jx", "Jy", "Jz")),
    ]
    reports = [assert_same_report(alg) for alg in copies]
    assert sum(not r.ok for r in reports) >= 4


def test_validate_matches_dense_loop_on_random_tables():
    rng = random.Random(20261018)
    broken = with_issues = 0
    for k in range(300):
        report = assert_same_report(random_table(rng, k))
        broken += bool(report.jacobi)
        with_issues += bool(report.issues)
    # both outcomes, and the issue list, get exercised
    assert 100 <= broken <= 280
    assert with_issues > 0


# -- change_basis ---------------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_change_basis_matches_dense_loop_on_catalog(name):
    alg = catalog(name)
    rng = random.Random(name)
    for matrix in matrices(rng, alg.dim):
        assert assert_same_basis_change(alg, matrix).validate().ok


def test_change_basis_matches_dense_loop_on_broken_tables():
    rng = random.Random(7)
    tables = [catalog("poincare").flip_sign("KPx", "Px", "H"),
              catalog("galilei_central").with_bracket("H", "M", {"Px": ONE})]
    tables += [random_table(rng, k) for k in range(40)]
    broken = 0
    for alg in tables:
        for matrix in matrices(rng, alg.dim):
            broken += not assert_same_basis_change(alg, matrix).validate().ok
    assert broken > 0


def test_change_basis_round_trip_keeps_the_listing():
    alg = catalog("full_relativistic")
    rng = random.Random(3)
    matrix = unitriangular(rng, alg.dim)
    there = assert_same_basis_change(alg, matrix, alg.generators)
    back = assert_same_basis_change(there, _invert(matrix), alg.generators)
    assert back == alg
    assert list(back.nonzero_brackets()) == list(alg.nonzero_brackets())


def test_change_basis_checks_the_range_of_its_result_only():
    # the raw pair product eps^K * eps^K is out of range; only results are checked
    alg = catalog("heisenberg3")
    big = 2**31

    def diagonal(powers):
        return [[Scalar.symbol("eps", powers[g]) if r == c else ZERO
                 for c in range(alg.dim)] for r, g in enumerate(alg.generators)]

    scaled = alg.change_basis(diagonal(dict.fromkeys(alg.generators, big)), alg.generators)
    assert scaled.bracket("Xx", "Px") == {"Z": I * Scalar.symbol("eps", big)}
    with pytest.raises(ScalarError, match="exponent out of range"):
        alg.change_basis(diagonal(dict(dict.fromkeys(alg.generators, big), Z=0)), alg.generators)


# -- work: only nonzero products are visited ------------------------------------


def heisenberg_chain(copies=30):
    """copies disjoint Heisenberg triples [X_k, P_k] = i Z_k."""
    gens = []
    brackets = {}
    for k in range(copies):
        x, p, z = "X%d" % k, "P%d" % k, "Z%d" % k
        gens += [x, p, z]
        brackets[(x, p)] = {z: I}
    return LieAlgebra("heisenberg_x%d" % copies, gens, brackets)


def nonzero_cyclic_products(alg):
    """Count the nonzero c_xy^e c_ez^d over every cyclic order of every a < b < c."""
    full = {}
    for (a, b), combo in alg.nonzero_brackets():
        full[(a, b)] = combo
        full[(b, a)] = combo  # a count needs no signs
    count = 0
    for a, b, c in itertools.combinations(alg.generators, 3):
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for e in full.get((x, y), ()):
                count += len(full.get((e, z), ()))
    return count


def validate_work(alg, monkeypatch):
    """(bracket_index calls, _mac calls) of one validate() call, which must pass."""
    lookups, macs = [], []
    real_index, real_mac = LieAlgebra.bracket_index, algebra._mac

    def counting_index(self, ia, ib):
        lookups.append((ia, ib))
        return real_index(self, ia, ib)

    def counting_mac(acc, t1, t2):
        macs.append(1)
        real_mac(acc, t1, t2)

    monkeypatch.setattr(LieAlgebra, "bracket_index", counting_index)
    monkeypatch.setattr(algebra, "_mac", counting_mac)
    assert alg.validate().ok
    return len(lookups), len(macs)


def test_validate_skips_the_vanishing_triples(monkeypatch):
    # the dense loop makes at least 3 * C(90, 3) = 352,440 lookups here
    alg = heisenberg_chain()
    assert alg.dim == 90
    assert validate_work(alg, monkeypatch) == (0, nonzero_cyclic_products(alg))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_validate_work_is_one_mac_per_nonzero_product(name, monkeypatch):
    alg = catalog(name)
    assert validate_work(alg, monkeypatch) == (0, nonzero_cyclic_products(alg))


def scalar_products(monkeypatch):
    """The list that every later Scalar.__mul__ call appends to."""
    products = []
    real_mul = Scalar.__mul__

    def counting_mul(self, other):
        products.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting_mul)
    return products


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_change_basis_pair_sums_build_no_scalar(name, monkeypatch):
    # every Scalar product of a basis change is one of _invert's row operations
    alg = catalog(name)
    rng = random.Random(name)
    cases = matrices(rng, alg.dim)
    products = scalar_products(monkeypatch)
    for matrix in cases:
        del products[:]
        alg.change_basis(matrix, alg.generators)
        in_change_basis = len(products)
        del products[:]
        _invert(matrix)
        assert in_change_basis == len(products)


def test_invert_of_the_identity_makes_no_product(monkeypatch):
    products = scalar_products(monkeypatch)
    for n in CATALOG_DIMS:
        assert _invert(identity(n)) == identity(n)
    assert not products


# -- _invert ---------------------------------------------------------------------


def outcome(invert, matrix):
    """The inverse, or the type and message of the error raised."""
    try:
        return invert(matrix)
    except (AlgebraError, ScalarError) as e:
        return type(e), str(e)


def assert_same_inverse(matrix):
    got = outcome(_invert, matrix)
    assert got == outcome(ref_invert, matrix)
    return got


@pytest.mark.parametrize("n", CATALOG_DIMS)
def test_invert_matches_dense_reference_on_seeded_matrices(n):
    # unitriangular with symbolic entries, eps powers on the diagonal, a
    # permutation (zero diagonal entries: row swaps) and their product
    rng = random.Random(n)
    for _ in range(4):
        for matrix in matrices(rng, n):
            inv = assert_same_inverse(matrix)
            assert matmul(matrix, inv) == identity(n)


def test_invert_swaps_rows_to_reach_a_unit_pivot():
    # column 0: a zero diagonal entry, then a non-unit, then the unit pivot eps;
    # column 1 then needs a second swap
    matrix = [[ZERO, ONE, ZERO], [Scalar.symbol("c"), ZERO, ONE], [EPS, ZERO, ZERO]]
    assert matmul(matrix, assert_same_inverse(matrix)) == identity(3)
    twisted = matmul(permutation(random.Random(1), 6), unitriangular(random.Random(2), 6))
    assert any(twisted[k][k].is_zero() for k in range(6))
    assert matmul(twisted, assert_same_inverse(twisted)) == identity(6)


def test_invert_matches_dense_reference_on_eps_monomial_pivots():
    rng = random.Random(11)
    for n in CATALOG_DIMS:
        diagonal = [[Scalar.gaussian(rng.randint(1, 3), rng.randint(-2, 2))
                     * Scalar.symbol("eps", rng.randint(-3, 3)) if r == c else ZERO
                     for c in range(n)] for r in range(n)]
        lower = [[random_constant(rng) if c < r and rng.random() < 0.4 else diagonal[r][c]
                  for c in range(n)] for r in range(n)]
        for matrix in (diagonal, lower, matmul(lower, unitriangular(rng, n))):
            assert matmul(matrix, assert_same_inverse(matrix)) == identity(n)


@pytest.mark.parametrize("matrix, column", [
    ([[ZERO]], 0),
    ([[Scalar.symbol("c")]], 0),
    ([[ONE + EPS]], 0),
    ([[ONE, ONE], [ONE, ONE]], 1),
    ([[ONE, Scalar.symbol("c")], [ONE, ZERO]], 1),
    ([[ONE, ZERO, ZERO], [ZERO, ONE, Scalar.symbol("c")], [ZERO, ZERO, Scalar.symbol("c") * EPS]],
     2),
], ids=["zero", "symbol", "binomial", "rank_one", "non_unit_after_elimination", "last_column"])
def test_invert_rejects_at_the_same_column_as_the_reference(matrix, column):
    message = "basis matrix is singular (no unit pivot in column %d)" % column
    assert assert_same_inverse(matrix) == (AlgebraError, message)


def test_invert_matches_dense_reference_on_random_matrices():
    # both outcomes: inverses, and non-unit pivots at every column
    rng = random.Random(20261020)
    pool = (ZERO, ZERO, ONE, -ONE, I, EPS, Scalar.symbol("eps", -1), Scalar.symbol("c"),
            ONE + Scalar.symbol("c"), Scalar.gaussian(1, 1))
    inverted, columns = 0, set()
    for _ in range(300):
        n = rng.randint(1, 5)
        got = assert_same_inverse([[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        if isinstance(got, list):
            inverted += 1
        else:
            columns.add(got[1])
    assert inverted >= 30 and len(columns) >= 4
    out_of_range = [[Scalar.symbol("eps", -2**32)]]  # the inverse eps^(2^32) is out of range
    assert assert_same_inverse(out_of_range)[0] is ScalarError


# -- the index path: derived tables equal their name-built twins ---------------


def named_twin(alg):
    return LieAlgebra(alg.name, alg.generators, dict(alg.nonzero_brackets()), alg.symbols)


def assert_same_as_named_twin(alg, ref=None):
    """alg equals the table built from its own listing, and ref if one is given."""
    for twin in (named_twin(alg),) + ((ref,) if ref is not None else ()):
        assert alg == twin
        assert list(alg.nonzero_brackets()) == list(twin.nonzero_brackets())
        assert list(alg._table) == list(twin._table)
        assert algebra_to_json(alg) == algebra_to_json(twin)
        assert (alg.name, alg.symbols) == (twin.name, twin.symbols)


def built(make):
    """The table make() returns, or the type, message and report of its AlgebraError."""
    try:
        return make()
    except AlgebraError as e:
        report = getattr(e, "report", None)
        return type(e), str(e), report and listing(report)


def assert_same_construction(alg, method, *args):
    """alg.method(*args) against its reference: twin tables, or the same error."""
    got = built(lambda: getattr(alg, method)(*args))
    ref = built(lambda: REFERENCES[method](alg, *args))
    if isinstance(ref, LieAlgebra):
        assert isinstance(got, LieAlgebra), got
        assert_same_as_named_twin(got, ref)
    else:
        assert got == ref
    return got


def coboundary_overrides(alg, central, rng):
    """[X, Y] + f([X, Y]) * central for a seeded linear f: a Lie table for any f.

    Each pair is given in a random order; of the pairs f leaves unchanged, some
    are given unchanged and the others left out."""
    f = {g: random_constant(rng) for g in rng.sample(alg.generators, rng.randint(1, alg.dim))}
    overrides = {}
    for (a, b), combo in alg.nonzero_brackets():
        combo = dict(combo)
        z = sum((coeff * f[d] for d, coeff in combo.items() if d in f), ZERO)
        if z:
            combo[central] = z
        elif rng.random() < 0.5:
            continue
        if rng.random() < 0.5:
            overrides[(b, a)] = {d: -coeff for d, coeff in combo.items()}
        else:
            overrides[(a, b)] = combo
    return overrides


def seeded_constructions(alg, rng):
    """(method, args) of seeded calls of the six constructions on alg; only the
    with_bracket calls and the last central extension may raise."""
    gens = alg.generators
    calls = [("rename", ({g: g + "_r" for g in rng.sample(gens, rng.randint(1, len(gens)))},)),
             ("rename", ({gens[0]: "Renamed"}, "renamed")),
             ("trivial_extension", ("Z9",)),
             ("trivial_extension", ("Z9", "extended")),
             ("central_extension", ("Z9", {})),
             ("central_extension", ("Z9", coboundary_overrides(alg, "Z9", rng))),
             ("central_extension", ("Z9", coboundary_overrides(alg, "Z9", rng), "central"))]
    if len(gens) > 1:
        a, b = rng.sample(gens, 2)
        calls.append(("rename", ({a: b, b: a},)))
    for other in rng.sample(CATALOG_NAMES, 2) + [alg.name]:  # alg with itself: every name clashes
        calls.append(("direct_product", (catalog(other),)))
    calls.append(("direct_product", (catalog(rng.choice(CATALOG_NAMES)), "product")))
    for _ in range(4):
        a, b = rng.choice(gens), rng.choice(gens)
        results = rng.sample(gens, rng.randint(0, min(2, len(gens))))
        combo = {d: random_constant(rng) for d in results}
        calls.append(("with_bracket", (a, b, combo)))
    for a, b, d in rng.sample(alg.nonzero_constants(), min(4, len(alg.nonzero_constants()))):
        calls.append(("flip_sign", (a, b, d) if rng.random() < 0.5 else (b, a, d)))
    nonzero = [pair for pair, _ in alg.nonzero_brackets()]
    if nonzero:  # a pair replaced by the central generator alone: usually not a cocycle
        calls.append(("central_extension", ("Z9", {rng.choice(nonzero): {"Z9": I}})))
    return calls


def ref_offenders(alg, exponents):
    """((a, b, d), pole order) of each diverging constant, in listing order."""
    offenders = []
    for a, b, d in alg.nonzero_constants():
        order = (alg.bracket(a, b)[d].min_degree("eps")
                 + exponents[a] + exponents[b] - exponents[d])
        if order < 0:
            offenders.append(((a, b, d), -order))
    return offenders


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_derived_tables_equal_their_name_built_twins(name):
    alg = catalog(name)
    rng = random.Random("twins " + name)
    for matrix in matrices(rng, alg.dim):
        assert_same_as_named_twin(alg.change_basis(matrix, tuple(g + "_n" for g in alg.generators)))
    diverged = 0
    for _ in range(8):
        exponents = {g: rng.choice((-1, 0, 1, 2)) for g in alg.generators}
        assert_same_as_named_twin(rescale_algebra(alg, exponents))
        expected = ref_offenders(alg, exponents)
        try:
            assert_same_as_named_twin(contract(alg, exponents))
        except DivergentContraction as e:
            assert list(e.offenders) == expected
            diverged += 1
        else:
            assert not expected
    assert diverged > 0 or not alg.nonzero_constants()
    calls = seeded_constructions(alg, rng)
    outcomes = [assert_same_construction(alg, method, *args) for method, args in calls]
    # only the 4 with_bracket calls and the lone central override may fail
    assert sum(isinstance(got, LieAlgebra) for got in outcomes) >= len(calls) - 5


BARGMANN = {("Gu%s" % ax, "Gr%s" % ax): {"M": I} for ax in AXES}


def test_the_bargmann_extension_equals_its_name_built_twin():
    ext = assert_same_construction(catalog("galilei"), "central_extension", "M", BARGMANN)
    assert ext.validate().ok and ext.bracket("Grx", "Gux") == {"M": -I}


# odd's generator Y is a symbol of symbolic, and symbolic's X clashes with odd's X
ODD = LieAlgebra("odd", ("Y", "X"), {})
SYMBOLIC = LieAlgebra("symbolic", ("X",), {}, DEFAULT_SYMBOLS + ("X_2", "Y"))


@pytest.mark.parametrize("source, method, args", [
    ("galilei", "with_bracket", ("Gux", "Grx", {"Zz": ONE})),
    ("galilei", "with_bracket", ("Gux", "Nope", {"Zz": ONE})),
    ("galilei", "with_bracket", ("Gux", "Gux", {"Grx": I})),
    ("galilei", "with_bracket", ("Gux", "Grx", {"Zz": 1})),
    ("galilei", "with_bracket", ("Gux", "Grx", {"Zz": ZERO})),
    ("poincare", "flip_sign", ("Jx", "Jy", "Nope")),
    ("poincare", "flip_sign", ("Jx", "Jx", "Jz")),
    ("poincare", "flip_sign", ("Nope", "Jy", "Jz")),
    ("poincare", "flip_sign", ("Jy", "Jx", "Jz")),
    ("poincare", "rename", ({"H": "Jx"},)),
    ("poincare", "rename", ({"H": "c"},)),
    ("poincare", "trivial_extension", ("m",)),
    ("poincare", "trivial_extension", ("H",)),
    ("galilei", "central_extension", ("M", {("Q", "Gux"): {"M": I}})),
    ("galilei", "central_extension", ("M", {("Gux", "Grx"): {"M": 1}})),
    ("galilei", "central_extension", ("i", {})),
    ("galilei", "central_extension", ("Gux", {})),
    ("galilei", "central_extension", ("M", {("Gux", "Gux"): {"M": I}})),
    ("galilei", "central_extension", ("M", {("Gux", "M"): {"M": I}})),
    ("galilei", "central_extension", ("M", {("Gux", "Grx"): {"M": I},
                                            ("Grx", "Gux"): {"M": -I}})),
    ("galilei", "central_extension", ("M", {("Grx", "Gux"): {"M": -I},
                                            ("Gux", "Grx"): {"M": I}})),
    ("galilei", "central_extension", ("M", {("Gux", "Grx"): {"Yy": I},
                                            ("Gthx", "Gthy"): {"Zz": I}})),
    ("galilei", "central_extension", ("M", {("Gux", "Grx"): {"Yy": I},
                                            ("Gthy", "Gthx"): {"Zz": I}})),
    ("galilei", "central_extension", ("M", {("Gthy", "Gthx"): {"Gthz": -I},
                                            ("Gux", "Grx"): {"Yy": I},
                                            ("Gthx", "Gthy"): {"Zz": I}})),
    ("galilei", "central_extension", ("M", {("Gthx", "Gthy"): {"Gthz": I, "M": ONE},
                                            ("Gux", "Grx"): {"Yy": I},
                                            ("Gthy", "Gthx"): {"Zz": I}})),
    (ODD, "direct_product", (SYMBOLIC,)),
    ("u1", "direct_product", (LieAlgebra("x", ("Q", "Q_2"), {}),)),
], ids=lambda v: v if isinstance(v, str) else None)
def test_bad_and_edge_inputs_match_the_name_built_constructions(source, method, args):
    # same type, message and report; a pair given in both orders is given
    # twice; of two faulty overrides the one given first is blamed
    alg = catalog(source) if isinstance(source, str) else source
    assert_same_construction(alg, method, *args)


def test_constructions_index_only_the_brackets_they_are_given(monkeypatch):
    gal, poi = catalog("galilei"), catalog("poincare")
    calls = []
    index_rows = LieAlgebra._index_rows

    def counting(self, pairs):
        pairs = list(pairs)
        calls.append((self.name, pairs))
        return index_rows(self, pairs)

    monkeypatch.setattr(LieAlgebra, "_index_rows", counting)
    poi.rename({"H": "E"})
    poi.trivial_extension("M")
    poi.direct_product(poi)
    poi.flip_sign("KPx", "Px", "H")
    poi.change_basis(identity(poi.dim), poi.generators)
    contract(poi, dict.fromkeys(poi.generators, 0))
    assert calls == []
    gal.with_bracket("Grx", "Gux", {"Gthx": I})
    gal.central_extension("M", BARGMANN)
    algebra_from_json(algebra_to_json(gal))
    twice = {"name": "twice", "generators": ["A", "B"], "brackets": [
        {"a": "A", "b": "B", "result": [{"gen": "A", "coeff": "1"}]},
        {"a": "B", "b": "A", "result": []}]}
    with pytest.raises(AlgebraError, match=r"^bracket \(B,A\) given twice$"):
        algebra_from_json(json.dumps(twice))
    assert calls == [("galilei_mut", [(("Grx", "Gux"), {"Gthx": I})]),
                     ("galilei_central", list(BARGMANN.items())),
                     ("galilei", list(gal.nonzero_brackets())),
                     ("twice", [(("A", "B"), {"A": ONE}), (("B", "A"), {})])]


def test_index_path_keeps_the_name_checks():
    poi = catalog("poincare")
    ident = identity(poi.dim)

    def message(build):
        with pytest.raises(AlgebraError) as exc:
            build()
        return str(exc.value)

    twice = ("H", "H") + poi.generators[2:]
    assert message(lambda: poi.change_basis(ident, twice)) == \
        message(lambda: LieAlgebra("poincare_basis", twice, {})) == \
        "duplicate generator names in 'poincare_basis'"
    for clash in ("c", "i"):
        names = (clash,) + poi.generators[1:]
        assert message(lambda: poi.change_basis(ident, names)) == \
            "generator name %r collides with a scalar symbol" % clash
    # a primed name that is a declared symbol
    alg = LieAlgebra("x", ("A", "B"), {("A", "B"): {"B": ONE}}, DEFAULT_SYMBOLS + ("Ap",))
    for derive in (contract, rescale_algebra):
        assert message(lambda: derive(alg, {"A": 0, "B": 0})) == \
            "generator name 'Ap' collides with a scalar symbol"
