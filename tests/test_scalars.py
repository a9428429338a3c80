"""Exact coefficient ring: Gaussian-rational Laurent polynomials."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lieq.algebra import LieAlgebra
from lieq.catalog import catalog
from lieq.scalars import Scalar, ScalarError, _add_into, _freeze, _mac
from lieq.uea import UEAElement


def test_basic_constants():
    assert Scalar.zero().is_zero()
    assert not Scalar.zero()
    assert Scalar.one().is_one()
    assert Scalar.from_int(2) + Scalar.from_int(3) == Scalar.from_int(5)
    assert Scalar.rational(1, 2) + Scalar.rational(1, 2) == Scalar.one()
    assert Scalar.rational(1, 3) * Scalar.from_int(3) == Scalar.one()


def test_imaginary_unit_squares_to_minus_one():
    i = Scalar.i()
    assert i * i == Scalar.from_int(-1)
    assert i * i * i * i == Scalar.one()
    assert (i + i) * Scalar.rational(1, 2) == i


def test_gaussian_components():
    z = Scalar.gaussian(Fraction(1, 2), Fraction(-3))
    assert z == Scalar.rational(1, 2) - Scalar.from_int(3) * Scalar.i()
    assert z.constant_pair() == (Fraction(1, 2), Fraction(-3))
    assert Scalar.symbol("c").constant_pair() is None


def test_symbols_and_powers():
    eps = Scalar.symbol("eps")
    c = Scalar.symbol("c")
    assert eps * eps == Scalar.symbol("eps", 2)
    assert (Scalar.one() + eps) ** 2 == Scalar.one() + Scalar.from_int(2) * eps + eps * eps
    assert c ** 0 == Scalar.one()
    # commutativity of distinct symbols
    assert c * eps == eps * c


def test_power_matches_repeated_products():
    # ** squares repeatedly; the ring is commutative, so each power is the same
    # canonical scalar as the product of n factors taken left to right.
    eps_inv, c, m0 = Scalar.symbol("eps", -1), Scalar.symbol("c"), Scalar.symbol("m0")
    bases = (
        Scalar.rational(1, 2) * eps_inv + Scalar.i() * c + Scalar.from_int(3),
        Scalar.gaussian(Fraction(1, 3), Fraction(1, 3)) * eps_inv * eps_inv
        - c * m0 + Scalar.rational(2, 5) * Scalar.symbol("eps"),
        Scalar.one() - Scalar.i() * Scalar.symbol("eps"),
    )
    for x in bases:
        product = Scalar.one()
        for n in range(14):
            power = x ** n
            assert power == product and hash(power) == hash(product)
            assert all(den > 0 and gcd(re, im, den) == 1 for re, im, den in power._terms.values())
            product = product * x


def test_negative_powers_only_for_eps():
    assert Scalar.symbol("eps", -2) * Scalar.symbol("eps", 2) == Scalar.one()
    with pytest.raises(ScalarError):
        Scalar.symbol("c", -1)
    with pytest.raises(ScalarError):
        Scalar.symbol("m0", -3)


def test_min_degree_and_limit():
    eps = Scalar.symbol("eps")
    s = Scalar.from_int(3) * Scalar.symbol("eps", -2) + Scalar.from_int(5) * eps
    assert s.min_degree("eps") == -2
    assert Scalar.zero().min_degree("eps") is None
    assert Scalar.from_int(7).min_degree("eps") == 0

    t = Scalar.from_int(2) + Scalar.from_int(3) * eps
    assert t.limit0("eps") == Scalar.from_int(2)
    assert (eps * Scalar.symbol("m")).limit0("eps") == Scalar.zero()
    with pytest.raises(ScalarError):
        Scalar.symbol("eps", -1).limit0("eps")


def test_mul_power():
    s = Scalar.from_int(3) * Scalar.symbol("eps", -2)
    assert s.mul_power("eps", 2) == Scalar.from_int(3)
    assert Scalar.one().mul_power("eps", -4).min_degree("eps") == -4
    with pytest.raises(ScalarError):
        Scalar.one().mul_power("c", -1)


def test_substitute_symbols():
    c = Scalar.symbol("c")
    m0 = Scalar.symbol("m0")
    s = Scalar.i() * c * c * m0
    assert s.substitute({"c": Scalar.one()}) == Scalar.i() * m0
    # symbol renaming via substitution
    w = Scalar.symbol("w")
    assert w.substitute({"w": m0}) == m0
    # simultaneous substitution uses the original values
    assert (c + w).substitute({"c": w, "w": m0}) == w + m0


def test_canonical_printing():
    assert str(Scalar.zero()) == "0"
    assert str(Scalar.from_int(-3)) == "-3"
    assert str(Scalar.rational(3, 2)) == "3/2"
    assert str(Scalar.i()) == "i"
    assert str(-Scalar.i()) == "-i"
    assert str(Scalar.from_int(2) * Scalar.i()) == "2*i"
    assert str(Scalar.rational(3, 2) * Scalar.i() * Scalar.symbol("eps", 2)) == "3/2*i*eps^2"
    assert str(Scalar.symbol("eps", -2)) == "eps^-2"
    assert str((Scalar.one() + Scalar.from_int(2) * Scalar.i()) * Scalar.symbol("m0")) == "(1+2*i)*m0"
    assert str(Scalar.one() - Scalar.i()) == "(1-i)"
    # deterministic term order: constant first, then monomials sorted
    assert str(Scalar.from_int(2) + Scalar.symbol("eps")) == "2 + eps"
    assert str(Scalar.symbol("m") + Scalar.symbol("c")) == "c + m"
    assert str(Scalar.symbol("m") - Scalar.symbol("c")) == "-c + m"


def test_equality_and_hash():
    a = Scalar.rational(1, 2) * Scalar.symbol("eps")
    b = Scalar.symbol("eps") * Scalar.rational(2, 4)
    assert a == b
    assert hash(a) == hash(b)
    d = {a: 1}
    assert d[b] == 1
    assert a != Scalar.symbol("eps")


# ---------------------------------------------------------------------------
# ring axioms on randomized scalars

small_fraction = st.fractions(
    min_value=-8, max_value=8, max_denominator=8
)


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(0, 3))
    s = Scalar.zero()
    for _ in range(n_terms):
        coeff = Scalar.gaussian(draw(small_fraction), draw(small_fraction))
        term = coeff
        for sym in draw(st.lists(st.sampled_from(["eps", "c", "m0"]), max_size=2)):
            lo = -2 if sym == "eps" else 0
            term = term * Scalar.symbol(sym, draw(st.integers(lo, 2).filter(lambda k: k != 0)))
        s = s + term
    return s


@given(scalars(), scalars())
def test_add_sub_roundtrip_exact(x, y):
    assert (x + y) - y == x


@given(scalars(), scalars(), scalars())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(scalars())
def test_additive_and_multiplicative_identity(x):
    assert x + Scalar.zero() == x
    assert x * Scalar.one() == x
    assert x + (-x) == Scalar.zero()


# ---------------------------------------------------------------------------
# inexact inputs are refused at construction, and so are powers and
# substitutions outside the ring (negative or fractional powers, a value for a pole)


@pytest.mark.parametrize("make", [
    lambda: Scalar.gaussian(0.1),
    lambda: Scalar.gaussian(1, 0.5),
    lambda: Scalar.gaussian("1/3"),
    lambda: Scalar.from_int(2.5),
    lambda: Scalar.rational(0.5),
    lambda: Scalar.rational(1, 0),
    lambda: Scalar.symbol("c", 0.5),
    lambda: Scalar.one().mul_power("eps", 1.5),
    lambda: Scalar.symbol("c") ** -1,
    lambda: Scalar.symbol("c") ** 1.5,
    lambda: (Scalar.one() + Scalar.symbol("eps", -1)).substitute({"eps": Scalar.one()}),
], ids=["gaussian-float", "gaussian-float-im", "gaussian-str", "from_int-float",
        "rational-float", "rational-zero-denominator", "symbol-float-exponent",
        "mul_power-float-exponent", "pow-negative", "pow-float", "substitute-into-pole"])
def test_inexact_inputs_raise(make):
    with pytest.raises(ScalarError):
        make()


# ---------------------------------------------------------------------------
# exponents lie in [-2^32, 2^32) on every route that makes a monomial


def _c(e):
    return Scalar.symbol("c", e)


def _abcd(brackets):
    return LieAlgebra("abcd", ("A", "B", "C", "D"), brackets, ("c",))


def _jacobi_residues(e):
    # [A,B] = k1*C and [A,C] = k2*A break Jacobi with residue k1*k2*C
    alg = _abcd({("A", "B"): {"C": _c(e // 2)}, ("A", "C"): {"A": _c(e - e // 2)}})
    return [r for _, residue in alg.validate().jacobi for r in residue.values()]


def _changed_constants(e):
    # with D central, C' = C + m*D turns [A,B] = k*C into k*C' - k*m*D'
    alg = _abcd({("A", "B"): {"C": _c(e - e // 2)}})
    matrix = [[Scalar.one() if r == k else Scalar.zero() for k in range(4)] for r in range(4)]
    matrix[2][3] = _c(e // 2)
    new = alg.change_basis(matrix, ("Ap", "Bp", "Cp", "Dp"))
    return [s for entry in new._table.values() for s in entry.values()]


def _unit_word_product(e):
    poi = catalog("poincare")
    x = UEAElement.word(poi, ("Px",), _c(e // 2)) * UEAElement.word(poi, ("KPx",), _c(e - e // 2))
    return [coeff for _, coeff in x.terms()]


GROWTH_ROUTES = {
    "symbol": lambda e: [_c(e)],
    "mul_power": lambda e: [_c(2).mul_power("c", e - 2)],
    "one_term_product": lambda e: [_c(e // 2) * _c(e - e // 2)],
    "multi_term_product": lambda e: [(Scalar.one() + _c(e // 2)) * (Scalar.i() + _c(e - e // 2))],
    "power": lambda e: [(_c(1) * Scalar.symbol("zz")) ** e],
    "unit_word_product": _unit_word_product,
    "validate": _jacobi_residues,
    "change_basis": _changed_constants,
}


@pytest.mark.parametrize("route", GROWTH_ROUTES)
def test_exponent_bound_on_every_growth_route(route):
    grow = GROWTH_ROUTES[route]
    top = 2**32 - 1
    made = grow(top)
    assert any(("c", top) in dict(mono).items() for s in made for mono, _ in s.items())
    with pytest.raises(ScalarError, match=r"\[-2\^32, 2\^32\)"):
        grow(top + 1)


def test_pole_bound_and_late_symbols():
    assert Scalar.symbol("eps", -2**32).min_degree("eps") == -2**32
    with pytest.raises(ScalarError):
        Scalar.symbol("eps", -2**32 - 1)
    with pytest.raises(ScalarError):
        Scalar.symbol("eps", -2**31) * Scalar.symbol("eps", -2**31 - 1)
    # a symbol met late gets its own field; existing codes stay, and printing sorts by name
    before = Scalar.symbol("c", 5) * Scalar.symbol("eps", -2)
    keys = list(before._terms)
    late = Scalar.symbol("aa_late") * before
    assert list((Scalar.symbol("c", 5) * Scalar.symbol("eps", -2))._terms) == keys
    assert str(late) == "aa_late*c^5*eps^-2" and late.symbols() == {"aa_late", "c", "eps"}
    assert late.mul_power("aa_late", -1) == before and late.min_degree("aa_late") == 1


@pytest.mark.parametrize("shift", [2**33, 2**127, 2**128, 2**128 + 3, 2**300],
                         ids=["2^33", "2^127", "2^128", "2^128+3", "2^300"])
def test_a_shift_too_large_for_any_exponent_is_out_of_range(shift):
    # 2^128 added to a packed monomial would move the next field's digit, not this one's
    for sym in ("eps", "c", "zz_far"):
        for s in (Scalar.one(), Scalar.symbol(sym) + Scalar.i()):
            with pytest.raises(ScalarError, match=r"\[-2\^32, 2\^32\)"):
                s.mul_power(sym, shift)
        with pytest.raises(ScalarError, match=r"\[-2\^32, 2\^32\)"):
            Scalar.symbol("eps").mul_power("eps", -shift)
        assert Scalar.zero().mul_power(sym, shift).is_zero()
    widest = Scalar.symbol("eps", -2**32).mul_power("eps", 2**33 - 1)
    assert widest == Scalar.symbol("eps", 2**32 - 1)


# The check runs in a child process, so its 2,000 extra fields stay out of this
# one's registry.  Field 2006 is past the last registered field.
_WIDE_REGISTRY_CHECK = textwrap.dedent("""
    import random
    from lieq import scalars
    from lieq.scalars import Scalar, ScalarError, _checked, _field

    for k in range(2000):
        _field("extra%d" % k)
    assert len(scalars._NAMES) == 2006
    B = 2**32
    bias = sum(B << (128 * k) for k in range(2006))
    outside = ~sum((2 * B - 1) << (128 * k) for k in range(2006))

    def full_width(terms):
        return not any(mono and (mono + bias) & outside for mono in terms)

    fields = (0, 1, 5, 6, 7, 1000, 2004, 2005, 2006)
    exps = (1, -1, 7, B - 1, -B, B, -B - 1, 2**40, -2**40, 2**126, -2**127)
    monos = [e << (128 * k) for k in fields for e in exps]
    rng = random.Random(5)
    for _ in range(3000):
        monos.append(sum(rng.choice(exps) << (128 * k) for k in rng.sample(fields, 2)))
    rng.shuffle(monos)
    kept = 0
    for terms in [[m] for m in monos] + [monos[i:i + 3] for i in range(0, len(monos), 3)]:
        terms = {m: (1, 0, 1) for m in terms}
        try:
            made = _checked(terms)
        except ScalarError:
            assert not full_width(terms), terms
        else:
            assert full_width(terms) and made._terms == terms, terms
            kept += 1
    assert 100 < kept < len(monos)
    top = Scalar.symbol("extra1999", B - 1)
    assert top.min_degree("extra1999") == B - 1 and str(top) == "extra1999^4294967295"
    try:
        top * Scalar.symbol("extra1999")
    except ScalarError:
        print("ok")
""")


def test_exponent_check_matches_the_full_width_check_after_many_names():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _WIDE_REGISTRY_CHECK],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "ok\n", "")


# ---------------------------------------------------------------------------
# differential test: the integer-triple core against a Fraction-pair reference


def _ref_mono(m1, m2):
    exps = dict(m1)
    for sym, exp in m2:
        exps[sym] = exps.get(sym, 0) + exp
    return tuple(sorted((sym, exp) for sym, exp in exps.items() if exp))


def _ref_gauss(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return {1: "i", -1: "-i"}.get(im, str(im) + "*i")
    i_part = "i" if abs(im) == 1 else str(abs(im)) + "*i"
    return "(%s%s%s)" % (re, "-" if im < 0 else "+", i_part)


BOUND = 2**32


class _Ref:
    """{monomial: (re, im)} with Fraction parts and no zero coefficients;
    every exponent must lie in [-2^32, 2^32)."""

    def __init__(self, terms):
        self.t = {m: c for m, c in terms.items() if c != (0, 0)}
        if any(not -BOUND <= e < BOUND for m in self.t for _, e in m):
            raise ScalarError("exponent out of range")

    @staticmethod
    def build(desc):
        out = _Ref({})
        for re, im, exps in desc:
            out = out + _Ref({_ref_mono((), tuple(exps.items())): (Fraction(re), Fraction(im))})
        return out

    def __add__(self, other):
        t = dict(self.t)
        for m, (a, b) in other.t.items():
            c, d = t.get(m, (0, 0))
            t[m] = (c + a, d + b)
        return _Ref(t)

    def __neg__(self):
        return _Ref({m: (-a, -b) for m, (a, b) in self.t.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        t = {}
        for m1, (a, b) in self.t.items():
            for m2, (c, d) in other.t.items():
                m = _ref_mono(m1, m2)
                e, f = t.get(m, (0, 0))
                t[m] = (e + a * c - b * d, f + a * d + b * c)
        return _Ref(t)

    def __pow__(self, n):
        out = _Ref({(): (Fraction(1), Fraction(0))})
        for _ in range(n):
            out = out * self
        return out

    def mul_power(self, sym, k):
        return _Ref({_ref_mono(m, ((sym, k),)): c for m, c in self.t.items()})

    def limit0(self, sym):
        if any(dict(m).get(sym, 0) < 0 for m in self.t):
            raise ScalarError("pole")
        return _Ref({m: c for m, c in self.t.items() if dict(m).get(sym, 0) == 0})

    def substitute(self, mapping):
        out = _Ref({})
        for m, c in self.t.items():
            term = _Ref({(): c})
            for sym, exp in m:
                factor = mapping[sym] ** exp if sym in mapping else _Ref({((sym, exp),): (1, 0)})
                term = term * factor
            out = out + term
        return out

    def min_degree(self, sym):
        return min((dict(m).get(sym, 0) for m in self.t), default=None)

    def items(self):
        return tuple(sorted(self.t.items()))

    def constant_pair(self):
        if not self.t:
            return (Fraction(0), Fraction(0))
        return self.t[()] if list(self.t) == [()] else None

    def __str__(self):
        parts = []
        for m, (re, im) in self.items():
            syms = "*".join(s if e == 1 else "%s^%d" % (s, e) for s, e in m)
            if not syms:
                parts.append(_ref_gauss(re, im))
            elif (re, im) == (1, 0):
                parts.append(syms)
            elif (re, im) == (-1, 0):
                parts.append("-" + syms)
            else:
                parts.append(_ref_gauss(re, im) + "*" + syms)
        out = parts[0] if parts else "0"
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _from_desc(desc):
    out = Scalar.zero()
    for re, im, exps in desc:
        term = Scalar.gaussian(re, im)
        for sym, exp in exps.items():
            term = term * Scalar.symbol(sym, exp)
        out = out + term
    return out


def _agree(s, r):
    for re, im, den in s._terms.values():
        assert den > 0 and gcd(re, im, den) == 1 and (re or im)
    assert s.items() == r.items()
    assert s.constant_pair() == r.constant_pair()
    assert str(s) == str(r)
    for sym in ("eps", "c", "m0", "t", "zz"):
        assert s.min_degree(sym) == r.min_degree(sym)


ref_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=12)
# "zz" is outside DEFAULT_SYMBOLS, so it gets a field after theirs; eps and zz
# also draw exponents next to the bound, where products leave it.
near_bound = st.integers(BOUND - 3, BOUND - 1)
ref_desc = st.lists(st.tuples(ref_fraction, ref_fraction, st.fixed_dictionaries(
    {}, optional={"eps": st.integers(-3, 3) | near_bound | near_bound.map(lambda e: -e),
                  "c": st.integers(1, 3), "m0": st.integers(1, 2), "t": st.integers(1, 3),
                  "zz": st.integers(1, 3) | near_bound},
)), max_size=4)
# Sums that must reduce: (1+i)/6 + (1+3i)/6 = (1+2i)/3, and exact cancellation.
_SIXTHS = [(Fraction(1, 6), Fraction(1, 6), {"c": 1})]


@settings(deadline=None)
@given(ref_desc, ref_desc, ref_desc, st.integers(0, 3), st.integers(-3, 3))
@example(_SIXTHS, [(Fraction(1, 6), Fraction(1, 2), {"c": 1})], [], 2, 0)
@example(_SIXTHS, [(-Fraction(1, 6), -Fraction(1, 6), {"c": 1})], _SIXTHS, 1, -1)
# at the bound: zz^(2^32 - 1) is kept, zz^(2^32) and eps^-(2^32 + 2) raise
@example([(1, 0, {"zz": BOUND - 2})], [(1, 1, {"zz": 1})], [], 1, 0)
@example([(1, 0, {"zz": BOUND - 1, "eps": 1 - BOUND})], [(1, 1, {"zz": 1})], [], 2, -3)
def test_triple_core_matches_fraction_reference(dx, dy, dz, n, k):
    x, y, z = _from_desc(dx), _from_desc(dy), _from_desc(dz)
    rx, ry, rz = _Ref.build(dx), _Ref.build(dy), _Ref.build(dz)
    _agree(x, rx)
    _agree(y, ry)
    _agree(x + y, rx + ry)
    _agree(x - y, rx - ry)
    _agree(-x, -rx)
    for op in (lambda a, b, c: a * b,
               lambda a, b, c: a ** n,
               lambda a, b, c: a.mul_power("eps", k),
               lambda a, b, c: a.mul_power("c", n),
               lambda a, b, c: a.substitute({"c": b, "m0": c}),
               lambda a, b, c: a.limit0("eps")):
        try:
            expected = op(rx, ry, rz)
        except ScalarError:
            with pytest.raises(ScalarError):
                op(x, y, z)
        else:
            _agree(op(x, y, z), expected)
    assert (x == y) == (rx.items() == ry.items())
    if x == y:
        assert hash(x) == hash(y)
    back = (x + y) - y
    assert back == x and hash(back) == hash(x)


# ---------------------------------------------------------------------------
# differential test: the in-place kernel on raw maps against the reference


@settings(deadline=None)
@given(ref_desc, ref_desc, ref_desc)
@example(_SIXTHS, [(Fraction(1, 6), Fraction(1, 2), {"c": 1})],
         [(Fraction(1, 18), -Fraction(1, 9), {"c": 2})])
@example([(1, 1, {"eps": -2})], [(1, -1, {"eps": 2})], [(-2, 0, {})])
@example(_SIXTHS, [(1, 0, {"eps": -1})], [(-Fraction(1, 6), -Fraction(1, 6), {"c": 1, "eps": -1})])
@example([(1, 0, {"eps": BOUND - 1})], [(1, 0, {"eps": 1}), (2, 0, {})], [(1, 0, {})])
# equal denominators above 1 that reduce after the sum: c/6 + c/2 * 1/3 = c/3
@example([(Fraction(1, 2), 0, {"c": 1})], [(Fraction(1, 3), 0, {})], [(Fraction(1, 6), 0, {"c": 1})])
# unequal denominators: c/3 + c/2 * (1+i) = (5+3i)c/6
@example([(Fraction(1, 2), 0, {"c": 1})], [(1, 1, {})], [(Fraction(1, 3), 0, {"c": 1})])
# a product whose gcd reduces: (1+i)/2 * (1+i)c/3 = ic/3, onto another monomial
@example([(Fraction(1, 2), Fraction(1, 2), {})], [(Fraction(1, 3), Fraction(1, 3), {"c": 1})],
         [(1, 0, {})])
# a denominator product of 1, alone and onto a stored monomial: (1+i)c * (2-i+t) + 3c + 5
@example([(1, 1, {"c": 1})], [(2, -1, {}), (1, 0, {"t": 1})], [(3, 0, {"c": 1}), (5, 0, {})])
def test_kernel_matches_scalar_arithmetic(dx, dy, dz):
    # the first three explicit examples sum to zero, e.g. (1+i)/6 * (1+3i)/6 = (-1+2i)/18;
    # the fourth leaves the exponent bound
    x, y, z = _from_desc(dx), _from_desc(dy), _from_desc(dz)
    rx, ry, rz = _Ref.build(dx), _Ref.build(dy), _Ref.build(dz)
    before = [(s, dict(s._terms), hash(s)) for s in (x, y, z)]
    t1, t2 = x._terms, y._terms  # callers pass live Scalars' maps as operands
    acc = dict(z._terms)
    _mac(acc, t1, t2)
    try:
        expected = rz + rx * ry
    except ScalarError:
        # the kernel adds unchecked; the bound is checked where a sum becomes a Scalar
        with pytest.raises(ScalarError):
            _freeze({"kept": acc})
        with pytest.raises(ScalarError):
            x * y
        return
    _agree(Scalar(acc), expected)
    assert Scalar(acc) == z + x * y
    assert all(acc.values())  # a cancelled monomial is deleted, never stored as zero
    _add_into(acc, t1)
    _agree(Scalar(acc), expected + rx)
    # the operands are only read
    for s, terms, h in before:
        assert s._terms == terms and hash(Scalar(dict(s._terms))) == h
    # exact cancellation leaves an empty map, which _freeze leaves out
    neg = dict((-(x * y))._terms)
    _mac(neg, t1, t2)
    back = dict((-x)._terms)
    _add_into(back, t1)
    assert neg == {} and back == {}
    assert _freeze({"kept": acc, "cancelled": neg}) == ({"kept": Scalar(acc)} if acc else {})
