"""Exact scalar ring: Gaussian-rational Laurent polynomials in commuting symbols.

A Scalar is a finite sum of monomials over a set of commuting symbols with
Gaussian-rational coefficients.  Exponents are integers; the symbol ``eps``
is the only one permitted negative exponents (it tracks contraction poles —
a pole in any other symbol is a transcription bug and is rejected at
construction time).

Each coefficient (re + im*i)/den is one integer triple ``(re, im, den)`` with
``den > 0`` and ``gcd(re, im, den) == 1``; zero coefficients are never
stored, and the ring operations use integers only.  Fractions appear only at
the edges: the ``gaussian``/``rational``/``from_int`` constructors take ints
or Fractions (never floats or strings), and ``items()``, ``constant_pair()``
and ``str`` give (re, im) Fraction pairs.

Each monomial is one packed int, private to this module.  Every symbol owns a
128-bit field, assigned once and never moved (``DEFAULT_SYMBOLS`` first, in
order, then other names as they first appear, at most _MAX_FIELDS in all;
a query such as limit0 or min_degree on a name never met assigns none), and
exponent e of the symbol in field k adds ``e << (128*k)``.  The fields are
balanced digits with no bias, so the constant monomial is 0, a monomial
product is one integer addition, and a new field leaves every existing code
unchanged.  Every stored
exponent lies in [-2^32, 2^32), checked wherever a product becomes a Scalar
by an add-and-mask test over the default fields and, for a monomial that fails
it, one as wide as its own top field; a larger one raises ScalarError.  The
kernel adds monomials unchecked in between, and cannot overflow a field: each
product adds less than 2^32 in magnitude to every field, so carrying into the
next field (at 2^127) would take 2^95 products.  mul_power rejects a shift
of 2^33 or more outright, since no exponent stays in range under it and the
test could miss the carry of one near 2^127.  ``items()``, ``str`` and
``symbols()`` decode to sorted ``((symbol, exp), ...)`` tuples.

Everything is immutable and kept in a unique canonical form, so ``==`` is
exact mathematical equality and scalars can be dict keys.  Hot sums (here,
in straightening and in table algebra) run on raw maps instead, the mutable
{mono: triple} inside of a Scalar, through one in-place kernel (_mac,
_add_into), and _freeze each finished sum once; only its owner writes to a
raw map, and a live Scalar's _terms are only ever read.  The kernel does the
triple arithmetic inline, monomial by monomial, and calls gcd only where a
denominator is not 1.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd

LAURENT_SYMBOL = "eps"
DEFAULT_SYMBOLS = ("eps", "c", "m0", "m", "w", "t")

_UNIT = (1, 0, 1)

_FIELD = 128
_MAX_FIELDS = 1024  # _CHECKS holds two masks as wide as every field so far per field
_BOUND = 1 << 32
_WINDOW = 2 * _BOUND - 1

_FIELDS = {}  # symbol -> (bit offset of its field, _BOUND in it and every field below)
_NAMES = []  # field index -> symbol
_CHECKS = []  # k -> (_BOUND in fields 0..k, every bit but the low 33 of each of fields 0..k)
_REGISTER = threading.Lock()
_OUT_OF_RANGE = "exponent out of range: exponents must lie in [-2^32, 2^32)"


class ScalarError(ValueError):
    """Invalid scalar construction or operation (e.g. a forbidden pole)."""


def _field(name):
    """_FIELDS[name]; a name met for the first time gets the next field, up to _MAX_FIELDS."""
    if name not in _FIELDS:
        with _REGISTER:
            if name not in _FIELDS:
                if len(_NAMES) >= _MAX_FIELDS:
                    raise ScalarError("too many symbols: at most %d distinct symbols per process"
                                      % _MAX_FIELDS)
                shift = _FIELD * len(_NAMES)
                bias, outside = _CHECKS[-1] if _CHECKS else (0, -1)
                _CHECKS.append((bias + (_BOUND << shift), outside & ~(_WINDOW << shift)))
                _NAMES.append(name)
                _FIELDS[name] = (shift, _CHECKS[-1][0])
    return _FIELDS[name]


for _name in DEFAULT_SYMBOLS:
    _field(_name)
_DEFAULT_CHECK = _CHECKS[-1]


def _decode(mono):
    """The sorted ((symbol, exp), ...) tuple of a stored monomial.

    The lowest set bit lies in the lowest nonzero field, so each step jumps
    to the next symbol the monomial holds, however many fields lie between.
    """
    out = []
    while mono:
        k = ((mono & -mono).bit_length() - 1) // _FIELD
        shift = _FIELD * k
        exp = (((mono >> shift) + _BOUND) & _WINDOW) - _BOUND  # in bound, so exact
        out.append((_NAMES[k], exp))
        mono -= exp << shift
    return tuple(sorted(out))


def _checked(terms):
    """Scalar(terms), once every exponent is inside [-2^32, 2^32).

    A monomial that passes the test over fields 0..k, for any k that is
    registered, has every digit in range.  Conversely, if every digit is in
    range, the top nonzero one lies in a field K with |mono| > 2^(128K - 1),
    so the test up to the monomial's own field k = |mono|.bit_length() // 128
    (or every registered field, if fewer) passes.  So a monomial that fails
    the test over the default fields, as one with a later symbol does, is
    tested again up to its own field, and no test grows with the number of
    names ever registered.
    """
    bias, outside = _DEFAULT_CHECK
    for mono in terms:
        if mono and (mono + bias) & outside:
            checks = _CHECKS
            wide_bias, wide_outside = checks[min(mono.bit_length() // _FIELD, len(checks) - 1)]
            if (mono + wide_bias) & wide_outside:
                raise ScalarError(_OUT_OF_RANGE)
    return Scalar(terms)


def _eps_limit(terms, k):
    """(lowest eps degree, raw degree-0 part) of the raw map terms times eps**k.

    eps owns the lowest field, so the shift is mono + k and each degree is
    read off the low bits; the part kept is the monomials of degree 0.  A
    shifted exponent outside [-2^32, 2^32) raises the ScalarError that
    mul_power raises for it.  terms must not be empty.
    """
    low = None
    kept = {}
    for mono, coeff in terms.items():
        exp = ((mono + _BOUND) & _WINDOW) - _BOUND + k
        if not -_BOUND <= exp < _BOUND:
            raise ScalarError(_OUT_OF_RANGE)
        if low is None or exp < low:
            low = exp
        if not exp:
            kept[mono + k] = coeff
    return low, kept


def _exact(value, kinds=(int, Fraction)):
    """value itself if it is one of kinds: exact numbers only, never floats or strings."""
    if not isinstance(value, kinds):
        raise ScalarError("expected %s, got %r" % (" or ".join(k.__name__ for k in kinds), value))
    return value


def _reduce(re, im, den):
    """The canonical triple of (re + im*i)/den, for den > 0 and (re, im) != (0, 0)."""
    g = gcd(re, im, den)
    return (re, im, den) if g == 1 else (re // g, im // g, den // g)


def _gauss_str(re, im):
    """Render a Gaussian rational; the result is a safe product prefix."""
    if im == 0:
        return str(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return str(im) + "*i"
    ia = -im if im < 0 else im
    i_part = "i" if ia == 1 else str(ia) + "*i"
    sign = "-" if im < 0 else "+"
    return "(%s%s%s)" % (re, sign, i_part)


def signed_sum(parts):
    """Join rendered terms as "a + b - c" (a leading "-" becomes " - "); "0" when empty."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _add_into(acc, t):
    """acc += t on raw maps, in place; a monomial that cancels is deleted."""
    get = acc.get
    for mono, y in t.items():
        x = get(mono)
        if x is None:
            acc[mono] = y
            continue
        a, b, d = x
        c, e, f = y
        if d == f:
            re, im = a + c, b + e
        else:
            re, im, d = a * f + c * d, b * f + e * d, d * f
        if not (re or im):
            del acc[mono]
        elif d == 1:
            acc[mono] = (re, im, 1)
        else:
            acc[mono] = _reduce(re, im, d)


def _mac(acc, t1, t2):
    """acc += t1 * t2 on raw maps, in place; a monomial that cancels is deleted.

    A product that meets a stored monomial is added to it unreduced and the sum
    reduced once, which gives the same canonical triple as reducing both.
    """
    get = acc.get
    for m1, (a, b, d) in t1.items():
        for m2, (c, e, f) in t2.items():
            mono = m1 + m2
            re, im, den = a * c - b * e, a * e + b * c, d * f
            cur = get(mono)
            if cur is not None:
                p, q, h = cur
                if h == den:
                    re, im = re + p, im + q
                else:
                    re, im, den = re * h + p * den, im * h + q * den, den * h
                if not (re or im):
                    del acc[mono]
                    continue
            if den == 1:
                acc[mono] = (re, im, 1)
            else:
                acc[mono] = _reduce(re, im, den)


def _freeze(raw):
    """{key: Scalar} from {key: raw map}, leaving out the maps that summed to zero."""
    return {k: _checked(t) for k, t in raw.items() if t}


def _unit_inverse(s):
    """The inverse of s if it is a unit of the ring (one monomial in eps alone), else None."""
    if len(s._terms) != 1:
        return None
    (mono, (re, im, den)), = s._terms.items()
    if not -_BOUND <= mono < _BOUND:  # eps owns the lowest field, so any other symbol is outside
        return None
    return _checked({-mono: _reduce(den * re, -den * im, re * re + im * im)})


class Scalar:
    """Canonical-form Gaussian-rational Laurent polynomial."""

    __slots__ = ("_terms",)

    def __init__(self, terms):
        # internal: terms must already be canonical ({mono: (re, im, den)}, no zeros, in bound)
        self._terms = terms

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero():
        return Scalar({})

    @staticmethod
    def one():
        return Scalar({0: _UNIT})

    @staticmethod
    def i():
        return Scalar({0: (0, 1, 1)})

    @staticmethod
    def from_int(n):
        return Scalar({0: (int(n), 0, 1)}) if _exact(n, (int,)) else Scalar({})

    @staticmethod
    def rational(p, q=1):
        if not _exact(q):
            raise ScalarError("zero denominator in Scalar.rational(%s, 0)" % (p,))
        if type(p) is int and type(q) is int:
            g = gcd(p, q) if q > 0 else -gcd(p, q)
            return Scalar({0: (p // g, 0, q // g)}) if p else Scalar({})
        return Scalar.gaussian(Fraction(_exact(p)) / q)

    @staticmethod
    def gaussian(re, im=0):
        re, im = Fraction(_exact(re)), Fraction(_exact(im))
        if not (re or im):
            return Scalar({})
        p, q = re.denominator, im.denominator
        return Scalar({0: _reduce(re.numerator * q, im.numerator * p, p * q)})

    @staticmethod
    def symbol(name, power=1):
        return Scalar.one().mul_power(name, power)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        terms = dict(self._terms)
        _add_into(terms, other._terms)
        return Scalar(terms)

    def __neg__(self):
        return Scalar({mono: (-re, -im, den) for mono, (re, im, den) in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        terms = {}
        _mac(terms, self._terms, other._terms)
        return _checked(terms)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ScalarError("scalar power must be a nonnegative integer")
        # repeated squaring: the ring is commutative, so any grouping gives the same product
        out, square = Scalar.one(), self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def is_one(self):
        return self._terms == {0: _UNIT}

    def __bool__(self):
        return bool(self._terms)

    def constant_pair(self):
        """(re, im) Fractions if the scalar is symbol-free, else None."""
        if not self._terms:
            return (Fraction(0), Fraction(0))
        if len(self._terms) == 1 and 0 in self._terms:
            return self.items()[0][1]
        return None

    def symbols(self):
        return {sym for mono in self._terms if mono for sym, _ in _decode(mono)}

    def items(self):
        """Canonical term list: sorted ((symbol, exp), ...) -> (re, im) Fraction pairs."""
        return tuple(sorted((_decode(mono), (Fraction(re, den), Fraction(im, den)))
                            for mono, (re, im, den) in self._terms.items()))

    def min_degree(self, sym):
        """Lowest exponent of sym across terms (0 when absent); None if zero."""
        if not self._terms:
            return None
        if sym not in _FIELDS:
            return 0
        shift, low = _FIELDS[sym]
        return min((mono + low) >> shift & _WINDOW for mono in self._terms) - _BOUND

    def limit0(self, sym=LAURENT_SYMBOL):
        """Evaluate at sym -> 0: drop positive powers, keep degree-0 terms.

        Raises ScalarError if any term carries a pole in sym.
        """
        if sym not in _FIELDS:
            return self
        shift, low = _FIELDS[sym]
        terms = {}
        for mono, coeff in self._terms.items():
            digit = (mono + low) >> shift & _WINDOW
            if digit < _BOUND:
                raise ScalarError("pole in %r: cannot take the limit of %s" % (sym, self))
            if digit == _BOUND:
                terms[mono] = coeff
        return Scalar(terms)

    def mul_power(self, sym, k):
        """Multiply by sym**k (k may be negative only for the Laurent symbol)."""
        if _exact(k, (int,)) == 0:
            return self
        if k < 0 and sym != LAURENT_SYMBOL and self and self.min_degree(sym) + k < 0:
            raise ScalarError(
                "negative exponent on %r: only %r may carry poles" % (sym, LAURENT_SYMBOL))
        if self and not -2 * _BOUND < k < 2 * _BOUND:
            # no exponent stays in range; a shift this large could carry into the next field unseen
            raise ScalarError(_OUT_OF_RANGE)
        k <<= _field(sym)[0]
        return _checked({mono + k: coeff for mono, coeff in self._terms.items()})

    def substitute(self, mapping):
        """Simultaneously replace symbols by Scalar values (nonnegative powers only)."""
        for sym, value in mapping.items():
            if not isinstance(value, Scalar):
                raise ScalarError("substitution value for %r must be a Scalar" % sym)
        out = Scalar.zero()
        for mono, coeff in self._terms.items():
            term = Scalar({0: coeff})
            for sym, exp in _decode(mono):
                if sym in mapping:
                    if exp < 0:
                        raise ScalarError("cannot substitute into a pole in %r" % sym)
                    term = term * (mapping[sym] ** exp)
                else:
                    term = term * Scalar.symbol(sym, exp)
            out = out + term
        return out

    # -- equality / printing -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        parts = []
        for mono, (re, im) in self.items():
            syms = "*".join(sym if exp == 1 else "%s^%d" % (sym, exp) for sym, exp in mono)
            coeff = _gauss_str(re, im)
            if syms:
                coeff = {"1": "", "-1": "-"}.get(coeff, coeff + "*") + syms
            parts.append(coeff)
        return signed_sum(parts)

    def __repr__(self):
        return "Scalar(%s)" % self
