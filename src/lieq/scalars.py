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

Everything is immutable and kept in a unique canonical form, so ``==`` is
exact mathematical equality and scalars can be dict keys.  Hot sums (here,
in straightening and in table algebra) run on raw maps instead, the mutable
{mono: triple} inside of a Scalar, through one in-place kernel (_mac,
_add_into), and _freeze each finished sum once; only its owner writes to a
raw map, and a live Scalar's _terms are only ever read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

LAURENT_SYMBOL = "eps"
DEFAULT_SYMBOLS = ("eps", "c", "m0", "m", "w", "t")

_UNIT = (1, 0, 1)


class ScalarError(ValueError):
    """Invalid scalar construction or operation (e.g. a forbidden pole)."""


def _check_mono(mono):
    for sym, exp in mono:
        if exp < 0 and sym != LAURENT_SYMBOL:
            raise ScalarError(
                "negative exponent on %r: only %r may carry poles" % (sym, LAURENT_SYMBOL)
            )


def _exact(value, kinds=(int, Fraction)):
    """value itself if it is one of kinds: exact numbers only, never floats or strings."""
    if not isinstance(value, kinds):
        raise ScalarError("expected %s, got %r" % (" or ".join(k.__name__ for k in kinds), value))
    return value


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    if len(m1) == 1 == len(m2):
        (s, e), (t, f) = m1[0], m2[0]
        if s == t:
            return ((s, e + f),) if e + f else ()
        return m1 + m2 if s < t else m2 + m1
    exps = dict(m1)
    for sym, exp in m2:
        e = exps.get(sym, 0) + exp
        if e:
            exps[sym] = e
        else:
            del exps[sym]
    return tuple(sorted(exps.items()))


def _reduce(re, im, den):
    """The canonical triple of (re + im*i)/den, for den > 0 and (re, im) != (0, 0)."""
    g = gcd(re, im, den)
    return (re, im, den) if g == 1 else (re // g, im // g, den // g)


def _add(x, y):
    """Sum of two canonical triples; None when it is zero."""
    a, b, d = x
    c, e, f = y
    if d == f:
        re, im = a + c, b + e
    else:
        re, im, d = a * f + c * d, b * f + e * d, d * f
    if not (re or im):
        return None
    return (re, im, 1) if d == 1 else _reduce(re, im, d)


def _mul(x, y):
    """Product of two canonical triples (never zero: Z[i] has no zero divisors)."""
    a, b, d = x
    c, e, f = y
    re, im = a * c - b * e, a * e + b * c
    if d == 1 and f == 1:
        return (re, im, 1)
    return _reduce(re, im, d * f)


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
    for mono, y in t.items():
        x = acc.get(mono)
        s = y if x is None else _add(x, y)
        if s is None:
            del acc[mono]
        else:
            acc[mono] = s


def _mac(acc, t1, t2):
    """acc += t1 * t2 on raw maps, in place; a monomial that cancels is deleted."""
    for m1, x in t1.items():
        for m2, y in t2.items():
            mono = _mono_mul(m1, m2)
            p = _mul(x, y)
            cur = acc.get(mono)
            s = p if cur is None else _add(cur, p)
            if s is None:
                del acc[mono]
            else:
                acc[mono] = s


def _freeze(raw):
    """{key: Scalar} from {key: raw map}, leaving out the maps that summed to zero."""
    return {k: Scalar(t) for k, t in raw.items() if t}


class Scalar:
    """Canonical-form Gaussian-rational Laurent polynomial."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        # internal: terms must already be canonical ({mono: (re, im, den)}, no zeros)
        self._terms = terms or {}
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero():
        return Scalar({})

    @staticmethod
    def one():
        return Scalar({(): _UNIT})

    @staticmethod
    def i():
        return Scalar({(): (0, 1, 1)})

    @staticmethod
    def from_int(n):
        return Scalar.gaussian(_exact(n, (int,)))

    @staticmethod
    def rational(p, q=1):
        if not _exact(q):
            raise ScalarError("zero denominator in Scalar.rational(%s, 0)" % (p,))
        return Scalar.gaussian(Fraction(_exact(p)) / q)

    @staticmethod
    def gaussian(re, im=0):
        re, im = Fraction(_exact(re)), Fraction(_exact(im))
        if not (re or im):
            return Scalar({})
        p, q = re.denominator, im.denominator
        return Scalar({(): _reduce(re.numerator * q, im.numerator * p, p * q)})

    @staticmethod
    def symbol(name, power=1):
        if _exact(power, (int,)) == 0:
            return Scalar.one()
        mono = ((name, power),)
        _check_mono(mono)
        return Scalar({mono: _UNIT})

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
        t1, t2 = self._terms, other._terms
        if len(t1) == 1 and len(t2) == 1:
            (m1, x), = t1.items()
            (m2, y), = t2.items()
            return Scalar({_mono_mul(m1, m2): _mul(x, y)})
        terms = {}
        _mac(terms, t1, t2)
        return Scalar(terms)

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
        return self._terms == {(): _UNIT}

    def __bool__(self):
        return bool(self._terms)

    def constant_pair(self):
        """(re, im) Fractions if the scalar is symbol-free, else None."""
        if not self._terms:
            return (Fraction(0), Fraction(0))
        if len(self._terms) == 1 and () in self._terms:
            return self.items()[0][1]
        return None

    def symbols(self):
        return {sym for mono in self._terms for sym, _ in mono}

    def items(self):
        """Canonical term list: sorted ((symbol, exp), ...) -> (re, im) Fraction pairs."""
        return tuple(sorted((mono, (Fraction(re, den), Fraction(im, den)))
                            for mono, (re, im, den) in self._terms.items()))

    def min_degree(self, sym):
        """Lowest exponent of sym across terms (0 when absent); None if zero."""
        if not self._terms:
            return None
        return min(dict(mono).get(sym, 0) for mono in self._terms)

    def limit0(self, sym=LAURENT_SYMBOL):
        """Evaluate at sym -> 0: drop positive powers, keep degree-0 terms.

        Raises ScalarError if any term carries a pole in sym.
        """
        terms = {}
        for mono, coeff in self._terms.items():
            exp = dict(mono).get(sym, 0)
            if exp < 0:
                raise ScalarError("pole in %r: cannot take the limit of %s" % (sym, self))
            if exp == 0:
                terms[mono] = coeff
        return Scalar(terms)

    def mul_power(self, sym, k):
        """Multiply by sym**k (k may be negative only for the Laurent symbol)."""
        if _exact(k, (int,)) == 0:
            return self
        terms = {}
        shift = ((sym, k),)
        for mono, coeff in self._terms.items():
            mono = _mono_mul(mono, shift)
            _check_mono(mono)
            terms[mono] = coeff
        return Scalar(terms)

    def substitute(self, mapping):
        """Simultaneously replace symbols by Scalar values (nonnegative powers only)."""
        out = Scalar.zero()
        for mono, coeff in self._terms.items():
            term = Scalar({(): coeff})
            for sym, exp in mono:
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
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

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
