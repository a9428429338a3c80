"""Exact scalar ring: Gaussian-rational Laurent polynomials in commuting symbols.

A Scalar is a finite sum of monomials over a set of commuting symbols with
Gaussian-rational coefficients (pairs of exact Fractions, real + imaginary
part).  Exponents are integers; the symbol ``eps`` is the only one permitted
negative exponents (it tracks contraction poles — a pole in any other symbol
is a transcription bug and is rejected at construction time).

Everything is immutable and kept in a unique canonical form, so ``==`` is
exact mathematical equality and scalars can be dict keys.
"""

from __future__ import annotations

from fractions import Fraction

LAURENT_SYMBOL = "eps"
DEFAULT_SYMBOLS = ("eps", "c", "m0", "m", "w", "t")

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ScalarError(ValueError):
    """Invalid scalar construction or operation (e.g. a forbidden pole)."""


def _check_mono(mono):
    for sym, exp in mono:
        if exp < 0 and sym != LAURENT_SYMBOL:
            raise ScalarError(
                "negative exponent on %r: only %r may carry poles" % (sym, LAURENT_SYMBOL)
            )


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for sym, exp in m2:
        e = exps.get(sym, 0) + exp
        if e:
            exps[sym] = e
        else:
            del exps[sym]
    return tuple(sorted(exps.items()))


def _gauss_str(re, im):
    """Render a Gaussian rational; the result is a safe product prefix."""
    if im == 0:
        return str(re)
    if re == 0:
        if im == _ONE:
            return "i"
        if im == -_ONE:
            return "-i"
        return str(im) + "*i"
    ia = -im if im < 0 else im
    i_part = "i" if ia == _ONE else str(ia) + "*i"
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


class Scalar:
    """Canonical-form Gaussian-rational Laurent polynomial."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        # internal: terms must already be canonical ({mono: (re, im)}, no zeros)
        self._terms = terms or {}
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _make(raw):
        terms = {}
        for mono, (re, im) in raw.items():
            if re or im:
                _check_mono(mono)
                terms[mono] = (re, im)
        return Scalar(terms)

    @staticmethod
    def zero():
        return Scalar({})

    @staticmethod
    def one():
        return Scalar({(): (_ONE, _ZERO)})

    @staticmethod
    def i():
        return Scalar({(): (_ZERO, _ONE)})

    @staticmethod
    def from_int(n):
        return Scalar.gaussian(Fraction(n), _ZERO)

    @staticmethod
    def rational(p, q=1):
        return Scalar.gaussian(Fraction(p, q), _ZERO)

    @staticmethod
    def gaussian(re, im=0):
        re = Fraction(re)
        im = Fraction(im)
        if not (re or im):
            return Scalar({})
        return Scalar({(): (re, im)})

    @staticmethod
    def symbol(name, power=1):
        if power == 0:
            return Scalar.one()
        mono = ((name, power),)
        _check_mono(mono)
        return Scalar({mono: (_ONE, _ZERO)})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        terms = dict(self._terms)
        for mono, (re, im) in other._terms.items():
            cre, cim = terms.get(mono, (_ZERO, _ZERO))
            re, im = cre + re, cim + im
            if re or im:
                terms[mono] = (re, im)
            elif mono in terms:
                del terms[mono]
        return Scalar(terms)

    def __neg__(self):
        return Scalar({mono: (-re, -im) for mono, (re, im) in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        raw = {}
        for m1, (a, b) in self._terms.items():
            for m2, (c, d) in other._terms.items():
                mono = _mono_mul(m1, m2)
                re, im = a * c - b * d, a * d + b * c
                cre, cim = raw.get(mono, (_ZERO, _ZERO))
                raw[mono] = (cre + re, cim + im)
        return Scalar._make(raw)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ScalarError("scalar power must be a nonnegative integer")
        out = Scalar.one()
        for _ in range(n):
            out = out * self
        return out

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def is_one(self):
        return self._terms == {(): (_ONE, _ZERO)}

    def __bool__(self):
        return bool(self._terms)

    def constant_pair(self):
        """(re, im) Fractions if the scalar is symbol-free, else None."""
        if not self._terms:
            return (_ZERO, _ZERO)
        if len(self._terms) == 1 and () in self._terms:
            return self._terms[()]
        return None

    def symbols(self):
        out = set()
        for mono in self._terms:
            for sym, _ in mono:
                out.add(sym)
        return out

    def items(self):
        """Canonical term list: sorted ((symbol, exp), ...) -> (re, im) pairs."""
        return tuple(sorted(self._terms.items()))

    def min_degree(self, sym):
        """Lowest exponent of sym across terms (0 when absent); None if zero."""
        if not self._terms:
            return None
        degs = []
        for mono in self._terms:
            degs.append(dict(mono).get(sym, 0))
        return min(degs)

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
        if k == 0:
            return self
        raw = {}
        shift = ((sym, k),)
        for mono, coeff in self._terms.items():
            raw[_mono_mul(mono, shift)] = coeff
        return Scalar._make(raw)

    def substitute(self, mapping):
        """Simultaneously replace symbols by Scalar values (nonnegative powers only)."""
        out = Scalar.zero()
        for mono, (re, im) in self._terms.items():
            term = Scalar.gaussian(re, im)
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
        for mono in sorted(self._terms):
            re, im = self._terms[mono]
            syms = "*".join(sym if exp == 1 else "%s^%d" % (sym, exp) for sym, exp in mono)
            if not syms:
                parts.append(_gauss_str(re, im))
                continue
            if (re, im) == (_ONE, _ZERO):
                parts.append(syms)
            elif (re, im) == (-_ONE, _ZERO):
                parts.append("-" + syms)
            else:
                parts.append(_gauss_str(re, im) + "*" + syms)
        return signed_sum(parts)

    def __repr__(self):
        return "Scalar(%s)" % self
