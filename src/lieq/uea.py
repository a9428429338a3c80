"""Universal enveloping algebra: noncommutative words with PBW normal form.

Elements are formal sums coeff * G_i1 G_i2 ... with Scalar coefficients and
words over the algebra's ordered basis.  Every element is kept in PBW normal
form: words nondecreasing in basis order, no duplicate words, no zero
coefficients — so equality of elements is literal equality of term maps.

Straightening uses the leftmost descent: b·a with index(b) > index(a) is
replaced by a·b + [b,a].  Termination is the usual filtration argument
(each step lowers word length or the inversion count).  A term-count budget
(LIEQ_TERM_CAP, default 10**6) guards against runaway inputs.
"""

from __future__ import annotations

import itertools
import os
from collections import namedtuple
from fractions import Fraction

from lieq.scalars import Scalar, signed_sum

DEFAULT_TERM_CAP = 10 ** 6


class UEAError(ValueError):
    """Invalid enveloping-algebra operation."""


class TermBudgetExceeded(UEAError):
    """Normalization exceeded the term budget (see LIEQ_TERM_CAP)."""


CasimirCheck = namedtuple("CasimirCheck", ["ok", "witness", "residue"])


def _term_cap():
    env = os.environ.get("LIEQ_TERM_CAP")
    if not env:
        return DEFAULT_TERM_CAP
    try:
        if int(env) > 0:
            return int(env)
    except ValueError:
        pass
    raise UEAError("LIEQ_TERM_CAP must be a positive integer, got %r" % env)


def _normalize(alg, raw):
    """Straighten {word(index tuple): Scalar} into PBW normal form."""
    budget = _term_cap()
    out = {}
    work = [(w, c) for w, c in raw.items() if not c.is_zero()]
    while work:
        word, coeff = work.pop()
        pos = -1
        for k in range(len(word) - 1):
            if word[k] > word[k + 1]:
                pos = k
                break
        if pos < 0:
            cur = out.get(word)
            cur = coeff if cur is None else cur + coeff
            if cur.is_zero():
                out.pop(word, None)
            else:
                out[word] = cur
            continue
        b, a = word[pos], word[pos + 1]
        head, tail = word[:pos], word[pos + 2:]
        work.append((head + (a, b) + tail, coeff))
        for d, c in alg.bracket_index(b, a).items():
            work.append((head + (d,) + tail, coeff * c))
        if len(work) + len(out) > budget:
            raise TermBudgetExceeded(
                "normalization exceeded %d live terms (set LIEQ_TERM_CAP to raise)" % budget
            )
    return out


def _coerce_scalar(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.rational(Fraction(value))
    return None


class UEAElement:
    __slots__ = ("algebra", "_terms", "_hash")

    def __init__(self, algebra, terms):
        # internal: terms must already be normalized {index word: Scalar}
        self.algebra = algebra
        self._terms = terms
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(algebra):
        return UEAElement(algebra, {})

    @staticmethod
    def unit(algebra):
        return UEAElement(algebra, {(): Scalar.one()})

    @staticmethod
    def gen(algebra, name):
        try:
            idx = algebra.generator(name).index
        except Exception:
            raise UEAError("unknown generator %r in %r" % (name, algebra.name)) from None
        return UEAElement(algebra, {(idx,): Scalar.one()})

    @staticmethod
    def word(algebra, names, coeff=None):
        """coeff * G_n1 G_n2 ..., normalized."""
        coeff = Scalar.one() if coeff is None else coeff
        idx = tuple(algebra.generator(n).index for n in names)
        return UEAElement(algebra, _normalize(algebra, {idx: coeff}))

    @staticmethod
    def from_terms(algebra, terms):
        """terms: {name tuple: Scalar}; normalized on construction."""
        raw = {}
        for names, coeff in terms.items():
            idx = tuple(algebra.generator(n).index for n in names)
            raw[idx] = raw.get(idx, Scalar.zero()) + coeff
        return UEAElement(algebra, _normalize(algebra, raw))

    # -- inspection ----------------------------------------------------------

    def terms(self):
        """Sorted ((name, ...), Scalar) pairs; sort key (word length, word)."""
        gens = self.algebra.generators
        out = []
        for word in sorted(self._terms, key=lambda w: (len(w), w)):
            out.append((tuple(gens[k] for k in word), self._terms[word]))
        return tuple(out)

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def term_count(self):
        return len(self._terms)

    # -- arithmetic -----------------------------------------------------------

    def _check_same(self, other):
        if self.algebra != other.algebra:
            raise UEAError(
                "elements live in different algebras (%r vs %r)"
                % (self.algebra.name, other.algebra.name)
            )

    def __add__(self, other):
        if not isinstance(other, UEAElement):
            return NotImplemented
        self._check_same(other)
        terms = dict(self._terms)
        for word, coeff in other._terms.items():
            cur = terms.get(word)
            cur = coeff if cur is None else cur + coeff
            if cur.is_zero():
                terms.pop(word, None)
            else:
                terms[word] = cur
        return UEAElement(self.algebra, terms)

    def __neg__(self):
        return UEAElement(self.algebra, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, UEAElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        scalar = _coerce_scalar(other)
        if scalar is not None:
            if scalar.is_zero():
                return UEAElement.zero(self.algebra)
            return UEAElement(self.algebra, {w: c * scalar for w, c in self._terms.items()})
        if not isinstance(other, UEAElement):
            return NotImplemented
        self._check_same(other)
        raw = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                word = w1 + w2
                cur = raw.get(word)
                prod = c1 * c2
                raw[word] = prod if cur is None else cur + prod
        return UEAElement(self.algebra, _normalize(self.algebra, raw))

    def __rmul__(self, other):
        scalar = _coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self * scalar

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise UEAError("element power must be a nonnegative integer")
        out = UEAElement.unit(self.algebra)
        for _ in range(n):
            out = out * self
        return out

    # -- equality / printing ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, UEAElement):
            return NotImplemented
        return self.algebra == other.algebra and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.algebra, tuple(sorted(self._terms.items(), key=lambda t: t[0]))))
        return self._hash

    def __str__(self):
        return format_sum((_word_str(names), coeff) for names, coeff in self.terms())

    def __repr__(self):
        return "UEAElement(%r, %s)" % (self.algebra.name, self)


def _word_str(names):
    groups = []
    for name, run in itertools.groupby(names):
        n = len(tuple(run))
        groups.append(name if n == 1 else "%s^%d" % (name, n))
    return "*".join(groups)


def format_sum(terms):
    """Render (word text, Scalar) pairs as a signed sum, "0" when empty.

    The one printer for elements and for bracket results ({name: Scalar});
    an empty word text stands for the unit.
    """
    return signed_sum([_coeff_prefix(coeff, standalone=not word) + word for word, coeff in terms])


def _coeff_prefix(coeff, standalone):
    s = str(coeff)
    multi = len(coeff.items()) > 1
    if standalone:
        return "(%s)" % s if multi else s
    if coeff.is_one():
        return ""
    if (-coeff).is_one():
        return "-"
    return ("(%s)*" % s) if multi else (s + "*")


# ---------------------------------------------------------------------------
# operations


def normal_form(e):
    """Re-run straightening; a fixed point for any constructed element."""
    return UEAElement(e.algebra, _normalize(e.algebra, dict(e._terms)))


def commutator(a, b):
    """normal_form(ab - ba); agrees with the table bracket on generators."""
    return a * b - b * a


def is_casimir(e):
    """Check [e, G] = 0 for every generator, in basis order.

    Returns CasimirCheck(ok, witness, residue): witness is the first
    offending generator name and residue the nonzero commutator.
    """
    alg = e.algebra
    for name in alg.generators:
        r = commutator(e, UEAElement.gen(alg, name))
        if not r.is_zero():
            return CasimirCheck(False, name, r)
    return CasimirCheck(True, None, UEAElement.zero(alg))


def substitute(e, mapping, formal=False):
    """Replace generators by elements (or Scalar multiples of the unit).

    Without formal=True every substituted generator must be central — the
    only case where replacing letters inside arbitrary words is well defined.
    With formal=True, letters are replaced term-by-term in the normal form
    and the result renormalized (the rest-frame specializations).
    """
    alg = e.algebra
    values = {}
    for name, value in mapping.items():
        idx = alg.generator(name).index
        scalar = _coerce_scalar(value)
        if scalar is not None:
            value = UEAElement.unit(alg) * scalar
        elif isinstance(value, UEAElement):
            value._check_same(e)
        else:
            raise UEAError("substitution value for %r must be UEAElement or Scalar" % name)
        if not formal:
            central = all(not alg.bracket_index(idx, k) for k in range(alg.dim))
            if not central:
                raise UEAError(
                    "substituted generator %r is not central; pass formal=True" % name
                )
        values[idx] = value
    if not values:
        return e
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


def scalar_substitute(e, symbol_map):
    """Apply a Scalar symbol substitution to every coefficient."""
    terms = {}
    for word, coeff in e._terms.items():
        c = coeff.substitute(symbol_map)
        if not c.is_zero():
            terms[word] = c
    return UEAElement(e.algebra, terms)


def rename_element(e, target, mapping=None):
    """Carry an element into another algebra by generator name.

    mapping: optional {old name: new name}; unmapped names must exist in the
    target as-is.  The result is re-normalized under the target's basis
    order and brackets.
    """
    mapping = mapping or {}
    src = e.algebra.generators
    raw = {}
    for word, coeff in e._terms.items():
        names = tuple(mapping.get(src[k], src[k]) for k in word)
        try:
            idx = tuple(target.generator(n).index for n in names)
        except Exception:
            missing = [n for n in names if n not in target.generators]
            raise UEAError(
                "cannot rename into %r: unknown generator(s) %s" % (target.name, missing)
            ) from None
        raw[idx] = raw.get(idx, Scalar.zero()) + coeff
    return UEAElement(target, _normalize(target, raw))


def weyl_word(algebra, names, coeff=None):
    """Weyl (symmetric) ordering of one monomial: average over all
    arrangements of its letters.  Depends only on the multiset of letters.

    The distinct arrangements of a multiset all carry equal weight, so the
    average runs over the deduplicated permutation set.
    """
    coeff = Scalar.one() if coeff is None else coeff
    word = tuple(algebra.generator(n).index for n in names)
    if len(word) <= 1:
        return UEAElement(algebra, {word: coeff} if not coeff.is_zero() else {})
    arrangements = sorted(set(itertools.permutations(word)))
    weight = coeff * Scalar.rational(1, len(arrangements))
    raw = {arr: weight for arr in arrangements}
    return UEAElement(algebra, _normalize(algebra, raw))


def weyl_symmetrize(e):
    """Symmetrize an element: apply Weyl ordering to each PBW normal word.

    This is the usual vector-space symmetrization read through the PBW
    basis, so it is well defined on elements (normal forms are unique).
    """
    alg = e.algebra
    gens = alg.generators
    out = UEAElement.zero(alg)
    for word, coeff in e._terms.items():
        out = out + weyl_word(alg, tuple(gens[k] for k in word), coeff)
    return out
