"""Universal enveloping algebra: noncommutative words with PBW normal form.

Elements are formal sums coeff * G_i1 G_i2 ... with Scalar coefficients and
words over the algebra's ordered basis.  Every element is kept in PBW normal
form: words nondecreasing in basis order, no duplicate words, no zero
coefficients — so equality of elements is literal equality of term maps.

Straightening uses the leftmost descent: b·a with index(b) > index(a) is
replaced by a·b + [b,a].  Termination is the usual filtration argument
(each step lowers word length or the inversion count).  Pending words merge:
each is held once with the sum of its contributions, and words are rewritten
longest first, then in descending lexicographic order.  Rewriting w yields
w with b·a turned into a·b, of the same length and lexicographically
smaller, and w with b·a replaced by the terms of [b,a], which are shorter;
so every contribution to a word arrives before the word is rewritten, and
the work grows with the number of distinct words, not of rewrite paths.
A rewrite whose bracket [b,a] is zero is a swap alone, so _settle makes
those swaps before a word is held, all in one list, so that a word with s
of them costs O(len + s).  Each is the rewrite the word would get when
popped, so no result changes, on any table, and contributions that would
meet at a swapped word merge at the word it settles to.  Only held words
with a descent are queued; the normal words held when the queue empties are
the result.  An input word is scanned for its leftmost descent from its
first letter; a rewritten word from the letter before the rewrite, as the
letters before it stay sorted, which keeps long branching words linear.
PBW rewriting is confluent (Bergman, "The diamond lemma for ring theory",
Adv. Math. 29, 1978), so merging cannot change a normal form.  As each word
is rewritten at its leftmost descent, the normal form is a linear map on
words even on tables that break Jacobi, so each operation straightens its
whole sum in one pass (all rows w1·w2 of a product, the whole [e, G] of a
Casimir check, every arrangement of every word of a Weyl ordering, every
row of every word of a substitution) and equal words from different pieces
merge too; a printed quartic ordering is a signed sum of two pieces, one
pass each, and _casimir_checks checks such sums together.  Straightening a
product in one pass gives what multiplying from the left and straightening
after each factor gives: N(u·v) = N(N(u)·v) for words u and v, because the
leftmost descent of u·v lies inside u whenever u has one.  (Straightening a
right factor first is another matter: on a table that breaks Jacobi,
N(u·N(v)) can differ from N(u·v).)  A term-count budget
(LIEQ_TERM_CAP, default 10**6) bounds the live terms of each pass, the
words it holds: a whole product, Casimir check, Weyl ordering or substitution.
Every straightening operation reads LIEQ_TERM_CAP once, when it starts, and
passes it to its pass.

is_casimir straightens [e, G] from the derivation
[w, G] = sum_k w[:k]·[w_k, G]·w[k+1:], summed over the terms of e, instead of
straightening both e·G and G·e and letting their leading terms cancel.
The occurrences of each letter in e's terms are indexed once per check (a
normal word holds each letter in one run, so a term is listed once per
letter and the walk reads the run from its start), so building [e, G] walks
only the letters with [letter, G] != 0 and the terms that hold them; most
[letter, G] vanish, and an empty [e, G] is zero without being straightened.
A malformed LIEQ_TERM_CAP fails a check that has nothing to straighten too.
On a table that a validate() call has found ok it skips the generators that
earlier checks cover (_casimir_plan): the known set starts empty, each
generator not in it is checked and added, in basis order, and then the set
is closed under the rule that a bracket [X, Y] of two known generators with
exactly one support index G outside the set adds G.  It is sound: if
[e, X] = [e, Y] = 0 and [X, Y] = c·G + sum_d c_d·G_d with c != 0 and every
other G_d known to commute with e, then c·[e, G] = [e, [X, Y]] =
[[e, X], Y] + [X, [e, Y]] = 0 because ad e is a derivation, and [e, G] = 0
because the PBW basis makes the enveloping algebra a free module over the
scalar ring, an integral domain, so c need not be invertible.  The PBW
basis, and so the argument, needs Jacobi (Bergman), hence the tables found
ok only.  Generators are still checked in basis order, every one before the
first failure commutes, and the first failing generator is never skipped,
so the witness and residue are those of the full check.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import neg

from lieq.algebra import AlgebraError
from lieq.scalars import Scalar, _add_into, _checked, _mac, signed_sum

DEFAULT_TERM_CAP = 10 ** 6


class UEAError(ValueError):
    """Invalid enveloping-algebra operation."""


class TermBudgetExceeded(UEAError):
    """Normalization exceeded the term budget (see LIEQ_TERM_CAP).

    budget is the cap, live the live-term count when it tripped, and word
    the generator names of the word being rewritten at that moment.
    """

    def __init__(self, budget, live, word):
        super().__init__(
            "normalization exceeded %d live terms (set LIEQ_TERM_CAP to raise)" % budget
        )
        self.budget = budget
        self.live = live
        self.word = word


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


def _key(word):
    """_normalize's key for an index word: (-len(w), -w[0], -w[1], ...)."""
    return (-len(word),) + tuple(map(neg, word))


def _settle(key, pos, descents):
    """Swap key's zero-bracket leftmost descents; (key, leftmost descent or 0 if normal).

    Scans from pos, before which key must have no descent.  A swap moves the
    smaller letter one place left, so the scan goes on from one place before it.
    The first swap copies key into a list that takes every later swap, so a
    word with s swaps costs O(len + s) and one tuple; a word with none is
    returned as it came.
    """
    end = len(key) - 1
    while pos < end:
        if key[pos] < key[pos + 1]:
            if (key[pos], key[pos + 1]) in descents:
                return key, pos
            break
        pos += 1
    else:
        return key, 0
    word = list(key)
    while pos < end:
        b, a = word[pos], word[pos + 1]
        if b < a:
            if (b, a) in descents:
                return tuple(word), pos
            word[pos], word[pos + 1] = a, b
            if pos > 1:
                pos -= 1
        else:
            pos += 1
    return tuple(word), 0


def _descents(alg):
    """_normalize's rewrite table, built once per table and kept in alg._descents:
    {(-b, -a): ((-d, raw c_ba^d), ...)} for each nonzero [G_b, G_a], b > a."""
    if alg._descents is None:
        alg._descents = {(-b, -a): tuple((-d, c._terms) for d, c in entry.items())
                         for (b, a), entry in alg._table.items() if b > a}
    return alg._descents


def _normalize(alg, raw, budget):
    """Straighten {key: raw map} into PBW normal form {word: Scalar}.

    A row's key is _key(word): words sort longest first, then descending
    lexicographic.  Each row is settled from its first letter, and a
    rewritten word from the letter before the rewrite.  Owns raw and its
    maps: callers pass fresh maps, never a live Scalar's _terms.  A rewritten
    word's map moves to its swap uncopied, bracket terms are _mac'd into
    their slots, and only output words become Scalars.
    pending holds each live word once, settled, with its leftmost descent's
    position (0 if normal) and its summed map.  The heap holds the pending
    words with a descent and pops them in key order; normal words are never
    queued, and what pending holds when the heap empties is the result, in
    key order.  Rewrites read _descents(alg).  budget is the live-term cap:
    every straightening operation reads LIEQ_TERM_CAP once, when it starts,
    and passes it to its pass.
    """
    descents = _descents(alg)
    pending = {}  # {key: (leftmost descent position or 0, raw map)}
    heap = []
    for key, coeff in raw.items():
        if coeff:
            key, pos = _settle(key, 1, descents)
            entry = pending.get(key)
            if entry is None:
                pending[key] = (pos, coeff)
                if pos:
                    heap.append(key)
            else:
                _add_into(entry[1], coeff)
    heapify(heap)
    while heap:
        key = heappop(heap)
        pos, coeff = pending.pop(key)
        if not coeff:
            continue
        # b·a at pos becomes a·b + [b, a]; key[1:pos] stays sorted in both
        nb, na = key[pos], key[pos + 1]
        tail = key[pos + 2:]
        start = pos - 1 or 1
        swapped, at = _settle(key[:pos] + (na, nb) + tail, start, descents)
        entry = pending.get(swapped)
        if entry is None:
            pending[swapped] = (at, coeff)
            if at:
                heappush(heap, swapped)
        else:
            _add_into(entry[1], coeff)
        shorter = (key[0] + 1,) + key[1:pos]
        for nd, c in descents[nb, na]:
            nkey, at = _settle(shorter + (nd,) + tail, start, descents)
            entry = pending.get(nkey)
            if entry is None:
                cur = {}
                pending[nkey] = (at, cur)
                if at:
                    heappush(heap, nkey)
            else:
                cur = entry[1]
            _mac(cur, coeff, c)
        if len(pending) > budget:
            gens = alg.generators
            raise TermBudgetExceeded(budget, len(pending), tuple(gens[-x] for x in key[1:]))
    return {tuple(map(neg, key[1:])): _checked(coeff)
            for key, (_, coeff) in sorted(pending.items()) if coeff}


def _arrangements(letters):
    """The distinct arrangements of a sorted letter tuple, each once.

    Without repeated letters these are its permutations.  With them, each
    letter is inserted at every place of every distinct arrangement of the
    letters before it, so the work follows the count of distinct
    arrangements, n!/(m1!...mk!), not n!.
    """
    if len(set(letters)) == len(letters):
        return list(itertools.permutations(letters))
    rows = {()}
    for letter in letters:
        rows = {arr[:p] + (letter,) + arr[p:] for arr in rows for p in range(len(arr) + 1)}
    return rows


def _from_words(alg, named_terms, weyl=False):
    """Sum (name word, Scalar) pairs over alg's basis, then straighten the sum in
    one pass; when weyl, each summed word is first replaced by the average of its
    distinct arrangements (Weyl ordering).  That average depends only on the
    word's letters, so words are summed by their sorted letters first; no two
    share an arrangement, so the pass's cap bounds their count before any is built."""
    raw = {}
    for names, coeff in named_terms:
        word = tuple(alg._gen_index(n) for n in names)
        _add_into(raw.setdefault(tuple(sorted(word)) if weyl else word, {}), coeff._terms)
    budget = _term_cap()
    if weyl:
        live, arranged = 0, {}
        for letters, coeff in raw.items():
            count = math.factorial(len(letters)) // math.prod(
                math.factorial(len(tuple(run))) for _, run in itertools.groupby(letters))
            live += count
            if live > budget:
                raise TermBudgetExceeded(budget, live, tuple(alg.generators[k] for k in letters))
            weight = {}
            _mac(weight, coeff, Scalar.rational(1, count)._terms)
            for arr in _arrangements(letters):
                _add_into(arranged.setdefault(arr, {}), weight)
        raw = arranged
    return UEAElement(alg, _normalize(alg, {_key(w): c for w, c in raw.items()}, budget))


def _coerce_scalar(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.rational(value)
    return None


class UEAElement:
    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra, terms):
        # internal: terms must already be normalized {index word: Scalar}
        self.algebra = algebra
        self._terms = terms

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
            idx = algebra._gen_index(name)
        except AlgebraError:
            raise UEAError("unknown generator %r in %r" % (name, algebra.name)) from None
        return UEAElement(algebra, {(idx,): Scalar.one()})

    @staticmethod
    def word(algebra, names, coeff=None):
        """coeff * G_n1 G_n2 ..., normalized."""
        return _from_words(algebra, [(names, Scalar.one() if coeff is None else coeff)])

    @staticmethod
    def from_terms(algebra, terms):
        """terms: {name tuple: Scalar}; normalized on construction."""
        return _from_words(algebra, terms.items())

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
            cur = terms.pop(word, None)
            cur = coeff if cur is None else cur + coeff
            if cur:
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
        budget = _term_cap()
        lefts = []
        for w1, c1 in self._terms.items():
            k1 = _key(w1)
            lefts.append((k1[0], k1[1:], c1._terms))
        raw = {}
        for w2, c2 in other._terms.items():
            k2 = _key(w2)
            head, tail, c2 = k2[0], k2[1:], c2._terms
            for n1, letters, c1 in lefts:
                _mac(raw.setdefault((n1 + head,) + letters + tail, {}), c1, c2)
        return UEAElement(self.algebra, _normalize(self.algebra, raw, budget))

    def __rmul__(self, other):
        scalar = _coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self * scalar

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise UEAError("element power must be a nonnegative integer")
        if n == 0:
            return UEAElement.unit(self.algebra)
        out = self  # already in normal form, so x**n takes n - 1 straightening passes
        for _ in range(n - 1):
            out = out * self
        return out

    # -- equality / printing ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, UEAElement):
            return NotImplemented
        return self.algebra == other.algebra and self._terms == other._terms

    def __hash__(self):
        return hash((self.algebra, tuple(sorted(self._terms.items(), key=lambda t: t[0]))))

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
    multi = len(coeff._terms) > 1
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
    return _from_words(e.algebra, e.terms())


def commutator(a, b):
    """normal_form(ab - ba); agrees with the table bracket on generators."""
    return a * b - b * a


def is_casimir(e):
    """Check [e, G] = 0 for every generator, in basis order.

    Returns CasimirCheck(ok, witness, residue): witness is the first
    offending generator name and residue the nonzero commutator.  Each
    [e, G] is summed over the terms of e from the derivation
    [w, G] = sum_k w[:k] [w_k, G] w[k+1:] and straightened in one pass.  The
    terms are indexed by their letters once, so only the letters with
    [letter, G] != 0 and the terms that hold them are walked, and an empty
    [e, G] is not straightened.  Like every straightening operation, it reads
    LIEQ_TERM_CAP once, when it starts, and passes it to its passes, so a
    malformed value fails every check.  On a table a validate() call has found
    ok, the generators that the ones checked before them imply are skipped
    (see the module docstring for the rule and its proof); a skipped generator
    commutes with e, so the first offending generator and its residue are the
    same as when every generator is checked.
    """
    return _casimir_checks((e,), ((1,),))[0]


def _casimir_plan(alg):
    """Indices of the generators is_casimir straightens [e, G] against, in basis
    order: all until a validate() call finds alg ok, then those the module
    docstring's rule keeps, derived once per table and kept in alg._plan."""
    if not alg._valid:
        return range(alg.dim)
    if alg._plan is None:
        known, plan = set(), []
        for g in range(alg.dim):
            if g in known:
                continue
            plan.append(g)
            known.add(g)
            grown = True
            while grown:
                grown = False
                for (a, b), entry in alg._table.items():
                    if a in known and b in known:
                        outside = [d for d in entry if d not in known]
                        if len(outside) == 1:
                            known.add(outside[0])
                            grown = True
        alg._plan = tuple(plan)
    return alg._plan


def _casimir_checks(pieces, combos):
    """is_casimir(sum(s * piece)) for each tuple of signs (+1/-1) in combos.
    Each [piece, G] is straightened once per planned generator some combination
    awaits; by linearity a combination's residue is the signed sum of its pieces'.
    The walk, the skipped empty sums and the term cap are as is_casimir says."""
    alg = pieces[0].algebra
    budget = _term_cap()
    indexed = []  # per piece: {-letter: [(key, raw coeff) of each term holding it]}
    for piece in pieces:
        held = {}
        for w, c in piece._terms.items():
            key = _key(w)
            term = key, c._terms
            prev = None
            for nl in key[1:]:
                if nl != prev:  # a normal word holds each letter in one run
                    held.setdefault(nl, []).append(term)
                    prev = nl
        indexed.append(held)
    letters = set().union(*indexed)
    checks = [None] * len(combos)
    pending = range(len(combos))
    for g in _casimir_plan(alg):
        reached = {}  # {-letter: ((-d, raw c), ...)} for each letter with [letter, g] != 0
        for nl in letters:
            bracket = alg.bracket_index(-nl, g)
            if bracket:
                reached[nl] = tuple((-d, c._terms) for d, c in bracket.items())
        if not reached:
            continue
        residues = []
        for held in indexed:
            raw = {}
            for nl, bracket in reached.items():
                for key, coeff in held.get(nl, ()):
                    k = key.index(nl, 1)
                    while k < len(key) and key[k] == nl:
                        for nd, c in bracket:
                            _mac(raw.setdefault(key[:k] + (nd,) + key[k + 1:], {}), c, coeff)
                        k += 1
            residues.append(UEAElement(alg, _normalize(alg, raw, budget) if raw else {}))
        if not any(residues):
            continue
        for i in pending:
            residue = sum((r if s > 0 else -r for s, r in zip(combos[i], residues)),
                          UEAElement.zero(alg))
            if residue:
                checks[i] = CasimirCheck(False, alg.generators[g], residue)
        pending = [i for i in pending if checks[i] is None]
        if not pending:
            break
    return [check or CasimirCheck(True, None, UEAElement.zero(alg)) for check in checks]


def substitute(e, mapping, formal=False):
    """Replace generators by elements (or Scalar multiples of the unit).

    Without formal=True every substituted generator must be central — the
    only case where replacing letters inside arbitrary words is well defined.
    With formal=True, letters are replaced term-by-term in the normal form
    and the result renormalized (the rest-frame specializations).  Every
    word's substituted rows are expanded as a product's are, and the whole
    result is straightened in one pass.
    """
    alg = e.algebra
    values = {}
    for name, value in mapping.items():
        idx = alg._gen_index(name)
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
    budget = _term_cap()
    raw = {}
    for word, coeff in e._terms.items():
        rows = {(): coeff._terms}  # word[:k] with its letters substituted: {word: raw map}
        for letter in word:
            value = values.get(letter)
            if value is None:
                rows = {w + (letter,): c for w, c in rows.items()}
                continue
            grown = {}
            for w1, c1 in rows.items():
                for w2, c2 in value._terms.items():
                    _mac(grown.setdefault(w1 + w2, {}), c1, c2._terms)
            rows = grown
        for w, c in rows.items():
            _add_into(raw.setdefault(_key(w), {}), c)
    return UEAElement(alg, _normalize(alg, raw, budget))


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
    named = [(tuple(mapping.get(src[k], src[k]) for k in word), coeff)
             for word, coeff in e._terms.items()]
    try:
        return _from_words(target, named)
    except AlgebraError:
        missing = next(m for m in ([n for n in names if n not in target.generators]
                                   for names, _ in named) if m)
        raise UEAError(
            "cannot rename into %r: unknown generator(s) %s" % (target.name, missing)
        ) from None


def weyl_word(algebra, names, coeff=None):
    """Weyl (symmetric) ordering of one monomial: average over all
    arrangements of its letters.  Depends only on the multiset of letters.
    """
    return _from_words(algebra, [(names, Scalar.one() if coeff is None else coeff)], weyl=True)


def weyl_symmetrize(e):
    """Symmetrize an element: apply Weyl ordering to each PBW normal word.

    This is the usual vector-space symmetrization read through the PBW
    basis, so it is well defined on elements (normal forms are unique).
    """
    return _from_words(e.algebra, e.terms(), weyl=True)
