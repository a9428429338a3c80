"""Straightening with its zero-bracket swaps made before a word is queued,
against the one-swap loop it replaced.

`_normalize` moves a word through every leftmost descent whose bracket
vanishes before it queues the word, so only normal words and words whose
leftmost descent branches are ever pending.  Each of those swaps is the
rewrite the reference below makes one heap entry at a time: pop the next
word (longest first, then descending lexicographic), rewrite its leftmost
descent b·a as a·b + [b, a] through `bracket_index`, and queue both parts.
The arithmetic is exact and both rewrite every word at its leftmost
descent, so the term maps must agree exactly, on catalog tables and on a
table that breaks Jacobi alike; their order is unspecified, so it is not
compared.

`_settle` makes a word's zero-bracket swaps in one list, copied at the
first swap; the loop it replaced rebuilt the word tuple at every swap,
which made a word with s swaps cost O(s * len).  Both scan from the same
start and make the same swaps, so they must return the same key and
position, on seeded words and on long commuting runs alike.
"""

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import neg

import pytest
from test_properties import SYMBOLIC

from lieq.catalog import CATALOG_NAMES, catalog
from lieq.scalars import Scalar, _add_into, _checked, _mac
from lieq.uea import _descents, _key, _normalize, _settle, _term_cap

ONE = Scalar.one()

# -- reference: one swap per heap entry ---------------------------------------


def ref_normalize(alg, raw):
    """{word: raw map} to {word: Scalar}, one leftmost-descent rewrite per popped word."""
    out = {}
    pending = {}
    for word, coeff in raw.items():
        if coeff:
            pending[(-len(word),) + tuple(map(neg, word))] = coeff
    heap = list(pending)
    heapify(heap)
    while heap:
        key = heappop(heap)
        coeff = pending.pop(key)
        if not coeff:
            continue
        for pos in range(1, len(key) - 1):
            if key[pos] < key[pos + 1]:
                break
        else:
            out[tuple(map(neg, key[1:]))] = _checked(coeff)
            continue
        nb, na = key[pos], key[pos + 1]
        tail = key[pos + 2:]
        swapped = key[:pos] + (na, nb) + tail
        cur = pending.get(swapped)
        if cur is None:
            pending[swapped] = coeff
            heappush(heap, swapped)
        else:
            _add_into(cur, coeff)
        shorter = (key[0] + 1,) + key[1:pos]
        for d, c in alg.bracket_index(-nb, -na).items():
            nkey = shorter + (-d,) + tail
            cur = pending.get(nkey)
            if cur is None:
                pending[nkey] = cur = {}
                heappush(heap, nkey)
            _mac(cur, coeff, c._terms)
    return out


def ref_settle(key, pos, descents):
    """_settle as one new tuple per zero-bracket swap."""
    end = len(key) - 1
    while pos < end:
        if key[pos] < key[pos + 1]:
            if (key[pos], key[pos + 1]) in descents:
                return key, pos
            key = key[:pos] + (key[pos + 1], key[pos]) + key[pos + 2:]
            if pos > 1:
                pos -= 1
        else:
            pos += 1
    return key, 0


# -- inputs and comparison ----------------------------------------------------


def random_scalar(rng):
    s = Scalar.gaussian(Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
                        Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
    if rng.random() < 0.25:
        s = s * rng.choice((Scalar.symbol("c"), Scalar.symbol("eps", -1)))
    return s


def random_sum(rng, alg, max_len=5, max_words=5):
    """{word: Scalar} over a few random words; letters repeat, so words share rewrites."""
    letters = rng.sample(range(alg.dim), min(alg.dim, 5))
    return {tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len))): random_scalar(rng)
            for _ in range(rng.randint(1, max_words))}


def assert_same_normal_form(alg, terms):
    """Both loops on fresh raw maps of terms: equal maps; returns the result."""
    got = _normalize(alg, {_key(w): dict(c._terms) for w, c in terms.items()}, _term_cap())
    want = ref_normalize(alg, {w: dict(c._terms) for w, c in terms.items()})
    assert got == want, alg.name
    return got


def jacobi_breaking():
    alg = catalog("full_relativistic").with_bracket("M", "Jx", {"Q": ONE}) \
        .with_bracket("Q", "M", {"M": ONE})
    assert alg.validate().jacobi
    return alg


# -- comparisons ----------------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_matches_the_one_swap_loop_on_catalog_tables(name):
    rng = random.Random("zero-bracket-" + name)
    alg = catalog(name)
    for _ in range(25):
        assert_same_normal_form(alg, random_sum(rng, alg))


def test_matches_the_one_swap_loop_on_symbolic_and_jacobi_breaking_tables():
    rng = random.Random(1978)
    for alg in (SYMBOLIC, jacobi_breaking()):
        for _ in range(40):
            assert_same_normal_form(alg, random_sum(rng, alg, max_len=6))


def test_words_one_zero_bracket_swap_apart_cancel_where_they_are_queued():
    # c·w - c·w', w' being w with its leftmost descent swapped where the
    # bracket vanishes: both settle to one queued word whose map sums to zero.
    rng = random.Random(5381)
    for alg in (catalog("poincare"), catalog("galilei_central"), SYMBOLIC, jacobi_breaking()):
        found = 0
        while found < 20:
            word = tuple(rng.randrange(alg.dim) for _ in range(rng.randint(2, 6)))
            k = next((k for k in range(len(word) - 1) if word[k] > word[k + 1]), None)
            if k is None or alg.bracket_index(word[k], word[k + 1]):
                continue
            found += 1
            coeff = random_scalar(rng)
            pair = {word: coeff, word[:k] + (word[k + 1], word[k]) + word[k + 2:]: -coeff}
            assert assert_same_normal_form(alg, pair) == {}
            extra = tuple(rng.randrange(alg.dim) for _ in range(rng.randint(0, 5)))
            pair.setdefault(extra, random_scalar(rng))
            assert_same_normal_form(alg, pair)


# -- swaps in one list ------------------------------------------------------------


def assert_same_settle(alg, word):
    """_settle and ref_settle from every valid start of word; returns the result."""
    descents = _descents(alg)
    key = _key(word)
    first = next((p for p in range(1, len(key) - 1) if key[p] < key[p + 1]), len(key) - 1)
    for start in range(1, max(first, 1) + 1):
        got = _settle(key, start, descents)
        assert got == ref_settle(key, start, descents), (alg.name, word, start)
        assert type(got[0]) is tuple
        if got[0] == key:
            assert got[0] is key  # a word without a swap is not copied
    return got


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_settle_matches_the_tuple_rebuild_loop_on_catalog_tables(name):
    rng = random.Random("settle-" + name)
    alg = catalog(name)
    for _ in range(200):
        assert_same_settle(alg, tuple(rng.randrange(alg.dim) for _ in range(rng.randint(0, 9))))


def test_settle_carries_a_letter_through_long_commuting_runs():
    # Pz commutes with Px and sorts after it, so Px^k·Pz·Px^m settles to
    # Px^(k+m)·Pz in m swaps; Z is central in heisenberg3 and sorts last.
    poi = catalog("poincare")
    px, pz = poi._gen_index("Px"), poi._gen_index("Pz")
    for k, m in ((0, 0), (0, 1), (1, 0), (3, 5), (0, 40), (40, 0), (17, 33), (60, 60)):
        got = assert_same_settle(poi, (px,) * k + (pz,) + (px,) * m)
        assert got == (_key((px,) * (k + m) + (pz,)), 0)
    heis = catalog("heisenberg3")
    z = heis._gen_index("Z")
    rng = random.Random(1925)
    for _ in range(60):
        word = [rng.randrange(z) for _ in range(rng.randint(0, 12))]
        for _ in range(rng.randint(1, 4)):
            word.insert(rng.randint(0, len(word)), z)
        assert_same_settle(heis, tuple(word))
