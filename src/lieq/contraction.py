"""Generalized Inonu-Wigner contraction via exact Laurent rescaling.

A rescaling map assigns an integer exponent k to every generator,
G_a' = eps**k_a * G_a.  Rescaling multiplies each structure constant by
eps**(k_a + k_b - k_d); the contracted algebra is the eps -> 0 limit of
the rescaled table.  Casimir elements travel the same road: rewrite them
in the primed generators (picking up inverse powers of eps), multiply by
a compensating overall power, and take the limit term by term.

Each rescaling or contraction that builds a table checks exactly one
table, the source, and validates it unless a validate() call has already
found it ok (every catalog() table; LieAlgebra caches that fact).  The
rescaled table has Jacobi residues eps**(k_a + k_b + k_c - k_d) times those
of the source, so it is valid exactly when the source is; a finite limit of
a valid table is valid by construction and is not checked again.  Checking
the limit alone would miss faults that the limit hides, such as a wrong sign
on a bracket whose every term vanishes as eps -> 0.  The derived tables are
built from the source's index rows, never through generator names, and the
eps limits are read off raw maps (lieq.scalars._eps_limit).

A derived table is built once while it is alive: the source keeps its
rescaled and contracted tables in a weak registry keyed by kind and map, so
contract, rescale_algebra, contract_casimir and rescale_element hand back the
same object, with its rewrite table and plan, as long as anyone holds it.
The registry holds no table itself, so once the last holder drops one it is
gone, and the next call builds it again exactly as the first did.  A call
that raises registers nothing, so a broken source is checked on every call.

This module is the engine and the standard maps (STD_*) only; the paper's
limit claims built on it live in lieq.limits.
"""

import warnings
import weakref
from collections import namedtuple

from lieq.algebra import LieAlgebra
from lieq.scalars import LAURENT_SYMBOL, Scalar, _eps_limit
from lieq.uea import UEAElement

__all__ = [
    "ContractionError",
    "DivergentContraction",
    "DivergentLimit",
    "ZeroLimitWarning",
    "TableDiff",
    "STD_PE_MAP",
    "STD_PE_RENAME",
    "STD_FULL_MAP",
    "STD_FULL_RENAME",
    "STD_PE_POWERS",
    "rescale_algebra",
    "contract",
    "tables_equal",
    "rescale_element",
    "contract_casimir",
]


class ContractionError(ValueError):
    """Bad rescaling map, renaming, or power choice."""


class DivergentContraction(ContractionError):
    """The rescaled table has poles in eps; no finite limit exists.

    offenders: ((name_a, name_b, name_d), pole_order) per divergent constant.
    """

    def __init__(self, offenders):
        self.offenders = tuple(offenders)
        lines = ", ".join(
            "[%s, %s] -> %s (order %d)" % (a, b, d, order)
            for (a, b, d), order in self.offenders
        )
        super().__init__("contraction diverges: " + lines)


class DivergentLimit(ContractionError):
    """eps**power was too small a compensation; a pole of pole_order remains."""

    def __init__(self, pole_order):
        self.pole_order = pole_order
        super().__init__(
            "limit diverges: residual pole of order %d in %r"
            % (pole_order, LAURENT_SYMBOL)
        )


class ZeroLimitWarning(UserWarning):
    """The compensating power was larger than needed; the limit is zero."""


TableDiff = namedtuple("TableDiff", ["pair_a", "pair_b", "left", "right"])

_PRIME = "p"

# Standard boost/translation rescaling of the trivially extended algebra
# (shifted-energy basis) and the renaming that lands the limit on the
# centrally extended nonrelativistic catalog entry.
STD_PE_MAP = {
    "Hb": 0, "Jx": 0, "Jy": 0, "Jz": 0,
    "KPx": 1, "KPy": 1, "KPz": 1,
    "Px": 1, "Py": 1, "Pz": 1,
    "M": 2,
}
STD_PE_RENAME = {
    "Hbp": "H", "Jxp": "Jx", "Jyp": "Jy", "Jzp": "Jz",
    "KPxp": "KGx", "KPyp": "KGy", "KPzp": "KGz",
    "Pxp": "Px", "Pyp": "Py", "Pzp": "Pz",
    "Mp": "M",
}
STD_FULL_MAP = dict(STD_PE_MAP, Q=0)
STD_FULL_RENAME = dict(STD_PE_RENAME, Qp="Q")
# Automatic compensating power of each extended Casimir under STD_PE_MAP.
STD_PE_POWERS = {"C1PE": 2, "C2PE": 4, "C4PE": 4}


# -- rescaling -----------------------------------------------------------------

def _check_map(algebra, exponents):
    names = set(algebra.generators)
    given = set(exponents)
    if given != names:
        missing = sorted(names - given)
        extra = sorted(given - names)
        raise ContractionError(
            "rescaling map must cover the generators exactly "
            "(missing %r, extra %r)" % (missing, extra)
        )
    for name, k in exponents.items():
        if not isinstance(k, int) or isinstance(k, bool):
            raise ContractionError("exponent for %r must be an integer, got %r" % (name, k))


def _assert_valid(algebra):
    """ContractionError unless algebra is a Lie table; validated once, unless a
    validate() call has already found it ok (every catalog() table)."""
    if algebra._valid:
        return
    report = algebra.validate()
    if not report.ok:
        raise ContractionError(
            "%r is not a Lie algebra (%d Jacobi failures, %d issues)"
            % (algebra.name, len(report.jacobi), len(report.issues))
        )


def _rows(algebra, shifts):
    """((ia, ib), d, c_ab^d, k_a + k_b - k_d) per nonzero constant, ia < ib, in listing order."""
    for (ia, ib), entry in algebra._table.items():
        if ia < ib:
            for d, coeff in entry.items():
                yield (ia, ib), d, coeff, shifts[ia] + shifts[ib] - shifts[d]


def _primed_algebra(algebra, upper, suffix):
    symbols = tuple(algebra.symbols)
    if LAURENT_SYMBOL not in symbols:
        symbols = symbols + (LAURENT_SYMBOL,)
    return LieAlgebra._from_rows(algebra.name + suffix,
                                 tuple(g + _PRIME for g in algebra.generators), upper, symbols)


def _shared(algebra, exponents, build):
    """build(algebra, shifts), or the table it returned before if that is still alive.

    shifts are the exponents in generator order.  Each source keeps its live
    derived tables in a WeakValueDictionary keyed by build and shifts, so a
    second request gets the same object, with its caches, while anyone holds
    it, and nothing is kept once nobody does.  A live table was built after
    the source passed its check, so the hit checks nothing again; a build that
    raises registers nothing.  Two threads may race to build the same table;
    each gets a correct one, and the registry keeps whichever came last.
    """
    _check_map(algebra, exponents)
    shifts = tuple(exponents[g] for g in algebra.generators)
    registry = algebra._derived
    if registry is None:
        registry = algebra._derived = weakref.WeakValueDictionary()
    key = (build, shifts)
    table = registry.get(key)
    if table is None:
        table = registry[key] = build(algebra, shifts)
    return table


def _rescaled(algebra, shifts):
    upper = {}
    for pair, d, coeff, shift in _rows(algebra, shifts):
        upper.setdefault(pair, {})[d] = coeff.mul_power(LAURENT_SYMBOL, shift)
    _assert_valid(algebra)
    return _primed_algebra(algebra, upper, "_rescaled")


def _contracted(algebra, shifts):
    gens = algebra.generators
    upper = {}
    offenders = []
    for (ia, ib), d, coeff, shift in _rows(algebra, shifts):
        low, kept = _eps_limit(coeff._terms, shift)
        if low < 0:
            offenders.append(((gens[ia], gens[ib], gens[d]), -low))
        elif kept:
            upper.setdefault((ia, ib), {})[d] = Scalar(kept)
    if offenders:
        raise DivergentContraction(offenders)
    _assert_valid(algebra)
    return _primed_algebra(algebra, upper, "_contracted")


def rescale_algebra(algebra, exponents):
    """Rescaled algebra on primed generators; constants gain eps powers."""
    return _shared(algebra, exponents, _rescaled)


def contract(algebra, exponents):
    """eps -> 0 limit of the rescaled algebra (DivergentContraction on poles)."""
    return _shared(algebra, exponents, _contracted)


# -- table comparison ----------------------------------------------------------

def tables_equal(algebra_a, algebra_b, renaming):
    """(equal, diff) after renaming a's generators into b's, by index rows.

    Names are made only for diff rows: the offending pair in both name
    systems together with the renamed a-side combination and the b-side one.
    """
    if algebra_a.dim != algebra_b.dim:
        raise ContractionError(
            "cannot compare tables of dimension %d and %d"
            % (algebra_a.dim, algebra_b.dim)
        )
    if set(renaming) != set(algebra_a.generators):
        raise ContractionError("renaming must be total on the first algebra")
    targets = list(renaming.values())
    if len(set(targets)) != len(targets) or set(targets) != set(algebra_b.generators):
        raise ContractionError("renaming must be a bijection onto the second algebra")
    gens_a, gens_b = algebra_a.generators, algebra_b.generators
    to_b = [algebra_b._index[renaming[g]] for g in gens_a]
    to_a = {j: k for k, j in enumerate(to_b)}
    # Only a pair with a nonzero bracket on one side can differ; rows follow a's basis order.
    pairs = {(x, y) for x, y in algebra_a._table if x < y}
    pairs.update((to_a[x], to_a[y]) for x, y in algebra_b._table if to_a[x] < to_a[y])
    diff = []
    for x, y in sorted(pairs):
        left = {to_b[d]: c for d, c in algebra_a.bracket_index(x, y).items()}
        right = algebra_b.bracket_index(to_b[x], to_b[y])
        if left != right:
            diff.append(TableDiff((gens_a[x], gens_a[y]), (gens_b[to_b[x]], gens_b[to_b[y]]),
                                  {gens_b[d]: c for d, c in left.items()},
                                  {gens_b[d]: c for d, c in right.items()}))
    return (not diff, tuple(diff))


# -- elements ------------------------------------------------------------------

def _rescaled_words(element, exponents):
    """(word, coeff, -sum of the word's exponents) per term of element."""
    shifts = [exponents[g] for g in element.algebra.generators]
    return [(word, coeff, -sum(shifts[k] for k in word)) for word, coeff in element._terms.items()]


def rescale_element(element, exponents):
    """Rewrite an enveloping-algebra element in the primed generators.

    Inverting G_a' = eps**k_a G_a gives G_a = eps**(-k_a) G_a', so each
    word picks up eps**(-sum of its letters' exponents).  The primed table
    keeps the basis order, so the words stay normal and are not straightened.
    """
    target = rescale_algebra(element.algebra, exponents)
    return UEAElement(target, {word: coeff.mul_power(LAURENT_SYMBOL, shift)
                               for word, coeff, shift in _rescaled_words(element, exponents)})


def contract_casimir(element, exponents, power="auto"):
    """(limit of eps**power * rescaled element, power used).

    power="auto" uses -(lowest eps degree of the rescaled terms), the
    smallest power giving a finite nonzero limit, however large.  Too small
    a power raises DivergentLimit; too large a one returns zero under a
    ZeroLimitWarning.  The result lives in contract(element.algebra,
    exponents): the same table as that call returns while either is held,
    so the source is checked only when a table is built, and nothing is
    kept once the results are dropped.  Its words are the element's, still
    normal there, so it is not straightened.
    """
    if power != "auto" and (not isinstance(power, int) or isinstance(power, bool)):
        raise ContractionError("power must be an integer or 'auto', got %r" % (power,))
    contracted = contract(element.algebra, exponents)
    rescaled = _rescaled_words(element, exponents)
    if not rescaled:
        return UEAElement.zero(contracted), 0 if power == "auto" else power
    low = min(_eps_limit(coeff._terms, shift)[0] for _, coeff, shift in rescaled)
    used = -low if power == "auto" else power
    if low + used < 0:
        raise DivergentLimit(-(low + used))
    terms = {}
    for word, coeff, shift in rescaled:
        kept = _eps_limit(coeff._terms, shift + used)[1]
        if kept:
            terms[word] = Scalar(kept)
    if not terms:
        warnings.warn(
            "eps**%d suppresses every term; the limit is zero" % used,
            ZeroLimitWarning,
            stacklevel=2,
        )
        return UEAElement.zero(contracted), used
    return UEAElement(contracted, terms), used
