"""Generalized Inonu-Wigner contraction via exact Laurent rescaling.

A rescaling map assigns an integer exponent k to every generator,
G_a' = eps**k_a * G_a.  Rescaling multiplies each structure constant by
eps**(k_a + k_b - k_d); the contracted algebra is the eps -> 0 limit of
the rescaled table.  Casimir elements travel the same road: rewrite them
in the primed generators (picking up inverse powers of eps), multiply by
a compensating overall power, and take the limit term by term.

Each rescaling or contraction validates exactly one table: the source.  The
rescaled table has Jacobi residues eps**(k_a + k_b + k_c - k_d) times those
of the source, so it is valid exactly when the source is; a finite limit of
a valid table is valid by construction and is not checked again.  Checking
the limit alone would miss faults that the limit hides, such as a wrong
sign on a bracket whose every term vanishes as eps -> 0.

This module is the engine and the standard maps (STD_*) only; the paper's
limit claims built on it live in lieq.limits.
"""

import warnings
from collections import namedtuple

from lieq.algebra import LieAlgebra
from lieq.scalars import LAURENT_SYMBOL
from lieq.uea import UEAElement

__all__ = [
    "ContractionError",
    "DivergentContraction",
    "DivergentLimit",
    "ZeroLimitWarning",
    "TableDiff",
    "AUTO_POWER_WINDOW",
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

AUTO_POWER_WINDOW = 10

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


def _primed(name):
    return name + _PRIME


def _assert_valid(algebra):
    report = algebra.validate()
    if not report.ok:
        raise ContractionError(
            "%r is not a Lie algebra (%d Jacobi failures, %d issues)"
            % (algebra.name, len(report.jacobi), len(report.issues))
        )


def _rescaled_constants(algebra, exponents):
    """(a, b, d, eps**(k_a + k_b - k_d) * c_ab^d) per nonzero constant, a before b."""
    gens = algebra.generators
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            for d, coeff in algebra.bracket(a, b).items():
                shift = exponents[a] + exponents[b] - exponents[d]
                yield a, b, d, coeff.mul_power(LAURENT_SYMBOL, shift)


def _primed_algebra(algebra, brackets, suffix):
    symbols = tuple(algebra.symbols)
    if LAURENT_SYMBOL not in symbols:
        symbols = symbols + (LAURENT_SYMBOL,)
    return LieAlgebra(algebra.name + suffix, tuple(_primed(g) for g in algebra.generators),
                      brackets, symbols)


def rescale_algebra(algebra, exponents):
    """Rescaled algebra on primed generators; constants gain eps powers."""
    _check_map(algebra, exponents)
    brackets = {}
    for a, b, d, scaled in _rescaled_constants(algebra, exponents):
        brackets.setdefault((_primed(a), _primed(b)), {})[_primed(d)] = scaled
    _assert_valid(algebra)
    return _primed_algebra(algebra, brackets, "_rescaled")


def contract(algebra, exponents):
    """eps -> 0 limit of the rescaled algebra (DivergentContraction on poles)."""
    _check_map(algebra, exponents)
    brackets = {}
    offenders = []
    for a, b, d, scaled in _rescaled_constants(algebra, exponents):
        low = scaled.min_degree(LAURENT_SYMBOL)
        if low < 0:
            offenders.append(((a, b, d), -low))
            continue
        kept = scaled.limit0(LAURENT_SYMBOL)
        if not kept.is_zero():
            brackets.setdefault((_primed(a), _primed(b)), {})[_primed(d)] = kept
    if offenders:
        raise DivergentContraction(offenders)
    _assert_valid(algebra)
    return _primed_algebra(algebra, brackets, "_contracted")


# -- table comparison ----------------------------------------------------------

def tables_equal(algebra_a, algebra_b, renaming):
    """(equal, diff) after renaming a's generators into b's.

    diff rows carry the offending pair in both name systems together with
    the renamed a-side combination and the b-side combination.
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
    diff = []
    gens = algebra_a.generators
    for i, x in enumerate(gens):
        for y in gens[i + 1:]:
            left = {renaming[d]: c for d, c in algebra_a.bracket(x, y).items()}
            right = algebra_b.bracket(renaming[x], renaming[y])
            if left != right:
                diff.append(TableDiff((x, y), (renaming[x], renaming[y]), left, right))
    return (not diff, tuple(diff))


# -- elements ------------------------------------------------------------------

def _rescaled_terms(element, exponents):
    """{primed word: coeff * eps**(-sum of the word's exponents)}."""
    return {
        tuple(_primed(n) for n in word):
            coeff.mul_power(LAURENT_SYMBOL, -sum(exponents[n] for n in word))
        for word, coeff in element.terms()
    }


def rescale_element(element, exponents):
    """Rewrite an enveloping-algebra element in the primed generators.

    Inverting G_a' = eps**k_a G_a gives G_a = eps**(-k_a) G_a', so each
    word picks up eps**(-sum of its letters' exponents).
    """
    target = rescale_algebra(element.algebra, exponents)
    return UEAElement.from_terms(target, _rescaled_terms(element, exponents))


def contract_casimir(element, exponents, power="auto"):
    """(limit of eps**power * rescaled element, power used).

    power="auto" picks the smallest integer giving a finite nonzero limit,
    searched inside [-AUTO_POWER_WINDOW, AUTO_POWER_WINDOW].  Too small a
    power raises DivergentLimit; too large a one returns zero under a
    ZeroLimitWarning.  The result lives in contract(element.algebra,
    exponents), whose check of the source is the only validation per call.
    """
    contracted = contract(element.algebra, exponents)
    rescaled = _rescaled_terms(element, exponents)
    if not rescaled:
        return UEAElement.zero(contracted), 0 if power == "auto" else power
    low = min(coeff.min_degree(LAURENT_SYMBOL) for coeff in rescaled.values())
    if power == "auto":
        used = -low
        if abs(used) > AUTO_POWER_WINDOW:
            raise ContractionError(
                "no admissible power within [-%d, %d] (needs %d)"
                % (AUTO_POWER_WINDOW, AUTO_POWER_WINDOW, used)
            )
    else:
        if not isinstance(power, int) or isinstance(power, bool):
            raise ContractionError("power must be an integer or 'auto', got %r" % (power,))
        used = power
        if low + used < 0:
            raise DivergentLimit(-(low + used))
    terms = {}
    for word, coeff in rescaled.items():
        kept = coeff.mul_power(LAURENT_SYMBOL, used).limit0(LAURENT_SYMBOL)
        if not kept.is_zero():
            terms[word] = kept
    if not terms:
        warnings.warn(
            "eps**%d suppresses every term; the limit is zero" % used,
            ZeroLimitWarning,
            stacklevel=2,
        )
        return UEAElement.zero(contracted), used
    return UEAElement.from_terms(contracted, terms), used

