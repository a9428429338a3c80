"""Raw coefficient maps stay inside the sums that own them.

Straightening and the table sums accumulate mutable {monomial: triple} maps
in place (lieq.scalars._mac/_add_into), and _normalize moves a rewritten
word's map to its swap without a copy.  A map shared with a live Scalar (an
input coefficient, a structure constant, a cached catalog Casimir) would be
changed by a later sum.  So every live Scalar must compare and hash as
before, and every coefficient that comes out must be a canonical, non-empty
Scalar whose map no other Scalar holds.
"""

import random
from math import gcd

import pytest
from test_single_pass import random_element

from lieq.casimirs import casimir_catalog, ordering_study
from lieq.catalog import catalog, shifted_energy_basis
from lieq.scalars import Scalar, _decode
from lieq.uea import (
    UEAElement,
    is_casimir,
    normal_form,
    rename_element,
    weyl_symmetrize,
    weyl_word,
)


def table_scalars(alg):
    return [c for entry in alg._table.values() for c in entry.values()]


def coefficients(*elements):
    return [c for e in elements for c in e._terms.values()]


def snapshot(scalars):
    return [(s, dict(s._terms), hash(s)) for s in scalars]


def assert_unchanged(snap):
    for s, terms, h in snap:
        assert s._terms == terms
        assert hash(s) == h == hash(Scalar(dict(terms)))


def assert_canonical(results, live):
    """Each result is a canonical non-empty Scalar, and no map has two owners."""
    owner = {id(s._terms): s for s in live}
    for s in results:
        assert isinstance(s, Scalar) and type(s._terms) is dict and s._terms
        for mono, (re, im, den) in s._terms.items():
            assert den > 0 and gcd(re, im, den) == 1 and (re or im)
            # a packed int that decodes to distinct symbols with nonzero, in-range
            # exponents and packs back to itself
            decoded = _decode(mono)
            assert type(mono) is int and len({sym for sym, _ in decoded}) == len(decoded)
            assert all(exp and -2**32 <= exp < 2**32 for _, exp in decoded)
            rebuilt = Scalar.one()
            for sym, exp in decoded:
                rebuilt = rebuilt * Scalar.symbol(sym, exp)
            assert list(rebuilt._terms) == [mono]
        assert owner.setdefault(id(s._terms), s) is s


@pytest.mark.parametrize("name", ("poincare", "galilei_central", "poincare_trivial_ext_hbar"))
def test_straightening_leaves_live_scalars_unchanged(name):
    alg = catalog(name)
    entries = [entry.element for entry in casimir_catalog(name)]
    rng = random.Random(4049 + len(name))
    x = random_element(rng, alg) + entries[-1]
    coeff = x._terms[max(x._terms, key=len)]
    live = table_scalars(alg) + coefficients(x, *entries) + [coeff]
    before = snapshot(live)
    hashes = [hash(e) for e in (x, *entries)]

    square = x * x
    normal = normal_form(x)
    weyl = weyl_symmetrize(x)
    check = is_casimir(x)
    study = ordering_study(name)
    word = UEAElement.word(alg, alg.generators[::-1], coeff)
    mixed = weyl_word(alg, alg.generators[:3], coeff)
    moved = rename_element(x, alg)

    assert_unchanged(before)
    assert [hash(e) for e in (x, *entries)] == hashes
    assert normal == x == moved
    assert not check.ok
    results = [square, normal, weyl, check.residue, word, mixed, moved]
    for steps in study.values():
        results += [step.residue for step in steps]
        results += [step.shift for step in steps if step.shift is not None]
    assert_canonical(coefficients(*results), live)


def test_table_sums_leave_inputs_unchanged_and_return_canonical_scalars():
    poi = catalog("poincare")
    broken = poi.flip_sign("KPx", "Px", "H")
    ext = catalog("poincare_trivial_ext")
    matrix, names = shifted_energy_basis(ext)
    eps, c = Scalar.symbol("eps"), Scalar.symbol("c")
    diagonal = [[eps ** (r % 3) * (Scalar.one() + Scalar.i()) if r == k else Scalar.zero()
                 for k in range(ext.dim)] for r in range(ext.dim)]
    diagonal[0][1] = c
    x = {"Px": c, "KPx": Scalar.symbol("eps", -1), "H": Scalar.i()}
    y = {"KPx": Scalar.one(), "Px": c * c, "Jz": -Scalar.i()}
    live = table_scalars(poi) + table_scalars(broken) + table_scalars(ext)
    live += [s for row in matrix + diagonal for s in row if s] + [*x.values(), *y.values()]
    before = snapshot(live)

    report = broken.validate()
    shifted = ext.change_basis(matrix, names)
    rescaled = ext.change_basis(diagonal, tuple(g + "p" for g in ext.generators))
    bracket = poi.bracket(x, y)

    assert_unchanged(before)
    assert report.jacobi and shifted.validate().ok and rescaled.validate().ok and bracket
    results = [r for _, residue in report.jacobi for r in residue.values()]
    results += table_scalars(shifted) + table_scalars(rescaled) + list(bracket.values())
    assert_canonical(results, live)
