"""The paper's limit checks: the low-velocity boost realization and the Casimir contraction."""

from lieq.catalog import catalog
from lieq.limits import (
    CheckRow,
    boost_elements,
    conceptual_limit_check,
    conceptual_limit_rows,
    standard_casimir_limits,
    traditional_limit_report,
)
from lieq.scalars import Scalar
from lieq.uea import UEAElement, commutator, substitute

HEIS = catalog("heisenberg3")
I = Scalar.i()


def gen(name):
    return UEAElement.gen(HEIS, name)


def word(*names):
    return UEAElement.word(HEIS, names)


def set_center(e):
    return substitute(e, {"Z": 1})


def test_boost_elements_form():
    alg, elems = boost_elements()
    assert alg == HEIS
    m0c2 = Scalar.symbol("m0") * Scalar.symbol("c", 2)
    ct = Scalar.symbol("c") * Scalar.symbol("t")
    assert elems["Kx"] == m0c2 * gen("Xx") - ct * gen("Px")
    assert elems["Kz"] == m0c2 * gen("Xz") - ct * gen("Pz")
    assert elems["Jz"] == word("Xx", "Py") - word("Xy", "Px")
    assert elems["Jx"] == word("Xy", "Pz") - word("Xz", "Py")
    two = Scalar.from_int(2)
    psq = word("Px", "Px") + word("Py", "Py") + word("Pz", "Pz")
    assert elems["H2"] == (
        (two * Scalar.symbol("m0", 2) * Scalar.symbol("c", 2)) * UEAElement.unit(HEIS)
        + psq
    )


def test_boost_translation_retains_c_squared():
    # Before c is set to 1 the central term carries the full c^2 factor.
    _, elems = boost_elements()
    comm = set_center(commutator(elems["Kx"], gen("Px")))
    expected = (I * Scalar.symbol("m0") * Scalar.symbol("c", 2)) * UEAElement.unit(HEIS)
    assert comm == expected
    assert set_center(commutator(elems["Kx"], gen("Py"))).is_zero()


def test_boost_energy_cleared_identity():
    # [K_i, 2 m0 H] = 2 i m0 c^2 P_i exactly; the c^2 disappears at c = 1.
    _, elems = boost_elements()
    comm = set_center(commutator(elems["Kx"], elems["H2"]))
    expected = (
        Scalar.from_int(2) * I * Scalar.symbol("m0") * Scalar.symbol("c", 2)
    ) * gen("Px")
    assert comm == expected


def test_rotation_acts_on_boosts():
    _, elems = boost_elements()
    comm = set_center(commutator(elems["Jz"], elems["Kx"]))
    assert comm == I * elems["Ky"]
    assert set_center(commutator(elems["Jx"], elems["Kx"])).is_zero()


def test_report_shape_and_global_pass():
    rows = traditional_limit_report()
    assert all(isinstance(r, CheckRow) for r in rows)
    assert len(rows) == 24
    assert all(r.ok for r in rows)
    assert all(r.residue.is_zero() for r in rows)
    names = [r.name for r in rows]
    assert names[0] == "[Kx, Ky] = 0"
    assert "[Jz, Kx] = i*Ky" in names
    assert "[Kx, Px] = i*m0" in names
    assert "[Kx, Py] = 0" in names
    assert "[Kx, 2*m0*H] = 2*i*m0*Px" in names
    assert len(set(names)) == 24


def test_conceptual_limit_check_all_pass():
    rows = conceptual_limit_check()
    assert [r.name for r in rows] == [
        "contracted C1 equals the central mass",
        "contracted C2 equals contracted C1 squared",
        "contracted C4 equals the Galilei quartic under renaming",
        "rest-frame labels of C2 agree at m = w = m0",
        "rest-frame labels of C4 agree at m = w = m0",
    ]
    assert all(r.ok for r in rows)


def test_conceptual_rows_read_the_given_limits():
    limits = standard_casimir_limits()
    assert {label: power for label, (_, power) in limits.items()} == {
        "C1PE": 2, "C2PE": 4, "C4PE": 4}
    assert conceptual_limit_rows(limits) == conceptual_limit_check()
    c1, _ = limits["C1PE"]
    broken = dict(limits, C2PE=(c1, 4))  # C1's limit in place of C2's
    rows = conceptual_limit_rows(broken)
    assert [r.ok for r in rows] == [True, False, True, False, True]
