"""Observable descriptors and n-particle labeling."""

import pytest

from lieq.casimirs import casimir_entries
from lieq.catalog import catalog
from lieq.mhi import (
    MHI_GROUPS,
    MHIError,
    actual_valued_observables,
    n_particle_labels,
)
from lieq.scalars import Scalar
from lieq.uea import is_casimir, rename_element


def test_supported_groups():
    assert set(MHI_GROUPS) == {
        "galilei_central", "poincare_trivial_ext", "u1",
        "full_relativistic", "full_nonrelativistic",
    }
    for bad in ("poincare", "heisenberg3", "galilei", "nope"):
        with pytest.raises(MHIError):
            actual_valued_observables(bad)


def test_galilei_descriptor_rows():
    d = actual_valued_observables("galilei_central")
    assert d.group == "galilei_central"
    ent = casimir_entries("galilei_central")
    assert [(r.casimir, r.observable, r.eigenvalue, r.key) for r in d.rows] == [
        ("C1G", "M", "m", "M"),
        ("C2G", "m*W", "m*w", "W"),
        ("C4G", "m^2*S^2", "m^2*s*(s+1)", "S2"),
    ]
    for row in d.rows:
        assert row.element == ent[row.casimir]


def test_extended_poincare_and_u1_rows():
    d = actual_valued_observables("poincare_trivial_ext")
    assert [(r.casimir, r.observable, r.eigenvalue, r.key) for r in d.rows] == [
        ("C1PE", "M", "m0", "M"),
        ("C2PE", "M^2", "m0^2", "M"),
        ("C4PE", "m0^2*S^2", "m0^2*s*(s+1)", "S2"),
    ]
    ent = casimir_entries("poincare_trivial_ext")
    for row in d.rows:
        assert row.element == ent[row.casimir]

    d = actual_valued_observables("u1")
    assert [(r.casimir, r.observable, r.eigenvalue, r.key) for r in d.rows] == [
        ("C1U", "Q", "e", "Q"),
    ]


def test_observable_sets():
    expected = {
        "galilei_central": ("M", "W", "S2"),
        "poincare_trivial_ext": ("M", "S2"),
        "u1": ("Q",),
        "full_nonrelativistic": ("M", "W", "S2", "Q"),
        "full_relativistic": ("M", "S2", "Q"),
    }
    for group, keys in expected.items():
        assert actual_valued_observables(group).observables() == keys


def test_every_descriptor_element_is_a_casimir():
    for group in MHI_GROUPS:
        for row in actual_valued_observables(group).rows:
            assert is_casimir(row.element).ok, (group, row.casimir)


def test_full_groups_are_unions():
    fnr = actual_valued_observables("full_nonrelativistic")
    target = catalog("full_nonrelativistic")
    parts = actual_valued_observables("galilei_central").rows + \
        actual_valued_observables("u1").rows
    assert len(fnr.rows) == len(parts)
    for got, part in zip(fnr.rows, parts):
        assert (got.casimir, got.observable, got.eigenvalue, got.key) == (
            part.casimir, part.observable, part.eigenvalue, part.key)
        assert got.element == rename_element(part.element, target)

    fr = actual_valued_observables("full_relativistic")
    assert [r.casimir for r in fr.rows] == ["C1PE", "C2PE", "C4PE", "C1U"]
    ent = casimir_entries("full_relativistic")
    for row in fr.rows:
        assert row.element == ent[row.casimir]


def test_n_particle_labels_basic():
    lab = n_particle_labels(1)
    assert lab.n == 1
    assert lab.mass.operator == "(C2PE)^(1/2)*N"
    assert lab.spin.operator == "(C4PE)^(1/2)"
    assert lab.charge.operator == "Q"
    assert lab.number.operator == "N"
    assert lab.mass.label == Scalar.symbol("m0")
    assert lab.spin.label == "s"
    assert lab.charge.label == "e"
    assert lab.particle_number == 1
    assert "N" in lab.note  # the charge row is not scaled by N; say so

    lab3 = n_particle_labels(3)
    assert lab3.mass.label == Scalar.from_int(3) * Scalar.symbol("m0")
    assert lab3.particle_number == 3


def test_n_particle_additivity():
    for n in range(1, 101):
        assert n_particle_labels(n).particle_number == n
    for n1, n2 in ((1, 1), (2, 3), (10, 90), (41, 17)):
        a, b, c = n_particle_labels(n1), n_particle_labels(n2), n_particle_labels(n1 + n2)
        assert a.particle_number + b.particle_number == c.particle_number
        assert a.mass.label + b.mass.label == c.mass.label


def test_n_particle_errors():
    for bad in (0, -1, -100):
        with pytest.raises(MHIError):
            n_particle_labels(bad)
    for bad in (2.5, True):
        with pytest.raises(MHIError):
            n_particle_labels(bad)
