"""The built-in algebra catalog and the JSON algebra-file format."""

import sys

import pytest

from lieq.algebra import AlgebraError, LieAlgebra
from lieq.catalog import (
    _CACHE,
    _TABLES,
    CATALOG_NAMES,
    _kinematical,
    algebra_from_json,
    algebra_to_json,
    catalog,
)
from lieq.scalars import Scalar

I = Scalar.i()


def test_catalog_names_and_dims():
    assert CATALOG_NAMES == (
        "galilei",
        "galilei_central",
        "poincare",
        "poincare_trivial_ext",
        "poincare_trivial_ext_hbar",
        "u1",
        "heisenberg3",
        "full_relativistic",
        "full_nonrelativistic",
    )
    dims = {name: catalog(name).dim for name in CATALOG_NAMES}
    assert dims == {
        "galilei": 10,
        "galilei_central": 11,
        "poincare": 10,
        "poincare_trivial_ext": 11,
        "poincare_trivial_ext_hbar": 11,
        "u1": 1,
        "heisenberg3": 7,
        "full_relativistic": 12,
        "full_nonrelativistic": 12,
    }


def test_every_catalog_algebra_validates():
    for name in CATALOG_NAMES:
        assert catalog(name).validate().ok, name


def test_generator_orders():
    assert catalog("galilei_central").generators == (
        "H", "Jx", "Jy", "Jz", "KGx", "KGy", "KGz", "Px", "Py", "Pz", "M",
    )
    assert catalog("poincare").generators == (
        "H", "Jx", "Jy", "Jz", "KPx", "KPy", "KPz", "Px", "Py", "Pz",
    )
    assert catalog("poincare_trivial_ext_hbar").generators == (
        "Hb", "Jx", "Jy", "Jz", "KPx", "KPy", "KPz", "Px", "Py", "Pz", "M",
    )
    assert catalog("full_relativistic").generators[-1] == "Q"
    assert catalog("heisenberg3").generators == ("Xx", "Xy", "Xz", "Px", "Py", "Pz", "Z")


def test_structure_spot_checks():
    gc = catalog("galilei_central")
    assert gc.bracket("Jx", "Jy") == {"Jz": I}
    assert gc.bracket("Jz", "Jx") == {"Jy": I}
    assert gc.bracket("Jx", "Py") == {"Pz": I}
    assert gc.bracket("Jx", "KGz") == {"KGy": -I}
    assert gc.bracket("KGy", "H") == {"Py": I}
    assert gc.bracket("KGz", "Pz") == {"M": I}
    assert gc.bracket("KGx", "KGy") == {}
    assert gc.bracket("Px", "H") == {}
    for g in gc.generators:
        assert gc.bracket("M", g) == {}

    poi = catalog("poincare")
    assert poi.bracket("KPx", "KPy") == {"Jz": -I}
    assert poi.bracket("KPy", "Py") == {"H": I}
    assert poi.bracket("KPy", "Pz") == {}

    hb = catalog("poincare_trivial_ext_hbar")
    assert hb.bracket("KPx", "Px") == {"Hb": I, "M": I}
    assert hb.bracket("KPx", "Hb") == {"Px": I}
    assert hb.bracket("KPx", "KPy") == {"Jz": -I}

    h3 = catalog("heisenberg3")
    assert h3.bracket("Xx", "Px") == {"Z": I}
    assert h3.bracket("Xx", "Py") == {}
    assert h3.bracket("Xx", "Xy") == {}
    for g in h3.generators:
        assert h3.bracket("Z", g) == {}


def test_poincare_trivial_ext_is_trivial_extension():
    assert catalog("poincare_trivial_ext") == catalog("poincare").trivial_extension("M")


def test_full_groups_are_direct_products():
    assert catalog("full_relativistic") == catalog("poincare_trivial_ext_hbar").direct_product(
        catalog("u1")
    )
    assert catalog("full_nonrelativistic") == catalog("galilei_central").direct_product(
        catalog("u1")
    )
    fr = catalog("full_relativistic")
    for g in fr.generators:
        assert fr.bracket("Q", g) == {}


def test_unknown_name_errors():
    with pytest.raises(AlgebraError):
        catalog("nope")


def test_catalog_returns_same_instance():
    assert catalog("poincare") is catalog("poincare")


def test_each_table_is_built_once_per_process(monkeypatch):
    # lieq.catalog is also the name of the function, so reach the module by name
    module = sys.modules["lieq.catalog"]
    monkeypatch.setattr(module, "_CACHE", {})
    built, bases = [], []
    for name, entry in list(module._TABLES.items()):
        build = entry if callable(entry) else lambda name=name, entry=entry: _kinematical(name, entry)
        monkeypatch.setitem(module._TABLES, name,
                            lambda name=name, build=build: built.append(name) or build())
    change_basis = LieAlgebra.change_basis
    monkeypatch.setattr(LieAlgebra, "change_basis",
                        lambda self, *a, **k: bases.append(self.name) or change_basis(self, *a, **k))
    for name in CATALOG_NAMES:
        module.catalog(name)
    assert sorted(built) == sorted(CATALOG_NAMES)
    assert bases == []


def test_catalog_rejects_a_table_that_fails_jacobi(monkeypatch):
    broken = catalog("poincare").flip_sign("KPx", "Px", "H")
    monkeypatch.delitem(_CACHE, "poincare")
    monkeypatch.setitem(_TABLES, "poincare", lambda: broken)
    with pytest.raises(AlgebraError, match="poincare"):
        catalog("poincare")
    assert "poincare" not in _CACHE


def test_json_roundtrip_and_determinism():
    for name in CATALOG_NAMES:
        alg = catalog(name)
        text = algebra_to_json(alg)
        assert text == algebra_to_json(alg)  # byte-stable
        back = algebra_from_json(text)
        assert back == alg
        assert back.name == alg.name


def test_json_format_shape():
    text = algebra_to_json(catalog("u1"))
    assert '"name": "u1"' in text
    assert '"generators"' in text
    assert text.endswith("\n")

    src = """
    {"name": "toy", "symbols": ["eps"], "generators": ["A", "B", "C"],
     "brackets": [{"a": "A", "b": "B", "result": [{"gen": "C", "coeff": "i"}]}]}
    """
    toy = algebra_from_json(src)
    assert toy.bracket("A", "B") == {"C": I}
    assert toy.bracket("A", "C") == {}
    assert toy.validate().ok


def test_json_rejects_garbage():
    with pytest.raises(AlgebraError):
        algebra_from_json("not json at all {")
    with pytest.raises(AlgebraError):
        algebra_from_json('{"name": "x"}')


@pytest.mark.parametrize("doc, message", [
    ("[]", "must be a JSON object"),
    ('{"name": "x", "generators": ["A"], "brackets": {}}', "must be a list of entries"),
    ('{"name": "x", "generators": ["A", "B"], "brackets": '
     '[{"a": "A", "b": "B", "result": [{"gen": "A", "coeff": "1/0"}]}]}', "bad coefficient"),
    ('{"name": "x", "generators": ["A", "B"], "brackets": ['
     '{"a": "A", "b": "B", "result": []}, {"a": "A", "b": "B", "result": []}]}', "given twice"),
    ('{"name": "x", "generators": ["A", "B"], "symbols": ["s", "s"], "brackets": '
     '[{"a": "A", "b": "B", "result": [{"gen": "B", "coeff": "s"}]}]}', "must be distinct"),
    ('{"name": "x", "generators": ["A", "B"], "symbols": ["i"], "brackets": '
     '[{"a": "A", "b": "B", "result": [{"gen": "B", "coeff": "i"}]}]}', "not 'i'"),
], ids=["not_an_object", "brackets_not_a_list", "bad_coefficient", "duplicate_pair",
        "symbol_twice", "symbol_i"])
def test_json_rejects_malformed_files(doc, message):
    with pytest.raises(AlgebraError, match=message):
        algebra_from_json(doc)
