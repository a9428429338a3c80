"""Built-in algebra catalog and the JSON algebra-file format.

Generator naming is ASCII-flattened: boost families carry their group tag
(KGx = Galilei boost, KPx = Poincare boost), Hb is the shifted energy H - M,
and the unextended Galilei table uses its abstract names (Gtau, Gth*, Gu*,
Gr* for time translation, rotations, boosts, displacements).

Listing order is significant: it is also the PBW normal-ordering for the
enveloping algebra (boosts sort before momenta).
"""

from __future__ import annotations

import json

from lieq.algebra import AlgebraError, LieAlgebra
from lieq.expr import ExprError, parse_scalar
from lieq.scalars import Scalar

AXES = ("x", "y", "z")

_EPS3 = {
    ("x", "y", "z"): 1, ("y", "z", "x"): 1, ("z", "x", "y"): 1,
    ("x", "z", "y"): -1, ("z", "y", "x"): -1, ("y", "x", "z"): -1,
}


def eps3(i, j, k):
    """Standard totally antisymmetric symbol, eps3('x','y','z') = +1."""
    return _EPS3.get((i, j, k), 0)


def _rotation_action(brackets, rot, vec):
    """[rot_i, vec_j] = i * eps_ijk * vec_k, expanded eagerly."""
    for i in AXES:
        for j in AXES:
            if rot == vec and i >= j:
                continue  # same family: store each unordered pair once
            combo = {}
            for k in AXES:
                e = eps3(i, j, k)
                if e:
                    combo[vec + k] = Scalar.gaussian(0, e)
            if combo:
                brackets[(rot + i, vec + j)] = combo
    return brackets


def _build_galilei():
    brackets = {}
    _rotation_action(brackets, "Gth", "Gth")
    _rotation_action(brackets, "Gth", "Gu")
    _rotation_action(brackets, "Gth", "Gr")
    for ax in AXES:
        brackets[("Gu" + ax, "Gtau")] = {"Gr" + ax: Scalar.i()}
    gens = ("Gtau",) + tuple("Gth" + a for a in AXES) \
        + tuple("Gu" + a for a in AXES) + tuple("Gr" + a for a in AXES)
    return LieAlgebra("galilei", gens, brackets)


def _build_galilei_central():
    brackets = {}
    _rotation_action(brackets, "J", "J")
    _rotation_action(brackets, "J", "KG")
    _rotation_action(brackets, "J", "P")
    for ax in AXES:
        brackets[("KG" + ax, "H")] = {"P" + ax: Scalar.i()}
        brackets[("KG" + ax, "P" + ax)] = {"M": Scalar.i()}
    gens = ("H",) + tuple("J" + a for a in AXES) \
        + tuple("KG" + a for a in AXES) + tuple("P" + a for a in AXES) + ("M",)
    return LieAlgebra("galilei_central", gens, brackets)


def _build_poincare():
    brackets = {}
    _rotation_action(brackets, "J", "J")
    _rotation_action(brackets, "J", "KP")
    _rotation_action(brackets, "J", "P")
    for i in AXES:
        brackets[("KP" + i, "H")] = {"P" + i: Scalar.i()}
        brackets[("KP" + i, "P" + i)] = {"H": Scalar.i()}
        for j in AXES:
            if i >= j:
                continue
            combo = {}
            for k in AXES:
                e = eps3(i, j, k)
                if e:
                    combo["J" + k] = Scalar.gaussian(0, -e)
            brackets[("KP" + i, "KP" + j)] = combo
    gens = ("H",) + tuple("J" + a for a in AXES) \
        + tuple("KP" + a for a in AXES) + tuple("P" + a for a in AXES)
    return LieAlgebra("poincare", gens, brackets)


def _build_poincare_trivial_ext():
    return catalog("poincare").trivial_extension("M", name="poincare_trivial_ext")


def shifted_energy_basis(ext):
    """(matrix, names) of the basis change H -> Hb = H - M of an extended table."""
    gens = ext.generators
    matrix = [[Scalar.one() if r == c else Scalar.zero() for c in gens] for r in gens]
    matrix[gens.index("H")][gens.index("M")] = -Scalar.one()
    return matrix, tuple("Hb" if g == "H" else g for g in gens)


def _build_poincare_trivial_ext_hbar():
    ext = catalog("poincare_trivial_ext")
    return ext.change_basis(*shifted_energy_basis(ext), name="poincare_trivial_ext_hbar")


def _build_u1():
    return LieAlgebra("u1", ("Q",), {})


def _build_heisenberg3():
    brackets = {}
    for ax in AXES:
        brackets[("X" + ax, "P" + ax)] = {"Z": Scalar.i()}
    gens = tuple("X" + a for a in AXES) + tuple("P" + a for a in AXES) + ("Z",)
    return LieAlgebra("heisenberg3", gens, brackets)


def _build_full_relativistic():
    return catalog("poincare_trivial_ext_hbar").direct_product(
        catalog("u1"), name="full_relativistic"
    )


def _build_full_nonrelativistic():
    return catalog("galilei_central").direct_product(catalog("u1"), name="full_nonrelativistic")


_BUILDERS = {
    "galilei": _build_galilei,
    "galilei_central": _build_galilei_central,
    "poincare": _build_poincare,
    "poincare_trivial_ext": _build_poincare_trivial_ext,
    "poincare_trivial_ext_hbar": _build_poincare_trivial_ext_hbar,
    "u1": _build_u1,
    "heisenberg3": _build_heisenberg3,
    "full_relativistic": _build_full_relativistic,
    "full_nonrelativistic": _build_full_nonrelativistic,
}

CATALOG_NAMES = tuple(_BUILDERS)

_CACHE = {}


def catalog(name):
    """Return the named catalog algebra: built and validated once, cached, immutable.

    Builders take their parent tables from here, so each table is built once
    per process.  A table that fails validate() raises AlgebraError; a
    passing one is marked as a Lie table, so is_casimir checks it against
    fewer generators.
    """
    if name not in _BUILDERS:
        raise AlgebraError(
            "unknown catalog algebra %r (known: %s)" % (name, ", ".join(CATALOG_NAMES))
        )
    if name not in _CACHE:
        alg = _BUILDERS[name]()
        if not alg.validate().ok:
            raise AlgebraError("catalog algebra %r fails validation" % name)
        _CACHE[name] = alg
    return _CACHE[name]


# ---------------------------------------------------------------------------
# JSON algebra files


def algebra_to_json(alg):
    """Serialize to the algebra-file format; byte-stable across runs."""
    doc = {
        "name": alg.name,
        "symbols": list(alg.symbols),
        "generators": list(alg.generators),
        "brackets": [
            {"a": a, "b": b,
             "result": [{"gen": d, "coeff": str(coeff)} for d, coeff in combo.items()]}
            for (a, b), combo in alg.nonzero_brackets()
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def algebra_from_json(text):
    """Parse the algebra-file format; coefficient strings use the scalar grammar."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also too-deep nesting, too-long integers
        raise AlgebraError("algebra file is not valid JSON: %s" % e) from None
    if not isinstance(doc, dict):
        raise AlgebraError("algebra file must be a JSON object")
    missing = {"name", "generators"} - set(doc)
    if missing:
        raise AlgebraError("algebra file missing fields: %s" % sorted(missing))
    for field in ("generators", "symbols"):
        names = doc.get(field, [])
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise AlgebraError("%r must be a list of names, got %r" % (field, names))
    if not isinstance(doc.get("brackets", []), list):
        raise AlgebraError("'brackets' must be a list of entries")
    symbols = tuple(doc.get("symbols", ()))
    brackets = {}
    for entry in doc.get("brackets", ()):
        try:
            a, b, result = entry["a"], entry["b"], entry["result"]
            items = [(item["gen"], item["coeff"]) for item in result]
            ok = all(isinstance(v, str) for v in (a, b) + sum(items, ()))
        except (TypeError, KeyError):
            ok = False
        if not ok:
            raise AlgebraError("malformed bracket entry: %r" % (entry,))
        combo = {}
        for gen, text in items:
            try:
                coeff = parse_scalar(text, symbols)
            except ExprError as e:
                raise AlgebraError("bad coefficient %r: %s" % (text, e)) from None
            combo[gen] = combo[gen] + coeff if gen in combo else coeff
        key = (a, b)
        if key in brackets:
            raise AlgebraError("bracket (%s,%s) given twice" % key)
        brackets[key] = combo
    return LieAlgebra(doc["name"], tuple(doc["generators"]), brackets, symbols)
