"""Built-in algebra catalog and the JSON algebra-file format.

Generator naming is ASCII-flattened: boost families carry their group tag
(KGx = Galilei boost, KPx = Poincare boost), Hb is the shifted energy H - M,
and the unextended Galilei table uses its abstract names (Gtau, Gth*, Gu*,
Gr* for time translation, rotations, boosts, displacements).

The seven kinematical tables (both Galilei tables, the Poincare family and
the two full groups) are one Bacry-Levy-Leblond family, each built from one
_Kinematical row; u1 and heisenberg3 have builders of their own.  _TABLES,
which maps every catalog name to its row or its builder, is the one
description of the catalog: catalog() builds from that entry directly, and
lieq.casimirs reads its Casimir words from the same rows.

Listing order is significant: it is also the PBW normal-ordering for the
enveloping algebra (boosts sort before momenta).
"""

from __future__ import annotations

import json
from collections import namedtuple

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


# One kinematical table: the names of its time, rotation, boost and translation
# generators; kp, the generators whose sum [K_i, P_i] gives times i; kk, whether
# [K_i, K_j] = -i*eps_ijk*J_k; and the central generators, listed after P.
_Kinematical = namedtuple("_Kinematical", "time rotation boost translation kp kk central")


def _kinematical(name, kin):
    """The described table: J_i acts on J, K and P as a vector, [K_i, time] = i*P_i."""
    t, r, k, p = kin.time, kin.rotation, kin.boost, kin.translation
    i = Scalar.i()
    brackets = {}
    for (a, b, c), e in _EPS3.items():
        for vec in (r, k, p):
            if vec != r or a < b:  # same family: store each unordered pair once
                brackets[(r + a, vec + b)] = {vec + c: Scalar.gaussian(0, e)}
        if kin.kk and a < b:
            brackets[(k + a, k + b)] = {r + c: Scalar.gaussian(0, -e)}
    for a in AXES:
        brackets[(k + a, t)] = {p + a: i}
        brackets[(k + a, p + a)] = dict.fromkeys(kin.kp, i)
    gens = (t,) + tuple(f + a for f in (r, k, p) for a in AXES) + kin.central
    return LieAlgebra(name, gens, brackets)


def shifted_energy_basis(ext):
    """(matrix, names) of the basis change H -> Hb = H - M of an extended table."""
    gens = ext.generators
    matrix = [[Scalar.one() if r == c else Scalar.zero() for c in gens] for r in gens]
    matrix[gens.index("H")][gens.index("M")] = -Scalar.one()
    return matrix, tuple("Hb" if g == "H" else g for g in gens)


def _build_u1():
    return LieAlgebra("u1", ("Q",), {})


def _build_heisenberg3():
    brackets = {}
    for ax in AXES:
        brackets[("X" + ax, "P" + ax)] = {"Z": Scalar.i()}
    gens = tuple("X" + a for a in AXES) + tuple("P" + a for a in AXES) + ("Z",)
    return LieAlgebra("heisenberg3", gens, brackets)


# Every catalog table in listing order: its _Kinematical description, or its own builder.
_TABLES = {
    "galilei": _Kinematical("Gtau", "Gth", "Gu", "Gr", (), False, ()),
    "galilei_central": _Kinematical("H", "J", "KG", "P", ("M",), False, ("M",)),
    "poincare": _Kinematical("H", "J", "KP", "P", ("H",), True, ()),
    "poincare_trivial_ext": _Kinematical("H", "J", "KP", "P", ("H",), True, ("M",)),
    "poincare_trivial_ext_hbar": _Kinematical("Hb", "J", "KP", "P", ("Hb", "M"), True, ("M",)),
    "u1": _build_u1,
    "heisenberg3": _build_heisenberg3,
    "full_relativistic": _Kinematical("Hb", "J", "KP", "P", ("Hb", "M"), True, ("M", "Q")),
    "full_nonrelativistic": _Kinematical("H", "J", "KG", "P", ("M",), False, ("M", "Q")),
}

CATALOG_NAMES = tuple(_TABLES)

_CACHE = {}


def catalog(name):
    """Return the named catalog algebra: built and validated once, cached, immutable.

    A table that fails validate() raises AlgebraError; a passing one is
    marked valid, so is_casimir checks it against fewer generators.
    """
    if name not in _TABLES:
        raise AlgebraError(
            "unknown catalog algebra %r (known: %s)" % (name, ", ".join(CATALOG_NAMES))
        )
    if name not in _CACHE:
        entry = _TABLES[name]
        alg = entry() if callable(entry) else _kinematical(name, entry)
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


def _json_doc(text, what):
    """json.loads(text); a failure raises AlgebraError "<what> is not valid JSON: ..."."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # also too-deep nesting, too-long integers
        raise AlgebraError("%s is not valid JSON: %s" % (what, e)) from None


def algebra_from_json(text):
    """Parse the algebra-file format; coefficient strings use the scalar grammar."""
    doc = _json_doc(text, "algebra file")
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
    entries = []
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
        entries.append(((a, b), combo))
    return LieAlgebra._from_rows(doc["name"], tuple(doc["generators"]), {}, symbols, entries)
