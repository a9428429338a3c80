"""The paper's limit claims: nonrelativistic magnitudes as limits of relativistic ones.

Conceptual limit: contract the Casimirs of the trivially extended Poincare
algebra (shifted-energy basis) under STD_PE_MAP and compare them with the
centrally extended Galilei catalog, as operators and by rest-frame labels.
standard_casimir_limits computes those contractions once for every consumer.

Traditional limit: the boosts act on a quantum particle through
K_i = m0*c^2*X_i - c*t*P_i together with the orbital rotations
J_i = eps_ijk X_j P_k, all inside the enveloping algebra of heisenberg3,
the three-dimensional canonical pairs, with the central element set to 1.
The boost rows are the brackets of the Bargmann table
catalog("galilei_central") realized there, so the realization checks that
table independently. Scalars here are polynomial in m0, so the energy
identity is checked in cleared form: with 2*m0*H = 2*m0^2*c^2 + P.P the
table's [K_i, H] = i*P_i (at c = 1) becomes [K_i, 2*m0*H] = 2*i*m0*P_i.
"""

from collections import namedtuple

from lieq.casimirs import casimir_entries
from lieq.catalog import AXES, catalog, eps3
from lieq.contraction import STD_PE_MAP, STD_PE_POWERS, STD_PE_RENAME, contract_casimir
from lieq.scalars import Scalar
from lieq.uea import UEAElement, commutator, format_sum, rename_element, scalar_substitute, substitute

__all__ = ["CheckRow", "LimitRow", "boost_elements", "traditional_limit_report",
           "standard_casimir_limits", "conceptual_limit_rows", "conceptual_limit_check"]

CheckRow = namedtuple("CheckRow", ["name", "ok", "residue"])
LimitRow = namedtuple("LimitRow", ["name", "ok", "detail"])


def boost_elements():
    """(algebra, elements): boosts Kx..Kz, rotations Jx..Jz, cleared energy H2."""
    alg = catalog("heisenberg3")
    m0c2 = Scalar.symbol("m0") * Scalar.symbol("c", 2)
    ct = Scalar.symbol("c") * Scalar.symbol("t")
    elems = {}
    for a in AXES:
        elems["K" + a] = UEAElement.from_terms(alg, {("X" + a,): m0c2, ("P" + a,): -ct})
    for i in AXES:
        elems["J" + i] = UEAElement.from_terms(alg, {
            ("X" + j, "P" + k): Scalar.from_int(eps3(i, j, k))
            for j in AXES for k in AXES if eps3(i, j, k)})
    h2 = {("P" + a, "P" + a): Scalar.one() for a in AXES}
    h2[()] = Scalar.from_int(2) * Scalar.symbol("m0", 2) * Scalar.symbol("c", 2)
    elems["H2"] = UEAElement.from_terms(alg, h2)
    return alg, elems


def traditional_limit_report():
    """Realize the Bargmann brackets through the boosts; one CheckRow per identity.

    Each row is one bracket of catalog("galilei_central"), realized in
    heisenberg3 by KG_i -> K_i, J_i -> J_i, P_i -> P_i, M -> m0*1 and
    H -> H2, so the boost-energy rows are cleared by 2*m0. Commutators are
    taken with the central element set to 1 and then specialized to c = 1;
    each row carries the exact residual element.
    """
    alg, elems = boost_elements()
    bargmann = catalog("galilei_central")
    m0 = Scalar.symbol("m0")
    # Bargmann generator -> (printed name, realized element)
    real = {"M": ("m0", m0 * UEAElement.unit(alg)), "H": ("2*m0*H", elems["H2"])}
    for a in AXES:
        real["KG" + a] = ("K" + a, elems["K" + a])
        real["J" + a] = ("J" + a, elems["J" + a])
        real["P" + a] = ("P" + a, UEAElement.gen(alg, "P" + a))
    pairs = ([("KG" + a, "KG" + b) for n, a in enumerate(AXES) for b in AXES[n + 1:]]
             + [("J" + a, "KG" + b) for a in AXES for b in AXES]
             + [("KG" + a, "P" + b) for a in AXES for b in AXES]
             + [("KG" + a, "H") for a in AXES])

    def finish(e):
        return scalar_substitute(substitute(e, {"Z": 1}), {"c": Scalar.one()})

    rows = []
    for a, b in pairs:
        clear = Scalar.from_int(2) * m0 if b == "H" else Scalar.one()
        terms = [(real[d], clear * coeff) for d, coeff in bargmann.bracket(a, b).items()]
        expected = sum((coeff * e for (_, e), coeff in terms), UEAElement.zero(alg))
        residue = finish(commutator(real[a][1], real[b][1]) - expected)
        name = "[%s, %s] = %s" % (real[a][0], real[b][0],
                                  format_sum((text, coeff) for (text, _), coeff in terms))
        rows.append(CheckRow(name, residue.is_zero(), residue))
    return tuple(rows)


# -- conceptual limit ----------------------------------------------------------

def standard_casimir_limits():
    """{label: (limit, automatic power)} for C1PE, C2PE, C4PE under STD_PE_MAP."""
    entries = casimir_entries("poincare_trivial_ext_hbar")
    return {
        label: contract_casimir(entries[label], STD_PE_MAP, "auto")
        for label in STD_PE_POWERS
    }


def conceptual_limit_check():
    """Contract the extended-algebra Casimirs and compare against the catalog.

    Returns LimitRow entries: the operator identities for the contracted
    C1/C2/C4, plus rest-frame label comparisons (P -> 0, energy -> w,
    central mass -> m, then m = w = m0).
    """
    return conceptual_limit_rows(standard_casimir_limits())


def conceptual_limit_rows(limits):
    """The LimitRows of conceptual_limit_check, from standard_casimir_limits()."""
    target = catalog("galilei_central")
    gal = casimir_entries("galilei_central")
    c1, p1 = limits["C1PE"]
    c2, p2 = limits["C2PE"]
    c4, p4 = limits["C4PE"]

    rows = []
    mass = UEAElement.gen(c1.algebra, "Mp")
    rows.append(LimitRow(
        "contracted C1 equals the central mass",
        p1 == STD_PE_POWERS["C1PE"] and c1 == mass,
        "power %d, result %s" % (p1, c1),
    ))
    rows.append(LimitRow(
        "contracted C2 equals contracted C1 squared",
        p2 == STD_PE_POWERS["C2PE"] and c2 == c1 * c1,
        "power %d, result %s" % (p2, c2),
    ))
    c4_renamed = rename_element(c4, target, STD_PE_RENAME)
    rows.append(LimitRow(
        "contracted C4 equals the Galilei quartic under renaming",
        p4 == STD_PE_POWERS["C4PE"] and c4_renamed == gal["C4G"],
        "power %d, %d normal-ordered terms" % (p4, c4.term_count()),
    ))

    m = Scalar.symbol("m")
    w = Scalar.symbol("w")
    m0 = Scalar.symbol("m0")
    at_m0 = {"m": m0, "w": m0}
    rest = {"Px": Scalar.zero(), "Py": Scalar.zero(), "Pz": Scalar.zero(),
            "H": w, "M": m}

    def rest_frame(e):
        return scalar_substitute(substitute(e, rest, formal=True), at_m0)

    hat2 = rest_frame(rename_element(c2, target, STD_PE_RENAME))
    cat2 = rest_frame(gal["C2G"])
    rows.append(LimitRow(
        "rest-frame labels of C2 agree at m = w = m0",
        hat2 == cat2,
        "contracted gives %s, catalog gives %s" % (hat2, cat2),
    ))
    hat4 = rest_frame(c4_renamed)
    cat4 = rest_frame(gal["C4G"])
    rows.append(LimitRow(
        "rest-frame labels of C4 agree at m = w = m0",
        hat4 == cat4,
        "both reduce to the squared-rotation form" if hat4 == cat4
        else "contracted gives %s, catalog gives %s" % (hat4, cat4),
    ))
    return tuple(rows)
