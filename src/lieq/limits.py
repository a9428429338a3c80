"""The paper's limit claims: nonrelativistic magnitudes as limits of relativistic ones.

Conceptual limit: contract the Casimirs of the trivially extended Poincare
algebra (shifted-energy basis) under STD_PE_MAP and compare them with the
centrally extended Galilei catalog, as operators and by rest-frame labels.
standard_casimir_limits computes those contractions once for every consumer.

Traditional limit: the boosts act on a quantum particle through
K_i = m0*c^2*X_i - c*t*P_i together with the orbital rotations
J_i = eps_ijk X_j P_k, all inside the enveloping algebra of the
three-dimensional canonical pairs with the central element set to 1.
Scalars here are polynomial in m0, so the energy identity is checked in
cleared form: with 2*m0*H = 2*m0^2*c^2 + P.P the claim [K_i, H] = i*P_i
(at c = 1) becomes [K_i, 2*m0*H] = 2*i*m0*P_i.
"""

from collections import namedtuple

from lieq.casimirs import casimir_entries
from lieq.catalog import AXES, catalog, eps3
from lieq.contraction import STD_PE_MAP, STD_PE_POWERS, STD_PE_RENAME, contract_casimir
from lieq.scalars import Scalar
from lieq.uea import UEAElement, commutator, rename_element, scalar_substitute, substitute

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
        elems["K" + a] = (
            m0c2 * UEAElement.gen(alg, "X" + a) - ct * UEAElement.gen(alg, "P" + a)
        )
    for i in AXES:
        j_i = UEAElement.zero(alg)
        for j in AXES:
            for k in AXES:
                sign = eps3(i, j, k)
                if sign:
                    j_i = j_i + Scalar.from_int(sign) * UEAElement.word(
                        alg, ("X" + j, "P" + k)
                    )
        elems["J" + i] = j_i
    psq = UEAElement.zero(alg)
    for a in AXES:
        psq = psq + UEAElement.word(alg, ("P" + a, "P" + a))
    elems["H2"] = (
        (Scalar.from_int(2) * Scalar.symbol("m0", 2) * Scalar.symbol("c", 2))
        * UEAElement.unit(alg)
        + psq
    )
    return alg, elems


def traditional_limit_report():
    """Verify the low-velocity boost brackets; one CheckRow per identity.

    All commutators are taken with the central element set to 1 and then
    specialized to c = 1; each row carries the exact residual element.
    """
    alg, elems = boost_elements()
    unit = UEAElement.unit(alg)
    i_s = Scalar.i()

    def finish(e):
        return scalar_substitute(substitute(e, {"Z": 1}), {"c": Scalar.one()})

    rows = []

    def check(name, lhs, rhs):
        residue = finish(lhs) - finish(rhs)
        rows.append(CheckRow(name, residue.is_zero(), residue))

    for n, i in enumerate(AXES):
        for j in AXES[n + 1:]:
            check("[K%s, K%s] = 0" % (i, j),
                  commutator(elems["K" + i], elems["K" + j]),
                  UEAElement.zero(alg))
    for i in AXES:
        for j in AXES:
            expected = UEAElement.zero(alg)
            label = "0"
            for k in AXES:
                sign = eps3(i, j, k)
                if sign:
                    expected = (i_s * Scalar.from_int(sign)) * elems["K" + k]
                    label = ("i*K%s" if sign > 0 else "-i*K%s") % k
            check("[J%s, K%s] = %s" % (i, j, label),
                  commutator(elems["J" + i], elems["K" + j]),
                  expected)
    for i in AXES:
        for j in AXES:
            diagonal = i == j
            expected = (i_s * Scalar.symbol("m0")) * unit if diagonal else UEAElement.zero(alg)
            check("[K%s, P%s] = %s" % (i, j, "i*m0" if diagonal else "0"),
                  commutator(elems["K" + i], UEAElement.gen(alg, "P" + j)),
                  expected)
    for i in AXES:
        expected = (Scalar.from_int(2) * i_s * Scalar.symbol("m0")) * UEAElement.gen(alg, "P" + i)
        check("[K%s, 2*m0*H] = 2*i*m0*P%s" % (i, i),
              commutator(elems["K" + i], elems["H2"]),
              expected)
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
