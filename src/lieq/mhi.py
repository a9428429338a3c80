"""Observable descriptors: Casimirs with their eigenvalue labels, n-particle counting.

Each supported group gets a descriptor listing its Casimir operators next
to the observable they realize and the eigenvalue label that observable
carries on an irreducible state family (mass m or m0, internal energy w,
spin s, charge e).  This module keeps only the per-label observable table
and the list of supported groups; the rows follow the group's Casimir
catalog (lieq.casimirs), the one registry of groups and labels.

Square roots appearing in the n-particle observables stay symbolic strings;
the enveloping algebra itself has no roots, and the division hiding in
"W = C2/M" likewise lives only at the label level.
"""

from collections import namedtuple

from lieq.casimirs import casimir_catalog
from lieq.scalars import Scalar

__all__ = [
    "MHIError",
    "MHI_GROUPS",
    "DescriptorRow",
    "GroupDescriptor",
    "ObservableLabel",
    "NParticleLabels",
    "actual_valued_observables",
    "n_particle_labels",
]


class MHIError(ValueError):
    """Unknown group or invalid particle count."""


DescriptorRow = namedtuple(
    "DescriptorRow", ["casimir", "element", "observable", "eigenvalue", "key"]
)


class GroupDescriptor(namedtuple("GroupDescriptor", ["group", "rows"])):
    """Casimir/observable/eigenvalue rows for one catalog group."""

    def observables(self):
        """Distinct observable keys, first-appearance order."""
        seen = []
        for row in self.rows:
            if row.key not in seen:
                seen.append(row.key)
        return tuple(seen)


ObservableLabel = namedtuple("ObservableLabel", ["name", "operator", "label"])


class NParticleLabels(
    namedtuple("NParticleLabels", ["n", "mass", "spin", "charge", "number", "note"])
):
    """Labeled observables of a free n-particle state."""

    @property
    def particle_number(self):
        return self.number.label


# Observable realized by each Casimir label: (observable, eigenvalue,
# observable key).  Which group carries which labels, and the elements
# themselves, come from the Casimir catalog.
_OBSERVABLES = {
    "C1G": ("M", "m", "M"),
    "C2G": ("m*W", "m*w", "W"),
    "C4G": ("m^2*S^2", "m^2*s*(s+1)", "S2"),
    "C1PE": ("M", "m0", "M"),
    "C2PE": ("M^2", "m0^2", "M"),
    "C4PE": ("m0^2*S^2", "m0^2*s*(s+1)", "S2"),
    "C1U": ("Q", "e", "Q"),
}

MHI_GROUPS = ("galilei_central", "poincare_trivial_ext", "u1",
              "full_nonrelativistic", "full_relativistic")

_CHARGE_NOTE = (
    "mass scales with the particle number through the explicit N factor, "
    "while charge is listed as plain Q without an N; the asymmetry is "
    "preserved as given"
)


def actual_valued_observables(group):
    """Descriptor of the group's actual-valued observables, in catalog order."""
    if group not in MHI_GROUPS:
        raise MHIError("unknown group %r (known: %s)" % (group, ", ".join(MHI_GROUPS)))
    rows = tuple(
        DescriptorRow(entry.label, entry.element, *_OBSERVABLES[entry.label])
        for entry in casimir_catalog(group)
    )
    return GroupDescriptor(group, rows)


def n_particle_labels(n):
    """Labeled observables of n non-interacting identical particles.

    The mass observable carries an explicit particle-number factor, so its
    label is additive: n * m0.  States enter only through the integer n.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MHIError("particle number must be a positive integer, got %r" % (n,))
    mass = ObservableLabel(
        "Mass", "(C2PE)^(1/2)*N", Scalar.from_int(n) * Scalar.symbol("m0")
    )
    spin = ObservableLabel("Spin", "(C4PE)^(1/2)", "s")
    charge = ObservableLabel("Charge", "Q", "e")
    number = ObservableLabel("ParticleNumber", "N", n)
    return NParticleLabels(n, mass, spin, charge, number, _CHARGE_NOTE)
