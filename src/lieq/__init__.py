"""lieq: exact symbolic engine for kinematical Lie algebras.

Structure-constant tables over an exact Gaussian-rational Laurent-polynomial
ring, PBW normal ordering in the universal enveloping algebra, Casimir
verification, generalized Inonu-Wigner contraction, and the physical
observable/label layer — with a CLI front end (``lieq``).

The package attribute ``lieq.catalog`` is the re-exported function, which
shadows the submodule of that name: ``import lieq.catalog as m`` binds the
function.  Import the module's names with ``from lieq.catalog import ...``.
"""

from lieq.algebra import AlgebraError, InvalidCocycle, LieAlgebra
from lieq.casimirs import (
    casimir_catalog,
    casimir_entries,
    casimir_variant,
    ordering_study,
)
from lieq.catalog import CATALOG_NAMES, algebra_from_json, catalog
from lieq.contraction import (
    ContractionError,
    DivergentContraction,
    DivergentLimit,
    ZeroLimitWarning,
    contract,
    contract_casimir,
    rescale_algebra,
    rescale_element,
    tables_equal,
)
from lieq.expr import ExprError, parse_element, parse_scalar
from lieq.limits import boost_elements, conceptual_limit_check, traditional_limit_report
from lieq.mhi import MHIError, actual_valued_observables, n_particle_labels
from lieq.report import report_paper
from lieq.scalars import Scalar, ScalarError
from lieq.uea import (
    TermBudgetExceeded,
    UEAElement,
    UEAError,
    commutator,
    is_casimir,
    normal_form,
    rename_element,
    scalar_substitute,
    substitute,
    weyl_symmetrize,
    weyl_word,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "InvalidCocycle",
    "LieAlgebra",
    "casimir_catalog",
    "casimir_entries",
    "casimir_variant",
    "ordering_study",
    "CATALOG_NAMES",
    "algebra_from_json",
    "catalog",
    "ContractionError",
    "DivergentContraction",
    "DivergentLimit",
    "ZeroLimitWarning",
    "conceptual_limit_check",
    "contract",
    "contract_casimir",
    "rescale_algebra",
    "rescale_element",
    "tables_equal",
    "ExprError",
    "parse_element",
    "parse_scalar",
    "boost_elements",
    "traditional_limit_report",
    "MHIError",
    "actual_valued_observables",
    "n_particle_labels",
    "report_paper",
    "Scalar",
    "ScalarError",
    "TermBudgetExceeded",
    "UEAElement",
    "UEAError",
    "commutator",
    "is_casimir",
    "normal_form",
    "rename_element",
    "scalar_substitute",
    "substitute",
    "weyl_symmetrize",
    "weyl_word",
    "__version__",
]
