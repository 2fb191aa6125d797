"""Operator functionals on semi-Hilbertian spaces.

A positive-semidefinite metric A turns C^n into a semi-Hilbertian
space; this package computes the induced operator seminorm, numerical
radius and Crawford number, the metric adjoint and Cartesian
decomposition, and verifies a catalog of operator inequalities by
golden examples, seeded random ensembles and brute-force oracles.
"""

from . import errors
from .ensembles import (
    EnsembleConfig,
    random_a_normal,
    random_a_positive,
    random_a_unitary,
    random_commuting_family,
    random_in_BA,
    random_psd,
    random_space,
)
from .functionals import (
    RadiusResult,
    a_crawford,
    a_numerical_radius,
    crawford_number,
    numerical_radius,
    operator_a_norm,
    sampling_oracle,
    spectral_norm,
)
from .harness import FuzzReport, run_fuzz, replay
from .inequalities import (
    InequalityCatalogEntry,
    MarginReport,
    evaluate,
    get_entry,
    list_catalog,
)
from .numkernel import (
    hermitian_eig,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    real_spectrum_power,
)
from .space import (
    OperatorClassification,
    SemiHilbertSpace,
    build_space,
)

__version__ = "0.1.0"

__all__ = [
    "EnsembleConfig",
    "FuzzReport",
    "InequalityCatalogEntry",
    "MarginReport",
    "OperatorClassification",
    "RadiusResult",
    "SemiHilbertSpace",
    "a_crawford",
    "a_numerical_radius",
    "build_space",
    "crawford_number",
    "errors",
    "evaluate",
    "get_entry",
    "hermitian_eig",
    "list_catalog",
    "load_matrix",
    "matrix_from_json",
    "matrix_to_json",
    "numerical_radius",
    "operator_a_norm",
    "random_a_normal",
    "random_a_positive",
    "random_a_unitary",
    "random_commuting_family",
    "random_in_BA",
    "random_psd",
    "random_space",
    "real_spectrum_power",
    "replay",
    "run_fuzz",
    "sampling_oracle",
    "spectral_norm",
]
