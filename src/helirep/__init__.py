"""Finite-dimensional helicity-basis machinery for the Lorentz group."""

from helirep.clifford import (
    brauer_weyl,
    odd_direct_sum,
    schur_transpositions,
    verify_clifford,
    verify_tn_relations,
)
from helirep.core import CMatrix, GroupPoint, RepLabel
from helirep.gelfand_yaglom import (
    CoeffTable,
    RepChain,
    build_system,
    classify,
    dirac_system,
    gamma_similarity,
    system_from_config,
    system_to_config,
    verify_invariance,
)
from helirep.generators import (
    basis_change,
    commutator_report,
    gn_ops,
    helicity_ops,
    waerden_ops,
)
from helirep.halfint import HalfInt, half, lrange, mrange
from helirep.hyperspherical import (
    euler_product,
    fundamental_matrix,
    m_matrix,
    z_factorized,
    z_grid,
    z_matrix,
    z_series,
    z_series_grid,
)
from helirep.radial import (
    assemble_rfs,
    bessel_probe,
    convergence_order,
    integrate,
    residual,
)
from helirep.su2 import cg_su2, cg_su2_hyp
from helirep.suites import DEFAULT_TOLERANCES, SUITES, run_suite
from helirep.tensordec import (
    cg_series,
    coupled_vector,
    product_basis,
    total_operator,
)

__version__ = "0.1.0"

__all__ = [
    "CMatrix",
    "CoeffTable",
    "DEFAULT_TOLERANCES",
    "GroupPoint",
    "HalfInt",
    "RepChain",
    "RepLabel",
    "SUITES",
    "assemble_rfs",
    "basis_change",
    "bessel_probe",
    "brauer_weyl",
    "build_system",
    "cg_series",
    "cg_su2",
    "cg_su2_hyp",
    "classify",
    "commutator_report",
    "convergence_order",
    "coupled_vector",
    "dirac_system",
    "euler_product",
    "fundamental_matrix",
    "gamma_similarity",
    "gn_ops",
    "half",
    "helicity_ops",
    "integrate",
    "lrange",
    "m_matrix",
    "mrange",
    "odd_direct_sum",
    "product_basis",
    "residual",
    "run_suite",
    "schur_transpositions",
    "system_from_config",
    "system_to_config",
    "total_operator",
    "verify_clifford",
    "verify_invariance",
    "verify_tn_relations",
    "waerden_ops",
    "z_factorized",
    "z_grid",
    "z_matrix",
    "z_series",
    "z_series_grid",
]
