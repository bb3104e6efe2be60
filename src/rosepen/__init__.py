"""Fiedler-like pencils for Rosenbrock system polynomials.

Construct trimmed structured linearizations of LTI systems in state-space
form, certify them by explicit unimodular system equivalence, and solve
rational eigenvalue problems by the realize -> linearize -> solve route,
classifying every computed zero as an eigenvalue or an eigenpole.
"""

from ._linalg import EXACT, FLOAT
from .eigen import (
    GepResult,
    PoleEntry,
    ZeroEntry,
    ZeroReport,
    classify_zeros,
    eig_eip_split,
    pencil_determinant,
    solve_gep,
    solve_rep,
)
from .equivalence import (
    AuxMatrix,
    CertificateError,
    EquivalenceCertificate,
    aux_block_transpose,
    aux_matrix,
    aux_relations_check,
    build_certificate,
    intermediate_pencil,
    verify_rosenbrock_linearization,
)
from .fiedler import (
    CISS,
    Bijection,
    FiedlerFactor,
    SystemPencil,
    ciss,
    commutation_check,
    factor_inverse,
    first_companion,
    is_block_pentadiagonal,
    make_factor,
    pencil_algorithm1,
    pencil_block_formula,
    pencil_direct,
    second_companion,
    system_block_transpose,
)
from .polymat import (
    Poly,
    PolyMatrix,
    RationalFn,
    RationalMatrix,
    SmithForm,
    SmithMcMillanForm,
    block_transpose,
    gcd_free_base,
    horner_shift,
    multiplicity_index,
    poly_gcd,
    poly_matrix_det,
    poly_matrix_eval,
    smith_form,
    smith_form_with_transforms,
    smith_mcmillan,
    zero_pole_polys,
)
from .system import (
    DecouplingReport,
    MinimalityResult,
    RepSpec,
    RepTerm,
    RosenbrockSystem,
    SingularStateError,
    assemble_system_matrix,
    decoupling_zeros,
    is_minimal,
    realize,
    rep_spec_matrix,
    state_pencil,
    transfer_function,
)

__version__ = "0.1.0"
