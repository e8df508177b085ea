"""Freeness of rings of integers in tame prime-degree radical extensions
over the associated order of the unique Hopf-Galois structure."""

from .basefield import (
    BaseField,
    KElem,
    KIdeal,
    PrimeIdeal,
    ClassGroup,
    class_group,
    factor_ideal,
    ideal_valuation,
    element_valuation,
    is_principal,
    split_prime,
    unit_reps_mod_p,
)
from .extension import RadicandContext, LElem
from .radical import (
    AssociatedIdeals,
    TamenessVerdict,
    associated_ideals,
    i_part_decomposition,
    ramification_type,
    tameness_test,
)
from .integral import (
    LocalIntegralBasis,
    global_integral_basis,
    local_basis,
)
from .dedekind import dedekind_maximality_oracle
from .hopf import (
    HElem,
    CyclotomicElem,
    act,
    class_of_MOL,
    eta_coefficients,
    in_associated_order,
    in_associated_order_by_eta,
    in_maximal_order,
    local_generator,
)
from .freeness import (
    FreenessCertificate,
    criterion_check,
    verify_generator,
)
from .report import analyze, verify_report

__version__ = "0.1.0"
