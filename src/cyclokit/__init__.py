"""Exact arithmetic for cyclotomic polynomials, their modular inverses,
and subgroup decompositions of small finite fields."""

from .cyclotomic import (
    PrimePair,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    lam_leung_phi_pr,
    lam_leung_split,
    moebius,
    nontrivial_resultant,
    primes_upto,
    resultant_apostol,
)
from .finitefield import (
    ExtField,
    ExtFieldElement,
    make_ext_field,
    random_nonzero,
    torus_membership,
)
from .intpoly import (
    IntPoly,
    NotCoprimeError,
    ScaledPoly,
    divrem_exact,
    resultant,
    xgcd_rational,
)
from .inverses import (
    InverseReport,
    closed_form_i,
    closed_form_ii,
    closed_form_iii,
    closed_form_iv,
    difference_inverse,
    inverse_mod,
    verify_closed_forms,
)
from .torus import (
    BezoutExponents,
    KernelReport,
    TorusComponents,
    TorusMembershipError,
    TorusParams,
    composite_exponents,
    decompose,
    derive_exponent_polys,
    derive_params,
    kernel_annihilator,
    recombine,
    subfield_embed,
    subfield_extract,
    theta,
    theta_dimensions,
    theta_reverse,
)

__version__ = "0.1.0"
