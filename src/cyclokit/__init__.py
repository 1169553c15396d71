"""Exact arithmetic for cyclotomic polynomials, their modular inverses,
and subgroup decompositions of small finite fields.

Each exported name, and each submodule named in ``_EXPORTS``, is imported on
first access, so importing one submodule loads only it and what it imports.
"""

from importlib import import_module

_EXPORTS = {  # exported name -> the submodule that defines it
    name: module
    for module, names in {
        "cyclotomic": "PrimePair divisors euler_phi factorize is_prime lam_leung_phi_pr lam_leung_split"
        " moebius nontrivial_resultant primes_upto resultant_apostol",
        "finitefield": "ExtField ExtFieldElement make_ext_field random_nonzero torus_membership",
        "intpoly": "IntPoly NotCoprimeError ScaledPoly divrem_exact resultant xgcd_rational",
        "inverses": "InverseReport closed_form_i closed_form_ii closed_form_iii closed_form_iv"
        " difference_inverse inverse_mod verify_closed_forms",
        "torus": "BezoutExponents KernelReport TorusComponents TorusMembershipError TorusParams"
        " composite_exponents decompose derive_exponent_polys derive_params kernel_annihilator"
        " recombine subfield_embed subfield_extract theta theta_dimensions theta_reverse",
    }.items()
    for name in names.split()
}
__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _EXPORTS.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
