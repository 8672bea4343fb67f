"""Exact arithmetic for generalized binomial triangles and pyramids, with
bounded classifiers for the divisibility hierarchy of integer sequences.

The package loads its submodules on first use (PEP 562): `_EXPORTS` maps
each submodule to the public names it gives the package, and a module
`__getattr__` imports the submodule when one of its names, or the
submodule itself, is first read. A name is looked up again on every
access and never stored here, so `binomid.X is binomid.<module>.X` holds
even after the module's attribute is replaced. `import binomid` alone
loads no submodule.
"""

import importlib

# submodule -> the public names the package takes from it; this is also each
# submodule's `__all__`, so the table must exist before any submodule runs,
# and this module imports none of them
_EXPORTS = {
    "classify": (
        "FAILS", "HOLDS", "ClassificationReport", "DivisorProductProfile",
        "PerPrimeDecomposition", "ProfileCriterion", "additive_binomid_check",
        "battery", "divisor_product_profile", "is_binomid",
        "is_binomid_at_level", "is_binomid_every_level", "is_divisible",
        "is_divisor_chain", "is_divisor_product", "is_dual_gcd",
        "is_gcd_sequence", "is_homomorphic", "is_multiplicative",
        "mobius_invert", "per_prime_decomposition"),
    "core": (
        "ExactRational", "Pyramid", "Triangle", "col_seq", "fbinom",
        "fbinom_values", "ffactorial", "pyramid", "row_seq", "triangle"),
    "errors": (
        "InternalCheckError", "NonIntegralEntryError", "SequenceError",
        "UndefinedTermError", "ZeroTermError"),
    "numtheory": (
        "CyclotomicPoly", "cyclotomic", "cyclotomic_eval", "divisors",
        "euler_phi", "is_prime", "mobius", "prime_power_base", "primes_up_to",
        "valuation"),
    "sequences": (
        "Sequence", "compose_power", "const_seq", "divisor_product_of",
        "double_terms", "factorial_seq", "fibonacci", "from_list", "g_ab",
        "h_m", "identity_seq", "interleave_ones", "lucas", "pascal_column",
        "pascal_row", "power_seq", "prepend_one", "product", "scalar",
        "triangular_seq"),
    "verify": (
        "CheckResult", "ExponentVector", "check_delta_pattern",
        "check_determinant_identity", "check_hm_identity",
        "check_recurrence_step", "check_slice_identity", "check_symmetry",
        "check_window_minimality", "delta", "generic_factorial_exponents",
        "generic_pyramid_entry"),
}

# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
