"""Exact arithmetic on the Stern-Brocot family of trees.

The package enumerates the rationals through mediant trees and their
binary codings, evaluates the singular homeomorphisms (? and its
two-sided extension) exactly, iterates the six interval maps that
count the trees, applies transfer and Markov operators in closed
rational form, and simulates the associated random walks with a
counter-based deterministic generator.

Each public name below loads its module on first use (PEP 562), so
``import sternbrocot`` itself imports no submodule and no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = (
    ("core", (
        "CAPS", "UNSAFE_CAPS", "CapExceeded", "Caps", "DomainError", "ExtRat",
        "INF", "ONE", "ZERO", "canonicalize_cf", "cf_from_rat", "complement_cf",
        "depth", "format_cf", "mediant", "parse_cf", "phi", "phi_inv", "rank",
        "rat_from_cf")),
    ("coding", (
        "InfiniteCode", "children_cf", "code_compare", "hat", "matrix_from_word",
        "parents", "pi_code", "rat_from_word", "word_from_cf", "word_from_rat")),
    ("trees", ("TreeSpec", "descendants", "hyperbinary", "level", "level_arrays")),
    ("minkowski", (
        "BinaryWord", "Dyadic", "binary_word", "distribution_estimate",
        "fourier_tree_mean", "fourier_tree_means", "qmark", "qmark_enclosure",
        "qmark_inv", "rho", "rho_inv", "stieltjes_mean")),
    ("maps", (
        "StackInterval", "apply", "apply_inverse", "binary_digits",
        "conjugacy_residual", "eigenfunction_check", "ergodic_fourier",
        "ergodic_fourier_means", "inverse_branches", "odometer_value", "orbit", "orbit_iter",
        "stack_interval")),
    ("operators", (
        "averaging_apply", "commutator_residual", "h1", "harmonic_series_partial",
        "lewis_zagier_residual", "markov_apply", "markov_power", "transfer_apply",
        "transition_probs")),
    ("stochastic", (
        "ChainSpec", "HittingResult", "MartingaleReport", "WalkPath",
        "cylinder_prob", "hitting_experiment", "martingale_check",
        "mc0_limit_experiment", "simulate", "walk_table")),
)

__all__ = ["__version__", *(n for _, names in _EXPORTS for n in names)]


def __getattr__(name):
    for module, names in _EXPORTS:
        if name in names:
            value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
