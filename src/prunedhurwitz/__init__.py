"""Exact double, pruned double and modified pruned double Hurwitz numbers.

All values are exact rationals.  The double Hurwitz numbers come from
the characters of the symmetric group (Frobenius' formula with
Murnaghan-Nakayama characters, made connected by inclusion-exclusion);
the pruned and modified pruned numbers from the full counts of a
layered enumeration by coloured cycle type, by inclusion-exclusion
over the leaves.  The two share no code, so the pruned-core
reconstruction of the full numbers compares two evaluators; a
cut-and-join recursion for the pruned numbers and piecewise-polynomial
scaling behaviour are checked as well.
"""

import importlib

__version__ = "0.1.0"

# Public name -> submodule.  The names are imported on first access
# (PEP 562), so importing the package, or one submodule through it,
# loads only what that use needs.
_EXPORTS = {
    "automorphism_factor": "combinatorics",
    "centralizer_order": "combinatorics",
    "is_wall_point": "combinatorics",
    "RecursionReport": "cutjoin",
    "RecursionTerm": "cutjoin",
    "cut_and_join_terms": "cutjoin",
    "verify_recursion": "cutjoin",
    "count_factorizations": "factorizations",
    "count_isomorphism_classes": "factorizations",
    "RootedForest": "forests",
    "count_forests_with_degrees": "forests",
    "enumerate_rooted_forests": "forests",
    "Conventions": "hurwitz",
    "HurwitzEngine": "hurwitz",
    "Kind": "hurwitz",
    "degree_bound": "polynomiality",
    "finite_difference_degree": "polynomiality",
    "fit_univariate": "polynomiality",
    "scaling_values": "polynomiality",
    "reconstruct_double_hurwitz": "reconstruction",
    "reconstruct_via_forests": "reconstruction",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
