"""Convex cones of positive semidefinite matrices with prescribed zeros.

Factor parametrizations over simplicial complexes, exact membership tests
for chordal graphs and chordless cycles, fiber solvers, Schur-complement
quotients, Monte Carlo cone volumes, and Gaussian latent-variable models.

Importing the package loads no submodule: each public name and each
submodule is imported the first time it is looked up here (PEP 562).
"""

import importlib

# the public names, by the submodule that defines them
_PUBLIC = {
    "chordal": ("EliminationOrdering", "chordal_fiber", "clique_complex", "is_chordal",
                "is_surjective"),
    "core": ("FactorMatrix", "FactorParams", "Graph", "SimplicialComplex", "SymmetricMatrix",
             "cycle_graph", "edge_complex", "induced_subcomplex", "underlying_graph"),
    "cycle": ("CycleFiber", "CycleMatrix", "MembershipVerdict", "counterexample_det",
              "counterexample_sigma", "cycle_edge_complex", "cycle_fiber", "cycle_membership",
              "matching_sum", "quartic_coefficients"),
    "decide": ("Decision", "membership"),
    "latent": ("LatentSystem", "build_digraph", "conditional_precision",
               "covariance_identity", "simulate_y"),
    "linalg": ("is_psd", "schur_complement", "sign_flip"),
    "param": ("RankOneTerm", "build_factor_matrix", "cone_add", "extreme_decomposition", "phi",
              "submatrix_witness"),
    "quotient": ("QuotientWitness", "complex_quotient", "graph_quotient", "schur_witness"),
    "volume": ("VolumeEstimate", "estimate_volume", "volume_table"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = frozenset(_PUBLIC) | {"cli", "errors", "instances", "selftest"}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name, owner=__name__):
    """A public name or submodule, bound here; any other name raises, naming owner."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {owner!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | _SUBMODULES)
