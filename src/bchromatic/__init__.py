"""Exact algorithms for b-colourings, tight b-colourings and fall
colourings, with class-specific polynomial solvers, brute-force oracles,
complexity classifiers for H-free classes, and hardness-instance
generators.

Every name below is imported from its module on first access (PEP 562), so
``import bchromatic`` loads no module and a command loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "graphs": "Colouring FallSpectrum Graph TightAnalysis analyze_tight co_components"
              " complete_join disjoint_union is_b_colouring is_fall_colouring"
              " is_tight_b_colouring m_degree",
    "matching": "Matching maximum_matching perfect_matching",
    "io": "Formula33",
    "oracles": "b_chromatic_number b_colouring_with chromatic_number fall_spectrum"
               " min_maximal_matching_size one_in_three_sat three_edge_colouring tight_b_exact",
    "patterns": "DichotomyVerdict Verdict classify contains_induced is_free"
                " is_induced_subgraph_of p3p1_decomposition pattern_graph",
    "tight": "PartialBColouring PartialViolation dense_partition extend_partial solve_tight"
             " tight_b_2p2p1_free validate_partial",
    "fall": "fall_uniqueness_report",
    "gadgets": "EDGE3COL_VARIANTS assignment_to_fall_colouring cobipartite_hardness_instance"
               " edge3col_instance edge_colouring_to_tight_bcolouring fall_gadget_union family"
               " one_in_three_graph verify_reduction",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # not cached in globals(): a name replaced on its module is seen here too
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
