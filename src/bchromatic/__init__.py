"""Exact algorithms for b-colourings, tight b-colourings and fall
colourings, with class-specific polynomial solvers, brute-force oracles,
complexity classifiers for H-free classes, and hardness-instance
generators."""

__version__ = "0.1.0"

from .graphs import (Colouring, Graph, TightAnalysis, analyze_tight,
                     co_components, complete_join, disjoint_union,
                     is_b_colouring, is_fall_colouring, is_tight_b_colouring,
                     m_degree)
from .matching import Matching, maximum_matching, perfect_matching
from .oracles import (FallSpectrum, Formula33, b_chromatic_number,
                      b_colouring_with, chromatic_number, fall_spectrum,
                      min_maximal_matching_size, one_in_three_sat,
                      three_edge_colouring, tight_b_exact)
from .patterns import (DichotomyVerdict, Verdict, classify,
                       contains_induced, is_free, is_induced_subgraph_of,
                       p3p1_decomposition, pattern_graph)
from .tight import (PartialBColouring, PartialViolation, dense_partition,
                    extend_partial, solve_tight, tight_b_2p2p1_free,
                    validate_partial)
from .fall import fall_uniqueness_report
from .gadgets import (EDGE3COL_VARIANTS, assignment_to_fall_colouring,
                      cobipartite_hardness_instance, edge3col_instance,
                      edge_colouring_to_tight_bcolouring, fall_gadget_union,
                      family, one_in_three_graph, verify_reduction)
