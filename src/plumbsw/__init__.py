"""Exact invariants of negative definite plumbed 3-manifolds.

From a plumbing tree with rational homology sphere link the package
computes the multivariable topological Poincare series and the normalized
Seiberg-Witten invariants by three independent routes (duality counting,
polynomial part, lattice point counting), cross-verifying them.  All
arithmetic is exact.
"""
from .graph import (GraphFormatError, PlumbingGraph, classify_vertices,
                    parse_graph, validate)
from .lattice import (HClass, LatticeError, all_classes, canonical_cycle,
                      class_of, e_star, intersection_data, iter_classes, l_top,
                      pairing)
from .series import (Box, Cobox, FactoredRatFunc, RatFunc, TruncatedSeries,
                     WindowError, coeff, equivariant_split, reduce, taylor,
                     taylor_infinity, zeta)
from .counting import Q, inclusion_exclusion_check, q
from .decomp import (Decomposition, euclid_divide, evaluate_at_one,
                     polypart_dual)
from .polytopes import (InapplicableError, PolytopeQuery, count, sw_via_lattice,
                        sw_via_topological_polytope)
from .swcore import (QuadraticReport, quadratic_check, sw_norm_via_duality,
                     sw_norm_via_polypart, sw_raw, sw_report)

__all__ = [name for name in dir() if not name.startswith("_")]
