"""Exact invariants of negative definite plumbed 3-manifolds.

From a plumbing tree with rational homology sphere link the package
computes the multivariable topological Poincare series and the normalized
Seiberg-Witten invariants by three independent routes (duality counting,
polynomial part, lattice point counting), cross-verifying them.  All
arithmetic is exact.

Every submodule is registered at import, in ``sys.modules`` and on the
package, but is compiled and executed only when one of its attributes is
first read (``importlib.util.LazyLoader``).  Most commands are short
processes, and one that reads no route module, such as
``plumbsw invariants``, compiles only ``cli``, ``graph`` and ``lattice``.
Registering rather than importing on demand keeps ``plumbsw.<module>``
in ``sys.modules`` from the start, for code that looks a module up there.
The names below are read from their modules on first use (PEP 562), so
``from plumbsw import *`` executes every module it names.
"""
import importlib.util
import sys

_EXPORTS = {
    "graph": ("GraphFormatError", "PlumbingGraph", "classify_vertices",
              "parse_graph", "validate"),
    "lattice": ("HClass", "LatticeError", "all_classes", "canonical_cycle",
                "class_of", "e_star", "intersection_data", "iter_classes",
                "l_top", "pairing"),
    "series": ("Box", "Cobox", "FactoredRatFunc", "RatFunc", "TruncatedSeries",
               "WindowError", "coeff", "equivariant_split", "reduce", "taylor",
               "taylor_infinity", "zeta"),
    "counting": ("Q", "inclusion_exclusion_check", "q"),
    "decomp": ("Decomposition", "euclid_divide", "evaluate_at_one",
               "polypart_dual"),
    "polytopes": ("InapplicableError", "PolytopeQuery", "count", "sw_via_lattice",
                  "sw_via_topological_polytope"),
    "swcore": ("QuadraticReport", "quadratic_check", "sw_norm_via_duality",
               "sw_norm_via_polypart", "sw_raw", "sw_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [
    "Box", "Cobox", "Decomposition", "FactoredRatFunc", "GraphFormatError",
    "HClass", "InapplicableError", "LatticeError", "PlumbingGraph",
    "PolytopeQuery", "Q", "QuadraticReport", "RatFunc", "TruncatedSeries",
    "WindowError", "all_classes", "canonical_cycle", "class_of",
    "classify_vertices", "coeff", "count", "counting", "decomp", "e_star",
    "equivariant_split", "euclid_divide", "evaluate_at_one", "graph",
    "inclusion_exclusion_check", "intersection_data", "iter_classes", "l_top",
    "lattice", "pairing", "parse_graph", "polypart_dual", "polytopes", "q",
    "quadratic_check", "reduce", "series", "sw_norm_via_duality",
    "sw_norm_via_polypart", "sw_raw", "sw_report", "sw_via_lattice",
    "sw_via_topological_polytope", "swcore", "taylor", "taylor_infinity",
    "validate", "zeta",
]


def _register(module: str):
    """Put the submodule into ``sys.modules`` unexecuted: the recipe of the
    ``importlib`` docs, "Implementing lazy imports"."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    loader.exec_module(lazy)
    return lazy


for _module in _EXPORTS:
    globals()[_module] = _register(_module)
del _module


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)
