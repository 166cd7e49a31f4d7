"""Exact combinatorics of non-crossing partitions, the two unshuffle
bialgebras built on them, and the moment-cumulant transforms of free
probability.

Every submodule below ``cli`` is registered lazily: it sits in
``sys.modules`` and is an attribute of this package from the start, but its
code runs only when one of its attributes is first read.  So a CLI command
pays only for the layers it touches.  The names this package exports are
read from their modules on access (PEP 562)."""

import importlib.util
import sys

_EXPORTS = {
    "coefficients": ("Coefficient", "Poly", "coeff_str", "poly_str"),
    "errors": (
        "AlgebraMismatchError",
        "CarrierMismatchError",
        "InconsistencyError",
        "NcHopfError",
        "OrderError",
        "ParseError",
        "SizeLimitError",
        "TruncationError",
    ),
    "functionals": (
        "Algebra",
        "Character",
        "InfinitesimalCharacter",
        "LinearFunctional",
        "augmentation",
        "check_character",
        "check_infinitesimal",
        "convolve",
        "exp_prec",
        "extract_infinitesimal",
        "half_convolve",
        "pullback_sp",
        "random_functional",
        "random_infinitesimal",
        "solve_left_fixed_point",
        "standard_section",
    ),
    "partitions": (
        "NonCrossingPartition",
        "SetPartition",
        "admissible_splits",
        "bell_number",
        "catalan_number",
        "enumerate_nc_partitions",
        "enumerate_set_partitions",
        "full_partition",
        "is_noncrossing",
        "moebius",
        "moebius_to_top",
        "parse_partition",
        "standardize",
    ),
    "tensor": (
        "UNIT",
        "DecoratedNC",
        "Word",
        "barword_text",
        "delta_bar",
        "delta_nc",
        "delta_word",
        "parse_atom",
        "parse_word",
        "sp",
        "tensor_text",
    ),
    "transforms": (
        "CumulantSequence",
        "MomentSequence",
        "MultiCumulantMap",
        "MultiMomentMap",
        "bell_polynomials",
        "classical_cumulants_from_moments",
        "classical_moments_from_cumulants",
        "free_cumulants_from_moments",
        "free_moments_from_cumulants",
        "generalized_free_cumulants",
        "kappa_powers",
        "symbolic_cumulants",
        "symbolic_moments",
    ),
    "trees": (
        "admissible_edge_cuts",
        "hierarchy_tree",
        "parse_tree",
        "tree_coproduct",
        "tree_degree",
        "tree_text",
    ),
    "verify": ("SuiteReport", "run_suite"),
}

# exported name -> the submodule that defines it
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted([*_ORIGIN, "clear_caches"])
__version__ = "0.1.0"


def _register_lazily(name: str):
    """Put submodule ``name`` in ``sys.modules`` and on this package without
    running it; its first attribute read runs it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    globals()[name] = module


# ``cli`` is left out: ``python -m nc_hopf.cli`` must find it unimported
_LAYERS = ("errors", "config", "coefficients", "partitions", "tensor",
           "functionals", "transforms", "trees", "verify")
for _name in _LAYERS:
    _register_lazily(_name)
del _name


def clear_caches() -> None:
    """Empty every ``lru_cache`` of the layer modules.  It runs every layer
    module.

    Each cache keyed by caller input keeps its least recently used entries
    up to a bound set at the largest working set measured on the verify
    suites at their ceilings: ``split_table`` and ``admissible_splits``
    8,192 shapes (all 6,917 NC shapes with n <= 9, read by keyrell and
    tree-consistency), ``delta_nc_halves`` 65,536 decorated atoms
    (sp-morphism reads 64,978), ``delta_bar`` 16,384 bar words (unshuffle
    reads 36,478 and recomputes 1,538) and ``admissible_edge_cuts`` 1,024
    trees (tree-consistency reads 539).  ``delta_word_halves`` keeps 2,048
    words of at most 6 letters, which coassociativity and the hopf
    benchmark read again across requests (all 1,092 over three letters),
    and 16 longer words, which hold 2ⁿ terms each and are read again
    mostly within one request.  NC(n) and the transforms' block-type
    tables hold one entry per order up to the cap, and NC(n) near the cap
    is large (NC(14) is 2,674,440 partitions), so a long-lived process
    that reached it calls this to free them; ``verify all`` calls it after
    each suite."""
    for name in _LAYERS:
        for value in vars(globals()[name]).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def __getattr__(name: str):
    if name in _ORIGIN:
        return getattr(globals()[_ORIGIN[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ORIGIN})
