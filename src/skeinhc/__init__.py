"""Exact computations for a two-color skein theory.

Subpackages: scalars (exact Q(i)(q) and cyclotomic arithmetic),
combinatorics (Young-diagram path counting and dimension oracles),
hecke_clifford (normal forms in the strand algebras and their even parts),
skein (diagram words, straightening, bending), trace_gram (Markov trace,
Gram matrices and ranks), verify (named invariant suites), cli (the
batch command-line interface), records (the small value classes).
"""

from importlib import import_module

# Each re-export is imported from its module on first access, so that a
# command loads only the modules it runs (the CLI's gram on +++ needs
# neither the skein layer nor the verify suites).
_EXPORTS = {
    "errors": ("ConsistencyError", "DomainError", "ParityError", "PoleError"),
    "scalars": ("CyclotomicField", "CyclotomicValue", "QIQ", "ScalarQ",
                "loop_value", "parse_scalar", "specialize"),
    "combinatorics": ("count_pair_tableaux", "count_paths_double_young",
                      "count_standard_tableaux", "decompose_object",
                      "dim_end_oracle", "dim_hom_formula"),
    "hecke_clifford": ("AlgebraElement", "antisymmetrizer", "e_element",
                       "identity_element", "multiply", "normalize", "t_element",
                       "theta"),
    "skein": ("HomElement", "evaluate", "g_projection", "identity_hom",
              "parse_diagram_word", "straighten"),
    "trace_gram": ("GramReport", "categorical_trace", "gram_matrix", "gram_rank",
                   "markov_trace"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


__all__ = [*_MODULE_OF]

__version__ = "0.1.0"
