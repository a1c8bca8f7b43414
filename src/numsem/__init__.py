"""Numerical semigroup enumeration under required-generator and
forbidden-element constraints, and the induced partition hitting-set
solver.

Public surface:
  * value types and primitives (:mod:`numsem.core`),
  * irreducible enumeration with fixed Frobenius number
    (:mod:`numsem.irreducible`),
  * all semigroups with fixed Frobenius number (:mod:`numsem.classes`),
  * maximal avoiders of a forbidden set (:mod:`numsem.maxavoid`),
  * the hitting-set solver and its checkers (:mod:`numsem.frontier`),
  * brute-force references for differential testing (:mod:`numsem.oracle`).
"""

from .core import (
    AperyVector,
    FULL_SEMIGROUP,
    NumericalSemigroup,
    Submonoid,
    apery,
    apery_vector,
    avoids_genset,
    contains_genset,
    intersect,
    minimal_generating_set,
    normalize_genset,
    semigroup_from_apery_vector,
)
from .classes import (
    FrobeniusClass,
    class_minimum,
    closure_trace,
    enumerate_with_frobenius,
    frobenius_class,
    trace_family,
)
from .frontier import check_solution, is_minimal_solution, solve
from .irreducible import (
    IrreducibleContext,
    children,
    enumerate_irreducibles,
    irreducible_closure,
    is_irreducible,
    make_context,
    min_free_generator,
    parent,
    root_irreducible,
)
from .maxavoid import (
    AvoidanceProblem,
    irreducible_vectors,
    make_problem,
    maximal_avoiding,
    pareto_minimal,
)

__all__ = [
    "AperyVector",
    "AvoidanceProblem",
    "FULL_SEMIGROUP",
    "FrobeniusClass",
    "IrreducibleContext",
    "NumericalSemigroup",
    "Submonoid",
    "apery",
    "apery_vector",
    "avoids_genset",
    "check_solution",
    "children",
    "class_minimum",
    "closure_trace",
    "contains_genset",
    "enumerate_irreducibles",
    "enumerate_with_frobenius",
    "frobenius_class",
    "intersect",
    "irreducible_closure",
    "irreducible_vectors",
    "is_irreducible",
    "is_minimal_solution",
    "make_context",
    "make_problem",
    "maximal_avoiding",
    "min_free_generator",
    "minimal_generating_set",
    "normalize_genset",
    "parent",
    "pareto_minimal",
    "root_irreducible",
    "semigroup_from_apery_vector",
    "solve",
    "trace_family",
]

__version__ = "0.1.0"
