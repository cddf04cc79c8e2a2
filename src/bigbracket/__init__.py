"""Exact engine for graded symplectic structure data: canonical brackets on
Darboux supercharts, anchored-bundle hamiltonians and their doubles, derived
Courant products with their full identity suite, and the sphere-family
Poisson cohomology computed by finite exact linear algebra.

A Courant structure is a cubic hamiltonian theta and its bracket the derived
bracket {{theta, a}, b}; the package holds what the command-line gates built
on these two constructions use.  Every vector field is hamiltonian, the
canonical bracket {h, .} of one function.  Independent routes to the same
objects (vector fields as component maps, the Cartan calculus, Schouten
brackets and hamiltonian lifts) are test oracles."""

from .chart import Chart, DarbouxChart, GradedVariable, cotangent_chart, darboux_chart
from .poly import SuperPolynomial
from .rationals import GaussianRational
from .parsing import parse_poly
from .brackets import canonical_bracket, derived_bracket, legendre
from .cartan import VectorField

__all__ = [
    "Chart", "DarbouxChart", "GradedVariable", "SuperPolynomial",
    "GaussianRational", "parse_poly", "canonical_bracket", "derived_bracket",
    "legendre", "VectorField", "cotangent_chart", "darboux_chart",
]
