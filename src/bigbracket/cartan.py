"""A derivation as the hamiltonian vector field {h, .} of one function.

Every field the commands use is hamiltonian: the double's differential
{theta, .}, the anchors of a BRST action (momentum-linear functions) and the
modular field of the sphere family.  So a field keeps its hamiltonian and
applies as the canonical bracket; there is no second calculus.
"""
from __future__ import annotations

from .brackets import canonical_bracket
from .poly import SuperPolynomial


class VectorField:
    """The derivation p -> {h, p} of a function h on a Darboux chart."""

    __slots__ = ("hamiltonian",)

    def __init__(self, hamiltonian: SuperPolynomial):
        self.hamiltonian = hamiltonian

    def apply(self, p: SuperPolynomial) -> SuperPolynomial:
        return canonical_bracket(self.hamiltonian, p)
