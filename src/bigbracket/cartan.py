"""Vector fields as explicit component maps.

A vector field stores the coefficient polynomial of each coordinate
derivation; applying it to a function is an operation, and the
supercommutator of two fields is again a component map.  The double's
differential {theta, .}, the anchors of a BRST action and the modular field
of the sphere family are such fields.
"""
from __future__ import annotations

from .chart import Chart, ChartError, EVEN
from .poly import SuperPolynomial


class VectorField:
    """Derivation X = sum c^A(x) d/dx^A with left coefficients."""

    __slots__ = ("chart", "components", "parity")

    def __init__(self, chart: Chart, components, parity=None):
        self.chart = chart
        comps = {}
        for key, poly in components.items():
            var = chart.var(key) if isinstance(key, str) else key
            if not isinstance(poly, SuperPolynomial):
                poly = SuperPolynomial.constant(chart, poly)
            if poly.chart is not chart:
                raise ChartError("component polynomial on a different chart")
            if not poly.is_zero():
                comps[var] = poly
        self.components = comps
        parities = set()
        for var, poly in comps.items():
            pp = poly.parity()
            if pp is None:
                raise ChartError(
                    f"component of d/d{var.name} is not parity-homogeneous")
            parities.add((pp + var.parity) % 2)
        if len(parities) > 1:
            raise ChartError("vector field mixes parities")
        if parity is None:
            parity = parities.pop() if parities else EVEN
        elif parities and parities != {parity}:
            raise ChartError("declared parity contradicts the components")
        self.parity = parity

    def is_zero(self) -> bool:
        return not self.components

    def component(self, var) -> SuperPolynomial:
        if isinstance(var, str):
            var = self.chart.var(var)
        return self.components.get(var, SuperPolynomial.zero(self.chart))

    def apply(self, p: SuperPolynomial) -> SuperPolynomial:
        if p.chart is not self.chart:
            raise ChartError("argument lives on a different chart")
        out = SuperPolynomial.zero(self.chart)
        for var, coeff in self.components.items():
            out = out + coeff * p.partial(var)
        return out

    def commutator(self, other: "VectorField") -> "VectorField":
        """[X, Y] = X Y - (-1)^{X~ Y~} Y X, computed on chart generators."""
        if self.chart is not other.chart:
            raise ChartError("vector fields on different charts")
        sign = -1 if (self.parity * other.parity) % 2 else 1
        comps = {}
        for var in set(self.components) | set(other.components):
            lead = self.apply(other.component(var))
            trail = other.apply(self.component(var))
            comps[var] = lead - trail if sign > 0 else lead + trail
        return VectorField(self.chart, comps, (self.parity + other.parity) % 2)

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        if self.chart is not other.chart:
            raise ChartError("vector fields on different charts")
        keys = set(self.components) | set(other.components)
        return all(self.component(v) == other.component(v) for v in keys)

    def __repr__(self):
        body = " + ".join(f"({p})*d/d{v.name}" for v, p in sorted(
            self.components.items(), key=lambda kv: kv[0].index))
        return f"<field {body or '0'}>"
