"""Canonical Poisson brackets on Darboux supercharts and the derived bracket.

Even charts carry the bracket {x*_a, x^b} = delta_a^b extended as a
biderivation; odd charts carry the Gerstenhaber bracket whose sign
convention is pinned by d_pi = {pi, .} acting on multivector fields as
[pi, .].  One routine serves both: a single gradient sweep over the first
argument feeds the partial-derivative formula, with the chart's parity
selecting one sign from a table.
"""
from __future__ import annotations

from .chart import DarbouxChart, ChartError, EVEN, ODD
from .poly import SuperPolynomial, mono_mul


def _require_darboux(p: SuperPolynomial) -> DarbouxChart:
    chart = p.chart
    if not isinstance(chart, DarbouxChart):
        raise ChartError("canonical bracket needs a Darboux chart")
    return chart


# Sign of the momentum-derivative term, indexed [bracket parity][fp][a]:
# (-1)^{a(fp+1)} on even charts, -(-1)^{fp(a+1)} on odd charts.
_MOMENTUM_SIGN = {EVEN: ((1, -1), (1, 1)), ODD: ((-1, -1), (1, -1))}


def canonical_bracket(p: SuperPolynomial, q: SuperPolynomial, chart=None) -> SuperPolynomial:
    """Canonical bracket of the chart's parity (even Poisson or Gerstenhaber).

    Both parities share one sum over Darboux pairs (pos, mom) and the parity
    components f of p: sign1 * df/dmom * dq/dpos + sign2 * df/dpos * dq/dmom,
    where sign2 = -(-1)^{a fp} on either chart and sign1 comes from the table.
    One sweep over p yields every nonzero df; q is differentiated at most
    once per conjugate needed, and all products accumulate into one dict.
    """
    if chart is None:
        chart = _require_darboux(p)
    if p.chart is not chart or q.chart is not chart:
        raise ChartError("bracket arguments live on different charts")
    momentum_sign = _MOMENTUM_SIGN[chart.bracket_parity]
    variables = chart.variables
    dq_of = {}
    out = {}
    for (fp, j), df in p.gradient().items():
        other, is_momentum = chart.conjugate[j]
        dq = dq_of.get(other.index)
        if dq is None:
            dq = dq_of[other.index] = q.partial(other).terms
        if not dq:
            continue
        if is_momentum:
            sign = momentum_sign[fp][other.parity]
        else:
            sign = 1 if (variables[j].parity * fp) % 2 else -1    # -(-1)^{a*fp}
        for m1, c1 in df.items():
            for m2, c2 in dq.items():
                prod = mono_mul(m1, m2)
                if prod is None:
                    continue
                mono, s = prod
                c = c1 * c2 if s == sign else -(c1 * c2)
                acc = out.get(mono)
                out[mono] = c if acc is None else acc + c
    return SuperPolynomial(chart, out)     # drops the coefficients that cancelled


def hamiltonian_lift(components, chart: DarbouxChart) -> SuperPolynomial:
    """Fibrewise-linear hamiltonian h_v = v^a(x) x*_a of a vector field on the base.

    `components` maps position variables (or names) to coefficient
    polynomials in the positions only.  Only even charts admit the lift.
    """
    if chart.bracket_parity != EVEN:
        raise ChartError("hamiltonian lift requires an even chart")
    positions = set(chart.positions)
    mom_of = {pos: mom for pos, mom in chart.pairs}
    h = SuperPolynomial.zero(chart)
    for key, comp in components.items():
        pos = chart.var(key) if isinstance(key, str) else key
        if pos not in positions:
            raise ChartError(f"{pos.name!r} is not a position variable")
        if not isinstance(comp, SuperPolynomial):
            comp = SuperPolynomial.constant(chart, comp)
        if not comp.uses_only(positions):
            raise ChartError("vector field components must depend on positions only")
        h = h + comp * SuperPolynomial.variable(chart, mom_of[pos].name)
    return h


def legendre(p: SuperPolynomial, source: DarbouxChart, target: DarbouxChart) -> SuperPolynomial:
    """Chart isomorphism swapping odd fiber coordinates with dual momenta.

    Pairs are matched positionally: base (even) pairs map identically by
    name, odd pairs send position to the paired momentum and vice versa.
    """
    if p.chart is not source:
        raise ChartError("polynomial does not live on the source chart")
    if len(source.pairs) != len(target.pairs):
        raise ChartError("charts have different numbers of pairs")
    mapping = {}
    for (spos, smom), (tpos, tmom) in zip(source.pairs, target.pairs):
        if spos.parity == EVEN:
            if tpos.parity != EVEN:
                raise ChartError("pair parities do not match")
            if spos.name != tpos.name:
                raise ChartError(
                    f"base mismatch: {spos.name!r} vs {tpos.name!r}")
            mapping[spos.name] = SuperPolynomial.variable(target, tpos.name)
            mapping[smom.name] = SuperPolynomial.variable(target, tmom.name)
        else:
            if tpos.parity != ODD:
                raise ChartError("pair parities do not match")
            mapping[spos.name] = SuperPolynomial.variable(target, tmom.name)
            mapping[smom.name] = SuperPolynomial.variable(target, tpos.name)
    return p.substitute(target, mapping)


def derived_bracket(theta: SuperPolynomial, a: SuperPolynomial, b: SuperPolynomial,
                    chart=None) -> SuperPolynomial:
    """Derived product a o b = (-1)^{a~+1} {{theta, a}, b}.

    For odd arguments (in particular every total-degree-1 function) this is
    {{theta,a},b}, the form entering the Courant bracket.  The self-commuting
    of theta is not required here; callers probe anomalies on purpose.
    """
    if chart is None:
        chart = _require_darboux(theta)
    out = SuperPolynomial.zero(chart)
    for ap, a_part in zip((0, 1), a.parity_components()):
        if a_part.is_zero():
            continue
        term = canonical_bracket(canonical_bracket(theta, a_part, chart), b, chart)
        out = out + (term if ap == 1 else -term)
    return out
