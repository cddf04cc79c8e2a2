"""Anchored-bundle structure data and the odd hamiltonians they generate.

An AlgebroidSpec carries polynomial anchor entries A^i_a(x) and structure
functions C^c_ab(x).  It generates the cubic hamiltonian

    mu = xi^a A^i_a(x) xs_i - 1/2 C^c_ab(x) xi^a xi^b xis_c

on the cotangent bundle of the parity-reversed total space, and the whole
calculus (structure equations, doubles, BRST and Weil differentials) happens
through the canonical bracket with such hamiltonians.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .brackets import canonical_bracket, legendre
from .cartan import VectorField
from .chart import CotangentOfParityReversed, cotangent_chart
from .poly import SuperPolynomial, poly_sum
from .rationals import GaussianRational
from .report import Check, Report


class SpecError(ValueError):
    pass


def _as_poly(value, chart):
    if isinstance(value, SuperPolynomial):
        if value.chart is not chart:
            return value.substitute(chart, {})   # rebind by variable name
        return value
    return SuperPolynomial.constant(chart, value)


def antisymmetrize(entries):
    """Complete a table {(a, b, c): value} antisymmetric in (a, b).

    Returns (table, completed, violations).  A missing mirror (b, a, c) is
    set to the negative and counted as completed; an entry and its given
    mirror (a diagonal entry is its own) that do not cancel are the violation
    ((a, b, c), entry + mirror), so a broken pair is reported from each side.
    """
    table = {}
    completed = 0
    violations = []
    for (a, b, c), value in entries.items():
        table[(a, b, c)] = value
        mirror = entries.get((b, a, c))
        if mirror is None:
            table[(b, a, c)] = -value
            completed += 1
        else:
            residual = value + mirror
            if not residual.is_zero():
                violations.append(((a, b, c), residual))
    return table, completed, violations


@dataclass
class AlgebroidSpec:
    """Base coordinates, fiber basis and the polynomial structure data.

    anchor[a][i] is the coefficient of d/dx^i in the image of the fiber
    basis vector e_a; structure[a][b][c] is the e_c-coefficient of the
    bracket of e_a and e_b, antisymmetric in (a, b).
    """
    base_names: tuple
    fiber_names: tuple
    anchor: tuple          # anchor[a][i] : SuperPolynomial on the big chart
    structure: tuple       # structure[a][b][c]
    bundle: CotangentOfParityReversed = field(repr=False)

    @staticmethod
    def build(base_names, fiber_names, anchor_entries=None, structure_entries=None,
              bundle=None):
        """anchor_entries: {(a, i): poly-or-scalar}; structure_entries: {(a, b, c): ...}.

        Indices are 1-based.  Structure entries go through `antisymmetrize`:
        an (a, b, c) entry fixes the (b, a, c) entry to its negative, and a
        violation raises.
        """
        base_names = tuple(base_names)
        fiber_names = tuple(fiber_names)
        if bundle is None:
            bundle = cotangent_chart(base_names, fiber_names)
        chart = bundle.chart
        n, r = len(base_names), len(fiber_names)
        zero = SuperPolynomial.zero(chart)
        A = [[zero for _ in range(n)] for _ in range(r)]
        for (a, i), val in (anchor_entries or {}).items():
            if not (1 <= a <= r and 1 <= i <= n):
                raise SpecError(f"anchor entry ({a},{i}) is out of range for rank {r} "
                                f"over {n} base coordinates")
            A[a - 1][i - 1] = _as_poly(val, chart)
        C = [[[zero for _ in range(r)] for _ in range(r)] for _ in range(r)]
        given = {}
        for (a, b, c), val in (structure_entries or {}).items():
            if not all(1 <= k <= r for k in (a, b, c)):
                raise SpecError(f"structure entry ({a},{b},{c}) is out of range for rank {r}")
            given[(a, b, c)] = _as_poly(val, chart)
        table, _completed, violations = antisymmetrize(given)
        if violations:
            (a, b, c), residual = violations[0]
            raise SpecError(f"structure entry ({a},{b},{c}) is not antisymmetric: "
                            f"it and its mirror sum to {residual}")
        for (a, b, c), val in table.items():
            C[a - 1][b - 1][c - 1] = val
        spec = AlgebroidSpec(base_names, fiber_names,
                             tuple(tuple(row) for row in A),
                             tuple(tuple(tuple(col) for col in plane) for plane in C),
                             bundle)
        spec.validate()
        return spec

    @property
    def chart(self):
        return self.bundle.chart

    @property
    def rank(self):
        return len(self.fiber_names)

    def validate(self):
        base_vars = set(self.bundle.base)
        for a in range(self.rank):
            for i in range(len(self.base_names)):
                if not self.anchor[a][i].uses_only(base_vars):
                    raise SpecError("anchor entries must depend on base variables only")
        for a in range(self.rank):
            for b in range(self.rank):
                for c in range(self.rank):
                    if not self.structure[a][b][c].uses_only(base_vars):
                        raise SpecError("structure functions must depend on base variables only")


def build_mu(spec: AlgebroidSpec) -> SuperPolynomial:
    """mu = xi^a A^i_a xs_i - 1/2 C^c_ab xi^a xi^b xis_c, of bidegree (1, 2)."""
    chart = spec.chart
    xi = [SuperPolynomial.variable(chart, f.name) for f in spec.bundle.fiber]
    xis = [SuperPolynomial.variable(chart, m.name) for m in spec.bundle.fiber_momenta]
    xs = [SuperPolynomial.variable(chart, m.name) for m in spec.bundle.base_momenta]
    half = GaussianRational(Fraction(1, 2))
    terms = []
    for a in range(spec.rank):
        for i in range(len(spec.base_names)):
            entry = spec.anchor[a][i]
            if not entry.is_zero():
                terms.append(xi[a] * entry * xs[i])
    for a in range(spec.rank):
        for b in range(spec.rank):
            for c in range(spec.rank):
                entry = spec.structure[a][b][c]
                if not entry.is_zero():
                    terms.append(-(entry * xi[a] * xi[b] * xis[c]).scale(half))
    return poly_sum(chart, terms)


def dual_chart_for(spec: AlgebroidSpec) -> CotangentOfParityReversed:
    """Cotangent chart of the dual bundle: same base names, th/ths fibers."""
    dual_fibers = tuple(f"th{k+1}" for k in range(spec.rank))
    return cotangent_chart(spec.base_names, dual_fibers)


def build_gamma_star(dual_spec: AlgebroidSpec, target_bundle: CotangentOfParityReversed) -> SuperPolynomial:
    """Transport the dual-side hamiltonian to the primal chart.

    Equals the direct formula Abar^{ai} xs_i xis_a - 1/2 xi^c Cbar^{ab}_c xis_a xis_b
    and is computed as the Legendre image of build_mu on the dual chart, which
    keeps a single code path for both sides.
    """
    gamma = build_mu(dual_spec)
    return legendre(gamma, dual_spec.chart, target_bundle.chart)


# ---------------------------------------------------------------------------
# structure-equation checks
# ---------------------------------------------------------------------------


def check_lie_algebroid(spec: AlgebroidSpec) -> Report:
    """Structure equations via the self-bracket of mu; failures are data."""
    mu = build_mu(spec)
    return Report([Check.from_residual("{mu,mu}", canonical_bracket(mu, mu))])


# the bidegree of each part of theta and, for the cubic terms, of their probe
_BIDEGREES = {"mu": ((1, 2), None), "gamma*": ((2, 1), None),
              "phi": ((0, 3), (0, 2)), "psi*": ((3, 0), (2, 0))}


@dataclass
class ThetaHamiltonian:
    """theta = mu + gamma* + phi-part + psi-part on the primal big chart."""
    bundle: CotangentOfParityReversed
    mu: SuperPolynomial
    gamma_star: SuperPolynomial
    phi: SuperPolynomial
    psi_star: SuperPolynomial

    @property
    def chart(self):
        return self.bundle.chart

    @property
    def total(self) -> SuperPolynomial:
        return self.mu + self.gamma_star + self.phi + self.psi_star

    def validate_bidegrees(self):
        """The one grading rule of the four parts of theta.

        mu and gamma* have one bidegree each.  phi (eps = 0: base and fiber
        coordinates only) and psi* (delta = 0: base and dual fiber
        coordinates only) are cubic, or quadratic as an anomaly probe: that
        spoils the total grading but keeps every structure residual well
        defined.  Any other bidegree raises, naming the part.
        """
        parts = {"mu": self.mu, "gamma*": self.gamma_star, "phi": self.phi,
                 "psi*": self.psi_star}
        for key, part in parts.items():
            want, probe = _BIDEGREES[key]
            for e, d, _k in sorted(part.gradings()):
                if (e, d) not in (want, probe):
                    allowed = f"{want} or the {probe} probe" if probe else str(want)
                    raise SpecError(f"{key} has bidegree {(e, d)}, expected {allowed}")


@dataclass
class ProtoBialgebroidSpec:
    a_side: AlgebroidSpec
    astar_side: AlgebroidSpec          # same base names, th-fibers
    phi: SuperPolynomial | None = None       # on the primal chart, cubic in xi
    psi: SuperPolynomial | None = None       # on the dual chart, cubic in th

    @staticmethod
    def build(a_side: AlgebroidSpec, astar_entries_anchor=None, astar_entries_structure=None,
              phi=None, psi=None):
        dual_bundle = dual_chart_for(a_side)
        astar = AlgebroidSpec.build(a_side.base_names,
                                    tuple(f.name for f in dual_bundle.fiber),
                                    astar_entries_anchor, astar_entries_structure,
                                    bundle=dual_bundle)
        return ProtoBialgebroidSpec(a_side, astar, phi, psi)

    def theta(self) -> ThetaHamiltonian:
        bundle = self.a_side.bundle
        chart = bundle.chart
        mu = build_mu(self.a_side)
        gamma_star = build_gamma_star(self.astar_side, bundle)
        zero = SuperPolynomial.zero(chart)
        phi = self.phi if self.phi is not None else zero
        if phi.chart is not chart:
            raise SpecError("phi must live on the primal chart")
        psi_star = zero if self.psi is None else legendre(self.psi, self.astar_side.chart, chart)
        theta = ThetaHamiltonian(bundle, mu, gamma_star, phi, psi_star)
        theta.validate_bidegrees()
        return theta


def _pair_lines(pair: SuperPolynomial) -> Report:
    """{mu,mu}, {gamma,gamma} and {mu,gamma*} of pair = mu + gamma*, read off
    its one self-bracket: their bidegrees differ, so all vanish iff it does."""
    components = canonical_bracket(pair, pair).bigraded_components()
    part = lambda key: components.get(key, SuperPolynomial.zero(pair.chart))
    half = GaussianRational(Fraction(1, 2))
    return Report([
        Check.from_residual("{mu,mu}", part((1, 3, 4))),
        Check.from_residual("{gamma,gamma}", part((3, 1, 4))),
        # {mu, gamma*} = {gamma*, mu} on odd functions, so it enters twice
        Check.from_residual("{mu,gamma*}", part((2, 2, 4)).scale(half)),
    ])


def check_bialgebroid(proto: ProtoBialgebroidSpec) -> Report:
    """The three lines of (A, A*), then `self-duality`: the same lines of the
    swapped pair (A*, A), which is the Legendre image of mu + gamma* on the
    dual chart.  Nonzero cubic terms come first, as a failing `cubic-terms`
    line."""
    theta = proto.theta()
    pair = theta.mu + theta.gamma_star
    cubic = theta.phi + theta.psi_star
    checks = [] if cubic.is_zero() else [Check.from_residual("cubic-terms", cubic)]
    checks += _pair_lines(pair).checks
    swapped = _pair_lines(legendre(pair, theta.chart, proto.astar_side.chart))
    checks.append(Check.decided("self-duality", swapped.passed))
    return Report(checks)


def check_proto(proto: ProtoBialgebroidSpec) -> Report:
    """The five bigraded structure equations of a cubic hamiltonian.

    For a genuine degree-3 theta they are exactly the bigraded components of
    half its self-bracket, so all five vanish iff {theta,theta} = 0; they are
    also evaluated verbatim for off-degree probes, where the self-bracket
    alone would hide the anomaly."""
    theta = proto.theta()
    half = GaussianRational(Fraction(1, 2))
    br = lambda a, b: canonical_bracket(a, b, theta.chart)
    mu, gs, phi, psi = theta.mu, theta.gamma_star, theta.phi, theta.psi_star
    checks = [
        Check.from_residual("1/2{mu,mu}+{gamma*,phi}", br(mu, mu).scale(half) + br(gs, phi)),
        Check.from_residual("{mu,gamma*}+{phi,psi*}", br(mu, gs) + br(phi, psi)),
        Check.from_residual("1/2{gamma*,gamma*}+{mu,psi*}", br(gs, gs).scale(half) + br(mu, psi)),
        Check.from_residual("{mu,phi}", br(mu, phi)),
        Check.from_residual("{gamma*,psi*}", br(gs, psi)),
    ]
    return Report(checks)


# ---------------------------------------------------------------------------
# doubles and Lie algebra actions
# ---------------------------------------------------------------------------


def double_differential(theta: ThetaHamiltonian):
    """(D, anomaly): the double's differential D = {theta, .} and {theta, theta}."""
    total = theta.total
    return VectorField(total), canonical_bracket(total, total)


def homomorphism_residuals(spec: AlgebroidSpec):
    """rho([e_a, e_b]) - [rho e_a, rho e_b] on every generator pair (a, b), 1-based.

    Each anchor is the momentum-linear function h_a = A^i_a xs_i, whose
    bracket {h_a, f} is rho(e_a) f, so [rho e_a, rho e_b] is the field of
    {h_a, h_b}.  The residual sum_c C^c_ab h_c - {h_a, h_b} is momentum-linear
    too; it is shown with each xs_i written as x^i, the coordinate marking
    its component.  For the action algebroid of a Lie algebra acting by
    vector fields, these vanish exactly when the action map is a homomorphism.
    """
    bundle = spec.bundle
    chart = bundle.chart
    momenta = [SuperPolynomial.variable(chart, xs.name) for xs in bundle.base_momenta]
    h = [poly_sum(chart, [entry * xs for entry, xs in zip(spec.anchor[a], momenta)])
         for a in range(spec.rank)]
    as_coordinates = {xs.name: SuperPolynomial.variable(chart, x.name)
                      for x, xs in zip(bundle.base, bundle.base_momenta)}
    out = []
    for a in range(spec.rank):
        for b in range(spec.rank):
            expect = poly_sum(chart, [spec.structure[a][b][c] * h[c]
                                      for c in range(spec.rank)])
            residual = expect - canonical_bracket(h[a], h[b])
            out.append(((a + 1, b + 1), residual.substitute(chart, as_coordinates)))
    return out
