import io
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from bigbracket.algebroid import (AlgebroidSpec, ProtoBialgebroidSpec, SpecError,
                                  _pair_lines, build_gamma_star, build_mu,
                                  check_bialgebroid, check_lie_algebroid,
                                  check_proto, double_differential, dual_chart_for,
                                  homomorphism_residuals)
from bigbracket.brackets import canonical_bracket, legendre
from bigbracket.cli import main
from bigbracket.parsing import parse_poly
from bigbracket.poly import SuperPolynomial
from bigbracket.rationals import GaussianRational
from bigbracket.specfile import PRESET_NAMES, load_preset, materialize, parse_document

from oracles import cartan_differential, generic_jacobiator, schouten_bracket, swap_proto

EPS = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1}


def su2_spec():
    return AlgebroidSpec.build((), ("xi1", "xi2", "xi3"), {}, EPS)


def su2_bialgebra():
    return ProtoBialgebroidSpec.build(su2_spec(), {}, {(1, 2, 2): 1, (1, 3, 3): 1})


def tangent_r2():
    return AlgebroidSpec.build(("x1", "x2"), ("xi1", "xi2"),
                               {(1, 1): 1, (2, 2): 1}, {})


def poisson_r2():
    a_side = tangent_r2()
    dual = dual_chart_for(a_side)
    x1 = SuperPolynomial.variable(dual.chart, "x1")
    astar = AlgebroidSpec.build(("x1", "x2"), ("th1", "th2"),
                                {(1, 2): x1, (2, 1): -x1},
                                {(1, 2, 1): 1}, bundle=dual)
    return ProtoBialgebroidSpec(a_side, astar)


# -- hamiltonians -------------------------------------------------------------

def test_mu_of_rotation_algebra_at_a_point():
    mu = build_mu(su2_spec())
    ch = su2_spec().chart
    expected = parse_poly("-xi1*xi2*xis3 + xi1*xi3*xis2 - xi2*xi3*xis1", mu.chart)
    assert mu == expected
    assert mu.gradings() == {(1, 2, 3)}


def test_mu_of_zero_structure():
    spec = AlgebroidSpec.build(("x1",), ("xi1",), {}, {})
    assert build_mu(spec).is_zero()


def test_mu_of_plane_tangent_bundle():
    mu = build_mu(tangent_r2())
    assert mu == parse_poly("xs1*xi1 + xs2*xi2", mu.chart)


def test_gamma_star_of_line_de_rham_structure():
    a_side = AlgebroidSpec.build(("x1",), ("xi1",), {}, {})
    dual = dual_chart_for(a_side)
    astar = AlgebroidSpec.build(("x1",), ("th1",), {(1, 1): 1}, {}, bundle=dual)
    gs = build_gamma_star(astar, a_side.bundle)
    assert gs == parse_poly("xs1*xis1", a_side.chart)
    assert gs.gradings() == {(2, 1, 3)}


def test_gamma_star_always_equals_legendre_of_dual_mu():
    for proto in (su2_bialgebra(), poisson_r2()):
        gs = build_gamma_star(proto.astar_side, proto.a_side.bundle)
        gamma = build_mu(proto.astar_side)
        assert gs == legendre(gamma, proto.astar_side.chart, proto.a_side.chart)


def test_su2_cobracket_gamma_star_is_momentum_quadratic():
    gs = build_gamma_star(su2_bialgebra().astar_side, su2_bialgebra().a_side.bundle)
    assert all(e == 2 and d == 1 for (e, d, _k) in gs.gradings())


# -- structure-equation gate ---------------------------------------------------

def test_su2_passes():
    assert check_lie_algebroid(su2_spec()).passed


def test_cyclically_scaled_tables_still_pass():
    # negating one cyclic constant is a basis sign flip, still a Lie algebra
    spec = AlgebroidSpec.build((), ("xi1", "xi2", "xi3"), {},
                               {(1, 2, 3): -1, (2, 3, 1): 1, (3, 1, 2): 1})
    assert check_lie_algebroid(spec).passed


def test_broken_jacobi_fails_with_visible_residual():
    spec = AlgebroidSpec.build((), ("xi1", "xi2", "xi3"), {},
                               dict(EPS) | {(1, 2, 1): 1})
    report = check_lie_algebroid(spec)
    assert not report.passed
    assert not report["{mu,mu}"].residual.is_zero()


def test_rank_one_anchored_bundles_always_pass():
    spec = AlgebroidSpec.build(("x1",), ("xi1",),
                               {(1, 1): parse_poly("x1^2", AlgebroidSpec.build(
                                   ("x1",), ("xi1",), {}, {}).chart)}, {})
    assert check_lie_algebroid(spec).passed


def test_two_path_agreement():
    """The cubic-hamiltonian gate agrees with squaring the degree-1 field."""
    specs = [su2_spec(), tangent_r2(),
             AlgebroidSpec.build(("x1", "x2"), ("xi1", "xi2"),
                                 {(1, 1): 1, (2, 2): 1}, {(1, 2, 1): 1})]
    for spec in specs:
        d = cartan_differential(spec)
        mu_gate = check_lie_algebroid(spec).passed
        assert d.commutator(d).is_zero() == mu_gate


def test_antisymmetry_enforced():
    with pytest.raises(SpecError):
        AlgebroidSpec.build((), ("xi1", "xi2"), {}, {(1, 2, 1): 1, (2, 1, 1): 1})
    with pytest.raises(SpecError):
        AlgebroidSpec.build((), ("xi1", "xi2"), {}, {(1, 1, 2): 1})


# -- bialgebroids ---------------------------------------------------------------

def test_zero_dual_structure_is_compatible():
    proto = ProtoBialgebroidSpec.build(tangent_r2())
    assert check_bialgebroid(proto).passed


def test_su2_bialgebra_passes():
    report = check_bialgebroid(su2_bialgebra())
    assert [c.name for c in report.checks] == ["{mu,mu}", "{gamma,gamma}", "{mu,gamma*}",
                                               "self-duality"]
    assert report.passed


def test_poisson_plane_bialgebroid_passes():
    assert check_bialgebroid(poisson_r2()).passed


def test_self_duality_by_swapping():
    for proto in (su2_bialgebra(), poisson_r2()):
        assert check_bialgebroid(swap_proto(proto)).passed
    # a broken pair stays broken after swapping
    bad_dual = AlgebroidSpec.build(
        (), ("th1", "th2", "th3"),
        {}, {(1, 2, 2): 1, (1, 3, 3): 1, (2, 3, 1): 1},
        bundle=dual_chart_for(su2_spec()))
    bad = ProtoBialgebroidSpec(su2_spec(), bad_dual)
    assert not check_bialgebroid(bad).passed
    assert not check_bialgebroid(swap_proto(bad)).passed


def _assert_legendre_image_is_the_swap(proto):
    """The three lines are the explicit brackets, and self-duality is the
    verdict of the swapped pair rebuilt table by table, whose lines equal
    those of the Legendre image term for term; returns that verdict."""
    report = check_bialgebroid(proto)
    theta = proto.theta()
    mu, gs = theta.mu, theta.gamma_star
    for name, left, right in (("{mu,mu}", mu, mu), ("{gamma,gamma}", gs, gs),
                              ("{mu,gamma*}", mu, gs)):
        assert report[name].residual == canonical_bracket(left, right), name
    swapped_proto = swap_proto(ProtoBialgebroidSpec(proto.a_side, proto.astar_side))
    image = legendre(mu + gs, theta.chart, proto.astar_side.chart)
    # the dual chart orders its variables as the swapped primal chart does
    assert image.terms == swapped_proto.theta().total.terms
    swapped = check_bialgebroid(swapped_proto)
    lines = ("{mu,mu}", "{gamma,gamma}", "{mu,gamma*}")
    for line, name in zip(_pair_lines(image).checks, lines):
        assert line.residual.terms == swapped[name].residual.terms, name
    verdict = report["self-duality"].passed
    assert verdict == all(swapped[name].passed for name in lines)
    assert verdict == all(report[name].passed for name in lines)
    return verdict


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_self_duality_is_the_legendre_image_on_presets(name):
    assert _assert_legendre_image_is_the_swap(materialize(load_preset(name)).proto)


def random_bialgebroid_document(rng, n_base, rank):
    """Sparse random A, Abar, C and Cbar tables with constant or linear entries."""
    base = [f"x{k + 1}" for k in range(n_base)]
    lines = ["kind: bialgebroid", f"base: {' '.join(base)}", f"rank: {rank}"]
    density = rng.choice((0.2, 0.4))

    def entry():
        coeff = rng.choice(("1", "-1", "2", "1/2", "-3/2"))
        return "*".join([coeff] + [x for x in base if rng.random() < 0.4])

    fibers = range(1, rank + 1)
    for table in ("A", "Abar"):
        lines += [f"{table}[{a}][{i}] = {entry()}" for a in fibers
                  for i in range(1, n_base + 1) if rng.random() < density]
    for table in ("C", "Cbar"):
        lines += [f"{table}[{a}][{b}][{c}] = {entry()}" for a in fibers for b in fibers
                  for c in fibers if a < b and rng.random() < density]
    return "\n".join(lines) + "\n"


def test_self_duality_is_the_legendre_image_on_random_documents():
    rng = random.Random(13)
    shapes = [(0, 2), (2, 0)] + [(rng.randint(0, 2), rng.randint(1, 3)) for _ in range(48)]
    verdicts = set()
    for n_base, rank in shapes:
        doc = parse_document(random_bialgebroid_document(rng, n_base, rank))
        verdicts.add(_assert_legendre_image_is_the_swap(materialize(doc).proto))
    assert verdicts == {True, False}


def test_compatibility_equals_derivation_property():
    """{mu, gamma*} measures the failure of the degree-1 flow to derive the
    dual-side bracket; the displayed correction term matches exactly."""
    for proto, broken in ((su2_bialgebra(), False), (poisson_r2(), False)):
        theta = proto.theta()
        chart = theta.chart
        mu, gs = theta.mu, theta.gamma_star
        obstruction = canonical_bracket(mu, gs)
        gens = [SuperPolynomial.variable(chart, pos.name) for pos, _ in chart.pairs]
        prods = [gens[i] * gens[j] for i in range(len(gens)) for j in range(i, len(gens))]
        for xi in gens + prods:
            for eta in gens:
                if xi.is_zero() or xi.parity() is None:
                    continue
                sign_arg = (-1) ** (xi.parity() + 1)
                lhs = canonical_bracket(mu, schouten_bracket(xi, eta, gs))
                d_xi = canonical_bracket(mu, xi)
                d_eta = canonical_bracket(mu, eta)
                rhs = (schouten_bracket(d_xi, eta, gs)
                       + schouten_bracket(xi, d_eta, gs).scale(sign_arg)
                       + canonical_bracket(canonical_bracket(obstruction, xi), eta)
                       .scale(sign_arg))
                assert lhs == rhs


# -- proto structures -----------------------------------------------------------

def std_r3_proto(phi_text=None):
    a_side = AlgebroidSpec.build(("x1", "x2", "x3"), ("xi1", "xi2", "xi3"),
                                 {(1, 1): 1, (2, 2): 1, (3, 3): 1}, {})
    dual = dual_chart_for(a_side)
    astar = AlgebroidSpec.build(a_side.base_names, ("th1", "th2", "th3"), {}, {},
                                bundle=dual)
    phi = parse_poly(phi_text, a_side.chart) if phi_text else None
    return ProtoBialgebroidSpec(a_side, astar, phi)


def test_proto_reduces_to_bialgebroid_checks():
    rep = check_proto(su2_bialgebra())
    assert rep.passed


def test_constant_volume_twist_is_closed():
    rep = check_proto(std_r3_proto("xi1*xi2*xi3"))
    assert rep.passed


def test_non_closed_twist_fails_in_the_expected_component():
    rep = check_proto(std_r3_proto("x1*xi2*xi3"))
    assert not rep.passed
    failing = [c for c in rep.checks if not c.passed]
    assert len(failing) == 1
    check = failing[0]
    assert check.name == "{mu,phi}"
    assert check.residual == parse_poly("xi1*xi2*xi3", check.residual.chart)


def test_theta_bidegrees_validated():
    theta = su2_bialgebra().theta()
    assert theta.mu.gradings() == {(1, 2, 3)}
    assert theta.gamma_star.gradings() == {(2, 1, 3)}
    assert theta.total.gradings() == {(1, 2, 3), (2, 1, 3)}


# -- doubles ---------------------------------------------------------------------

def test_double_differential_squares_to_zero_for_su2():
    theta = su2_bialgebra().theta()
    field, anomaly = double_differential(theta)
    assert anomaly.is_zero()
    for var in theta.chart.variables:
        gen = SuperPolynomial.variable(theta.chart, var.name)
        assert field.apply(field.apply(gen)).is_zero()


def test_double_of_zero_hamiltonian_is_zero():
    spec = AlgebroidSpec.build(("x1",), ("xi1",), {}, {})
    theta = ProtoBialgebroidSpec.build(spec).theta()
    field, _ = double_differential(theta)
    assert field.hamiltonian.is_zero()
    for var in theta.chart.variables:
        assert field.apply(SuperPolynomial.variable(theta.chart, var.name)).is_zero()


def weil_proto():
    base = ("u1", "u2", "u3")
    a_side = AlgebroidSpec.build(base, ("xi1", "xi2", "xi3"),
                                 {(1, 1): 1, (2, 2): 1, (3, 3): 1}, {})
    dual = dual_chart_for(a_side)
    u = [SuperPolynomial.variable(dual.chart, f"u{k+1}") for k in range(3)]
    eps = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
           (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1}
    anchor = {}
    for b in range(1, 4):
        for c in range(1, 4):
            acc = SuperPolynomial.zero(dual.chart)
            for a in range(1, 4):
                coeff = eps.get((b, c, a), 0)
                if coeff:
                    acc = acc + u[a - 1].scale(coeff)
            if not acc.is_zero():
                anchor[(b, c)] = acc
    astar = AlgebroidSpec.build(base, ("th1", "th2", "th3"), anchor,
                                {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1},
                                bundle=dual)
    return ProtoBialgebroidSpec(a_side, astar)


def test_weil_double_restricts_to_the_polynomial_model():
    proto = weil_proto()
    assert check_bialgebroid(proto).passed
    theta = proto.theta()
    field, anomaly = double_differential(theta)
    assert anomaly.is_zero()
    chart = theta.chart
    for var in chart.variables:
        gen = SuperPolynomial.variable(chart, var.name)
        assert field.apply(field.apply(gen)).is_zero()
    # restrict to the zero section u = xi = 0
    kill = {f"u{k}": SuperPolynomial.zero(chart) for k in (1, 2, 3)}
    kill |= {f"xi{k}": SuperPolynomial.zero(chart) for k in (1, 2, 3)}

    def restricted(p):
        return p.substitute(chart, kill)

    eps = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
           (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1}
    half = GaussianRational(Fraction(1, 2))
    for c in (1, 2, 3):
        got_u = restricted(field.apply(SuperPolynomial.variable(chart, f"us{c}")))
        expect_u = SuperPolynomial.zero(chart)
        for a in range(1, 4):
            for b in range(1, 4):
                coeff = eps.get((a, b, c), 0)
                if coeff:
                    expect_u = expect_u + (
                        SuperPolynomial.variable(chart, f"us{a}")
                        * SuperPolynomial.variable(chart, f"xis{b}")).scale(coeff)
        assert got_u == expect_u
        got_th = restricted(field.apply(SuperPolynomial.variable(chart, f"xis{c}")))
        expect_th = SuperPolynomial.variable(chart, f"us{c}")
        for a in range(1, 4):
            for b in range(1, 4):
                coeff = eps.get((a, b, c), 0)
                if coeff:
                    expect_th = expect_th - (
                        SuperPolynomial.variable(chart, f"xis{a}")
                        * SuperPolynomial.variable(chart, f"xis{b}")).scale(half * coeff)
        assert got_th == expect_th


# -- ghost-variable presets -------------------------------------------------------

def action_algebroid(base, dim, constants, fields):
    """The action algebroid of a Lie algebra with structure constants `constants`
    acting on `base` by the vector fields `fields[(a, i)]` (both 1-based)."""
    fibers = tuple(f"xi{k+1}" for k in range(dim))
    chart = AlgebroidSpec.build(base, fibers, {}, {}).chart
    fields = {key: parse_poly(text, chart) for key, text in fields.items()}
    return AlgebroidSpec.build(base, fibers, fields, constants)


def action_theta(spec):
    """The ghost-variable hamiltonian of a homomorphic action: mu of the action
    algebroid against the zero dual side."""
    assert all(res.is_zero() for _pair, res in homomorphism_residuals(spec))
    return ProtoBialgebroidSpec.build(spec).theta()


def rotation_action():
    return action_algebroid(("x", "y"), 1, {}, {(1, 1): "-y", (1, 2): "x"})


def test_rotation_action_differential():
    theta = action_theta(rotation_action())
    chart = theta.chart
    field, anomaly = double_differential(theta)
    assert anomaly.is_zero()
    x = SuperPolynomial.variable(chart, "x")
    y = SuperPolynomial.variable(chart, "y")
    xi = SuperPolynomial.variable(chart, "xi1")
    assert field.apply(x) == -(xi * y)
    assert field.apply(y) == xi * x
    for var in chart.variables:
        assert field.apply(field.apply(
            SuperPolynomial.variable(chart, var.name))).is_zero()


def test_trivial_action_gives_fiberwise_differential():
    theta = action_theta(action_algebroid(("x",), 3, dict(EPS), {}))
    field, anomaly = double_differential(theta)
    assert anomaly.is_zero()
    # no base motion: the differential reduces to the fiberwise one
    ch = theta.chart
    assert field.apply(SuperPolynomial.variable(ch, "x")).is_zero()
    assert field.apply(SuperPolynomial.variable(ch, "xi3")) == -(
        SuperPolynomial.variable(ch, "xi1") * SuperPolynomial.variable(ch, "xi2"))


def test_one_dimensional_abelian_action_always_works():
    theta = action_theta(action_algebroid(("x",), 1, {}, {(1, 1): "x^2"}))
    field, anomaly = double_differential(theta)
    assert anomaly.is_zero()


def test_non_homomorphic_action_rejected():
    # [e1,e2] = 0 but [d_x, x d_x] != 0
    spec = action_algebroid(("x", "y"), 2, {}, {(1, 1): "1", (2, 1): "x"})
    residuals = homomorphism_residuals(spec)
    assert any(not res.is_zero() for _pair, res in residuals)


def test_brst_generator_identities():
    """The four displayed generator actions of the ghost differential."""
    spec = rotation_action()
    theta = action_theta(spec)
    chart = theta.chart
    mu = theta.mu
    field, _ = double_differential(theta)
    anchor = [spec.anchor[0][i].substitute(chart, {}) for i in range(2)]
    x, y = SuperPolynomial.variable(chart, "x"), SuperPolynomial.variable(chart, "y")
    xi, xis = SuperPolynomial.variable(chart, "xi1"), SuperPolynomial.variable(chart, "xis1")
    # functions: D f = xi * rho(e1) f
    for f in (x, y, x * y):
        rho_f = anchor[0] * f.partial("x") + anchor[1] * f.partial("y")
        assert canonical_bracket(mu, f) == xi * rho_f
    # constant dual sections: D xi = -(1/2) C xi xi = 0 for an abelian algebra
    assert canonical_bracket(mu, xi).is_zero()
    # lifted fields: D h_v = h_{[d, v]}
    from oracles import VectorField, hamiltonian_lift
    v_field = {"x": SuperPolynomial.variable(chart, "y")}
    hv = hamiltonian_lift({k: p for k, p in v_field.items()}, chart)
    d_field = VectorField(chart, {"x": xi * spec.anchor[0][0],
                                  "y": xi * spec.anchor[0][1]})
    commutator = d_field.commutator(VectorField(chart, v_field))
    expected = hamiltonian_lift(
        {var.name: poly for var, poly in commutator.components.items()
         if not poly.is_zero()}, chart)
    assert canonical_bracket(mu, hv) == expected
    # fiber contractions: D xis = h_{rho(e1)} + ghost terms (abelian: none)
    assert canonical_bracket(mu, xis) == hamiltonian_lift(
        {"x": spec.anchor[0][0], "y": spec.anchor[0][1]}, chart)


# -- Schouten bracket --------------------------------------------------------------

def line_gamma_star():
    a_side = AlgebroidSpec.build(("x1",), ("xi1",), {}, {})
    dual = dual_chart_for(a_side)
    astar = AlgebroidSpec.build(("x1",), ("th1",), {(1, 1): 1}, {}, bundle=dual)
    return a_side, build_gamma_star(astar, a_side.bundle)


def test_schouten_of_functions_vanishes():
    a_side, gs = line_gamma_star()
    chart = a_side.chart
    x = SuperPolynomial.variable(chart, "x1")
    assert schouten_bracket(x, x, gs).is_zero()
    assert schouten_bracket(x * x, x, gs).is_zero()


def test_schouten_section_on_function_is_anchor_action():
    a_side, gs = line_gamma_star()
    chart = a_side.chart
    x = SuperPolynomial.variable(chart, "x1")
    xi = SuperPolynomial.variable(chart, "xi1")
    assert schouten_bracket(xi, x, gs) == SuperPolynomial.constant(chart, 1)


def test_schouten_graded_skew():
    proto = poisson_r2()
    gs = proto.theta().gamma_star
    chart = proto.a_side.chart
    rng = random.Random(17)
    from conftest import random_poly
    for _ in range(12):
        p = random_poly(chart, rng)
        q = random_poly(chart, rng)
        keep = {m: c for m, c in p.terms.items()}
        p = SuperPolynomial(chart, {m: c for m, c in p.terms.items()
                                    if all(chart.variables[i].eps == 0
                                           for i in [i for i, _ in m[0]] + list(m[1]))})
        q = SuperPolynomial(chart, {m: c for m, c in q.terms.items()
                                    if all(chart.variables[i].eps == 0
                                           for i in [i for i, _ in m[0]] + list(m[1]))})
        for pp in p.parity_components():
            for qq in q.parity_components():
                if pp.is_zero() or qq.is_zero():
                    continue
                sign = -1 if ((pp.parity() + 1) * (qq.parity() + 1)) % 2 else 1
                lhs = schouten_bracket(pp, qq, gs)
                rhs = schouten_bracket(qq, pp, gs).scale(-sign)
                assert lhs == rhs


def test_schouten_rejects_momenta():
    a_side, gs = line_gamma_star()
    chart = a_side.chart
    with pytest.raises(Exception):
        schouten_bracket(SuperPolynomial.variable(chart, "xs1"),
                         SuperPolynomial.variable(chart, "x1"), gs)


def test_trivector_side_structure_passes():
    """Zero primal structure against the dual tangent bundle, twisted by a
    constant trivector on the dual side; the mirror of the constant-twist case."""
    a_side = AlgebroidSpec.build(("x1", "x2", "x3"), ("xi1", "xi2", "xi3"), {}, {})
    dual = dual_chart_for(a_side)
    astar = AlgebroidSpec.build(("x1", "x2", "x3"), ("th1", "th2", "th3"),
                                {(1, 1): 1, (2, 2): 1, (3, 3): 1}, {}, bundle=dual)
    psi = parse_poly("th1*th2*th3", dual.chart)
    proto = ProtoBialgebroidSpec(a_side, astar, None, psi)
    theta = proto.theta()
    assert theta.psi_star.gradings() == {(3, 0, 3)}
    rep = check_proto(proto)
    assert rep.passed, [(c.name, c.passed) for c in rep.checks]


def test_both_cubic_terms_on_the_plain_double_fail():
    """Constant cubic terms on both sides of the standard pair interact:
    the mixed and momentum equations pick up nonzero residuals."""
    a_side = AlgebroidSpec.build(("x1", "x2", "x3"), ("xi1", "xi2", "xi3"),
                                 {(1, 1): 1, (2, 2): 1, (3, 3): 1}, {})
    dual = dual_chart_for(a_side)
    astar = AlgebroidSpec.build(("x1", "x2", "x3"), ("th1", "th2", "th3"), {}, {},
                                bundle=dual)
    phi = parse_poly("xi1*xi2*xi3", a_side.chart)
    psi = parse_poly("th1*th2*th3", dual.chart)
    proto = ProtoBialgebroidSpec(a_side, astar, phi, psi)
    rep = check_proto(proto)
    failing = {c.name for c in rep.checks if not c.passed}
    assert "{mu,gamma*}+{phi,psi*}" in failing
    assert "1/2{gamma*,gamma*}+{mu,psi*}" in failing


# -- structure constants that are base coordinates ------------------------------
# With zero anchors no bracket differentiates the base coordinates, so a
# residual is a polynomial identity in the structure constants: one document
# covers every constant Lie bialgebra of its rank.

GENERIC_RANK_2 = ("kind: bialgebroid\nbase: a b c d\nrank: 2\n"
                  "C[1][2][1] = a\nC[1][2][2] = b\nCbar[1][2][1] = c\nCbar[1][2][2] = d\n")


@pytest.mark.parametrize("command", ["verify-bialgebroid", "verify-proto", "double",
                                     "courant-verify"])
def test_every_pair_of_two_dimensional_lie_algebras_is_a_bialgebra(tmp_path, command):
    """The Liu-Weinstein-Xu cocycle condition holds identically at rank 2."""
    doc = tmp_path / "generic-r2.spec"
    doc.write_text(GENERIC_RANK_2)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([command, "--spec", str(doc)])
    assert code == 0, out.getvalue()
    assert "result: PASS" in out.getvalue()


def test_generic_rank_3_self_bracket_is_the_jacobiator():
    """1/2{mu,mu} = sum_{a<b<c, d} J^d_abc xi^a xi^b xi^c xis_d, term by term."""
    names = {(a, b, c): f"k{a}{b}{c}" for a, b in ((1, 2), (1, 3), (2, 3)) for c in (1, 2, 3)}
    text = (f"kind: bialgebroid\nbase: {' '.join(names.values())}\nrank: 3\n"
            + "".join(f"C[{a}][{b}][{c}] = {name}\n" for (a, b, c), name in names.items()))
    spec = materialize(parse_document(text)).proto.a_side
    mu = build_mu(spec)
    half = canonical_bracket(mu, mu).scale(GaussianRational(Fraction(1, 2)))
    jacobiator = generic_jacobiator(names, 3)
    expected = " + ".join(f"({x})*{'*'.join(mono)}*xi{a}*xi{b}*xi{c}*xis{d}"
                          for (a, b, c, d), poly in jacobiator.items()
                          for mono, x in poly.items())
    assert sum(len(poly) for poly in jacobiator.values()) == 12
    assert len(half.terms) == 12
    assert half == parse_poly(expected, spec.chart)
