import random
from fractions import Fraction

import pytest

from bigbracket.algebroid import AlgebroidSpec, double_differential, homomorphism_residuals
from bigbracket.chart import ChartError
from bigbracket.poly import SuperPolynomial, poly_sum
from bigbracket.rationals import GaussianRational
from bigbracket.specfile import (PRESET_NAMES, DocumentError, load_preset, materialize,
                                 parse_document)

from conftest import random_poly
from oracles import (base_field, bracket_fields, commutator_homomorphism_residuals,
                     de_rham, interior, lie_derivative, pi_tangent_chart)
from test_algebroid import rotation_action
from test_cli import MIXED_PARITY_DOUBLES
from test_cli_surface import DOCUMENTS as SURFACE_DOCUMENTS

PT = pi_tangent_chart(["x1", "x2", "x3"])


def v(name):
    return SuperPolynomial.variable(PT, name)


def test_de_rham_squares_to_zero():
    d = de_rham(PT)
    assert d.commutator(d).is_zero()
    assert d.apply(d.apply(v("x1") * v("dx2"))).is_zero()


def test_de_rham_on_monomial():
    d = de_rham(PT)
    assert d.apply(v("x1") * v("dx2") * v("dx3")) == v("dx1") * v("dx2") * v("dx3")


def test_interior_and_lie_on_the_line():
    line = pi_tangent_chart(["x1"])
    x, dx = SuperPolynomial.variable(line, "x1"), SuperPolynomial.variable(line, "dx1")
    iX = interior({"x1": 1}, line)
    L = lie_derivative({"x1": 1}, line)
    assert iX.apply(x * dx) == x
    assert L.apply(x * dx) == dx


def test_commutation_relations():
    d = de_rham(PT)
    X = {"x1": v("x2"), "x2": 1}
    Y = {"x2": v("x1") * v("x1"), "x3": 1}
    iX, iY = interior(X, PT), interior(Y, PT)
    LX, LY = lie_derivative(X, PT), lie_derivative(Y, PT)
    assert d.commutator(LX).is_zero()
    assert iX.commutator(iY).is_zero()
    assert d.commutator(iX) == LX
    XY = base_field(X, PT).commutator(base_field(Y, PT))
    comps = {var.name: poly for var, poly in XY.components.items()}
    assert LX.commutator(iY) == interior(comps, PT)
    assert LX.commutator(LY) == lie_derivative(comps, PT)


def test_vector_fields_are_derivations():
    rng = random.Random(21)
    d = de_rham(PT)
    iX = interior({"x1": v("x2")}, PT)
    for field in (d, iX):
        for _ in range(10):
            p = random_poly(PT, rng)
            q = random_poly(PT, rng)
            for pp in p.parity_components():
                if pp.is_zero():
                    continue
                sign = -1 if (field.parity * pp.parity()) % 2 else 1
                assert field.apply(pp * q) == (
                    field.apply(pp) * q + (pp * field.apply(q)).scale(sign))


def test_interior_requires_base_components():
    with pytest.raises(ChartError):
        interior({"dx1": 1}, PT)
    with pytest.raises(ChartError):
        interior({"x1": v("dx1") * v("dx2") + v("x1")}, PT)


def test_cartan_needs_a_pairing_table():
    from bigbracket.chart import cotangent_chart
    with pytest.raises(ChartError):
        de_rham(cotangent_chart(["x1"], ["xi1"]).chart)


# -- the engine's hamiltonian fields against the component maps ------------------

def _fields_apply(fields, p):
    return poly_sum(p.chart, [field.apply(p) for field in fields])


def _load(name):
    if name in PRESET_NAMES:
        return load_preset(name)
    text = SURFACE_DOCUMENTS.get(name) or MIXED_PARITY_DOUBLES[name][0]
    return parse_document(text)


REFUSED = ("exact-rank.spec", "exact-table.spec")


@pytest.mark.parametrize("name", [*PRESET_NAMES, *SURFACE_DOCUMENTS, *MIXED_PARITY_DOUBLES])
def test_double_differential_matches_component_maps(name):
    """D = {theta, .} and D(D(x)) agree with the fields of {theta_p, x^A}, one
    per parity component of theta, on every coordinate of the chart."""
    if name in REFUSED:
        # `double` refuses these before any differential is built
        with pytest.raises(DocumentError):
            materialize(_load(name))
        return
    theta = materialize(_load(name)).proto.theta()
    field, _ = double_differential(theta)
    oracle = bracket_fields(theta.total)
    for var in theta.chart.variables:
        x = SuperPolynomial.variable(theta.chart, var.name)
        dx = field.apply(x)
        assert dx == _fields_apply(oracle, x), var.name
        assert field.apply(dx) == _fields_apply(oracle, dx), var.name


def _random_base_poly(chart, rng):
    x, y = SuperPolynomial.variable(chart, "x"), SuperPolynomial.variable(chart, "y")
    terms = []
    for _ in range(rng.randint(0, 3)):
        term = SuperPolynomial.constant(chart, GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 2))))
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice((x, y))
        terms.append(term)
    return poly_sum(chart, terms)


def _random_action(rng):
    rank = rng.randint(2, 3)      # a rank-1 action is always a homomorphism
    fibers = tuple(f"xi{k+1}" for k in range(rank))
    chart = AlgebroidSpec.build(("x", "y"), fibers, {}, {}).chart
    anchor = {(a, i): _random_base_poly(chart, rng)
              for a in range(1, rank + 1) for i in (1, 2)}
    structure = {}
    for a in range(1, rank + 1):
        for b in range(a + 1, rank + 1):
            for c in range(1, rank + 1):
                if rng.random() < 0.5:
                    structure[(a, b, c)] = (_random_base_poly(chart, rng) if rng.random() < 0.3
                                            else rng.randint(-2, 2))
    return AlgebroidSpec.build(("x", "y"), fibers, anchor, structure)


def _actions():
    rng = random.Random(17)
    actions = {"rotation": rotation_action(),
               "brst-so2-on-R2": materialize(load_preset("brst-so2-on-R2")).action,
               "brst-non-homomorphic.spec": materialize(parse_document(
                   SURFACE_DOCUMENTS["brst-non-homomorphic.spec"])).action}
    actions.update((f"random-{k}", _random_action(rng)) for k in range(12))
    return actions


ACTIONS = _actions()


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_homomorphism_residuals_match_commutators(name):
    spec = ACTIONS[name]
    got = homomorphism_residuals(spec)
    expected = commutator_homomorphism_residuals(spec)
    assert [pair for pair, _ in got] == [pair for pair, _ in expected]
    for (pair, residual), (_, oracle) in zip(got, expected):
        assert residual == oracle, pair
        assert str(residual) == str(oracle), pair


def test_random_actions_are_mostly_not_homomorphisms():
    failing = [name for name, spec in ACTIONS.items()
               if any(not res.is_zero() for _pair, res in homomorphism_residuals(spec))]
    assert "brst-non-homomorphic.spec" in failing
    assert sum(name.startswith("random-") for name in failing) >= 8
