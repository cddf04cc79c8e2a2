import random

import pytest

from bigbracket.chart import ChartError
from bigbracket.poly import SuperPolynomial

from conftest import random_poly
from oracles import base_field, de_rham, interior, lie_derivative, pi_tangent_chart

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
