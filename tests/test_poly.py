import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bigbracket.chart import ChartError, cotangent_chart, darboux_chart, ODD
from bigbracket.poly import SuperPolynomial
from bigbracket.rationals import GaussianRational

from conftest import random_poly
from oracles import slow_multiply

CC = cotangent_chart(["x1", "x2"], ["xi1", "xi2"])
CH = CC.chart
OC = darboux_chart([("s", 0, "sigma"), ("t", 0, "tau")], ODD)


def v(name):
    return SuperPolynomial.variable(CH, name)


def test_odd_anticommutation():
    assert v("xi1") * v("xi2") == v("xi1") * v("xi2")
    assert v("xi2") * v("xi1") == -(v("xi1") * v("xi2"))


def test_odd_square_vanishes():
    assert (v("xi1") * v("xi1")).is_zero()


def test_cross_terms_cancel():
    x = v("x1")
    w = v("xi1") * v("xi2")
    assert (x + w) * (x - w) == x * x


def test_left_derivative_signs():
    w = v("xi1") * v("xi2")
    assert w.partial("xi1") == v("xi2")
    assert w.partial("xi2") == -v("xi1")
    p = v("x1") * v("x1") * v("xi1")
    assert p.partial("x1") == (v("x1") * v("xi1")).scale(2)


def test_partial_unknown_variable():
    other = cotangent_chart(["y1"], ["et1"]).chart
    with pytest.raises(ChartError):
        v("x1").partial(other.var("y1"))


def test_mixed_partials_commute_with_sign():
    rng = random.Random(7)
    for _ in range(25):
        p = random_poly(CH, rng)
        for a in CH.variables:
            for b in CH.variables:
                lhs = p.partial(a).partial(b)
                sign = -1 if (a.parity * b.parity) % 2 else 1
                rhs = p.partial(b).partial(a).scale(sign)
                assert lhs == rhs


def test_gradings_on_structure_data():
    # kappa weights: base momentum 2, odd fiber and fiber momentum 1
    mu_like = v("xi1") * v("xs1") - (v("xi1") * v("xi2") * v("xis2")).scale(
        GaussianRational(Fraction(1, 2)))
    assert mu_like.gradings() == {(1, 2, 3)}
    assert SuperPolynomial.constant(CH, 1).gradings() == {(0, 0, 0)}
    gamma_like = v("xs1") * v("xis1")
    assert gamma_like.gradings() == {(2, 1, 3)}


def test_grading_additive_under_product():
    rng = random.Random(3)
    for _ in range(20):
        p = random_poly(CH, rng)
        q = random_poly(CH, rng)
        comps_p = p.bigraded_components()
        comps_q = q.bigraded_components()
        for (e1, d1, _), pp in comps_p.items():
            for (e2, d2, _), qq in comps_q.items():
                prod = pp * qq
                if not prod.is_zero():
                    assert prod.gradings() == {(e1 + e2, d1 + d2, e1 + e2 + d1 + d2)}


def test_zero_polynomial_is_chart_tagged():
    other = cotangent_chart(["x1"], ["xi1"]).chart
    z1 = SuperPolynomial.zero(CH)
    z2 = SuperPolynomial.zero(other)
    with pytest.raises(ChartError):
        z1 == z2


def test_multiplication_against_sequence_oracle():
    rng = random.Random(11)
    for _ in range(40):
        p = random_poly(CH, rng)
        q = random_poly(CH, rng)
        assert p * q == slow_multiply(p, q)


@st.composite
def small_polys(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    return random_poly(CH, rng)


@given(small_polys(), small_polys(), small_polys())
def test_associativity_and_distributivity(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(small_polys(), small_polys())
def test_supercommutativity(p, q):
    for pp in p.parity_components():
        for qp in q.parity_components():
            sign = -1 if (pp.parity() == 1 and qp.parity() == 1) else 1
            if pp.is_zero() or qp.is_zero():
                continue
            assert pp * qp == (qp * pp).scale(sign)


@given(small_polys(), small_polys(), small_polys())
def test_graded_leibniz_for_partials(p, q, r):
    del r
    for var in CH.variables:
        for pp in p.parity_components():
            if pp.is_zero():
                continue
            lhs = (pp * q).partial(var)
            sign = -1 if (var.parity * pp.parity()) % 2 else 1
            rhs = pp.partial(var) * q + (pp * q.partial(var)).scale(sign)
            assert lhs == rhs


@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([CH, OC]))
def test_gradient_matches_partials(seed, chart):
    """One sweep yields exactly the partials of each parity component."""
    rng = random.Random(seed)
    p = random_poly(chart, rng, max_terms=6)
    grad = p.gradient()
    for fp, component in enumerate(p.parity_components()):
        for var in chart.variables:
            want = component.partial(var)
            got = grad.get((fp, var.index), {})
            assert got == want.terms
            assert (fp, var.index) not in grad or got
    assert all(fp in (0, 1) and 0 <= j < len(chart.variables) for fp, j in grad)


def test_gradient_of_constants_and_zero():
    assert SuperPolynomial.zero(CH).gradient() == {}
    assert SuperPolynomial.constant(CH, 5).gradient() == {}


def test_gradient_signs_and_exponents():
    w = v("x1") * v("x1") * v("xi1") * v("xi2")
    grad = w.gradient()
    assert set(grad) == {(0, CH.var(n).index) for n in ("x1", "xi1", "xi2")}
    assert grad[(0, CH.var("x1").index)] == (v("x1") * v("xi1") * v("xi2")).scale(2).terms
    assert grad[(0, CH.var("xi1").index)] == (v("x1") * v("x1") * v("xi2")).terms
    assert grad[(0, CH.var("xi2").index)] == (-(v("x1") * v("x1") * v("xi1"))).terms
