from fractions import Fraction

import hypothesis
import pytest

from bigbracket.chart import cotangent_chart, darboux_chart, ODD
from bigbracket.courant import standard_proto, structure_from_proto
from bigbracket.poly import SuperPolynomial
from bigbracket.rationals import GaussianRational

hypothesis.settings.register_profile(
    "default", max_examples=40, deadline=None)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def big_chart():
    """T*(Pi A) chart of a rank-2 bundle over the plane."""
    return cotangent_chart(["x1", "x2"], ["xi1", "xi2"])


@pytest.fixture(scope="session")
def even_chart(big_chart):
    return big_chart.chart


@pytest.fixture(scope="session")
def odd_chart():
    """Odd symplectic chart of multivector fields on the plane."""
    return darboux_chart([("s", 0, "sigma"), ("t", 0, "tau")], ODD)


def standard_structure(n):
    """Tangent bundle of R^n doubled against the zero dual structure."""
    return structure_from_proto(standard_proto(n))


def random_poly(chart, rng, max_terms=3, max_exp=2):
    terms = {}
    n = len(chart.variables)
    poly = SuperPolynomial.zero(chart)
    for _ in range(rng.randint(1, max_terms)):
        term = SuperPolynomial.constant(
            chart, GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
        for v in chart.variables:
            if v.parity == 0:
                k = rng.choice((0, 0, 1, max_exp))
                for _ in range(k):
                    term = term * SuperPolynomial.variable(chart, v.name)
            else:
                if rng.random() < 0.4:
                    term = term * SuperPolynomial.variable(chart, v.name)
        poly = poly + term
    return poly


def random_homogeneous(chart, rng, parity=None, **kw):
    p = random_poly(chart, rng, **kw)
    even, odd = p.parity_components()
    if parity == 0:
        return even
    if parity == 1:
        return odd
    return odd if rng.random() < 0.5 else even
