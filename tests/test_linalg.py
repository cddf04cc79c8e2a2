import random
from fractions import Fraction

import pytest

from bigbracket.chart import cotangent_chart
from bigbracket.linalg import PolyFrac, solve, solve_over_fractions
from bigbracket.parsing import parse_poly
from bigbracket.poly import SuperPolynomial
from bigbracket.rationals import GaussianRational


@pytest.fixture(scope="module")
def chart():
    return cotangent_chart(["x1", "x2"], ["xi1"]).chart


def _lift(chart, value):
    return PolyFrac(SuperPolynomial.constant(chart, value))


def _value(frac):
    """The scalar of a constant PolyFrac."""
    assert frac.num.max_degree() <= 0 and frac.den.max_degree() == 0
    num = frac.num.terms.get(((), ()), GaussianRational(0))
    return num / frac.den.terms[((), ())]


def _random_system(rng):
    m, n = rng.randint(1, 4), rng.randint(1, 4)

    def entry():
        if rng.random() < 0.3:
            return GaussianRational(0)
        return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    matrix = [[entry() for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.5:      # a dependent row makes some systems inconsistent
        matrix[-1] = [a + b for a, b in zip(matrix[0], matrix[1 % m])]
    return matrix, [entry() for _ in range(m)]


@pytest.mark.parametrize("seed", range(40))
def test_solve_over_fractions_agrees_with_solve_on_constants(chart, seed):
    rng = random.Random(seed)
    matrix, rhs = _random_system(rng)
    expected = solve(matrix, rhs)
    lifted = solve_over_fractions([[_lift(chart, x) for x in row] for row in matrix],
                                  [_lift(chart, b) for b in rhs])
    if expected is None:
        assert lifted is None
    else:
        assert [_value(x) for x in lifted] == expected


def test_solve_over_fractions_with_polynomial_entries(chart):
    p = lambda text: PolyFrac(parse_poly(text, chart))
    matrix = [[p("x1"), p("1")], [p("x2"), p("x1")], [p("x1 + x2"), p("x1 + 1")]]
    rhs = [p("x1 + x2"), p("x2 + x1*x2"), p("x1 + 2*x2 + x1*x2")]   # x = (1, x2)
    x = solve_over_fractions(matrix, rhs)
    assert x is not None
    for row, b in zip(matrix, rhs):
        acc = row[0] * x[0] + row[1] * x[1]
        assert not (acc - b)
    assert not (x[0] - p("1")) and not (x[1] - p("x2"))


def test_solve_over_fractions_rejects_inconsistent_system(chart):
    p = lambda text: PolyFrac(parse_poly(text, chart))
    assert solve_over_fractions([[p("x1")], [p("x1")]], [p("1"), p("x2")]) is None
    assert solve_over_fractions([[p("x1"), p("x2")], [p("2*x1"), p("2*x2")]],
                                [p("1"), p("3")]) is None
