from fractions import Fraction
from math import gcd

from hypothesis import assume, given, strategies as st

from bigbracket.rationals import GaussianRational, ONE

from oracles import SlowGaussianRational

_parts = st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=-20, max_value=20, max_denominator=12))
_plain = st.one_of(st.integers(min_value=-9, max_value=9), _parts)
# real, imaginary, zero and general scalars
_scalars = st.one_of(st.tuples(_parts, st.just(Fraction(0))),
                     st.tuples(st.just(Fraction(0)), _parts),
                     st.just((Fraction(0), Fraction(0))),
                     st.tuples(_parts, _parts))


def _outcome(fn, *args):
    """The value of fn(*args) as plain data, or the type of what it raises."""
    try:
        value = fn(*args)
    except (ArithmeticError, TypeError) as exc:
        return type(exc)
    if isinstance(value, (GaussianRational, SlowGaussianRational)):
        assert type(value.re) is Fraction and type(value.im) is Fraction
        return ("scalar", value.re, value.im)
    return value


def _agree(fn, *pairs):
    """fn on the new scalars and on the oracle's gives the same outcome."""
    new = [GaussianRational(*p) if isinstance(p, tuple) else p for p in pairs]
    old = [SlowGaussianRational(*p) if isinstance(p, tuple) else p for p in pairs]
    assert _outcome(fn, *new) == _outcome(fn, *old)


_BINARY = (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
           lambda a, b: a / b, lambda a, b: a == b)
_UNARY = (lambda a: -a, bool, hash, str, lambda a: a.is_zero())


@given(_scalars, _scalars)
def test_scalar_arithmetic_agrees_with_the_oracle(x, y):
    for fn in _BINARY:
        _agree(fn, x, y)
    for fn in _UNARY:
        _agree(fn, x)


@given(_scalars, _plain)
def test_scalar_with_int_and_fraction_operands_agrees_with_the_oracle(x, k):
    for fn in _BINARY:
        _agree(fn, x, k)
        _agree(fn, k, x)


def test_default_parts_are_one_shared_zero():
    a, b = GaussianRational(Fraction(1, 3)), GaussianRational(Fraction(2, 3))
    assert GaussianRational().re is GaussianRational().im is a.im
    for value in (a + b, a - b, a * b, a / b, -a):
        assert value.im is a.im


def _canonical(z):
    """z is the triple (p + q*i)/d in lowest terms, with zero as (0, 0, 1)."""
    return type(z.p) is type(z.q) is type(z.d) is int and z.d > 0 and gcd(z.p, z.q, z.d) == 1


@given(_scalars, _scalars)
def test_every_result_is_in_lowest_terms(x, y):
    a, b = GaussianRational(*x), GaussianRational(*y)
    results = [a + b, a - b, a * b, -a]
    if b:
        results.append(a / b)
    assert all(_canonical(z) for z in results)
    zero = a - a
    assert (zero.p, zero.q, zero.d) == (0, 0, 1)


@given(_plain)
def test_a_real_scalar_equals_and_hashes_like_its_value(x):
    z = GaussianRational(x)
    assert z == x and x == z and hash(z) == hash(x)
    assert z == Fraction(x) and hash(z) == hash(Fraction(x))


@given(_scalars)
def test_int_over_a_scalar_is_one_over_it(x):
    z = GaussianRational(*x)
    assume(z)
    assert 1 / z == ONE / z and _canonical(1 / z)
    assert -3 / z == GaussianRational(-3) / z


def test_unit_and_other_imaginary_parts_print_as_the_oracle_prints_them():
    for re in (0, 1, Fraction(-1, 2)):
        for im in (1, -1, 2, Fraction(-3, 2)):
            _agree(str, (Fraction(re), Fraction(im)))
