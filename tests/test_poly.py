import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bigbracket.brackets import legendre
from bigbracket.chart import ChartError, cotangent_chart, darboux_chart, EVEN, ODD
from bigbracket.parsing import parse_poly
from bigbracket.poly import SuperPolynomial, mono_degree, mono_sort_key
from bigbracket.rationals import GaussianRational

from conftest import random_homogeneous, random_poly
from oracles import expanded_word_sort_key, plain_chart, slow_multiply, slow_substitute

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


def test_parity_components_of_homogeneous_and_mixed_polynomials():
    even, odd = v("x1") * v("xi1") * v("xi2"), v("x1") * v("xi1")
    assert even.parity_components()[0] is even and odd.parity_components()[1] is odd
    assert even.parity_components()[1].is_zero() and odd.parity_components()[0].is_zero()
    ev, od = (even + odd).parity_components()
    assert (ev, od) == (even, odd)
    zero = SuperPolynomial.zero(CH)
    assert all(part.is_zero() for part in zero.parity_components())


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


def test_equal_polynomials_hash_alike_and_keep_their_hash():
    half = GaussianRational(Fraction(1, 2))
    p = (v("x1") * v("xi1")).scale(half) + v("xis2")
    q = v("xis2") + v("xi1").scale(half) * v("x1") + v("x2") - v("x2")
    assert p == q and p is not q
    assert hash(p) == hash(q) == hash(p)
    table = {p: "kept"}
    assert table[q] == "kept"
    assert hash(SuperPolynomial.zero(CH)) == hash(v("x1") - v("x1"))


@given(small_polys(), small_polys())
def test_operators_never_store_a_zero_coefficient(p, q):
    """Sums, products and partials that cancel keep no zero term."""
    results = [p + q, p - q, p + (-p), p * q, (p + q) * (p - q),
               p * q - q * p, (p * q + q * p) * (p - p)]
    results += [r.partial(var) for r in (p, p * q, p + q) for var in CH.variables]
    for r in results:
        assert all(r.terms.values()), r.terms


@given(small_polys(), st.integers(min_value=0, max_value=7))
def test_power_is_the_repeated_product(p, k):
    product = SuperPolynomial.constant(CH, 1)
    for _ in range(k):
        product = product * p
    assert p ** k == product


def test_huge_power_of_a_monomial_is_one_term():
    x1 = CH.var("x1").index
    assert (v("x1") ** 999_999_999).terms == {(((x1, 999_999_999),), ()): 1}
    assert str((v("x1") * v("xi1")).scale(2) ** 1) == "2*x1*xi1"


@st.composite
def monomials(draw):
    """Normal-ordered monomials over indices 0..5; an index is even or odd."""
    indices = draw(st.lists(st.integers(min_value=0, max_value=5), unique=True, max_size=4))
    parities = draw(st.lists(st.booleans(), min_size=len(indices), max_size=len(indices)))
    evens = tuple(sorted((idx, draw(st.integers(min_value=1, max_value=6)))
                         for idx, odd in zip(indices, parities) if not odd))
    odds = tuple(sorted(idx for idx, odd in zip(indices, parities) if odd))
    return evens, odds


@given(st.lists(monomials(), unique=True, max_size=12))
def test_sort_key_orders_like_the_expanded_word(monos):
    """Comparing runs (index, -exponent) gives the order of the written-out word."""
    assert sorted(monos, key=mono_sort_key) == sorted(monos, key=expanded_word_sort_key)


def test_scaling_zero_returns_it():
    """A polynomial never changes, so a zero one scaled by anything is itself."""
    zero = SuperPolynomial.zero(CH)
    for value in (0, 1, -3, GaussianRational(Fraction(2, 7), 5), GaussianRational(0)):
        assert zero.scale(value) is zero and zero.scale(value).is_zero()
        assert zero * value is zero
    assert v("x1").scale(0).is_zero() and v("x1").scale(3) == v("x1") + v("x1") + v("x1")


# ---------------------------------------------------------------------------
# substitution against expanded symbol words
# ---------------------------------------------------------------------------

# the charts above, and one with OC's names at the other parity (s odd, sigma even)
FLIPPED = darboux_chart([("s", ODD, "sigma"), ("t", EVEN, "tau")], ODD)
MIXED = plain_chart([("x1", EVEN, 0, 0), ("s", EVEN, 0, 0), ("xi1", ODD, 0, 1),
                     ("tau", ODD, 1, 0), ("sigma", EVEN, 1, 0)])
TARGETS = {CH: (CH, MIXED), OC: (OC, FLIPPED, MIXED)}


def _image(target, var, rng):
    """A random image of `var` on the target: a renaming, a scalar, zero, a
    polynomial of the right parity, or (rarely) one of the wrong parity."""
    same = [w for w in target.variables if w.parity == var.parity]
    kind = rng.random()
    if kind < 0.35 and same:
        return SuperPolynomial.variable(target, rng.choice(same).name)
    if kind < 0.42:
        return 0 if rng.random() < 0.5 else SuperPolynomial.zero(target)
    if kind < 0.48 and var.parity == EVEN:
        return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-1, 1))
    if kind < 0.5:
        return random_homogeneous(target, rng, parity=1 - var.parity, max_terms=2)
    return random_homogeneous(target, rng, parity=var.parity, max_terms=2)


@st.composite
def substitutions(draw):
    """(p, target, mapping): each source variable is mapped or, where the
    target has its name, left to the same-named target variable."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    source = rng.choice((CH, OC))
    target = rng.choice(TARGETS[source])
    p = random_poly(source, rng, max_terms=4, max_exp=3)
    mapping = {}
    for var in source.variables:
        if var.name not in target or rng.random() < 0.5:
            mapping[var.name] = _image(target, var, rng)
    return p, target, mapping


@given(substitutions())
def test_substitute_matches_expanded_words(case):
    p, target, mapping = case
    try:
        expected = slow_substitute(p, target, mapping)
    except ChartError:
        with pytest.raises(ChartError):
            p.substitute(target, mapping)
        return
    got = p.substitute(target, mapping)
    assert got == expected and all(got.terms.values())


def test_renamings_that_merge_variables():
    """Non-injective renamings: evens merge into a power, two odds into zero."""
    s, t, sig, tau = (SuperPolynomial.variable(OC, n) for n in ("s", "t", "sigma", "tau"))
    p = (s * t * sig - t * t * tau).scale(2) + sig * tau + s
    for mapping in ({"t": s}, {"sigma": tau}, {"tau": sig, "t": s}, {"s": t, "t": s},
                    {"sigma": tau, "tau": sig}):
        expected = slow_substitute(p, OC, mapping)
        assert p.substitute(OC, mapping) == expected
    assert (sig * tau).substitute(OC, {"sigma": tau}).is_zero()
    assert (s * t).substitute(OC, {"t": s}) == s * s
    assert (sig * tau).substitute(OC, {"sigma": tau, "tau": sig}) == -(sig * tau)


def test_same_named_target_of_the_other_parity():
    """With no image, a variable goes to its namesake even at the other parity."""
    s, t, sig, tau = (SuperPolynomial.variable(OC, n) for n in ("s", "t", "sigma", "tau"))
    for p in (s, s * s, s * sig * tau, s * t * tau + t):
        got = p.substitute(FLIPPED, {})
        assert got == slow_substitute(p, FLIPPED, {})
    assert (s * s).substitute(FLIPPED, {}).is_zero()        # s is odd on FLIPPED
    assert str((s * tau).substitute(FLIPPED, {})) == "s*tau"


def test_substitution_rejects_bad_images():
    x1 = v("x1")
    with pytest.raises(ChartError):
        (x1 * v("xi1")).substitute(CH, {"xi1": v("x2")})        # wrong parity
    with pytest.raises(ChartError):
        x1.substitute(CH, {"x1": v("x2") + v("xi1")})            # mixed parity
    with pytest.raises(ChartError):
        x1.substitute(CH, {"x1": SuperPolynomial.variable(MIXED, "x1")})   # another chart
    with pytest.raises(ChartError):
        v("xs1").substitute(MIXED, {})                          # no namesake


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_legendre_matches_expanded_words(seed):
    rng = random.Random(seed)
    dual = cotangent_chart(["x1", "x2"], ["th1", "th2"]).chart
    names = {"x1": "x1", "x2": "x2", "xs1": "xs1", "xs2": "xs2",
             "th1": "xis1", "th2": "xis2", "ths1": "xi1", "ths2": "xi2"}
    mapping = {a: SuperPolynomial.variable(CH, b) for a, b in names.items()}
    p = random_poly(dual, rng, max_terms=5)
    assert legendre(p, dual, CH) == slow_substitute(p, CH, mapping)


@pytest.mark.parametrize("image", ["x2", "-xs1", "x2^2", "i*x1"])
def test_huge_exponent_substitutes_as_one_run(image):
    k = 999_999_999
    p = (v("x1") ** k) * v("xi1") + v("x2") * v("xi2")
    mapping = {"x1": parse_poly(image, CH), "xi1": v("xi2"), "xi2": v("xi1")}
    got = p.substitute(CH, mapping)
    assert got == slow_substitute(p, CH, mapping)
    assert max(map(mono_degree, got.terms)) >= k + 1
