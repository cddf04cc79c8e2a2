import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bigbracket.brackets import canonical_bracket, derived_bracket, legendre
from bigbracket.chart import ChartError, cotangent_chart, darboux_chart, ODD
from bigbracket.poly import SuperPolynomial, poly_sum
from bigbracket.rationals import GaussianRational
from bigbracket.specfile import load_preset, materialize

from conftest import random_homogeneous, random_poly
from oracles import hamiltonian_lift, plain_chart, slow_bracket

CC = cotangent_chart(["x1", "x2"], ["xi1", "xi2"])
CH = CC.chart
OC = darboux_chart([("s", 0, "sigma"), ("t", 0, "tau")], ODD)
HALF = GaussianRational(Fraction(1, 2))


def v(name, chart=CH):
    return SuperPolynomial.variable(chart, name)


# -- generator relations -----------------------------------------------------

def test_even_generator_relations():
    assert canonical_bracket(v("xis1"), v("xi1")) == SuperPolynomial.constant(CH, 1)
    assert canonical_bracket(v("xs1"), v("x1")) == SuperPolynomial.constant(CH, 1)
    assert canonical_bracket(v("xs1"), v("x2")).is_zero()
    assert canonical_bracket(v("x1"), v("x2")).is_zero()
    assert canonical_bracket(v("xs1"), v("xs2")).is_zero()
    # pullbacks of base functions commute
    f = v("x1") * v("x2")
    g = v("x2") ** 3
    assert canonical_bracket(f, g).is_zero()


def test_spec_jacobi_triple():
    a = v("xi1") * v("xis2")
    b = v("x1") * v("xs1")
    c = v("xi2")
    lhs = canonical_bracket(a, canonical_bracket(b, c))
    sign = -1 if (a.parity() * b.parity()) % 2 else 1
    rhs = (canonical_bracket(canonical_bracket(a, b), c)
           + canonical_bracket(b, canonical_bracket(a, c)).scale(sign))
    assert lhs == rhs


# -- properties against the Leibniz-recursion oracle --------------------------

@st.composite
def seeds(draw):
    return draw(st.integers(min_value=0, max_value=10 ** 6))


@given(seeds())
def test_even_bracket_matches_oracle(seed):
    rng = random.Random(seed)
    p = random_poly(CH, rng)
    q = random_poly(CH, rng)
    assert canonical_bracket(p, q) == slow_bracket(p, q)


@given(seeds())
def test_odd_bracket_matches_oracle(seed):
    rng = random.Random(seed)
    p = random_poly(OC, rng)
    q = random_poly(OC, rng)
    assert canonical_bracket(p, q) == slow_bracket(p, q)


def _skew_sign(chart, p, q):
    shift = chart.bracket_parity
    return -1 if ((p.parity() + shift) * (q.parity() + shift)) % 2 else 1


@given(seeds())
def test_graded_skew_both_parities(seed):
    rng = random.Random(seed)
    for chart in (CH, OC):
        p = random_homogeneous(chart, rng)
        q = random_homogeneous(chart, rng)
        if p.is_zero() or q.is_zero():
            continue
        lhs = canonical_bracket(p, q)
        flipped = canonical_bracket(q, p).scale(_skew_sign(chart, p, q))
        assert lhs == flipped.scale(-1)


def _degree_one(rng):
    """A random section embedding: base-function coefficients on xi and xis."""
    terms = []
    for name in ("xi1", "xi2", "xis1", "xis2"):
        coeff = SuperPolynomial.constant(CH, rng.randint(-3, 3))
        for x in ("x1", "x2"):
            coeff = coeff * v(x) ** rng.randint(0, 2)
        terms.append(coeff * v(name))
    return poly_sum(CH, terms)


@given(seeds())
def test_pairing_is_symmetric_on_degree_one(seed):
    """{a, b} == {b, a} on degree 1, and a base function pairs to zero with
    it: so axiom 5 reads both of its terms off one bracket table."""
    rng = random.Random(seed)
    a, b = _degree_one(rng), _degree_one(rng)
    assert canonical_bracket(a, b) == canonical_bracket(b, a)
    f = v("x1") ** rng.randint(0, 2) * v("x2") ** rng.randint(0, 2)
    assert canonical_bracket(f, a).is_zero() and canonical_bracket(a, f).is_zero()


@given(seeds())
def test_graded_jacobi_both_parities(seed):
    rng = random.Random(seed)
    for chart in (CH, OC):
        shift = chart.bracket_parity
        a = random_homogeneous(chart, rng)
        b = random_homogeneous(chart, rng)
        c = random_homogeneous(chart, rng)
        if a.is_zero() or b.is_zero():
            continue
        sign = -1 if ((a.parity() + shift) * (b.parity() + shift)) % 2 else 1
        lhs = canonical_bracket(a, canonical_bracket(b, c))
        rhs = (canonical_bracket(canonical_bracket(a, b), c)
               + canonical_bracket(b, canonical_bracket(a, c)).scale(sign))
        assert lhs == rhs


@given(seeds())
def test_leibniz_in_second_argument(seed):
    rng = random.Random(seed)
    for chart in (CH, OC):
        shift = chart.bracket_parity
        a = random_homogeneous(chart, rng)
        b = random_homogeneous(chart, rng)
        c = random_poly(chart, rng)
        if a.is_zero() or b.is_zero():
            continue
        sign = -1 if ((a.parity() + shift) * b.parity()) % 2 else 1
        lhs = canonical_bracket(a, b * c)
        rhs = canonical_bracket(a, b) * c + (b * canonical_bracket(a, c)).scale(sign)
        assert lhs == rhs


def test_chart_mismatch_is_an_error():
    with pytest.raises(ChartError):
        canonical_bracket(v("x1"), SuperPolynomial.variable(OC, "s"), CH)


# -- the single-sweep kernel on larger inputs ----------------------------------

@given(seeds(), st.sampled_from([CH, OC]))
def test_bracket_matches_oracle_on_larger_mixed_inputs(seed, chart):
    rng = random.Random(seed)
    p = random_poly(chart, rng, max_terms=6)
    q = random_poly(chart, rng, max_terms=6)
    assert canonical_bracket(p, q) == slow_bracket(p, q)
    assert canonical_bracket(q, p) == slow_bracket(q, p)


def test_bracket_with_cancelling_gradient_terms():
    """Products of different gradient entries landing on one monomial.

    The Euler hamiltonian E = x1 xs1 + x2 xs2 scales a monomial by its
    position degree minus its momentum degree; every pair of E contributes
    +-f, and the accumulated coefficient drops to zero and comes back.
    """
    euler = v("x1") * v("xs1") + v("x2") * v("xs2")
    balanced = v("x1") * v("xs1") * v("x2") * v("xs2")
    assert canonical_bracket(euler, balanced).is_zero()
    assert slow_bracket(euler, balanced).is_zero()
    lopsided = v("x1") * v("x1") * v("xs1") * v("x2")
    assert canonical_bracket(euler, lopsided) == lopsided.scale(2)
    assert canonical_bracket(euler, lopsided) == slow_bracket(euler, lopsided)
    # odd chart: [E, f] with E = s sigma + t tau, partly cancelling
    s, t = SuperPolynomial.variable(OC, "s"), SuperPolynomial.variable(OC, "t")
    sig, tau = SuperPolynomial.variable(OC, "sigma"), SuperPolynomial.variable(OC, "tau")
    e_odd = s * sig + t * tau
    for f in (s * t * sig * tau, s * s * sig, t * sig * tau):
        assert canonical_bracket(e_odd, f) == slow_bracket(e_odd, f)


def test_zero_arguments():
    rng = random.Random(4)
    for chart in (CH, OC):
        z = SuperPolynomial.zero(chart)
        p = random_poly(chart, rng, max_terms=6)
        one = SuperPolynomial.constant(chart, 1)
        assert canonical_bracket(z, p).is_zero()
        assert canonical_bracket(p, z).is_zero()
        assert canonical_bracket(z, z).is_zero()
        assert canonical_bracket(one, p).is_zero()
        assert canonical_bracket(p, one).is_zero()


def test_bracket_without_darboux_chart_is_an_error():
    plain = plain_chart([("y", 0, 0, 0)])
    y = SuperPolynomial.variable(plain, "y")
    with pytest.raises(ChartError):
        canonical_bracket(y, y)
    with pytest.raises(ChartError):
        canonical_bracket(v("x1"), SuperPolynomial.variable(OC, "s"))


def _preset_theta(name):
    return materialize(load_preset(name)).proto.theta().total


@pytest.mark.parametrize("name", ["su2-bialgebra", "exact-twist-R3"])
def test_shipped_thetas_self_commute(name):
    theta = _preset_theta(name)
    assert len(theta.terms) > 3
    assert canonical_bracket(theta, theta).is_zero()


def test_broken_theta_keeps_its_anomaly():
    theta = _preset_theta("su2-bialgebra")
    chart = theta.chart
    xi1, xi2, xis1 = (SuperPolynomial.variable(chart, n) for n in ("xi1", "xi2", "xis1"))
    broken = theta + xi1 * xi2 * xis1
    anomaly = canonical_bracket(broken, broken)
    assert not anomaly.is_zero()
    assert anomaly == slow_bracket(broken, broken)


# -- derivatives kept on the polynomials ------------------------------------------

def _fresh(p):
    """An equal polynomial with no kept hash, gradient or partial."""
    return SuperPolynomial(p.chart, p.terms)


@given(seeds(), st.sampled_from([CH, OC]))
def test_bracket_matches_oracle_with_cold_and_warm_caches(seed, chart):
    """Brackets agree with the oracle before and after the operands keep
    their derivatives, and leave the operands' terms and hash as they were."""
    rng = random.Random(seed)
    p = random_poly(chart, rng, max_terms=6)
    q = random_poly(chart, rng, max_terms=6)
    snapshots = [dict(p.terms), dict(q.terms)]
    want = {(a, b): slow_bracket(x, y)
            for a, x in enumerate((p, q)) for b, y in enumerate((p, q))}
    for _cold_then_warm in range(2):
        for (a, b), expected in want.items():
            assert canonical_bracket((p, q)[a], (p, q)[b]) == expected
    for operand, snapshot in zip((p, q), snapshots):
        assert operand.terms == snapshot
        assert hash(operand) == hash(SuperPolynomial(chart, snapshot))


@given(seeds(), st.sampled_from([CH, OC]))
def test_kept_derivatives_equal_those_of_a_fresh_copy(seed, chart):
    rng = random.Random(seed)
    p = random_poly(chart, rng, max_terms=6)
    q = random_poly(chart, rng, max_terms=6)
    canonical_bracket(p, q)      # keeps p's gradient
    canonical_bracket(q, p)      # keeps p's partials by q's conjugates
    order = list(chart.variables)
    rng.shuffle(order)
    fresh = _fresh(p)            # asked for partials first, its gradient last
    for var in order:
        kept = p.partial(var)
        assert kept == fresh.partial(var) == _fresh(p).partial(var)
        assert p.partial(var.name) is kept
    assert p.gradient() == fresh.gradient() == _fresh(p).gradient()


def test_foreign_variable_raises_once_derivatives_are_kept():
    """A variable of another chart with the same name and index is refused."""
    twins = ((CH, cotangent_chart(["x1", "x2"], ["xi1", "xi2"]).chart, "x1"),
             (OC, darboux_chart([("s", 0, "sigma"), ("t", 0, "tau")], ODD), "s"))
    for chart, twin, name in twins:
        p = SuperPolynomial.variable(chart, name) ** 2 + SuperPolynomial.variable(
            chart, chart.variables[-1].name)
        foreign = twin.var(name)
        assert foreign.index == chart.var(name).index and foreign is not chart.var(name)
        canonical_bracket(p, p)
        p.partial(name)
        for var in chart.variables:
            p.partial(var)
        with pytest.raises(ChartError):
            p.partial(foreign)


def test_canonical_bracket_reaches_partial(monkeypatch):
    """The bracket asks its second argument for each partial, warm or cold.

    The traced benchmark counts SuperPolynomial.partial and requires the
    count to be nonzero on every workload, so a bracket that read the kept
    gradient of q directly would break that gate without failing any other
    test.
    """
    calls = []
    original = SuperPolynomial.partial

    def spy(self, var):
        calls.append(var)
        return original(self, var)

    monkeypatch.setattr(SuperPolynomial, "partial", spy)
    rng = random.Random(7)
    for chart in (CH, OC):
        p = random_poly(chart, rng, max_terms=6)
        q = random_poly(chart, rng, max_terms=6)
        while canonical_bracket(p, q).is_zero():
            q = random_poly(chart, rng, max_terms=6)
        counts = []
        for _cold_then_warm in range(2):
            calls.clear()
            canonical_bracket(p, q)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


# -- hamiltonian lift ---------------------------------------------------------

def test_lift_of_coordinate_field():
    h = hamiltonian_lift({"x1": 1}, CH)
    assert h == v("xs1")


def test_lift_of_line_differential():
    line = cotangent_chart(["x1"], ["xi1"]).chart
    h = hamiltonian_lift({"x1": SuperPolynomial.variable(line, "xi1")}, line)
    assert h == SuperPolynomial.variable(line, "xi1") * SuperPolynomial.variable(line, "xs1")


def test_lift_is_a_homomorphism():
    hv = hamiltonian_lift({"x1": v("x1")}, CH)
    hw = hamiltonian_lift({"x1": 1}, CH)
    # [x d_x, d_x] = -d_x
    assert canonical_bracket(hv, hw) == -v("xs1")
    f = v("x1") * v("x1") * v("x2")
    assert canonical_bracket(hv, f) == v("x1") * f.partial("x1")


def test_lift_rejects_momenta():
    with pytest.raises(ChartError):
        hamiltonian_lift({"x1": v("xs1")}, CH)
    with pytest.raises(ChartError):
        hamiltonian_lift({"xs1": 1}, CH)


# -- Legendre transform -------------------------------------------------------

DUAL = cotangent_chart(["x1", "x2"], ["th1", "th2"])


def test_legendre_on_generators():
    assert legendre(SuperPolynomial.variable(DUAL.chart, "th1"), DUAL.chart, CH) == v("xis1")
    assert legendre(SuperPolynomial.variable(DUAL.chart, "xs1"), DUAL.chart, CH) == v("xs1")
    assert legendre(v("xi1"), CH, DUAL.chart) == SuperPolynomial.variable(DUAL.chart, "ths1")


def test_legendre_involution():
    rng = random.Random(5)
    for _ in range(10):
        p = random_poly(CH, rng)
        there = legendre(p, CH, DUAL.chart)
        back = legendre(there, DUAL.chart, CH)
        assert back == p


@given(seeds())
def test_legendre_is_bracket_isomorphism(seed):
    rng = random.Random(seed)
    p = random_poly(CH, rng)
    q = random_poly(CH, rng)
    lhs = legendre(canonical_bracket(p, q), CH, DUAL.chart)
    rhs = canonical_bracket(legendre(p, CH, DUAL.chart), legendre(q, CH, DUAL.chart))
    assert lhs == rhs


def test_legendre_base_mismatch():
    other = cotangent_chart(["y1", "y2"], ["th1", "th2"]).chart
    with pytest.raises(ChartError):
        legendre(v("x1"), CH, other)


def test_quadratic_form_graph_transport():
    """The graph of the differential of a fiber quadratic maps onto the graph
    of the differential of the inverse quadratic on the dual side."""
    src = cotangent_chart(["x1", "x2"], ["xi1", "xi2"])
    dst = cotangent_chart(["x1", "x2"], ["th1", "th2"])
    omega = SuperPolynomial.variable(src.chart, "xi1") * SuperPolynomial.variable(src.chart, "xi2")
    constraints = []
    for name, mom in (("xi1", "xis1"), ("xi2", "xis2")):
        constraints.append(SuperPolynomial.variable(src.chart, mom) - omega.partial(name))
    for name, mom in (("x1", "xs1"), ("x2", "xs2")):
        constraints.append(SuperPolynomial.variable(src.chart, mom) - omega.partial(name))
    moved = [legendre(c, src.chart, dst.chart) for c in constraints]
    # the transported graph is the graph of d(pi) for pi = -th1*th2
    pi = -(SuperPolynomial.variable(dst.chart, "th1") * SuperPolynomial.variable(dst.chart, "th2"))
    expected = []
    for name, mom in (("th1", "ths1"), ("th2", "ths2")):
        expected.append(SuperPolynomial.variable(dst.chart, mom) - pi.partial(name))
    for name, mom in (("x1", "xs1"), ("x2", "xs2")):
        expected.append(SuperPolynomial.variable(dst.chart, mom) - pi.partial(name))
    moved_strs = sorted({str(c) for c in moved} | {str(-c) for c in moved})
    expected_strs = sorted({str(c) for c in expected} | {str(-c) for c in expected})
    assert moved_strs == expected_strs


# -- derived bracket ----------------------------------------------------------

def test_derived_bracket_zero_hamiltonian():
    z = SuperPolynomial.zero(CH)
    rng = random.Random(1)
    a, b = random_poly(CH, rng), random_poly(CH, rng)
    assert derived_bracket(z, a, b, CH).is_zero()


def test_derived_bracket_reproduces_poisson_bracket():
    # bivector sigma*tau on the plane generates {s, t} = 1
    pi = SuperPolynomial.variable(OC, "sigma") * SuperPolynomial.variable(OC, "tau")
    s, t = SuperPolynomial.variable(OC, "s"), SuperPolynomial.variable(OC, "t")
    assert derived_bracket(pi, s, t, OC) == SuperPolynomial.constant(OC, 1)
    assert derived_bracket(pi, t, s, OC) == SuperPolynomial.constant(OC, -1)
    f = s * s
    g = t
    assert derived_bracket(pi, f, g, OC) == s.scale(2)


def test_derived_bracket_skew_up_to_coboundary():
    """a o b + (sign) b o a equals the hamiltonian derivative of the bracket."""
    rng = random.Random(9)
    for chart in (CH, OC):
        shift = chart.bracket_parity
        theta = random_homogeneous(chart, rng, parity=1)
        for _ in range(6):
            a = random_homogeneous(chart, rng)
            b = random_homogeneous(chart, rng)
            if a.is_zero() or b.is_zero():
                continue
            # derived product parity shift is eps + 1
            sign = -1 if ((a.parity() + shift + 1) * (b.parity() + shift + 1)) % 2 else 1
            sym = derived_bracket(theta, a, b, chart) + derived_bracket(
                theta, b, a, chart).scale(sign)
            # the symmetric defect is (-1)^{a~+1} {theta, {a, b}} for even
            # charts and the matching global sign convention on odd charts
            defect = canonical_bracket(theta, canonical_bracket(a, b, chart), chart)
            defect = defect.scale(-1 if (a.parity() + 1) % 2 else 1)
            assert sym == defect


def test_leibniz_jacobi_for_self_commuting_hamiltonian():
    # theta = mu of the tangent bundle of the plane: {theta, theta} = 0
    theta = v("xi1") * v("xs1") + v("xi2") * v("xs2")
    assert canonical_bracket(theta, theta).is_zero()
    rng = random.Random(13)
    for _ in range(8):
        a = random_homogeneous(CH, rng)
        b = random_homogeneous(CH, rng)
        c = random_poly(CH, rng)
        if a.is_zero() or b.is_zero():
            continue
        sign = -1 if ((a.parity() + 1) * (b.parity() + 1)) % 2 else 1
        lhs = derived_bracket(theta, a, derived_bracket(theta, b, c))
        rhs = (derived_bracket(theta, derived_bracket(theta, a, b), c)
               + derived_bracket(theta, b, derived_bracket(theta, a, c)).scale(sign))
        assert lhs == rhs


def test_intertwining_of_section_embeddings():
    """Sections seen as functions on one side match hamiltonian contractions
    on the other side of the transform, for every basis section."""
    src = cotangent_chart(["x1", "x2"], ["xi1", "xi2"])   # T*(Pi A)
    dst = cotangent_chart(["x1", "x2"], ["th1", "th2"])   # T*(Pi A*)
    x1 = SuperPolynomial.variable(dst.chart, "x1")
    # X = X^a(x) th_a on the dual side pulls back to X^a(x) xis_a
    for a, (dual_name, mom_name) in enumerate((("th1", "xis1"), ("th2", "xis2"))):
        X = x1 * SuperPolynomial.variable(dst.chart, dual_name)
        pulled = legendre(X, dst.chart, src.chart)
        expected = SuperPolynomial.variable(src.chart, "x1") * SuperPolynomial.variable(
            src.chart, mom_name)
        assert pulled == expected
    # xi = f_a(x) xi^a pushes to the contraction hamiltonian f_a ths^a
    xi = SuperPolynomial.variable(src.chart, "x2") * SuperPolynomial.variable(src.chart, "xi1")
    pushed = legendre(xi, src.chart, dst.chart)
    assert pushed == SuperPolynomial.variable(dst.chart, "x2") * SuperPolynomial.variable(
        dst.chart, "ths1")


def test_projection_is_a_poisson_map():
    """Brackets of degree-1 embeddings equal the fiberwise pairing pullback."""
    chart = CC.chart
    basis_v = [v("xis1"), v("xis2")]       # images of the fiber basis
    basis_c = [v("xi1"), v("xi2")]         # images of the dual basis
    for i, ev in enumerate(basis_v):
        for j, ec in enumerate(basis_c):
            expect = SuperPolynomial.constant(chart, 1 if i == j else 0)
            assert canonical_bracket(ev, ec) == expect
            assert canonical_bracket(ec, ev) == expect
    for e1 in basis_v:
        for e2 in basis_v:
            assert canonical_bracket(e1, e2).is_zero()
    for e1 in basis_c:
        for e2 in basis_c:
            assert canonical_bracket(e1, e2).is_zero()
    # base functions are casimirs of the fiberwise structure
    f = v("x1") * v("x2")
    for e in basis_v + basis_c:
        assert canonical_bracket(f, e).is_zero()
        assert canonical_bracket(v("x1"), e).is_zero()


def test_concurrent_bracket_evaluation_is_deterministic():
    """Pure immutable values: parallel invocations agree with the serial ones."""
    import concurrent.futures
    rng = random.Random(99)
    polys = [random_poly(CH, rng) for _ in range(12)]
    jobs = [(p, q) for p in polys for q in polys]
    serial = [str(canonical_bracket(p, q)) for p, q in jobs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda pq: str(canonical_bracket(*pq)), jobs))
    assert serial == parallel
