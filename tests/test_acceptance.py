"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All symbolic assertions are exact; the single floating-point comparison is
the closed-form volume value.  Stated time budgets are enforced.
"""
import functools
import io
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from bigbracket.algebroid import check_bialgebroid
from bigbracket.brackets import canonical_bracket
from bigbracket.chart import cotangent_chart, darboux_chart, ODD
from bigbracket.cli import main as cli_main
from bigbracket.courant import (basis_sections, circ, d_operator, generator_family,
                                pairing, shla_check, skew_bracket,
                                standard_proto, structure_from_proto, t_tensor,
                                twist_exact, verify_axioms)
from bigbracket.necklace import (build_structures, global_assembly, mode_cohomology,
                                 modular_and_volume, structure_identities)
from bigbracket.parsing import parse_poly
from bigbracket.poly import SuperPolynomial
from bigbracket.rationals import GaussianRational

from conftest import random_homogeneous, standard_structure
from oracles import (anchor_apply, base_field, de_rham, fiber_de_rham, interior,
                     jacobiator, lie_derivative, pi_tangent_chart, section_from_components,
                     splitting_shift, swap_proto)
from test_algebroid import poisson_r2, su2_bialgebra

HALF = GaussianRational(Fraction(1, 2))
QUARTER = GaussianRational(Fraction(1, 4))


def criterion(num, budget=None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            status = "FAIL"
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if budget is not None and elapsed >= budget:
                    raise AssertionError(
                        f"criterion {num} took {elapsed:.2f}s, budget {budget}s")
                status = "PASS"
            finally:
                elapsed = time.perf_counter() - start
                print(f"CRITERION {num}: {status} ({elapsed:.2f}s)")
        return wrapper
    return decorate


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue()


@criterion(1, budget=10)
def test_criterion_1_kernel_laws():
    even = cotangent_chart(["x1", "x2"], ["xi1", "xi2"]).chart
    odd = darboux_chart([("s", 0, "sigma"), ("t", 0, "tau")], ODD)
    rng = random.Random(20240)
    checked = 0
    def draw(chart):
        while True:
            p = random_homogeneous(chart, rng)
            if not p.is_zero():
                return p

    for chart in (even, odd):
        shift = chart.bracket_parity
        for _ in range(100):
            a, b, c = draw(chart), draw(chart), draw(chart)
            checked += 1
            assert (a * b) * c == a * (b * c)
            sign_ab = -1 if (a.parity() * b.parity()) % 2 else 1
            assert a * b == (b * a).scale(sign_ab)
            # graded Leibniz of the bracket in its second slot
            sign_l = -1 if ((a.parity() + shift) * b.parity()) % 2 else 1
            assert canonical_bracket(a, b * c, chart) == (
                canonical_bracket(a, b, chart) * c
                + (b * canonical_bracket(a, c, chart)).scale(sign_l))
            # graded Jacobi
            sign_j = -1 if ((a.parity() + shift) * (b.parity() + shift)) % 2 else 1
            lhs = canonical_bracket(a, canonical_bracket(b, c, chart), chart)
            rhs = (canonical_bracket(canonical_bracket(a, b, chart), c, chart)
                   + canonical_bracket(b, canonical_bracket(a, c, chart), chart)
                   .scale(sign_j))
            assert lhs == rhs
    assert checked >= 200


@criterion(2, budget=5)
def test_criterion_2_lie_algebroid_gate(tmp_path):
    for preset in ("su2-bialgebra", "tangent-R2", "brst-so2-on-R2"):
        code, out = run_cli(["verify-algebroid", "--preset", preset])
        assert code == 0, out
    perturbed = {
        "su2": """
kind: algebroid
rank: 3
C[1][2][3] = 1
C[2][3][1] = 1
C[3][1][2] = 1
C[1][2][1] = 1
""",
        "tangent-R2": """
kind: algebroid
base: x1 x2
rank: 2
A[1][1] = 1
A[2][2] = 1
C[1][2][1] = 1
""",
        "brst-so2-on-R2": """
kind: brst
base: x y
rank: 1
lie[1][1][1] = 1
rho[1][1] = -y
rho[1][2] = x
""",
    }
    for name, text in perturbed.items():
        path = tmp_path / f"{name}.spec"
        path.write_text(text)
        code, out = run_cli(["verify-algebroid", "--spec", str(path)])
        assert code == 1, (name, out)
        assert "fail residual=" in out, (name, out)


@criterion(3, budget=5)
def test_criterion_3_bialgebroid_gate():
    for proto in (su2_bialgebra(), poisson_r2()):
        report = check_bialgebroid(proto)
        assert [c.name for c in report.checks] == [
            "{mu,mu}", "{gamma,gamma}", "{mu,gamma*}", "self-duality"]
        assert report.passed
        assert check_bialgebroid(swap_proto(proto)).passed


@criterion(4, budget=30)
def test_criterion_4_doubling_theorem():
    for proto in (su2_bialgebra(), poisson_r2()):
        structure = structure_from_proto(proto)
        report = verify_axioms(structure)
        assert report.passed, [(c.name, c.passed) for c in report.checks]


@criterion(5)
def test_criterion_5_derived_bracket_fidelity():
    structure = standard_structure(2)
    pit = pi_tangent_chart(["x1", "x2"])
    d = de_rham(pit)
    x1 = SuperPolynomial.variable(structure.chart, "x1")

    def to_pit(p):
        return p.substitute(pit, {})

    def expected_circ(e1, e2):
        X = {f"x{a}": to_pit(comp) for a, comp in e1.vector.items()}
        Y = {f"x{a}": to_pit(comp) for a, comp in e2.vector.items()}
        xi = sum((to_pit(c) * SuperPolynomial.variable(pit, f"dx{a}")
                  for a, c in e1.covector.items()), SuperPolynomial.zero(pit))
        eta = sum((to_pit(c) * SuperPolynomial.variable(pit, f"dx{a}")
                   for a, c in e2.covector.items()), SuperPolynomial.zero(pit))
        vec = base_field(X, pit).commutator(base_field(Y, pit))
        form = lie_derivative(X, pit).apply(eta) - interior(Y, pit).apply(d.apply(xi))
        back = {int(v.name[1:]): p.substitute(structure.chart, {})
                for v, p in vec.components.items() if not p.is_zero()}
        cov = {}
        for a in (1, 2):
            coeff = form.partial(f"dx{a}")
            if not coeff.is_zero():
                cov[a] = coeff.substitute(structure.chart, {})
        return section_from_components(structure, back, cov)

    gens = basis_sections(structure)
    pairs = [(v, w) for v in gens[:2] for w in gens]
    assert len(pairs) == 8
    scaled = [(v, w.scaled_by(x1)) for v, w in pairs]
    for e1, e2 in pairs + scaled:
        assert circ(e1, e2) == expected_circ(e1, e2)


@criterion(6)
def test_criterion_6_equivalence_of_definitions():
    for structure in (standard_structure(2), structure_from_proto(su2_bialgebra())):
        fam = generator_family(structure)
        coords = [SuperPolynomial.variable(structure.chart, n)
                  for n in structure.bundle.base_names]
        probe_f = coords[0] if coords else SuperPolynomial.constant(structure.chart, 1)
        n = len(fam)
        triples = [(i, j, k) for i in range(0, n, 2)
                   for j in range(1, n, 2) for k in range(0, n, 3)]
        for i, j, k in triples:
            e1, e2, e3 = fam[i], fam[j], fam[k]
            J = jacobiator(e1, e2, e3)
            T = t_tensor(e1, e2, e3)
            assert J == d_operator(structure, T)
        for i in range(n):
            for j in range(n):
                e1, e2 = fam[i], fam[j]
                assert circ(e1, e2).embedded == (
                    skew_bracket(e1, e2).embedded
                    + d_operator(structure, pairing(e1, e2).scale(HALF)).embedded)
        for i, j, _k in triples[: len(triples) // 2]:
            e1, e2 = fam[i], fam[j]
            lhs = t_tensor(e1, e2, d_operator(structure, probe_f))
            rhs = anchor_apply(skew_bracket(e1, e2), probe_f).scale(QUARTER)
            assert lhs == rhs
        quads = [(0, 1, 2, 3), (0, 2, 3, 1)]
        for a, b, c, dd in quads:
            e1, e2, e3, e4 = fam[a], fam[b], fam[c], fam[dd]
            Jb = (pairing(jacobiator(e1, e2, e3), e4)
                  - pairing(jacobiator(e1, e2, e4), e3)
                  + pairing(jacobiator(e1, e3, e4), e2)
                  - pairing(jacobiator(e2, e3, e4), e1))
            Kb = (pairing(skew_bracket(e1, e2), skew_bracket(e3, e4))
                  - pairing(skew_bracket(e1, e3), skew_bracket(e2, e4))
                  + pairing(skew_bracket(e1, e4), skew_bracket(e2, e3)))
            assert (Kb + Jb + Jb).is_zero()


@criterion(7, budget=60)
def test_criterion_7_homotopy_identities():
    for structure in (standard_structure(1), structure_from_proto(su2_bialgebra())):
        for n in (1, 2, 3, 4):
            report = shla_check(structure, n)
            assert report.passed, [(c.name, c.passed) for c in report.checks]
            names = {c.name for c in report.checks}
            if n == 3:
                assert "chainmap-on-two-sections-and-function" in names
            if n == 4:
                assert "l3l2-equals-l2l3-on-sections" in names
                assert "quadrilinear-pairing-identity" in names


@criterion(8)
def test_criterion_8_twists_and_gauges():
    std3 = standard_structure(3)
    closed = twist_exact(standard_proto(3), parse_poly("xi1*xi2*xi3", std3.chart))
    assert verify_axioms(closed.structure).passed

    probe = twist_exact(standard_proto(3), parse_poly("x1*xi2*xi3", std3.chart))
    report = verify_axioms(probe.structure)
    outcome = {c.name: c.passed for c in report.checks}
    assert outcome["axiom1-leibniz-jacobi"] is False
    assert all(ok for name, ok in outcome.items() if name != "axiom1-leibniz-jacobi")
    # the residual on the first coordinate triple is minus the contracted
    # exterior derivative of the twist, computed through the Cartan path
    theta = probe.structure.theta.total
    e = basis_sections(probe.structure)

    def circ_raw(a, b):
        return canonical_bracket(canonical_bracket(theta, a), b)

    a, b, c = e[0].embedded, e[1].embedded, e[2].embedded
    residual = (canonical_bracket(canonical_bracket(theta, a), circ_raw(b, c))
                - circ_raw(circ_raw(a, b), c)
                - canonical_bracket(canonical_bracket(theta, b), circ_raw(a, c)))
    pit = pi_tangent_chart(["x1", "x2", "x3"])
    dphi = de_rham(pit).apply(parse_poly("x1*dx2*dx3", pit))
    contraction = interior({"x3": 1}, pit).apply(
        interior({"x2": 1}, pit).apply(interior({"x1": 1}, pit).apply(dphi)))
    assert residual == -(contraction.substitute(probe.structure.chart, {}))
    assert not residual.is_zero()

    phi = parse_poly("xi1*xi2*xi3", std3.chart)
    omega = parse_poly("x1*xi2*xi3", std3.chart)
    plain = twist_exact(standard_proto(3), phi)
    gauged = twist_exact(standard_proto(3), phi, omega)
    assert gauged.phi - gauged.phi_raw.substitute(gauged.structure.chart, {}) == (
        fiber_de_rham(gauged.structure.bundle, omega))
    for e1 in basis_sections(gauged.structure):
        for e2 in basis_sections(gauged.structure):
            f1, f2 = splitting_shift(omega, e1), splitting_shift(omega, e2)
            lhs = circ(section_from_components(plain.structure, f1.vector, f1.covector),
                       section_from_components(plain.structure, f2.vector, f2.covector))
            rhs = splitting_shift(omega, circ(e1, e2))
            assert str(lhs.embedded) == str(rhs.embedded)


@criterion(9)
def test_criterion_9_weil_and_ghost_differentials():
    for mat_name in ("weil-su2", "brst-so2-on-R2"):
        code, out = run_cli(["double", "--preset", mat_name])
        assert code == 0, out
        assert "differential-squares-to-zero: pass" in out
    # the restriction of the dual-linear double matches the polynomial model
    from test_algebroid import test_weil_double_restricts_to_the_polynomial_model
    test_weil_double_restricts_to_the_polynomial_model()


@criterion(10, budget=20)
def test_criterion_10_local_cohomology():
    rep0 = mode_cohomology(0, 0, 12)
    assert rep0.dims == (1, 2, 1)
    assert rep0.generators[0] == ("1",)
    assert set(rep0.generators[1]) == {"d_theta", "I*d_I"}
    assert rep0.generators[2] == ("I*d_I^d_theta",)
    for n in range(1, 6):
        assert mode_cohomology(0, n, 12).dims == (0, 0, 0)
    for c in (Fraction(1, 2), Fraction(-1, 2)):
        assert mode_cohomology(c, 0, 12) == rep0


@criterion(11)
def test_criterion_11_global_assembly():
    rep = global_assembly(0, mode_cohomology(0, 0, 12))
    assert rep.dims == (1, 1, 2)
    computed = [k for k, v in rep.provenance.items() if v == "computed"]
    recorded = [k for k, v in rep.provenance.items() if "recorded" in str(v)]
    assert computed and recorded
    rep2 = global_assembly(2)
    assert rep2.dims == (1, 0, 1)
    assert rep2.provenance["status"] == "recorded-constant"


@criterion(12)
def test_criterion_12_structure_identities():
    for c in (0, Fraction(1, 2)):
        results = structure_identities(build_structures(c), N=12)
        assert results["euler-primitive"]
        assert results["affine-family"]
        assert results["pi_c-not-exact"]
        assert results["modular-not-exact"]
        assert results["modular-cocycle"]


@criterion(13)
def test_criterion_13_volume_value():
    _h, desc, value = modular_and_volume(build_structures(3))
    assert abs(value - 2 * math.pi * math.log(2)) < 1e-12
    assert desc == "2*pi*ln(2)"
