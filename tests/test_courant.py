import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from bigbracket import courant
from bigbracket.algebroid import SpecError, ThetaHamiltonian
from bigbracket.brackets import canonical_bracket
from bigbracket.courant import (CourantSection, CourantStructure,
                                basis_sections, check_dirac, circ, coordinate_functions,
                                d_operator, generator_family, pairing, skew_bracket,
                                standard_proto, structure_from_proto, t_tensor, twist_exact,
                                verify_axioms)
from bigbracket.parsing import parse_poly
from bigbracket.poly import SuperPolynomial, poly_sum
from bigbracket.rationals import GaussianRational
from bigbracket.specfile import PRESET_NAMES, load_preset, materialize, parse_document

from conftest import random_poly, standard_structure
from oracles import (anchor_apply, base_field, de_rham, fiber_de_rham, interior,
                     jacobiator, k_expression, lie_derivative, pi_tangent_chart, section_from_components,
                     slow_circ, slow_components, slow_skew, slow_t_tensor, splitting_shift,
                     sweep_axioms_1_2, sweep_axioms_3_5)
from test_algebroid import poisson_r2, su2_bialgebra

HALF = GaussianRational(Fraction(1, 2))
QUARTER = GaussianRational(Fraction(1, 4))

STD2 = standard_structure(2)


def sec_v(structure, a, f=None):
    return section_from_components(structure, vector={a: 1 if f is None else f})


def sec_c(structure, a, f=None):
    return section_from_components(structure, covector={a: 1 if f is None else f})


def x(structure, k):
    return SuperPolynomial.variable(structure.chart, f"x{k}")


# -- pairing -------------------------------------------------------------------

def test_pairing_of_mixed_section_with_itself():
    e = section_from_components(STD2, vector={1: 1}, covector={1: 1})
    assert pairing(e, e) == SuperPolynomial.constant(STD2.chart, 2)


def test_vector_parts_are_isotropic():
    assert pairing(sec_v(STD2, 1), sec_v(STD2, 2)).is_zero()
    assert pairing(sec_c(STD2, 1), sec_c(STD2, 2)).is_zero()


def test_pairing_evaluates_components():
    assert pairing(sec_v(STD2, 1), sec_c(STD2, 1, x(STD2, 1))) == x(STD2, 1)


def test_embedding_has_total_degree_one():
    e = section_from_components(STD2, vector={1: x(STD2, 2)}, covector={2: x(STD2, 1)})
    assert all(k == 1 for (_e, _d, k) in e.embedded.gradings())
    with pytest.raises(SpecError):
        section_from_components(STD2, vector={1: SuperPolynomial.variable(STD2.chart, "xi1")})


# -- circle product -------------------------------------------------------------

@pytest.mark.parametrize("n", (1, 2, 3))
def test_basis_sections_are_their_own_parity_component(n):
    structure = standard_structure(n)
    gens = basis_sections(structure)
    for e in gens:
        parts = e.embedded.parity_components()
        assert parts[1] is e.embedded and parts[0].is_zero()
    # so the product keys {theta, e} by the section's own embedding, not a copy
    e, f = gens[0], gens[-1]
    structure.product(e.embedded, f.embedded)
    assert any(key is e.embedded for key in structure.brackets)


def test_lie_derivative_term():
    out = circ(sec_v(STD2, 1), sec_c(STD2, 2, x(STD2, 1)))
    assert out == sec_c(STD2, 2)


def test_symmetric_part_is_half_d_of_square():
    e = section_from_components(STD2, vector={1: 1}, covector={1: x(STD2, 1)})
    lhs = circ(e, e)
    rhs = d_operator(STD2, pairing(e, e).scale(HALF))
    assert lhs == rhs
    assert lhs == sec_c(STD2, 1)


def test_exact_sections_are_left_annihilators():
    Df = d_operator(STD2, x(STD2, 1))
    assert circ(Df, sec_v(STD2, 2)).is_zero()
    # while e o Df = D<e, Df>
    e = sec_v(STD2, 1, x(STD2, 1))
    lhs = circ(e, Df)
    rhs = d_operator(STD2, pairing(e, Df))
    assert lhs == rhs


def test_d_operator_on_coordinates_and_constants():
    assert d_operator(STD2, x(STD2, 1)) == sec_c(STD2, 1)
    assert d_operator(STD2, SuperPolynomial.constant(STD2.chart, 1)).is_zero()


def test_anchor_application():
    e = section_from_components(STD2, vector={1: 1}, covector={2: 1})
    f = x(STD2, 1) * x(STD2, 2)
    assert anchor_apply(e, f) == x(STD2, 2)


def test_pairing_of_exact_sections_vanishes():
    f, g = x(STD2, 1), x(STD2, 2) * x(STD2, 1)
    assert pairing(d_operator(STD2, f), d_operator(STD2, g)).is_zero()


# -- the standard formula, against the independent Cartan-calculus path ----------

def test_circ_matches_cartan_calculus_componentwise():
    pit = pi_tangent_chart(["x1", "x2"])
    d = de_rham(pit)

    def vec_of(section):
        return {f"x{a}": comp.substitute(pit, {})
                for a, comp in section.vector.items()}

    def form_of(section):
        total = SuperPolynomial.zero(pit)
        for a, comp in section.covector.items():
            total = total + comp.substitute(pit, {}) * SuperPolynomial.variable(
                pit, f"dx{a}")
        return total

    def section_from(vf_components, form):
        vec = {}
        for name, comp in vf_components.items():
            a = int(name[1:])
            vec[a] = comp.substitute(STD2.chart, {})
        cov = {}
        for a in (1, 2):
            coeff = form.partial(f"dx{a}")
            if not coeff.is_zero():
                cov[a] = coeff.substitute(STD2.chart, {})
        return section_from_components(STD2, vec, cov)

    gens = basis_sections(STD2)
    vectors = gens[:2]
    pairs = [(v, w) for v in vectors for w in gens]
    scaled = [(v, w.scaled_by(x(STD2, 1))) for v, w in pairs]
    for e1, e2 in pairs + scaled:
        X, Y = vec_of(e1), vec_of(e2)
        xi, eta = form_of(e1), form_of(e2)
        bracket_vec = base_field(X, pit).commutator(base_field(Y, pit))
        lie_part = lie_derivative(X, pit).apply(eta)
        contraction_part = interior(Y, pit).apply(d.apply(xi))
        expected = section_from(
            {v.name: p for v, p in bracket_vec.components.items()},
            lie_part - contraction_part)
        assert circ(e1, e2) == expected


# -- skew bracket, jacobiator, structure tensor ----------------------------------

def test_skew_bracket_and_symmetric_split():
    fam = generator_family(STD2)
    for e1 in fam:
        for e2 in fam:
            total = circ(e1, e2).embedded
            skew = skew_bracket(e1, e2).embedded
            sym = d_operator(STD2, pairing(e1, e2).scale(HALF)).embedded
            assert total == skew + sym


def test_jacobiator_is_exact():
    fam = generator_family(STD2)
    triples = [(0, 1, 2), (0, 2, 5), (1, 3, 6), (4, 5, 7), (2, 3, 7)]
    for i, j, k in triples:
        J = jacobiator(fam[i], fam[j], fam[k])
        T = t_tensor(fam[i], fam[j], fam[k])
        assert J == d_operator(STD2, T)


def test_jacobiator_of_flat_fields_vanishes():
    assert jacobiator(sec_v(STD2, 1), sec_v(STD2, 2),
                      sec_v(STD2, 1, x(STD2, 2))).is_zero()


def test_structure_tensor_on_exact_section():
    fam = generator_family(STD2)
    f = x(STD2, 1) * x(STD2, 2)
    for i, j in [(0, 1), (0, 3), (2, 5), (1, 7)]:
        e1, e2 = fam[i], fam[j]
        lhs = t_tensor(e1, e2, d_operator(STD2, f))
        rhs = anchor_apply(skew_bracket(e1, e2), f).scale(QUARTER)
        assert lhs == rhs


def test_point_double_structure_tensor_is_half_pairing_of_bracket():
    dsu2 = structure_from_proto(su2_bialgebra())
    gens = basis_sections(dsu2)
    nonzero = False
    for e1 in gens:
        for e2 in gens:
            for e3 in gens:
                lhs = t_tensor(e1, e2, e3)
                rhs = pairing(skew_bracket(e1, e2), e3).scale(HALF)
                assert lhs == rhs
                nonzero = nonzero or not lhs.is_zero()
    assert nonzero


def test_left_product_expression_is_totally_skew():
    fam = generator_family(STD2)[:6]
    import itertools
    for e1, e2, e3 in itertools.combinations(fam, 3):
        base = k_expression(e1, e2, e3).embedded
        for perm, sign in ((lambda a, b, c: (b, a, c), -1),
                           (lambda a, b, c: (a, c, b), -1),
                           (lambda a, b, c: (c, b, a), -1),
                           (lambda a, b, c: (b, c, a), 1),
                           (lambda a, b, c: (c, a, b), 1)):
            p1, p2, p3 = perm(e1, e2, e3)
            assert k_expression(p1, p2, p3).embedded == base.scale(sign)


def test_ideal_property_of_exact_sections():
    fam = generator_family(STD2)
    for e in fam:
        for f in (x(STD2, 1), x(STD2, 2)):
            Df = d_operator(STD2, f)
            lhs = skew_bracket(e, Df)
            rhs = d_operator(STD2, pairing(e, Df).scale(HALF))
            assert lhs == rhs


# -- the axiom gate ---------------------------------------------------------------

def test_axioms_for_doubled_structures():
    for proto in (su2_bialgebra(), poisson_r2()):
        structure = structure_from_proto(proto)
        assert verify_axioms(structure).passed


def test_axioms_for_rank_one_zero_structure():
    from bigbracket.algebroid import AlgebroidSpec, ProtoBialgebroidSpec
    zero = AlgebroidSpec.build(("x1",), ("xi1",), {}, {})
    structure = structure_from_proto(ProtoBialgebroidSpec.build(zero))
    assert verify_axioms(structure).passed


# -- axioms 1 and 2 from the master equation -----------------------------------------

def _rebased(rng, entries):
    """Rank-3 table entries in the basis f_a = lambda_a e_sigma(a)."""
    sigma = rng.sample((1, 2, 3), 3)
    tau = {a: k + 1 for k, a in enumerate(sigma)}
    lam = {a: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
           for a in (1, 2, 3)}
    lines = []
    for table, idx, value in entries:
        a, b, c = (tau[k] for k in idx)
        factor = lam[a] * lam[b] / lam[c] if table == "C" else lam[c] / (lam[a] * lam[b])
        lines.append(f"{table}[{a}][{b}][{c}] = ({factor})*({value})")
    return "kind: bialgebroid\nrank: 3\n" + "\n".join(lines) + "\n"


_SU2_BRACKET = (("C", (1, 2, 3), 1), ("C", (2, 3, 1), 1), ("C", (3, 1, 2), 1))
AXIOM_DOCUMENTS = {
    # R^4 twisted by a three-form that is not closed: axiom 1 fails
    "twist-R4": "kind: exact-courant\nbase: x1 x2 x3 x4\nrank: 4\nphi = x1*xi2*xi3*xi4\n",
    # [e1,e2] = e3, [e1,e3] = e3, [e2,e3] = e1 violates Jacobi
    "non-jacobi": _rebased(random.Random(11), (("C", (1, 2, 3), 1), ("C", (1, 3, 3), 1),
                                               ("C", (2, 3, 1), 1))),
    # the cobracket e1 -> e2^e3 is not a cocycle of su(2)
    "non-cocycle": _rebased(random.Random(12), _SU2_BRACKET + (("Cbar", (1, 2, 3), 1),)),
    # the anchor x2 d/dx1 of e1 does not commute with d/dx2: axioms 1 and 2 fail
    "tangent-x2": "kind: algebroid\nbase: x1 x2\nrank: 2\nA[1][1] = x2\nA[2][2] = 1\n",
    # the two-form probe: T2 = 0, yet axiom 1 fails, so the sweep decides it
    "probe": "kind: exact-courant\nbase: x1 x2 x3\nrank: 3\nphi = x1*xi2*xi3\n",
    # the probe on R^2: the last term of Leibniz-Jacobi, {{theta, e_j}, e_i o e_k},
    # is nonzero by the first failing tuple, so its sign shows in the residual
    "probe-R2": "kind: exact-courant\nbase: x1 x2\nrank: 2\nphi = x1*xi1*xi2\n",
    # [e1, e2] = e1, but the action sends e1, e2 to the commuting d/dx, d/dy
    "brst-non-homomorphic": "kind: brst\nbase: x y\nrank: 2\nlie[1][2][1] = 1\n"
                            "rho[1][1] = 1\nrho[2][2] = 1\n",
    # a bundle of Lie algebras: zero anchor, [e1, e2] = x1 e1
    "zero-anchor": "kind: algebroid\nbase: x1\nrank: 2\nC[1][2][1] = x1\n",
}


def _axiom_structure(source):
    doc = load_preset(source) if source in PRESET_NAMES else parse_document(
        AXIOM_DOCUMENTS[source])
    return structure_from_proto(materialize(doc).proto)


def _t2(structure):
    theta = structure.theta.total
    return canonical_bracket(theta, theta).scale(HALF)


@pytest.mark.parametrize("source", PRESET_NAMES + tuple(AXIOM_DOCUMENTS))
def test_axioms_1_and_2_agree_with_the_triple_sweep(source):
    structure = _axiom_structure(source)
    report = verify_axioms(structure)
    for name, residual in sweep_axioms_1_2(structure).items():
        assert report[name].residual == residual, name


def test_axioms_1_and_2_fail_where_expected():
    failing = {source: [c.name for c in verify_axioms(_axiom_structure(source)).checks
                        if not c.passed] for source in AXIOM_DOCUMENTS}
    axiom1, axiom2 = "axiom1-leibniz-jacobi", "axiom2-anchor-homomorphism"
    assert failing == {"twist-R4": [axiom1], "non-jacobi": [axiom1],
                       "non-cocycle": [axiom1], "tangent-x2": [axiom1, axiom2],
                       "probe": [axiom1], "probe-R2": [axiom1],
                       "brst-non-homomorphic": [axiom1, axiom2],
                       "zero-anchor": []}


def test_master_equation_signs():
    """Leibniz-Jacobi is -{{{T2,a},b},c} and the anchor identity +{{{T2,a},b},f},
    term by term on every generator tuple, with both nonzero somewhere."""
    structure = _axiom_structure("tangent-x2")
    theta = structure.theta.total
    t2 = _t2(structure)
    br = canonical_bracket

    def circ_raw(a, b):
        return br(br(theta, a), b)

    def rho(e, f):
        return br(e, br(theta, f))

    emb = [e.embedded for e in generator_family(structure)]
    nonzero = set()
    for a, b in product(emb, repeat=2):
        t2_ab = br(br(t2, a), b)
        for c in emb:
            jacobi = (br(br(theta, a), circ_raw(b, c)) - circ_raw(circ_raw(a, b), c)
                      - br(br(theta, b), circ_raw(a, c)))
            assert jacobi == -br(t2_ab, c)
            if not jacobi.is_zero():
                nonzero.add("axiom1")
        for f in coordinate_functions(structure):
            anchor = br(circ_raw(a, b), br(theta, f)) - (rho(a, rho(b, f)) - rho(b, rho(a, f)))
            assert anchor == br(t2_ab, f)
            if not anchor.is_zero():
                nonzero.add("axiom2")
    assert nonzero == {"axiom1", "axiom2"}


def _spy_sweeps(monkeypatch, calls):
    """(tuples evaluated, brackets made) of each `first_failure` sweep that
    courant starts from here on, in call order; `calls` is a `_spy_brackets` list."""
    sweeps = []
    inner = courant.first_failure

    def spy(tuples, evaluate, zero, prefix=None):
        evaluated, start = [], len(calls)

        def counted(index):
            evaluated.append(index)
            return evaluate(index)
        out = inner(tuples, counted, zero, prefix)
        sweeps.append((len(evaluated), len(calls) - start))
        return out

    monkeypatch.setattr(courant, "first_failure", spy)
    return sweeps


@pytest.mark.parametrize("source", ["su2-bialgebra", "standard-R2", "exact-twist-R3"])
def test_zero_t2_evaluates_no_tuple(source, monkeypatch):
    structure = _axiom_structure(source)
    assert _t2(structure).is_zero()
    sweeps = _spy_sweeps(monkeypatch, _spy_brackets(monkeypatch))
    assert verify_axioms(structure).passed
    # one sweep per axiom, in order: those of axioms 1 and 2 evaluate nothing
    assert len(sweeps) == 5 and sweeps[:2] == [(0, 0), (0, 0)]


def test_nonzero_t2_reaches_the_contractions_and_a_probe_does_not(monkeypatch):
    structure = _axiom_structure("tangent-x2")
    t2 = _t2(structure)
    calls = _spy_brackets(monkeypatch)
    verify_axioms(structure)
    assert any(p == t2 for p, _q in calls)
    probe = _axiom_structure("probe")
    assert _t2(probe).is_zero()
    theta = probe.theta.total
    calls.clear()
    assert not verify_axioms(probe)["axiom1-leibniz-jacobi"].passed
    assert calls and not any(p == theta and q == theta for p, q in calls)


# the rank-3 su(2) bracket with the cobracket e1 -> e2^e3, which is no cocycle
SU2_NON_COCYCLE = ("kind: bialgebroid\nrank: 3\nC[1][2][3] = 1\nC[2][3][1] = 1\n"
                   "C[3][1][2] = 1\nCbar[1][2][3] = 1\n")


def test_axioms_1_and_2_share_the_t2_contractions(monkeypatch):
    """Each {{T2, e_i}, e_j} is bracketed once, and with no base coordinate the
    anchor sweep has no function to contract with, so it makes no bracket."""
    structure = structure_from_proto(materialize(parse_document(SU2_NON_COCYCLE)).proto)
    t2 = _t2(structure)
    emb = [e.embedded for e in generator_family(structure)]
    t2_of = {}
    for i, e in enumerate(emb):
        if not (t2_e := canonical_bracket(t2, e)).is_zero():
            t2_of[t2_e] = i
    calls = _spy_brackets(monkeypatch)
    sweeps = _spy_sweeps(monkeypatch, calls)
    report = verify_axioms(structure)
    assert not report["axiom1-leibniz-jacobi"].passed
    assert report["axiom2-anchor-homomorphism"].passed
    index = {e: j for j, e in enumerate(emb)}
    pairs = [(t2_of[p], index[q]) for p, q in calls if p in t2_of and q in index]
    assert len(t2_of) > 1 and pairs
    assert len(pairs) == len(set(pairs))
    assert sweeps[1] == (0, 0)


# -- axioms 3-5: both sides compared, one subtraction ----------------------------------

# the structures `twist --preset exact-twist-R3` checks, without and with --omega
TWIST_GAUGES = {"twist": None, "twist-omega": "x1*xi2*xi3"}


def _axiom_3_5_structure(source):
    if source not in TWIST_GAUGES:
        return _axiom_structure(source)
    twisted = materialize(load_preset("exact-twist-R3")).twisted
    if TWIST_GAUGES[source] is not None:
        omega = parse_poly(TWIST_GAUGES[source], twisted.structure.chart)
        twisted = twist_exact(twisted.proto, twisted.phi_raw, omega)
    return twisted.structure


def _assert_axioms_3_5_agree(structure):
    report = verify_axioms(structure)
    oracle = sweep_axioms_3_5(structure)
    assert [c.name for c in report.checks[2:]] == list(oracle)
    for name, residual in oracle.items():
        assert report[name].passed == residual.is_zero(), name
        assert report[name].residual == residual, name
    return report


def _spy_brackets(monkeypatch):
    """Every (p, q) that courant brackets from here on, in call order."""
    calls = []
    inner = courant.canonical_bracket

    def spy(p, q, chart=None):
        calls.append((p, q))
        return inner(p, q, chart)

    monkeypatch.setattr(courant, "canonical_bracket", spy)
    return calls


def _axiom3_pairs(structure, calls):
    """(i, j) of each axiom-3 bracket {{theta, e_i}, f e_j}, by family index.

    On a theta of total degree 3 only axiom 3 brackets a kept {theta, e_i}.
    """
    emb = [e.embedded for e in generator_family(structure)]
    d_of = {id(structure.brackets[e]): i for i, e in enumerate(emb) if e in structure.brackets}
    scaled = {f * e: j for f in coordinate_functions(structure) for j, e in enumerate(emb)}
    return [(d_of[id(p)], scaled[q]) for p, q in calls if id(p) in d_of and q in scaled]


def _axiom5_columns(structure, calls):
    """The section e_k of each axiom-5 table bracket {e_i o e_j, e_k}.

    Only that table brackets a memo product with a generator, except the
    term-by-term axiom 2 of an off-degree theta where some D f is a generator.
    """
    products = {id(p) for p in structure.products.values()}
    family = {e.embedded for e in generator_family(structure)}
    return [q for p, q in calls if id(p) in products and q in family]


@pytest.mark.parametrize("source", PRESET_NAMES + tuple(AXIOM_DOCUMENTS) + tuple(TWIST_GAUGES))
def test_axioms_3_to_5_agree_with_the_subtracting_sweep(source):
    """Every preset courant-verify and twist reach, the failing documents and
    the off-degree probe."""
    _assert_axioms_3_5_agree(_axiom_3_5_structure(source))


def test_perturbed_anchor_fails_axioms_3_and_5_at_the_first_tuple(monkeypatch):
    """rho(e_1) x1 is perturbed by 7: axiom 3 first fails at (e_1, e_0, x1) with
    residual -7 e_0, axiom 5 at the first (e_1, e_j, e_k) whose pairing is x1."""
    import oracles
    structure = _axiom_structure("standard-R2")
    assert verify_axioms(structure).passed
    emb = [s.embedded for s in generator_family(structure)]
    x1 = coordinate_functions(structure)[0]
    d_x1 = structure.theta_bracket(x1)
    seven = SuperPolynomial.constant(structure.chart, 7)
    original = canonical_bracket

    def perturbed(p, q, chart=None):
        out = original(p, q, chart)
        return out + seven if p is emb[1] and q is d_x1 else out

    monkeypatch.setattr(courant, "canonical_bracket", perturbed)
    monkeypatch.setattr(oracles, "canonical_bracket", perturbed)
    calls = _spy_brackets(monkeypatch)
    report = _assert_axioms_3_5_agree(structure)
    # axiom 3 fails on the basis, so it and axiom 5 read every generator of the family
    assert {j for _i, j in _axiom3_pairs(structure, calls)} == set(range(len(emb)))
    assert len(set(_axiom5_columns(structure, calls))) == len(emb) > 4
    assert [c.name for c in report.checks if not c.passed] == [
        "axiom3-module-leibniz", "axiom5-pairing-invariance"]
    assert report["axiom3-module-leibniz"].residual == -emb[0].scale(7)
    assert any(original(a, b) == x1 for a in emb for b in emb)
    assert report["axiom5-pairing-invariance"].residual == seven


def test_tensorial_kernel_defect_fails_axiom_5_on_a_basis_triple(monkeypatch):
    """Degree-1 brackets gain B(p, q) = p_xis1 * q_xis1 over a zero anchor.

    D kills every function there, so rho and D<e, e'> see no defect and
    axioms 3 and 4 pass; the axiom-5 anomaly -B(e_i o e_j, e_k) - B(e_i o e_k, e_j)
    is C-infinity-linear, and [e1, e2] = x1 e1 makes it -x1 at (e1, e1, e2).
    The basis sweep reports the full family's first failure.
    """
    import oracles
    structure = _axiom_structure("zero-anchor")
    assert verify_axioms(structure).passed
    xis1 = structure.bundle.fiber_momenta[0]

    def degree_one(p):
        return p.terms and all(k == 1 for (_e, _d, k) in p.gradings())

    def defective(p, q, chart=None):
        out = canonical_bracket(p, q, chart)
        return out + p.partial(xis1) * q.partial(xis1) if degree_one(p) and degree_one(q) else out

    monkeypatch.setattr(courant, "canonical_bracket", defective)
    monkeypatch.setattr(oracles, "canonical_bracket", defective)
    calls = _spy_brackets(monkeypatch)
    report = _assert_axioms_3_5_agree(structure)
    assert [c.name for c in report.checks if not c.passed] == ["axiom5-pairing-invariance"]
    assert report["axiom5-pairing-invariance"].residual == -x(structure, 1)
    basis = [e.embedded for e in basis_sections(structure)]
    assert set(_axiom5_columns(structure, calls)) == set(basis)


def _random_proto_document(rng):
    """Random A, Abar and C tables over 1-2 base coordinates and rank 2-3, with
    a cubic phi one time in three at rank 3; most fail axiom 1 or 2."""
    n_base, rank = rng.randint(1, 2), rng.randint(2, 3)
    base = [f"x{k + 1}" for k in range(n_base)]
    fibers = range(1, rank + 1)

    def entry():
        coeff = rng.choice(("1", "-1", "2", "1/2", "-3/2"))
        return "*".join([coeff] + [x for x in base if rng.random() < 0.4])

    lines = ["kind: proto", f"base: {' '.join(base)}", f"rank: {rank}"]
    for table in ("A", "Abar"):
        lines += [f"{table}[{a}][{i}] = {entry()}" for a in fibers
                  for i in range(1, n_base + 1) if rng.random() < 0.4]
    lines += [f"C[{a}][{b}][{c}] = {entry()}" for a in fibers for b in fibers
              for c in fibers if a < b and rng.random() < 0.3]
    if rank == 3 and rng.random() < 1 / 3:
        lines.append(f"phi = {entry()}*xi1*xi2*xi3")
    return "\n".join(lines) + "\n"


def test_generated_documents_agree_with_the_term_by_term_sweeps():
    """verify_axioms against the full-family sweeps of all five axioms."""
    rng = random.Random(22)
    verdicts = set()
    for _ in range(24):
        structure = structure_from_proto(
            materialize(parse_document(_random_proto_document(rng))).proto)
        report = verify_axioms(structure)
        oracle = {**sweep_axioms_1_2(structure), **sweep_axioms_3_5(structure)}
        assert [c.name for c in report.checks] == list(oracle)
        for name, residual in oracle.items():
            assert report[name].passed == residual.is_zero(), name
            assert report[name].residual == residual, name
        verdicts.add(report.passed)
    assert verdicts == {True, False}


# -- axiom 5 sweeps the basis sections once axioms 3 and 4 pass ------------------------

@pytest.mark.parametrize("source", ["weil-su2", "twist-R4"])
def test_axiom5_sweeps_basis_sections_once_axioms_3_and_4_pass(source, monkeypatch):
    structure = _axiom_structure(source)
    calls = _spy_brackets(monkeypatch)
    report = verify_axioms(structure)
    assert report["axiom3-module-leibniz"].passed and report["axiom4-symmetric-part"].passed
    basis = [e.embedded for e in basis_sections(structure)]
    columns = _axiom5_columns(structure, calls)
    assert len(columns) == len(basis) ** 3
    assert set(columns) == set(basis)
    assert len(generator_family(structure)) >= 4 * len(basis)


@pytest.mark.parametrize("source", ["weil-su2", "twist-R4"])
def test_axioms_3_and_4_sweep_basis_sections_on_a_cubic_theta(source, monkeypatch):
    """Only the basis pair products are built, and axiom 3 brackets
    {{theta, e_i}, f e_j} for basis sections e_i, e_j and every coordinate f."""
    structure = _axiom_structure(source)
    calls = _spy_brackets(monkeypatch)
    report = verify_axioms(structure)
    assert report["axiom3-module-leibniz"].passed and report["axiom4-symmetric-part"].passed
    basis = [e.embedded for e in basis_sections(structure)]
    assert set(structure.products) == set(product(basis, repeat=2))
    assert len(structure.products) == len(basis) ** 2
    pairs = _axiom3_pairs(structure, calls)
    assert sorted(set(pairs)) == list(product(range(len(basis)), repeat=2))
    assert len(pairs) == len(basis) ** 2 * len(coordinate_functions(structure)) > 0
    assert len(generator_family(structure)) >= 4 * len(basis)


def test_axiom5_sweeps_the_whole_family_on_an_off_degree_theta(monkeypatch):
    structure = _axiom_structure("probe")
    calls = _spy_brackets(monkeypatch)
    report = verify_axioms(structure)
    assert report["axiom3-module-leibniz"].passed and report["axiom4-symmetric-part"].passed
    n = len(generator_family(structure))
    columns = _axiom5_columns(structure, calls)
    assert len(columns) >= n ** 3
    assert len(set(columns)) == n


# -- Dirac subbundles ---------------------------------------------------------------

def test_tangent_subbundle_is_dirac():
    report = check_dirac(STD2, [sec_v(STD2, 1), sec_v(STD2, 2)])
    assert report.passed


def test_exact_two_form_graph_is_dirac():
    std3 = standard_structure(3)
    # graph of the constant area form in the first two directions
    g1 = section_from_components(std3, vector={1: 1}, covector={2: 1})
    g2 = section_from_components(std3, vector={2: 1}, covector={1: -1})
    g3 = section_from_components(std3, vector={3: 1})
    assert check_dirac(std3, [g1, g2, g3]).passed


def test_plane_graph_of_any_two_form_is_dirac():
    # in two base dimensions every two-form has vanishing differential
    x1 = x(STD2, 1)
    g1 = section_from_components(STD2, vector={1: 1}, covector={2: x1})
    g2 = section_from_components(STD2, vector={2: 1}, covector={1: -x1})
    assert check_dirac(STD2, [g1, g2]).passed


def test_nonclosed_graph_fails_closure():
    std3 = standard_structure(3)
    x3 = SuperPolynomial.variable(std3.chart, "x3")
    g1 = section_from_components(std3, vector={1: 1}, covector={2: x3})
    g2 = section_from_components(std3, vector={2: 1}, covector={1: -x3})
    g3 = section_from_components(std3, vector={3: 1})
    report = check_dirac(std3, [g1, g2, g3])
    assert report["isotropy"].passed
    assert not report["closure"].passed


def test_rank_deficient_span_rejected():
    with pytest.raises(SpecError):
        check_dirac(STD2, [sec_v(STD2, 1), sec_v(STD2, 1)])


# -- twisting -------------------------------------------------------------------------

def test_closed_twist_passes_all_axioms():
    std3 = standard_structure(3)
    phi = parse_poly("xi1*xi2*xi3", std3.chart)
    twisted = twist_exact(standard_proto(3), phi)
    assert verify_axioms(twisted.structure).passed


def test_untwisted_gauge_is_identity():
    twisted = twist_exact(standard_proto(2), parse_poly("0", STD2.chart))
    assert twisted.structure.theta.phi.is_zero()
    e = sec_v(twisted.structure, 1)
    assert splitting_shift(None, e) == e


def test_probe_twist_fails_exactly_the_first_axiom():
    std3 = standard_structure(3)
    phi = parse_poly("x1*xi2*xi3", std3.chart)
    twisted = twist_exact(standard_proto(3), phi)
    report = verify_axioms(twisted.structure)
    statuses = {c.name: c.passed for c in report.checks}
    assert statuses == {
        "axiom1-leibniz-jacobi": False,
        "axiom2-anchor-homomorphism": True,
        "axiom3-module-leibniz": True,
        "axiom4-symmetric-part": True,
        "axiom5-pairing-invariance": True,
    }


def test_probe_residual_is_the_differential_contribution():
    """On the first coordinate triple the anomaly is minus the contracted
    exterior derivative of the twist, computed through the Cartan path."""
    std3 = standard_structure(3)
    chart = std3.chart
    phi = parse_poly("x1*xi2*xi3", chart)
    twisted = twist_exact(standard_proto(3), phi)
    theta = twisted.structure.theta.total
    e = basis_sections(twisted.structure)

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
    assert residual == -(contraction.substitute(twisted.structure.chart, {}))
    assert not residual.is_zero()


def test_gauge_reproduces_shifted_twist_section_by_section():
    std3 = standard_structure(3)
    phi = parse_poly("xi1*xi2*xi3", std3.chart)
    omega = parse_poly("x1*xi2*xi3", std3.chart)
    plain = twist_exact(standard_proto(3), phi)            # the structure over sigma
    gauged = twist_exact(standard_proto(3), phi, omega)    # phi' = phi + d(omega)
    dphi = gauged.phi - gauged.phi_raw.substitute(gauged.structure.chart, {})
    assert dphi == fiber_de_rham(gauged.structure.bundle, omega)
    for e1 in basis_sections(gauged.structure):
        for e2 in basis_sections(gauged.structure):
            f1, f2 = splitting_shift(omega, e1), splitting_shift(omega, e2)
            lhs = circ(section_from_components(plain.structure, f1.vector, f1.covector),
                       section_from_components(plain.structure, f2.vector, f2.covector))
            prod = circ(e1, e2)
            rhs = splitting_shift(omega, prod)
            assert str(lhs.embedded) == str(rhs.embedded)


def test_difference_of_gauged_twists_is_exact():
    std3 = standard_structure(3)
    omega = parse_poly("x1*xi2*xi3", std3.chart)
    gauged = twist_exact(standard_proto(3), parse_poly("0", std3.chart), omega)
    diff = gauged.phi - gauged.phi_raw.substitute(gauged.structure.chart, {})
    assert not diff.is_zero()
    assert gauged.structure.theta_bracket(diff).is_zero()


def _random_form(chart, rng, n, degrees=(0, 1, 2, 3)):
    """A polynomial form on R^n: rational times base monomial times fiber symbols."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        term = SuperPolynomial.constant(
            chart, GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
        for k in range(1, n + 1):
            for _ in range(rng.choice((0, 0, 1, 2))):
                term = term * SuperPolynomial.variable(chart, f"x{k}")
        for k in sorted(rng.sample(range(1, n + 1), rng.choice(degrees))):
            term = term * SuperPolynomial.variable(chart, f"xi{k}")
        terms.append(term)
    return poly_sum(chart, terms)


@given(st.integers(0, 2**32 - 1))
def test_twist_differential_is_the_cartan_de_rham(seed):
    """d(omega) of a gauge and {theta, form} of the twisted structure (which
    the twist checks read) are the oracle Cartan d on random polynomial forms."""
    rng = random.Random(seed)
    std = standard_proto(3)
    chart = std.a_side.chart
    bundle = std.a_side.bundle
    phi = _random_form(chart, rng, 3, degrees=(3,))
    omega = _random_form(chart, rng, 3, degrees=(2,))
    twisted = twist_exact(std, phi, omega)
    assert twisted.phi == phi + fiber_de_rham(bundle, omega)
    for form in (_random_form(chart, rng, 3), phi, twisted.phi):
        assert twisted.structure.theta_bracket(form) == fiber_de_rham(bundle, form)


def test_skew_bracket_module_leibniz_anomaly():
    """[e1, f e2] - f [e1, e2] - (rho(e1) f) e2 = -1/2 <e1,e2> Df exactly."""
    fam = generator_family(STD2)
    coords = [x(STD2, 1), x(STD2, 2)]
    for e1 in fam[:6]:
        for e2 in fam[:6]:
            for f in coords:
                scaled = e2.scaled_by(f)
                lhs = skew_bracket(e1, scaled).embedded
                rhs = (f * skew_bracket(e1, e2).embedded
                       + anchor_apply(e1, f) * e2.embedded
                       - (pairing(e1, e2) * d_operator(STD2, f).embedded).scale(HALF))
                assert lhs == rhs


def test_point_double_blocks_match_structure_constants():
    """On a zero-dimensional base the product restricted to each side
    reproduces the structure constants, both sides are closed, the product is
    skew, and the mixed blocks stay inside the bundle; this pins the
    componentwise formula at a point."""
    proto = su2_bialgebra()
    dsu2 = structure_from_proto(proto)
    gens = basis_sections(dsu2)
    vectors, covectors = gens[:3], gens[3:]
    eps = {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1},
           (2, 1): {3: -1}, (3, 2): {1: -1}, (1, 3): {2: -1}}
    for a in range(3):
        for b in range(3):
            prod = circ(vectors[a], vectors[b])
            assert not prod.covector            # the first side is a subalgebra
            expect = eps.get((a + 1, b + 1), {})
            got = {k: next(iter(v.terms.values())) for k, v in prod.vector.items()}
            assert got == {k: GaussianRational(s) for k, s in expect.items()}
    cobracket = {(1, 2): {2: 1}, (2, 1): {2: -1}, (1, 3): {3: 1}, (3, 1): {3: -1}}
    for a in range(3):
        for b in range(3):
            prod = circ(covectors[a], covectors[b])
            assert not prod.vector              # so is the second side
            expect = cobracket.get((a + 1, b + 1), {})
            got = {k: next(iter(v.terms.values())) for k, v in prod.covector.items()}
            assert got == {k: GaussianRational(s) for k, s in expect.items()}
    # with no base the differential vanishes, so the product is skew
    for e1 in gens:
        for e2 in gens:
            assert circ(e1, e2).embedded == -(circ(e2, e1).embedded)


def test_ternary_map_is_totally_antisymmetric():
    dsu2 = structure_from_proto(su2_bialgebra())
    gens = basis_sections(dsu2)
    import itertools
    for e1, e2, e3 in itertools.combinations(gens, 3):
        base = t_tensor(e1, e2, e3)
        assert t_tensor(e2, e1, e3) == -base
        assert t_tensor(e1, e3, e2) == -base
        assert t_tensor(e2, e3, e1) == base


# -- the per-structure memo, against products rebuilt with no memo ---------------

@pytest.mark.parametrize("proto", [su2_bialgebra, poisson_r2], ids=["su2-bialgebra", "poisson-R2"])
def test_memoized_products_match_oracle(proto):
    structure = structure_from_proto(proto())
    fam = generator_family(structure)
    for _ in range(2):      # the second sweep reads every product from the memo
        for e1 in fam:
            for e2 in fam:
                assert circ(e1, e2).embedded == slow_circ(e1, e2).embedded
                assert skew_bracket(e1, e2).embedded == slow_skew(e1, e2).embedded
    nonzero = False
    for e1, e2, e3 in product(fam, repeat=3):
        expected = slow_t_tensor(e1, e2, e3)
        assert t_tensor(e1, e2, e3) == expected
        nonzero = nonzero or not expected.is_zero()
    assert nonzero


def test_structures_on_one_chart_keep_separate_memos():
    theta = su2_bialgebra().theta()
    zero = SuperPolynomial.zero(theta.chart)
    full = CourantStructure(theta)
    lie = CourantStructure(ThetaHamiltonian(theta.bundle, theta.mu, zero, zero, zero))
    assert full.chart is lie.chart and full.sections is not lie.sections
    polys = [e.embedded for e in basis_sections(full)]
    differ = False
    for a in polys:
        for b in polys:
            # same embeddings, one product per structure, in either order of first use
            pf = circ(CourantSection.from_embedded(full, a), CourantSection.from_embedded(full, b))
            pl = circ(CourantSection.from_embedded(lie, a), CourantSection.from_embedded(lie, b))
            assert pf.structure is full and pl.structure is lie
            assert pf.embedded == slow_circ(CourantSection.from_embedded(full, a),
                                            CourantSection.from_embedded(full, b)).embedded
            assert pl.embedded == slow_circ(CourantSection.from_embedded(lie, a),
                                            CourantSection.from_embedded(lie, b)).embedded
            differ = differ or pf.embedded != pl.embedded
    assert differ
    for name in ("brackets", "products", "sections"):
        kept_full = {id(v) for v in getattr(full, name).values()}
        kept_lie = {id(v) for v in getattr(lie, name).values()}
        assert not kept_full & kept_lie, name
    assert all(s.structure is full for s in full.sections.values())
    assert all(s.structure is lie for s in lie.sections.values())


@pytest.mark.parametrize("text", ["x1", "xi1*xi2", "xis1 + x1"])
def test_non_section_polynomial_raises_every_time(text):
    structure = standard_structure(2)
    poly = parse_poly(text, structure.chart)
    for _ in range(3):
        with pytest.raises(SpecError):
            CourantSection.from_embedded(structure, poly)
    assert poly not in structure.sections
    good = parse_poly("xis1 + x1*xi2", structure.chart)
    first = CourantSection.from_embedded(structure, good)
    assert CourantSection.from_embedded(structure, good) is first
    assert list(structure.sections) == [good]


def _section_candidate(structure, rng):
    """A sum of terms, each a base monomial times one fiber symbol or momentum
    (a section term) or, one time in four, a random polynomial of the chart."""
    chart = structure.chart
    bundle = structure.bundle
    terms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:
            terms.append(random_poly(chart, rng, max_terms=2))
            continue
        term = SuperPolynomial.constant(chart, rng.randint(-3, 3))
        for x in bundle.base_names:
            for _ in range(rng.choice((0, 0, 1, 2))):
                term = term * SuperPolynomial.variable(chart, x)
        symbol = rng.choice(bundle.fiber + bundle.fiber_momenta)
        terms.append(term * SuperPolynomial.variable(chart, symbol.name))
    return poly_sum(chart, terms)


def _same_verdict(structure, poly):
    """Assert that from_embedded and the partials-and-rebuild oracle give poly
    the same verdict and components; return whether it is a section."""
    try:
        vector, covector = slow_components(structure, poly)
    except SpecError:
        with pytest.raises(SpecError):
            CourantSection.from_embedded(structure, poly)
        assert poly not in structure.sections
        return False
    section = CourantSection.from_embedded(structure, poly)
    assert section.embedded == poly
    assert section.vector == vector and section.covector == covector
    return True


SECTION_STRUCTURES = (standard_structure(2), structure_from_proto(su2_bialgebra()))


@given(st.integers(0, 2**32 - 1), st.sampled_from(SECTION_STRUCTURES))
def test_from_embedded_accepts_exactly_the_oracle_sections(seed, structure):
    _same_verdict(structure, _section_candidate(structure, random.Random(seed)))


def test_section_candidates_are_accepted_and_rejected():
    """The candidates above reach both verdicts, so the comparison is not vacuous."""
    verdicts = [_same_verdict(STD2, _section_candidate(STD2, random.Random(seed)))
                for seed in range(200)]
    assert 40 < sum(verdicts) < 160


def test_products_landing_on_a_basis_element_return_it():
    structure = structure_from_proto(su2_bialgebra())
    basis = basis_sections(structure)
    assert basis_sections(structure) == basis
    assert all(a is b for a, b in zip(basis_sections(structure), basis))
    # [e1, e2] = e3 in su(2): the memo hands back the basis section itself
    assert skew_bracket(basis[0], basis[1]) is basis[2]
    assert CourantSection.from_embedded(structure, basis[2].embedded) is basis[2]
