import io
import math
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from bigbracket import necklace
from bigbracket.brackets import canonical_bracket
from bigbracket.cli import main
from bigbracket.linalg import solve
from bigbracket.necklace import (AssemblyError, CohomologyReport,
                                 RecordedConstants, StructureIdentityError,
                                 _format_generator,
                                 build_structures, disk_chart, global_assembly,
                                 mode_cohomology, mode_matrices,
                                 modular_and_volume, schouten_square,
                                 structure_identities)
from bigbracket.parsing import parse_poly
from bigbracket.poly import SuperPolynomial
from bigbracket.rationals import GaussianRational, ZERO, ONE

from oracles import (bruhat_w_chart, dense_nullspace, dense_rows, dense_vector,
                     poisson_bracket_of, rescaled_pi_c, slow_independent,
                     slow_intersect_with_coordinate_subspace, sparse_vector, su2_bivector)


# -- the structures ------------------------------------------------------------

def test_family_member_formula():
    ns = build_structures(0)
    expected = parse_poly("1/2*s^2*sigma*tau + 1/2*t^2*sigma*tau - 1/4*sigma*tau",
                          ns.chart)
    assert ns.pi_c == expected
    assert ns.pi == parse_poly("1/4*sigma*tau", ns.chart)


def test_affine_family_relation_for_many_parameters():
    for c, cp in ((0, Fraction(1, 2)), (Fraction(1, 3), -2), (5, Fraction(-1, 2))):
        a = build_structures(c)
        b = build_structures(cp)
        diff = a.pi_c - b.pi_c.substitute(a.chart, {})
        assert diff == a.pi.scale(GaussianRational(Fraction(c) - Fraction(cp)))


def test_quotient_chart_formula_and_singularity():
    chart, pi1 = bruhat_w_chart()
    expected = parse_poly("-i*w^2*W^2*tw*tW - i*w*W*tw*tW", chart)
    assert pi1 == expected
    # quadratic vanishing at the origin: no constant or linear terms
    assert all(sum(k for _i, k in evens) >= 2 for evens, _o in pi1.terms)


def test_su2_bracket_table():
    chart, pi = su2_bivector()
    u, ub, v, vb = (SuperPolynomial.variable(chart, n) for n in ("u", "ub", "v", "vb"))
    i = GaussianRational(0, 1)
    half_i = GaussianRational(0, Fraction(1, 2))
    assert poisson_bracket_of(pi, v, vb).is_zero()
    assert poisson_bracket_of(pi, u, ub) == (v * vb).scale(-i)
    assert poisson_bracket_of(pi, u, v) == (u * v).scale(half_i)
    assert poisson_bracket_of(pi, u, vb) == (u * vb).scale(half_i)
    assert poisson_bracket_of(pi, ub, vb) == (ub * vb).scale(-half_i)


# -- self-brackets ----------------------------------------------------------------

def test_every_plane_bivector_is_poisson():
    chart = disk_chart()
    p = parse_poly("s^2*sigma*tau + 3*t*sigma*tau", chart)
    assert schouten_square(p).is_zero()


def test_four_variable_square_vanishes():
    _chart, pi = su2_bivector()
    assert schouten_square(pi).is_zero()


def test_square_guards_input_shape():
    chart = disk_chart()
    with pytest.raises(ValueError):
        schouten_square(parse_poly("sigma + s*sigma*tau", chart))
    with pytest.raises(ValueError):
        schouten_square(parse_poly("s", chart))


# -- mode complexes ---------------------------------------------------------------

def test_zero_mode_matrix_action():
    comp = mode_matrices(0, 0, 8)
    size = 9
    # input I^2: only the angular block responds, with weight -2
    vec = [ZERO] * size
    vec[2] = ONE
    out = [sum((row[m] * vec[m] for m in range(size)), ZERO)
           for row in dense_rows(comp.d0, size)]
    assert out[2].is_zero()            # radial block silent at n = 0
    assert out[size + 2] == GaussianRational(-2)
    assert all(out[r].is_zero() for r in range(2 * size) if r != size + 2)


def test_first_mode_matrix_action_on_constants():
    comp = mode_matrices(0, 1, 8)
    size = 9
    vec = [ZERO] * size
    vec[0] = ONE
    out = [sum((row[m] * vec[m] for m in range(size)), ZERO)
           for row in dense_rows(comp.d0, size)]
    assert out[1] == GaussianRational(0, 1)        # i * I in the radial block
    assert all(out[r].is_zero() for r in range(2 * size) if r != 1)


def test_composite_vanishes_for_many_modes():
    for n in (0, 1, 2, 5):
        comp = mode_matrices(Fraction(1, 3), n, 9)
        size = 10
        d0, d1 = dense_rows(comp.d0, size), dense_rows(comp.d1, 2 * size)
        for m in range(size):
            vec = [ZERO] * size
            vec[m] = ONE
            mid = [sum((row[k] * vec[k] for k in range(size)), ZERO) for row in d0]
            out = [sum((row[k] * mid[k] for k in range(2 * size)), ZERO)
                   for row in d1]
            assert all(x.is_zero() for x in out)


@pytest.mark.parametrize("N", range(3, 9))
@pytest.mark.parametrize("n", range(-3, 4))
def test_mode_matrices_store_the_docstring_entries_and_no_zero(n, N):
    comp = mode_matrices(Fraction(1, 3), n, N)
    size = N + 1
    assert len(comp.d0) == 2 * size and len(comp.d1) == size
    for rows in (comp.d0, comp.d1):
        assert all(len(row) <= 2 and all(row.values()) for row in rows)
    i_n = GaussianRational(0, n)
    # d(f) = (in f_{m-1}) xi_m - (m f_m) eta_m
    for m in range(size):
        assert dense_vector(comp.d0[m], size) == [i_n if k == m - 1 else ZERO
                                                  for k in range(size)]
        assert dense_vector(comp.d0[size + m], size) == [GaussianRational(-m) if k == m
                                                         else ZERO for k in range(size)]
    # d(X) = ((m-1) a_m + in b_{m-1}) (xi eta)_m
    for m in range(size):
        expected = [ZERO] * (2 * size)
        expected[m] = GaussianRational(m - 1)
        if m:
            expected[size + m - 1] = i_n
        assert dense_vector(comp.d1[m], 2 * size) == expected
    if n == 0:      # no i*n entry: the xi block of d0 and the eta columns of d1 are empty
        assert not any(comp.d0[:size])
        assert not any(k >= size for row in comp.d1 for k in row)
    assert 1 not in comp.d1[1]


def test_mode_zero_cohomology_with_generators():
    rep = mode_cohomology(0, 0, 12)
    assert rep.dims == (1, 2, 1)
    assert rep.generators[0] == ("1",)
    assert set(rep.generators[1]) == {"d_theta", "I*d_I"}
    assert rep.generators[2] == ("I*d_I^d_theta",)


# Generator text recorded from the per-degree formatters that the single
# formatter replaced: (coefficient, basis degree m) -> text of the function,
# the d_I one-field, the d_theta one-field and the two-field.
_COEFFS = {"1": ONE, "-1/3": GaussianRational(Fraction(-1, 3)),
           "i": GaussianRational(0, 1), "1+i": GaussianRational(1, 1)}
_PINNED_GENERATOR_TEXT = {
    ("1", 0): ("1", "d_I", "d_theta", "d_I^d_theta"),
    ("1", 1): ("I", "I*d_I", "I*d_theta", "I*d_I^d_theta"),
    ("1", 2): ("I^2", "I^2*d_I", "I^2*d_theta", "I^2*d_I^d_theta"),
    ("-1/3", 0): ("(-1/3)", "(-1/3)*d_I", "(-1/3)*d_theta", "(-1/3)*d_I^d_theta"),
    ("-1/3", 1): ("(-1/3)*I", "(-1/3)*I*d_I", "(-1/3)*I*d_theta", "(-1/3)*I*d_I^d_theta"),
    ("-1/3", 2): ("(-1/3)*I^2", "(-1/3)*I^2*d_I", "(-1/3)*I^2*d_theta", "(-1/3)*I^2*d_I^d_theta"),
    ("i", 0): ("(i)", "(i)*d_I", "(i)*d_theta", "(i)*d_I^d_theta"),
    ("i", 1): ("(i)*I", "(i)*I*d_I", "(i)*I*d_theta", "(i)*I*d_I^d_theta"),
    ("i", 2): ("(i)*I^2", "(i)*I^2*d_I", "(i)*I^2*d_theta", "(i)*I^2*d_I^d_theta"),
    ("1+i", 0): ("((1+i))", "((1+i))*d_I", "((1+i))*d_theta", "((1+i))*d_I^d_theta"),
    ("1+i", 1): ("((1+i))*I", "((1+i))*I*d_I", "((1+i))*I*d_theta", "((1+i))*I*d_I^d_theta"),
    ("1+i", 2): ("((1+i))*I^2", "((1+i))*I^2*d_I", "((1+i))*I^2*d_theta", "((1+i))*I^2*d_I^d_theta"),
}


@pytest.mark.parametrize("key", sorted(_PINNED_GENERATOR_TEXT))
def test_generator_text_for_every_coefficient_and_degree(key):
    name, m = key
    function, d_i, d_theta, two = _PINNED_GENERATOR_TEXT[key]
    vec = [ZERO] * 3
    vec[m] = _COEFFS[name]
    assert _format_dense(vec, 0) == function
    assert _format_dense(vec, 2) == two
    assert _format_dense(vec + [ZERO] * 3, 1) == d_i
    assert _format_dense([ZERO] * 3 + vec, 1) == d_theta


def _format_dense(vec, degree):
    """`_format_generator` of a dense mode vector of blocks of length 3."""
    return _format_generator(sparse_vector(vec), degree, 3)


def test_generator_text_of_mixed_vectors():
    i = GaussianRational(0, 1)
    third = GaussianRational(Fraction(-1, 3))
    assert _format_dense([ZERO] * 3, 0) == "0"
    assert _format_dense([ONE, third, i], 0) == "1 + (-1/3)*I + (i)*I^2"
    assert _format_dense([ONE, third, i], 2) == (
        "d_I^d_theta + (-1/3)*I*d_I^d_theta + (i)*I^2*d_I^d_theta")
    assert _format_dense([ONE, third, i, GaussianRational(1, 1), ZERO, ONE], 1) == (
        "d_I + (-1/3)*I*d_I + (i)*I^2*d_I + ((1+i))*d_theta + I^2*d_theta")
    assert _format_dense([ZERO] * 6, 1) == "0"
    assert _format_dense([ZERO] * 3, 2) == "0"


def test_generator_text_reads_keys_in_index_order():
    third = GaussianRational(Fraction(-1, 3))
    assert _format_generator({4: ONE, 0: third}, 1, 3) == "(-1/3)*d_I + I*d_theta"


# stdout of two mode sweeps away from c = 0, recorded literally: the generator
# text depends on which vectors each span decision keeps
_PINNED_COHOMOLOGY = {
    ("--c", "1/3", "--modes", "8", "--truncate", "16"): (
        "command: cohomology --c 1/3 --modes 8 --truncate 16\n"
        "check mode-0: pass (dims (1, 2, 1) generators [1; I*d_I, d_theta; I*d_I^d_theta])\n"
        "check mode-1: pass (dims (0, 0, 0))\n"
        "check mode-2: pass (dims (0, 0, 0))\n"
        "check mode-3: pass (dims (0, 0, 0))\n"
        "check mode-4: pass (dims (0, 0, 0))\n"
        "check mode-5: pass (dims (0, 0, 0))\n"
        "check mode-6: pass (dims (0, 0, 0))\n"
        "check mode-7: pass (dims (0, 0, 0))\n"
        "check mode-8: pass (dims (0, 0, 0))\n"
        "check global: pass (dims (1, 1, 2) generators [1; Delta_omega; pi_c, pi])\n"
        "check provenance-status: pass (assembled)\n"
        "check provenance-local-annulus: pass (computed)\n"
        "check provenance-disks: recorded (recorded-constant (2, 0, 0))\n"
        "check provenance-annuli-overlap: recorded (recorded-constant (2, 2, 0))\n"
        "check provenance-restriction-rank: recorded (recorded-constant 1 (dilation class survives, rotation class glues))\n"
        "check provenance-flat-comparison: recorded (flat complex acyclic (recorded analytic input))\n"
        "check provenance-generator-identification: recorded (recorded-constant)\n"
        "result: PASS (12 pass, 0 fail, 5 recorded)\n"
    ),
    ("--c", "-1/2", "--modes", "3", "--truncate", "5"): (
        "command: cohomology --c -1/2 --modes 3 --truncate 5\n"
        "check mode-0: pass (dims (1, 2, 1) generators [1; I*d_I, d_theta; I*d_I^d_theta])\n"
        "check mode-1: pass (dims (0, 0, 0))\n"
        "check mode-2: pass (dims (0, 0, 0))\n"
        "check mode-3: pass (dims (0, 0, 0))\n"
        "check global: pass (dims (1, 1, 2) generators [1; Delta_omega; pi_c, pi])\n"
        "check provenance-status: pass (assembled)\n"
        "check provenance-local-annulus: pass (computed)\n"
        "check provenance-disks: recorded (recorded-constant (2, 0, 0))\n"
        "check provenance-annuli-overlap: recorded (recorded-constant (2, 2, 0))\n"
        "check provenance-restriction-rank: recorded (recorded-constant 1 (dilation class survives, rotation class glues))\n"
        "check provenance-flat-comparison: recorded (flat complex acyclic (recorded analytic input))\n"
        "check provenance-generator-identification: recorded (recorded-constant)\n"
        "result: PASS (7 pass, 0 fail, 5 recorded)\n"
    ),
}


@pytest.mark.parametrize("args", sorted(_PINNED_COHOMOLOGY))
def test_mode_sweep_output_is_pinned(args):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["cohomology", *args]) == 0
    assert out.getvalue() == _PINNED_COHOMOLOGY[args]


# stdout of `cohomology` at the default modes and truncation and of `invariants`
# in the mode model's range, recorded literally before the elimination stored
# rows sparsely
_PINNED_NECKLACE = {
    ("cohomology", "--c", "-5/7"): (
        "command: cohomology --c -5/7 --modes 5 --truncate 12\n"
        "check mode-0: pass (dims (1, 2, 1) generators [1; I*d_I, d_theta; I*d_I^d_theta])\n"
        "check mode-1: pass (dims (0, 0, 0))\n"
        "check mode-2: pass (dims (0, 0, 0))\n"
        "check mode-3: pass (dims (0, 0, 0))\n"
        "check mode-4: pass (dims (0, 0, 0))\n"
        "check mode-5: pass (dims (0, 0, 0))\n"
        "check global: pass (dims (1, 1, 2) generators [1; Delta_omega; pi_c, pi])\n"
        "check provenance-status: pass (assembled)\n"
        "check provenance-local-annulus: pass (computed)\n"
        "check provenance-disks: recorded (recorded-constant (2, 0, 0))\n"
        "check provenance-annuli-overlap: recorded (recorded-constant (2, 2, 0))\n"
        "check provenance-restriction-rank: recorded (recorded-constant 1 (dilation class survives, rotation class glues))\n"
        "check provenance-flat-comparison: recorded (flat complex acyclic (recorded analytic input))\n"
        "check provenance-generator-identification: recorded (recorded-constant)\n"
        "result: PASS (9 pass, 0 fail, 5 recorded)\n"
    ),
    ("invariants", "--c", "1/3"): (
        "command: invariants --c 1/3\n"
        "check euler-primitive: pass\n"
        "check affine-family: pass\n"
        "check pi_c-not-exact: pass\n"
        "check modular-not-exact: pass\n"
        "check modular-cocycle: pass\n"
        "check modular-field: pass (s*d_t - t*d_s (disk chart))\n"
        "check structure-is-poisson: pass\n"
        "result: PASS (7 pass, 0 fail)\n"
    ),
}


@pytest.mark.parametrize("argv", sorted(_PINNED_NECKLACE))
def test_necklace_command_output_is_pinned(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    assert out.getvalue() == _PINNED_NECKLACE[argv]


def _apply(rows, vec):
    """The sparse matrix `rows` times the sparse vector `vec`, zeros dropped."""
    out = {}
    for r, row in enumerate(rows):
        x = sum((entry * vec[k] for k, entry in row.items() if k in vec), ZERO)
        if not x.is_zero():
            out[r] = x
    return out


def _add(u, v):
    out = dict(u)
    for k, x in v.items():
        out[k] = out.get(k, ZERO) + x
    return {k: x for k, x in out.items() if not x.is_zero()}


@pytest.mark.parametrize("N", range(4, 19))
@pytest.mark.parametrize("n", [s * k for k in range(1, 9) for s in (1, -1)])
def test_nonzero_mode_has_a_contracting_homotopy(n, N):
    """h contracts mode n on the trusted degrees m <= M = N - 1, in the bases of
    `mode_matrices`: functions I^m (index m), one-fields I^m d_I (m) and
    I^m d_theta (size + m), two-fields I^m d_I^d_theta (m).

    h0 takes a one-field (a, b) to the function f_m = a_{m+1} / (i n); h1 takes
    a two-field w to the one-field b_m = w_{m+1} / (i n) plus the corner term
    -w_0 on I^0 d_I.  Then h0 d0 = 1, d0 h0 + h1 d1 = 1 and d1 h1 = 1 on the
    trusted degrees, so every trusted cocycle is a boundary whose primitive has
    degree <= M: the mode is (0, 0, 0) at every truncation.

    Each identity at degree m involves only the entries at degrees m - 1..m + 1,
    which are the same formulas in m at every N.  So the corners m = 0, 1, a
    generic m and the top degree M, all present from N = 4 on, prove it for
    every N; the identities are also rational in n with i n cancelling.
    """
    comp = mode_matrices(Fraction(1, 3), n, N)
    size = N + 1
    M = N - 1
    inv = ONE / GaussianRational(0, n)
    h0 = [{m + 1: inv} if m < N else {} for m in range(size)]
    h1 = [{} for _ in range(2 * size)]
    h1[0][0] = -ONE
    for m in range(N):
        h1[size + m][m + 1] = inv
    for m in range(M + 1):
        e = {m: ONE}
        assert _apply(h0, _apply(comp.d0, e)) == e, ("h0 d0", m)
        assert _apply(comp.d1, _apply(h1, e)) == e, ("d1 h1", m)
        for k in (m, size + m):
            e = {k: ONE}
            assert _add(_apply(comp.d0, _apply(h0, e)),
                        _apply(h1, _apply(comp.d1, e))) == e, ("d0 h0 + h1 d1", k)
    assert mode_cohomology(Fraction(1, 3), n, N) == CohomologyReport(
        (0, 0, 0), ((), (), ()), {})


@pytest.mark.parametrize("N", range(4, 19))
def test_zero_mode_is_diagonal_with_one_two_one_cohomology(N):
    """At n = 0, d0 and d1 keep the radial degree, and their only zero diagonal
    entries are d0 at m = 0 and d1 at m = 1, with the d_theta columns of d1
    empty: the cohomology is 1; I*d_I, d_theta; I*d_I^d_theta at every N."""
    comp = mode_matrices(Fraction(1, 3), 0, N)
    size = N + 1
    for rows in (comp.d0, comp.d1):
        assert all(k % size == r % size for r, row in enumerate(rows) for k in row)
    assert {k for row in comp.d0 for k in row} == set(range(1, size))
    assert {k for row in comp.d1 for k in row} == set(range(size)) - {1}
    rep = mode_cohomology(Fraction(1, 3), 0, N)
    assert (rep.dims, rep.generators) == (
        (1, 2, 1), (("1",), ("I*d_I", "d_theta"), ("I*d_I^d_theta",)))


@pytest.mark.parametrize("N", range(4, 19))
def test_mode_cohomology_matches_the_oracle_elimination(N, monkeypatch):
    c = Fraction(1, 3)
    ours = [mode_cohomology(c, n, N) for n in range(-8, 9)]

    def nullspace(rows, ncols):
        return [sparse_vector(v) for v in dense_nullspace(dense_rows(rows, ncols), ncols)]

    def independent(vectors, dim):
        return slow_independent([dense_vector(v, dim) for v in vectors])

    def intersect(rows, ncols, keep):
        cols = [list(col) for col in zip(*dense_rows(rows, ncols))]
        return [sparse_vector(v) for v in slow_intersect_with_coordinate_subspace(cols, keep)]
    monkeypatch.setattr(necklace, "nullspace", nullspace)
    monkeypatch.setattr(necklace, "independent", independent)
    monkeypatch.setattr(necklace, "intersect_with_coordinate_subspace", intersect)
    theirs = [mode_cohomology(c, n, N) for n in range(-8, 9)]
    assert [(r.dims, r.generators) for r in ours] == [(r.dims, r.generators) for r in theirs]


def test_degree_restricted_zero_mode_is_acyclic_above_one():
    # sub-complex at radial degree two: no kernel beyond the image
    comp = mode_matrices(0, 0, 6)
    size = 7
    # one-field cocycles at degree 2: (m-1) a_m = 0 forces a_2 = 0; the
    # eta-vector at degree 2 is the image of the degree-2 function
    target = [ZERO] * (2 * size)
    target[size + 2] = ONE
    sol = solve(comp.d0, size, sparse_vector(target))
    assert sol is not None
    # two-fields of degree 2 are images of radial one-fields
    target2 = [ZERO] * size
    target2[2] = ONE
    assert solve(comp.d1, 2 * size, sparse_vector(target2)) is not None


def test_nonzero_modes_are_acyclic():
    for n in (1, 2, 3, 4, 5):
        rep = mode_cohomology(0, n, 12)
        assert rep.dims == (0, 0, 0)


def test_mode_reports_independent_of_parameter():
    base = mode_cohomology(0, 0, 12)
    assert mode_cohomology(Fraction(1, 2), 0, 12) == base
    assert mode_cohomology(Fraction(-1, 2), 0, 12) == base


def test_rescaling_matches_reparameterized_member():
    for alpha in (Fraction(1, 2), Fraction(3, 2)):
        image, c_new = rescaled_pi_c(0, alpha)
        target = build_structures(c_new)
        assert image == target.pi_c.substitute(image.chart, {})
        if abs(c_new) < 1:
            assert mode_cohomology(0, 0, 10) == mode_cohomology(c_new, 0, 10)


def test_truncation_guards():
    with pytest.raises(ValueError):
        mode_matrices(0, 0, 2)
    with pytest.raises(ValueError):
        mode_cohomology(0, 0, 3)
    with pytest.raises(ValueError):
        mode_matrices(2, 0, 8)


# -- global assembly -----------------------------------------------------------------

def test_global_dimensions_for_degenerate_member():
    rep = global_assembly(0, mode_cohomology(0, 0, 12))
    assert rep.dims == (1, 1, 2)
    assert rep.generators == (("1",), ("Delta_omega",), ("pi_c", "pi"))
    assert rep.provenance["local annulus"] == "computed"
    assert "recorded-constant" in rep.provenance["disks"]
    assert "recorded-constant" in rep.provenance["restriction rank"]


def test_global_dimensions_for_symplectic_member():
    rep = global_assembly(2)
    assert rep.dims == (1, 0, 1)
    assert rep.provenance["status"] == "recorded-constant"


def test_assembly_rejects_degenerate_local_input():
    broken = CohomologyReport(dims=(0, 0, 0), generators=((), (), ()),
                              provenance={"status": "computed"})
    with pytest.raises(AssemblyError):
        global_assembly(0, local=broken)


def test_assembly_rejects_out_of_range_rank():
    with pytest.raises(AssemblyError):
        global_assembly(0, mode_cohomology(0, 0, 12),
                        recorded=RecordedConstants(restriction_rank_h1=7))


def test_assembly_rejects_unit_parameter():
    with pytest.raises(AssemblyError):
        global_assembly(1)


# -- modular field, volume, identities --------------------------------------------

def test_modular_field_preserves_every_member():
    for c in (0, Fraction(1, 2), 3):
        structure = build_structures(c)
        h, _desc, _val = modular_and_volume(structure)
        chart = h.chart
        s, t = SuperPolynomial.variable(chart, "s"), SuperPolynomial.variable(chart, "t")
        # {h, .} is the printed s*d_t - t*d_s
        assert canonical_bracket(h, s, chart) == -t
        assert canonical_bracket(h, t, chart) == s
        # h lives on the chart of the structure it was built for: no rebinding
        assert canonical_bracket(h, structure.pi_c).is_zero()


def test_volume_of_symplectic_members():
    _h, desc, val = modular_and_volume(build_structures(3))
    assert abs(val - 2 * math.pi * math.log(2)) < 1e-12
    assert "2*pi*ln(2)" == desc
    _h, _d, none_val = modular_and_volume(build_structures(0))
    assert none_val is None


def _volume_series(c, terms=6):
    """2*ln((c+1)/(c-1)) / (2*pi) as an exact series in x = 2/(c-1): ln(1 + x)."""
    x = Fraction(2) / (Fraction(c) - 1)
    return sum((-1) ** (k + 1) * x ** k / k for k in range(1, terms + 1))


@pytest.mark.parametrize("c", [10 ** 15, -10 ** 15, 10 ** 17])
def test_volume_far_from_unit_parameter_against_a_series(c):
    _h, desc, value = modular_and_volume(build_structures(c))
    assert desc == f"2*pi*ln({Fraction(c + 1, c - 1)})"
    expected = 2 * math.pi * float(_volume_series(c))
    assert value != 0.0
    assert math.isclose(value, expected, rel_tol=1e-15)


def test_each_invariants_call_decides_its_own_exactness(monkeypatch):
    calls = []
    engine_in_span = necklace.in_span

    def in_span(rows, ncols, target):
        calls[-1] += 1
        return engine_in_span(rows, ncols, target)
    monkeypatch.setattr(necklace, "in_span", in_span)
    for _ in range(2):
        calls.append(0)
        with redirect_stdout(io.StringIO()):
            assert main(["invariants", "--c=1/3"]) == 0
    assert calls == [2, 2]


def test_structure_identities_for_sample_parameters():
    for c in (0, Fraction(1, 2)):
        results = structure_identities(build_structures(c))
        assert all(results.values()), results


def test_euler_identity_defined_away_from_one():
    with pytest.raises(StructureIdentityError):
        structure_identities(build_structures(1))


def test_modular_commutation_directly():
    ns = build_structures(Fraction(1, 3))
    chart = ns.chart
    h = parse_poly("-t*sigma + s*tau", chart)
    assert canonical_bracket(h, ns.pi_c, chart).is_zero()
    assert canonical_bracket(h, ns.pi, chart).is_zero()


def test_mode_zero_matrices_match_the_symbolic_kernel():
    """Two independent paths: matrix columns versus the odd canonical bracket
    acting on angle-independent multivector fields in action-angle form."""
    from bigbracket.chart import darboux_chart, ODD
    from bigbracket.rationals import GaussianRational

    chart = darboux_chart([("I", 0, "xi"), ("ang", 0, "eta")], ODD)
    Ivar = SuperPolynomial.variable(chart, "I")
    xi = SuperPolynomial.variable(chart, "xi")
    eta = SuperPolynomial.variable(chart, "eta")
    pi_c = Ivar * xi * eta
    N = 8
    comp = mode_matrices(0, 0, N)
    size = N + 1
    d0, d1 = dense_rows(comp.d0, size), dense_rows(comp.d1, 2 * size)

    def column_poly_d0(m):
        out = SuperPolynomial.zero(chart)
        for r in range(size):
            if d0[r][m]:
                out = out + (Ivar ** r * xi).scale(d0[r][m])
        for r in range(size):
            if d0[size + r][m]:
                out = out + (Ivar ** r * eta).scale(d0[size + r][m])
        return out

    def column_poly_d1(cidx):
        out = SuperPolynomial.zero(chart)
        for r in range(size):
            if d1[r][cidx]:
                out = out + (Ivar ** r * xi * eta).scale(d1[r][cidx])
        return out

    for m in range(N):      # stay below the truncation edge
        assert canonical_bracket(pi_c, Ivar ** m, chart) == column_poly_d0(m)
        assert canonical_bracket(pi_c, Ivar ** m * xi, chart) == column_poly_d1(m)
        assert canonical_bracket(pi_c, Ivar ** m * eta, chart) == column_poly_d1(size + m)


def test_volume_formula_against_quadrature():
    """The closed-form total volume agrees with direct numeric integration of
    the inverse bivector over the plane chart."""
    c = 3.0

    def f(t):
        # area density 4*pi/((1+u)((c+1)u+c-1)) in u = r^2, compactified by
        # u = t/(1-t); the substitution cancels every singular factor
        return 4.0 * math.pi / ((c + 1.0) * t + (c - 1.0) * (1.0 - t))

    n = 20000
    h = 1.0 / n
    total = 0.0
    for k in range(n):
        t0, t1 = k * h, (k + 1) * h
        tm = 0.5 * (t0 + t1)
        total += (t1 - t0) / 6.0 * (f(t0) + 4.0 * f(tm) + f(t1))
    _h, _desc, value = modular_and_volume(build_structures(3))
    assert abs(total - value) < 1e-9
