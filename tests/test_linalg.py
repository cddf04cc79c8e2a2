import io
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from bigbracket import linalg
from bigbracket.chart import cotangent_chart
from bigbracket.cli import main
from bigbracket.linalg import (PolyFrac, _rref, in_span, nullspace, quotient_basis, rank,
                               solve, solve_over_fractions)
from bigbracket.necklace import mode_matrices
from bigbracket.parsing import parse_poly
from bigbracket.poly import SuperPolynomial
from bigbracket.rationals import GaussianRational, ONE, ZERO

from oracles import (column_rows, dense_in_span, dense_rref, dense_vector, slow_independent,
                     slow_intersect_with_coordinate_subspace, slow_quotient_generators,
                     sparse_rows, sparse_vector)


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
    n = len(matrix[0])
    expected = solve(sparse_rows(matrix), n, sparse_vector(rhs))
    lifted = solve_over_fractions(
        [{j: _lift(chart, x) for j, x in row.items()} for row in sparse_rows(matrix)], n,
        {i: _lift(chart, b) for i, b in sparse_vector(rhs).items()})
    if expected is None:
        assert lifted is None
    else:
        assert (dense_vector({j: _value(x) for j, x in lifted.items()}, n)
                == dense_vector(expected, n))


def test_solve_over_fractions_with_polynomial_entries(chart):
    p = lambda text: PolyFrac(parse_poly(text, chart))
    matrix = [[p("x1"), p("1")], [p("x2"), p("x1")], [p("x1 + x2"), p("x1 + 1")]]
    rhs = [p("x1 + x2"), p("x2 + x1*x2"), p("x1 + 2*x2 + x1*x2")]   # x = (1, x2)
    x = solve_over_fractions(sparse_rows(matrix), 2, sparse_vector(rhs))
    assert x is not None
    for row, b in zip(matrix, rhs):
        acc = row[0] * x[0] + row[1] * x[1]
        assert not (acc - b)
    assert not (x[0] - p("1")) and not (x[1] - p("x2"))


def test_solve_over_fractions_rejects_inconsistent_system(chart):
    p = lambda text: PolyFrac(parse_poly(text, chart))
    assert solve_over_fractions(sparse_rows([[p("x1")], [p("x1")]]), 1,
                                sparse_vector([p("1"), p("x2")])) is None
    assert solve_over_fractions(sparse_rows([[p("x1"), p("x2")], [p("2*x1"), p("2*x2")]]), 2,
                                sparse_vector([p("1"), p("3")])) is None


# ---------------------------------------------------------------------------
# greedy span choices from one elimination, against one span test per vector
# ---------------------------------------------------------------------------


def _scalar(rng, zero_share=0.5):
    """A sparse Q(i) entry: zero with `zero_share`, otherwise nonreal about a third of the time."""
    if rng.random() < zero_share:
        return ZERO
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.35 else 0
    return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), im)


def _combination(rng, vectors, length):
    out = [ZERO] * length
    for v in rng.sample(vectors, rng.randint(1, len(vectors))):
        a = _scalar(rng, zero_share=0.0)
        out = [x + a * y for x, y in zip(out, v)]
    return out


def _family(rng, length, count):
    """Vectors with planted dependencies, zero vectors and duplicates.

    Returns the vectors and the indices that lie in the span of the vectors
    before them by construction.
    """
    vectors, planted = [], set()
    for j in range(count):
        kind = rng.random()
        if vectors and kind < 0.25:
            vectors.append(_combination(rng, vectors, length))
            planted.add(j)
        elif vectors and kind < 0.35:
            vectors.append(list(rng.choice(vectors)))
            planted.add(j)
        elif kind < 0.45:
            vectors.append([ZERO] * length)
            planted.add(j)
        else:
            vectors.append([_scalar(rng) for _ in range(length)])
    return vectors, planted


def _kept(vectors, kept):
    """Indices of the kept vectors, found by identity: `quotient_basis` returns its inputs."""
    return [j for j, v in enumerate(vectors) if any(v is k for k in kept)]


@pytest.mark.parametrize("seed", range(60))
def test_independent_matches_greedy_span_loop(seed):
    """Modulo no columns, `quotient_basis` is the greedy independent subfamily."""
    rng = random.Random(1000 + seed)
    length = rng.randint(1, 7)
    vectors, planted = _family(rng, length, rng.randint(1, 9))
    sparse = sparse_rows(vectors)
    kept = _kept(sparse, quotient_basis([{} for _ in range(length)], 0, sparse))
    assert kept == slow_independent(vectors)
    assert not planted & set(kept)
    assert len(kept) == rank(sparse, length)


def test_independent_on_empty_and_degenerate_input():
    i = GaussianRational(0, 1)
    one = GaussianRational(1)
    no_columns = lambda dim: [{} for _ in range(dim)]
    assert quotient_basis([], 0, []) == slow_independent([]) == []
    assert quotient_basis([], 0, [{}, {}]) == slow_independent([[], []]) == []
    assert quotient_basis(no_columns(2), 0, sparse_rows([[ZERO, ZERO]])) == []
    # the second is i times the first
    vectors = sparse_rows([[one, i], [i, -one], [one, ZERO]])
    assert _kept(vectors, quotient_basis(no_columns(2), 0, vectors)) == [0, 2]
    vectors = sparse_rows([[ZERO], [i], [one]])
    assert _kept(vectors, quotient_basis(no_columns(1), 0, vectors)) == [1]
    # a vector in the column span is never kept, one outside it always is
    assert quotient_basis([{0: one}, {}], 1, [{0: i}, {1: i}]) == [{1: i}]


def _cocycles_on(rng, keep, length, pool):
    """Vectors vanishing outside `keep`, some planted in the span of `pool` and of
    the vectors before them (never kept), zero vectors and duplicates among them."""
    out = []
    for _ in range(rng.randint(0, 6)):
        span = pool + out
        kind = rng.random()
        if span and kind < 0.3:
            out.append(_combination(rng, span, length))
        elif out and kind < 0.4:
            out.append(list(rng.choice(out)))
        elif kind < 0.5:
            out.append([ZERO] * length)
        else:
            out.append([_scalar(rng) if r in keep else ZERO for r in range(length)])
    return out


def _permuted(rng, rows, vectors):
    """The same rows and vectors with their coordinates in a random order."""
    order = list(range(len(rows)))
    rng.shuffle(order)
    return ([rows[r] for r in order],
            [{k: v[r] for k, r in enumerate(order) if r in v} for v in vectors])


@pytest.mark.parametrize("seed", range(30))
def test_intersect_with_coordinate_subspace_matches_greedy_prune(seed):
    """No intersection is needed: for vectors vanishing outside a coordinate
    subspace K, the quotient modulo the whole column span B keeps what the
    greedy quotient modulo B meet K keeps (its greedy prune by
    `slow_intersect_with_coordinate_subspace`), and so does a row permutation
    of the same input."""
    rng = random.Random(2000 + seed)
    for _ in range(10):
        nrows = rng.randint(1, 7)
        cols, _ = _family(rng, nrows, rng.randint(0, 7))
        keep = {r for r in range(nrows) if rng.random() < 0.6}
        meet = slow_intersect_with_coordinate_subspace(cols, keep)
        cocycles = _cocycles_on(rng, keep, nrows, meet)
        rows, sparse = column_rows(cols, nrows), sparse_rows(cocycles)
        reps = quotient_basis(rows, len(cols), sparse)
        assert [dense_vector(z, nrows) for z in reps] == slow_quotient_generators(cocycles, meet)
        rows, moved = _permuted(rng, rows, sparse)
        assert _kept(moved, quotient_basis(rows, len(cols), moved)) == _kept(sparse, reps)


@pytest.mark.parametrize("c, n, N", [(0, 0, 4), (Fraction(1, 3), 0, 7), (Fraction(-1, 2), 2, 6),
                                     (Fraction(3, 4), 5, 5)])
def test_intersect_on_mode_matrices_matches_greedy_prune(c, n, N):
    """The same on the mode matrices' trusted degrees, and with the one-field
    blocks swapped (d_theta block first): the representatives do not change."""
    comp = mode_matrices(c, n, N)
    size = N + 1
    keep1 = {k for k in range(2 * size) if k % size < N}
    cols0 = [[comp.d0[r].get(m, ZERO) for r in range(2 * size)] for m in range(size)]
    cols1 = [[comp.d1[r].get(k, ZERO) for r in range(size)] for k in range(2 * size)]
    trusted1 = [{j: x for j, x in row.items() if j in keep1} for row in comp.d1]
    cocycles1 = [z for z in nullspace(trusted1, 2 * size) if z.keys() <= keep1]
    cocycles2 = [{m: ONE} for m in range(N)]
    for rows, cols, keep, cocycles in ((comp.d0, cols0, keep1, cocycles1),
                                       (comp.d1, cols1, set(range(N)), cocycles2)):
        dim = len(rows)
        reps = quotient_basis(rows, len(cols), cocycles)
        dense = [dense_vector(z, dim) for z in cocycles]
        expected = slow_quotient_generators(
            dense, slow_intersect_with_coordinate_subspace(cols, keep))
        assert [dense_vector(z, dim) for z in reps] == expected
        swap = lambda v: {(k + size) % dim: x for k, x in v.items()}
        swapped = [swap(z) for z in cocycles]
        kept = quotient_basis([rows[(r + size) % dim] for r in range(dim)], len(cols), swapped)
        assert _kept(swapped, kept) == _kept(cocycles, reps)


@pytest.mark.parametrize("seed", range(30))
def test_quotient_generators_match_greedy_loop(seed):
    rng = random.Random(3000 + seed)
    length = rng.randint(1, 7)
    boundaries, _ = _family(rng, length, rng.randint(0, 5))
    cocycles = _cocycles_on(rng, set(range(length)), length, boundaries)
    sparse_cocycles = sparse_rows(cocycles)
    reps = quotient_basis(column_rows(boundaries, length), len(boundaries), sparse_cocycles)
    expected = slow_quotient_generators(cocycles, boundaries)
    assert [dense_vector(r, length) for r in reps] == expected
    assert all(any(r is z for z in sparse_cocycles) for r in reps)


# ---------------------------------------------------------------------------
# agreement with sympy on sparse Q(i) matrices
# ---------------------------------------------------------------------------


def _sympy_scalar(sympy, x):
    return (sympy.Rational(x.re.numerator, x.re.denominator)
            + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator))


def _sparse_matrix(rng):
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    matrix = [[_scalar(rng, zero_share=0.6) for _ in range(n)] for _ in range(m)]
    if m > 2 and rng.random() < 0.5:        # a planted dependent row
        a = _scalar(rng, zero_share=0.0)
        matrix[-1] = [x + a * y for x, y in zip(matrix[0], matrix[1])]
    return matrix


@pytest.mark.parametrize("seed", range(40))
def test_rank_nullspace_and_solve_agree_with_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4000 + seed)
    matrix = _sparse_matrix(rng)
    rhs = [_scalar(rng, zero_share=0.6) for _ in matrix]
    n = len(matrix[0])
    exact = dict(iszerofunc=lambda e: sympy.expand(e) == 0, simplify=True)
    theirs = sympy.Matrix([[_sympy_scalar(sympy, x) for x in row] for row in matrix])
    b = sympy.Matrix([_sympy_scalar(sympy, x) for x in rhs])

    assert rank(sparse_rows(matrix), n) == theirs.rank(**exact)

    kernel = [sympy.Matrix([_sympy_scalar(sympy, x) for x in dense_vector(v, n)])
              for v in nullspace(sparse_rows(matrix), n)]
    expected = theirs.nullspace(**exact)
    assert len(kernel) == len(expected)
    for ours, their in zip(kernel, expected):
        assert (ours - their).applyfunc(sympy.expand) == sympy.zeros(n, 1)

    x = solve(sparse_rows(matrix), n, sparse_vector(rhs))
    consistent = theirs.row_join(b).rank(**exact) == theirs.rank(**exact)
    assert (x is not None) == consistent
    if x is not None:
        solution = sympy.Matrix([_sympy_scalar(sympy, v) for v in dense_vector(x, n)])
        residual = theirs * solution - b
        assert residual.applyfunc(sympy.expand) == sympy.zeros(len(matrix), 1)


# ---------------------------------------------------------------------------
# the sparse elimination against the dense one it replaced
# ---------------------------------------------------------------------------


def _zero_heavy(rng, entry, zero):
    """A matrix with zero rows, zero columns and at least 60% zero entries."""
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    matrix = [[entry() for _ in range(n)] for _ in range(m)]
    if m > 2 and rng.random() < 0.5:        # a planted dependent row: entries cancel
        matrix[-1] = [x + y for x, y in zip(matrix[0], matrix[1])]
    for c in rng.sample(range(n), rng.randint(0, n // 2)):
        for row in matrix:
            row[c] = zero
    while sum(not x for row in matrix for x in row) < 0.6 * len(matrix) * n:
        matrix.insert(rng.randint(0, len(matrix)), [zero] * n)
    return matrix, n


def _eliminate_both(rng, matrix, width):
    """Pivots and reduced rows of `_rref` and `dense_rref`, at a random `ncols`."""
    ncols = width if rng.random() < 0.5 else rng.randint(0, width)   # augmented columns
    sparse = sparse_rows(matrix)
    dense = [list(row) for row in matrix]
    return _rref(sparse, ncols), sparse, dense_rref(dense, ncols), dense


def _nonzero(entry):
    x = entry()
    while not x:
        x = entry()
    return x


def _forced(rng, entry, zero):
    """Rows under which clearing column 0 (any ncols >= 1) swaps, fills in and cancels.

    Row 0 lacks column 0, so row 1 is column 0's pivot row (a swap); row 1
    holds columns 0 and 1 and row 2 holds column 0 but not column 1, so
    clearing row 2 fills column 1 in; row 3 is a multiple of row 1 on
    columns 0 and 1, which both cancel in it.  Random rows follow, and an
    empty row lands somewhere.
    """
    n = rng.randint(2, 6)
    rest = lambda: [entry() for _ in range(n - 2)]
    one = [_nonzero(entry), _nonzero(entry)] + rest()
    f = _nonzero(entry)
    matrix = [[zero, entry()] + rest(), one, [_nonzero(entry), zero] + rest(),
              [f * one[0], f * one[1]] + rest()]
    matrix += [[entry() for _ in range(n)] for _ in range(rng.randint(0, 3))]
    matrix.insert(rng.randint(0, len(matrix)), [zero] * n)
    return matrix, n


@pytest.mark.parametrize("seed", range(60))
def test_sparse_rref_matches_dense_rref(seed):
    rng = random.Random(5000 + seed)
    entry = lambda: _scalar(rng, zero_share=0.6)
    for matrix, width in (_zero_heavy(rng, entry, ZERO), _forced(rng, entry, ZERO)):
        pivots, sparse, dense_pivots, dense = _eliminate_both(rng, matrix, width)
        assert pivots == dense_pivots
        assert [[row.get(j, ZERO) for j in range(width)] for row in sparse] == dense
        assert all(all(sparse_row.values()) for sparse_row in sparse)    # no zero is stored


_FRACTION_TEXTS = ("1", "-2", "x1", "x2", "x1 + 1", "x1*x2 - 2", "3*x2", "x1 - x2")


@pytest.mark.parametrize("seed", range(20))
def test_sparse_rref_matches_dense_rref_over_fractions(chart, seed):
    rng = random.Random(6000 + seed)
    zero = PolyFrac(SuperPolynomial.zero(chart))

    def entry():
        if rng.random() < 0.6:
            return zero
        return PolyFrac(parse_poly(rng.choice(_FRACTION_TEXTS), chart),
                        parse_poly(rng.choice(_FRACTION_TEXTS[:4]), chart))
    for matrix, width in (_zero_heavy(rng, entry, zero), _forced(rng, entry, zero)):
        pivots, sparse, dense_pivots, dense = _eliminate_both(rng, matrix, width)
        assert pivots == dense_pivots
        # PolyFrac keeps num/den unreduced, so entries are compared as values
        assert all(not (row.get(j, zero) - d[j])
                   for row, d in zip(sparse, dense) for j in range(width))
        assert all(all(sparse_row.values()) for sparse_row in sparse)


def test_gaussian_elimination_coerces_no_scalar(monkeypatch):
    # every pivot is inverted as `1 / x`, which must not build a scalar from 1
    comp = mode_matrices(Fraction(-3, 7), 3, 8)
    rows = [dict(row) for row in comp.d0]
    dense = [dense_vector(row, 9) for row in comp.d0]
    dense_pivots = dense_rref(dense, 9)
    calls = []
    coerce = GaussianRational.coerce

    def spy(x):
        calls.append(x)
        return coerce(x)
    monkeypatch.setattr(GaussianRational, "coerce", staticmethod(spy))
    pivots = _rref(rows, 9)
    monkeypatch.undo()
    assert calls == []
    assert pivots == dense_pivots and [dense_vector(row, 9) for row in rows] == dense


# ---------------------------------------------------------------------------
# empty rows: an equation 0 = b_i decides a system before any elimination
# ---------------------------------------------------------------------------


def _with_empty_rows(rng, entry, zero):
    """A dense system with one to three empty rows and rhs zero on all of them or
    nonzero on at least one: (matrix, width, rhs, whether some empty row has a
    nonzero rhs)."""
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    matrix = [[entry() for _ in range(n)] for _ in range(m)]
    for _ in range(rng.randint(1, 3)):
        matrix.insert(rng.randint(0, len(matrix)), [zero] * n)
    empty = [i for i, row in enumerate(matrix) if not any(row)]
    rhs = [entry() if any(row) else zero for row in matrix]
    if rng.random() < 0.5:
        for i in rng.sample(empty, rng.randint(1, len(empty))):
            rhs[i] = _nonzero(entry)
    return matrix, n, rhs, any(rhs[i] for i in empty)


def _expected_solution(matrix, n, rhs):
    """The solution `solve` promises, read off `dense_rref` of the augmented rows."""
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = dense_rref(aug, n)
    return {c: row[n] for row, c in zip(aug, pivots) if row[n]}


def _check_system(matrix, n, rhs, zero, solver):
    columns = [list(col) for col in zip(*matrix)]
    consistent = dense_in_span(columns, rhs)
    x = solver(sparse_rows(matrix), n, sparse_vector(rhs))
    assert (x is not None) == consistent
    if x is None:
        return False
    want = _expected_solution(matrix, n, rhs)
    assert set(x) == set(want) and all(not (x[c] - want[c]) for c in x)
    for row, b in zip(matrix, rhs):           # M x = b, checked by multiplication
        acc = zero
        for j, a in enumerate(row):
            if a and j in x:
                acc = acc + a * x[j]
        assert not (acc - b)
    return True


@pytest.mark.parametrize("seed", range(40))
def test_solve_on_empty_rows_matches_dense_oracles(chart, seed):
    rng = random.Random(7000 + seed)
    matrix, n, rhs, decided = _with_empty_rows(rng, lambda: _scalar(rng, zero_share=0.5), ZERO)
    consistent = _check_system(matrix, n, rhs, ZERO, solve)
    assert not (decided and consistent)
    assert in_span(sparse_rows(matrix), n, sparse_vector(rhs)) == consistent
    lift = lambda x: _lift(chart, x)
    lifted = [[lift(x) for x in row] for row in matrix]
    zero = lift(ZERO)
    assert _check_system(lifted, n, [lift(b) for b in rhs], zero,
                         solve_over_fractions) == consistent


@pytest.mark.parametrize("seed", range(20))
def test_solve_over_fractions_on_empty_rows_matches_dense_oracles(chart, seed):
    rng = random.Random(8000 + seed)
    zero = PolyFrac(SuperPolynomial.zero(chart))

    def entry():
        if rng.random() < 0.5:
            return zero
        return PolyFrac(parse_poly(rng.choice(_FRACTION_TEXTS), chart),
                        parse_poly(rng.choice(_FRACTION_TEXTS[:4]), chart))
    matrix, n, rhs, decided = _with_empty_rows(rng, entry, zero)
    consistent = _check_system(matrix, n, rhs, zero, solve_over_fractions)
    assert not (decided and consistent)


def test_in_span_without_columns_reads_the_target():
    assert in_span([{}, {}], 0, {})
    assert not in_span([{}, {}], 0, {1: GaussianRational(3)})


def test_invariants_decides_its_exactness_checks_without_eliminating(monkeypatch):
    """Both mode-0 verdicts are an empty row with a nonzero target entry."""
    calls = []
    engine_rref = linalg._rref

    def spy(rows, ncols):
        calls.append(ncols)
        return engine_rref(rows, ncols)
    monkeypatch.setattr(linalg, "_rref", spy)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["invariants", "--c=3/7"]) == 0
    assert calls == []
    assert "pi_c-not-exact: pass" in out.getvalue()
    assert "modular-not-exact: pass" in out.getvalue()
