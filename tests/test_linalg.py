import random
from fractions import Fraction

import pytest

from bigbracket.chart import cotangent_chart
from bigbracket.linalg import (PolyFrac, _rref, independent,
                               intersect_with_coordinate_subspace, nullspace, rank, solve,
                               solve_over_fractions)
from bigbracket.necklace import _quotient_generators, mode_matrices
from bigbracket.parsing import parse_poly
from bigbracket.poly import SuperPolynomial
from bigbracket.rationals import GaussianRational, ZERO

from oracles import (column_rows, dense_rref, dense_vector, slow_independent,
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


@pytest.mark.parametrize("seed", range(60))
def test_independent_matches_greedy_span_loop(seed):
    rng = random.Random(1000 + seed)
    length = rng.randint(1, 7)
    vectors, planted = _family(rng, length, rng.randint(1, 9))
    kept = independent(sparse_rows(vectors), length)
    assert kept == slow_independent(vectors)
    assert not planted & set(kept)
    assert len(kept) == rank(sparse_rows(vectors), length)


def test_independent_on_empty_and_degenerate_input():
    i = GaussianRational(0, 1)
    one = GaussianRational(1)
    assert independent([], 0) == slow_independent([]) == []
    assert independent(sparse_rows([[], []]), 0) == slow_independent([[], []]) == []
    assert independent(sparse_rows([[ZERO, ZERO]]), 2) == []
    # the second is i times the first
    assert independent(sparse_rows([[one, i], [i, -one], [one, ZERO]]), 2) == [0, 2]
    assert independent(sparse_rows([[ZERO], [i], [one]]), 1) == [1]


@pytest.mark.parametrize("seed", range(30))
def test_intersect_with_coordinate_subspace_matches_greedy_prune(seed):
    rng = random.Random(2000 + seed)
    nrows = rng.randint(1, 7)
    cols, _ = _family(rng, nrows, rng.randint(1, 7))
    keep = {r for r in range(nrows) if rng.random() < 0.6}
    ours = intersect_with_coordinate_subspace(column_rows(cols, nrows), len(cols), keep)
    assert ([dense_vector(v, nrows) for v in ours]
            == slow_intersect_with_coordinate_subspace(cols, keep))


@pytest.mark.parametrize("c, n, N", [(0, 0, 4), (Fraction(1, 3), 0, 7), (Fraction(-1, 2), 2, 6),
                                     (Fraction(3, 4), 5, 5)])
def test_intersect_on_mode_matrices_matches_greedy_prune(c, n, N):
    comp = mode_matrices(c, n, N)
    size, M = N + 1, N - 1
    cols0 = [[comp.d0[r].get(m, ZERO) for r in range(2 * size)] for m in range(size)]
    keep1 = set(range(M + 1)) | {size + m for m in range(M + 1)}
    cols1 = [[comp.d1[r].get(k, ZERO) for r in range(size)] for k in range(2 * size)]
    for rows, cols, keep in ((comp.d0, cols0, keep1), (comp.d1, cols1, set(range(M + 1)))):
        ours = intersect_with_coordinate_subspace(rows, len(cols), keep)
        assert ([dense_vector(v, len(rows)) for v in ours]
                == slow_intersect_with_coordinate_subspace(cols, keep))


@pytest.mark.parametrize("seed", range(30))
def test_quotient_generators_match_greedy_loop(seed):
    rng = random.Random(3000 + seed)
    length = rng.randint(1, 7)
    boundaries, _ = _family(rng, length, rng.randint(0, 5))
    cocycles = []
    for _ in range(rng.randint(0, 6)):
        pool = boundaries + cocycles
        if pool and rng.random() < 0.3:     # a boundary plus earlier cocycles: never kept
            cocycles.append(_combination(rng, pool, length))
        else:
            cocycles.append([_scalar(rng) for _ in range(length)])
    sparse_cocycles = sparse_rows(cocycles)
    reps = _quotient_generators(boundaries=sparse_rows(boundaries), cocycles=sparse_cocycles,
                                dim=length)
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


@pytest.mark.parametrize("seed", range(60))
def test_sparse_rref_matches_dense_rref(seed):
    rng = random.Random(5000 + seed)
    matrix, width = _zero_heavy(rng, lambda: _scalar(rng, zero_share=0.6), ZERO)
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
    matrix, width = _zero_heavy(rng, entry, zero)
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
