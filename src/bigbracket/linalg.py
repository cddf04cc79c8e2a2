"""Exact dense linear algebra over the Gaussian rationals and over
rational-function fields of a polynomial base.

Sizes here are tiny (mode complexes and section spans), so plain fraction
arithmetic is both adequate and auditable.  The one elimination, `_rref`,
takes the first nonzero entry of each column as its pivot (no magnitude
search: arithmetic is exact) and skips zero entries when it scales the pivot
row and when it clears a column, since the matrices here are mostly zeros.
"""
from __future__ import annotations

from .poly import SuperPolynomial
from .rationals import ZERO, ONE


def _rref(rows, ncols):
    """Reduced row echelon form in place; returns pivot column list.

    The entries may come from any field whose elements support truthiness,
    `1 / x`, `*` and `-`: Gaussian rationals or PolyFrac.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for k in range(r, len(rows)):
            if rows[k][c]:
                pivot = k
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv if x else x for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b if b else a for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(matrix) -> int:
    if not matrix:
        return 0
    rows = [list(row) for row in matrix]
    return len(_rref(rows, len(rows[0])))


def nullspace(matrix, ncols=None):
    """Basis of the right kernel; matrix given as list of rows."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    rows = [list(row) for row in matrix]
    pivots = _rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [ZERO] * ncols
        vec[f] = ONE
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][f]
        basis.append(vec)
    return basis


def solve(matrix, rhs):
    """One solution x of M x = b, or None when inconsistent."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    rows = [list(matrix[i]) + [rhs[i]] for i in range(m)]
    pivots = _rref(rows, n)
    for row in rows:
        if row[n] and all(not x for x in row[:n]):
            return None
    x = [ZERO] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    return x


def in_span(vectors, target) -> bool:
    if not vectors:
        return all(not x for x in target)
    cols = list(zip(*vectors))
    return solve([list(row) for row in cols], list(target)) is not None


def independent(vectors):
    """Indices of the vectors a greedy basis keeps, in order.

    Vector j is kept when it is not in the span of vectors 0..j-1, which is
    exactly when j is a pivot column of the matrix whose columns are the
    vectors; one elimination decides every j.
    """
    return _rref([list(row) for row in zip(*vectors)], len(vectors))


def intersect_with_coordinate_subspace(matrix_cols, keep):
    """Basis of the image vectors whose components outside `keep` vanish.

    matrix_cols: list of column vectors of M; keep: set of row indices.
    Returns full-length vectors (zero outside the kept rows).
    """
    if not matrix_cols:
        return []
    nrows = len(matrix_cols[0])
    drop = [r for r in range(nrows) if r not in keep]
    if drop:
        sub = [[col[r] for col in matrix_cols] for r in drop]
        kern = nullspace(sub, len(matrix_cols))
    else:
        kern = [[ONE if i == j else ZERO for j in range(len(matrix_cols))]
                for i in range(len(matrix_cols))]
    out = []
    for coeffs in kern:
        terms = [(c, col) for c, col in zip(coeffs, matrix_cols) if c]
        vec = []
        for r in range(nrows):
            acc = ZERO
            for c, col in terms:
                acc = acc + c * col[r]
            vec.append(acc)
        out.append(vec)
    return [out[j] for j in independent(out)]


# ---------------------------------------------------------------------------
# rational functions of the base, for closure-under-span decisions
# ---------------------------------------------------------------------------


class PolyFrac:
    """num/den with polynomial entries; equality by cross multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: SuperPolynomial, den: SuperPolynomial | None = None):
        if den is None:
            den = SuperPolynomial.constant(num.chart, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def __bool__(self):
        return not self.num.is_zero()

    def __add__(self, other):
        return PolyFrac(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    def __sub__(self, other):
        return PolyFrac(self.num * other.den - other.num * self.den,
                        self.den * other.den)

    def __mul__(self, other):
        return PolyFrac(self.num * other.num, self.den * other.den)

    def __rtruediv__(self, other):
        return PolyFrac(self.den * other, self.num)


def solve_over_fractions(matrix, rhs):
    """One solution of M x = b over the base rational-function field, or None.

    matrix and rhs hold PolyFrac entries; free unknowns come back as the
    PolyFrac zero.
    """
    x = solve(matrix, rhs)
    if x is None:
        return None
    zero = PolyFrac(SuperPolynomial.zero(matrix[0][0].num.chart))
    return [v if isinstance(v, PolyFrac) else zero for v in x]
