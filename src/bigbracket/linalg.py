"""Exact linear algebra over the Gaussian rationals and over rational-function
fields of a polynomial base, on sparse rows with one conversion.

Sizes here are tiny (mode complexes and section spans), so plain fraction
arithmetic is both adequate and auditable.  The public routines take and
return dense lists; each converts its matrix once, in `_reduce`, to rows
stored as {column: nonzero entry}, which the one elimination, `_rref`,
reduces.  Its pivot row for a column is the first row at or below the
current one holding that column (no magnitude search: arithmetic is exact),
so the reduced form and the pivots are those of the dense elimination; it
scales and clears over the nonzero entries of the pivot row only, since the
matrices here are mostly zeros.
"""
from __future__ import annotations

from .poly import SuperPolynomial
from .rationals import ZERO, ONE


def _rref(rows, ncols):
    """Reduced row echelon form of sparse rows in place; returns pivot column list.

    Each row is a dict {column: entry} holding only nonzero entries, and
    entries that cancel are deleted.  Columns at or past `ncols` (an augmented
    right-hand side) are carried along but never pivoted on.  The entries may
    come from any field whose elements support truthiness, `1 / x`, `*`, `-`
    and negation: Gaussian rationals or PolyFrac.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if c in rows[k]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        prow = rows[r] = {j: x * inv for j, x in rows[r].items()}
        for k, row in enumerate(rows):
            f = row.get(c)
            if f is None or k == r:
                continue
            for j, b in prow.items():
                a = row.get(j)
                if a is None:
                    row[j] = -(f * b)
                    continue
                a = a - f * b
                if a:
                    row[j] = a
                else:
                    del row[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _reduce(matrix, ncols):
    """The sparse rows of a dense matrix after `_rref`, and the pivot columns."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in matrix]
    return rows, _rref(rows, ncols)


def rank(matrix) -> int:
    if not matrix:
        return 0
    return len(_reduce(matrix, len(matrix[0]))[1])


def nullspace(matrix, ncols=None):
    """Basis of the right kernel; matrix given as list of rows."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    rows, pivots = _reduce(matrix, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [ZERO] * ncols
        vec[f] = ONE
        for row, c in zip(rows, pivots):
            if f in row:
                vec[c] = -row[f]
        basis.append(vec)
    return basis


def solve(matrix, rhs):
    """One solution x of M x = b, or None when inconsistent."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    rows, pivots = _reduce([list(matrix[i]) + [rhs[i]] for i in range(m)], n)
    if any(row.keys() == {n} for row in rows):      # 0 = b with b nonzero
        return None
    x = [ZERO] * n
    for row, c in zip(rows, pivots):
        x[c] = row.get(n, ZERO)
    return x


def in_span(vectors, target) -> bool:
    if not vectors:
        return all(not x for x in target)
    return solve(list(zip(*vectors)), target) is not None


def independent(vectors):
    """Indices of the vectors a greedy basis keeps, in order.

    Vector j is kept when it is not in the span of vectors 0..j-1, which is
    exactly when j is a pivot column of the matrix whose columns are the
    vectors; one elimination decides every j.
    """
    return _reduce(zip(*vectors), len(vectors))[1]


def intersect_with_coordinate_subspace(matrix_cols, keep):
    """Basis of the image vectors whose components outside `keep` vanish.

    matrix_cols: list of column vectors of M; keep: set of row indices.
    Returns full-length vectors (zero outside the kept rows).
    """
    if not matrix_cols:
        return []
    nrows = len(matrix_cols[0])
    drop = [r for r in range(nrows) if r not in keep]
    kern = nullspace([[col[r] for col in matrix_cols] for r in drop], len(matrix_cols))
    out = []
    for coeffs in kern:
        vec = [ZERO] * nrows
        for c, col in zip(coeffs, matrix_cols):
            if c:
                for r, x in enumerate(col):
                    if x:
                        vec[r] = vec[r] + c * x
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

    def __neg__(self):
        return PolyFrac(-self.num, self.den)

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
