"""Exact linear algebra over the Gaussian rationals and over rational-function
fields of a polynomial base, on sparse rows.

Sizes here are tiny (mode complexes and section spans), so plain fraction
arithmetic is both adequate and auditable.  A matrix is a list of rows, each
a dict {column: nonzero entry}, with its column count `ncols` given
separately; a vector is a dict {index: nonzero entry}.  Every routine takes
and returns these shapes, stores no zero and leaves its arguments alone: each
reduces its own rows with the one elimination, `_rref`.  Its pivot row for a
column is the first row at or below the current one holding it (no magnitude
search: arithmetic is exact), so the reduced form and the pivots are those of
the dense elimination; it scales and clears over the entries of the pivot row
only, since the matrices here are mostly zeros.
"""
from __future__ import annotations

from .poly import SuperPolynomial
from .rationals import ONE


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


def rank(rows, ncols) -> int:
    return len(_rref([dict(row) for row in rows], ncols))


def nullspace(rows, ncols):
    """Basis of the right kernel, one vector per non-pivot column."""
    rows = [dict(row) for row in rows]
    pivots = _rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = {f: ONE}
        for row, c in zip(rows, pivots):
            if f in row:
                vec[c] = -row[f]
        basis.append(vec)
    return basis


def solve(rows, ncols, rhs):
    """One solution x of M x = b, or None when inconsistent; free unknowns are 0.

    `rhs` is the vector b, indexed by row.
    """
    aug = [dict(row) for row in rows]
    for i, b in rhs.items():
        aug[i][ncols] = b
    pivots = _rref(aug, ncols)
    if any(row.keys() == {ncols} for row in aug):      # 0 = b with b nonzero
        return None
    return {c: row[ncols] for row, c in zip(aug, pivots) if ncols in row}


def in_span(rows, ncols, target) -> bool:
    """Whether the target is in the column span of the rows."""
    if not ncols:
        return not target
    return solve(rows, ncols, target) is not None


def independent(vectors, dim):
    """Indices of the vectors a greedy basis keeps, in order.

    Vector j is kept when it is not in the span of vectors 0..j-1, which is
    exactly when j is a pivot column of the dim x len(vectors) matrix whose
    columns are the vectors; one elimination decides every j.
    """
    rows = [{} for _ in range(dim)]
    for j, v in enumerate(vectors):
        for i, x in v.items():
            rows[i][j] = x
    return _rref(rows, len(vectors))


def intersect_with_coordinate_subspace(rows, ncols, keep):
    """Basis of the column span's vectors whose components outside `keep` vanish.

    rows: the matrix M, whose ncols columns span the image; keep: set of row
    indices.  Returns vectors indexed by row, pruned by `independent`.
    """
    if not ncols:
        return []
    kern = nullspace([row for r, row in enumerate(rows) if r not in keep], ncols)
    out = []
    for coeffs in kern:
        vec = {}
        for r, row in enumerate(rows):
            if r not in keep:
                continue
            acc = None
            for j, x in row.items():
                c = coeffs.get(j)
                if c is not None:
                    acc = c * x if acc is None else acc + c * x
            if acc:
                vec[r] = acc
        out.append(vec)
    return [out[j] for j in independent(out, len(rows))]


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


def solve_over_fractions(rows, ncols, rhs):
    """One solution of M x = b over the base rational-function field, or None.

    The rows and rhs hold PolyFrac entries.
    """
    return solve(rows, ncols, rhs)
