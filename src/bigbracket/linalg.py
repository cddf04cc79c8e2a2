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
the dense elimination.  Since the matrices here are mostly zeros, it keeps a
column index (column -> positions of the rows holding it), updated on every
swap, fill-in and cancellation: a column's pivot search and clearing visit
only the rows holding it, and each row is reduced over the pivot row's
entries only.  `quotient_basis` picks the vectors that extend a column
span, greedily, from the pivots of one elimination.  `solve` first looks for
an equation 0 = b_i, an empty row i with b_i nonzero; the unit row vector
y = e_i then has y M = 0 and y b != 0, so the system is inconsistent and
nothing is eliminated.
"""
from __future__ import annotations

from collections import defaultdict

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
    holders = defaultdict(set)    # column -> positions of the rows holding it
    for k, row in enumerate(rows):
        for j in row:
            holders[j].add(k)
    pivots = []
    r = 0
    for c in range(ncols):
        held = holders.get(c)
        if not held:
            continue
        pivot = min(held)
        if pivot < r:             # an earlier pivot row holds c too
            pivot = min((k for k in held if k >= r), default=None)
            if pivot is None:
                continue
        if pivot != r:
            # a column held by exactly one of the two rows moves to the other
            swapped = {r, pivot}
            for j in rows[r].keys() ^ rows[pivot].keys():
                holders[j] ^= swapped
            rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        prow = rows[r] = {j: x * inv for j, x in rows[r].items()}
        holders[c] = {r}          # clearing column c leaves it in the pivot row only
        held.discard(r)
        for k in held:
            row = rows[k]
            f = row[c]
            for j, b in prow.items():
                a = row.get(j)
                if a is None:
                    row[j] = -(f * b)
                    holders[j].add(k)
                    continue
                a = a - f * b
                if a:
                    row[j] = a
                else:
                    del row[j]
                    holders[j].discard(k)
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
    if any(not rows[i] for i in rhs):                  # 0 = b_i with b_i nonzero
        return None
    aug = [dict(row) for row in rows]
    for i, b in rhs.items():
        aug[i][ncols] = b
    pivots = _rref(aug, ncols)
    if any(row.keys() == {ncols} for row in aug):      # 0 = b with b nonzero
        return None
    return {c: row[ncols] for row, c in zip(aug, pivots) if ncols in row}


def in_span(rows, ncols, target) -> bool:
    """Whether the target is in the column span of the rows."""
    return solve(rows, ncols, target) is not None


def quotient_basis(rows, ncols, vectors):
    """The vectors a greedy basis keeps modulo the column span of the rows, in order.

    Vector j is kept when it is outside the span of the columns and of the
    vectors before it, which is exactly when column ncols + j of the matrix
    [rows | vectors] is a pivot: one elimination decides every j.  A row
    permutation of the input keeps the same vectors, since it changes no
    column's span membership.
    """
    aug = [dict(row) for row in rows]
    for j, v in enumerate(vectors):
        for i, x in v.items():
            aug[i][ncols + j] = x
    return [vectors[c - ncols] for c in _rref(aug, ncols + len(vectors)) if c >= ncols]


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
