"""Sparse normal-ordered polynomials over Z2-graded variables.

A monomial stores even variables as an exponent map and odd variables as a
strictly increasing tuple of declaration indices; odd squares vanish.  The
normal order is: even factors first, then odd factors sorted by declaration
index.  The Koszul sign of a reordering counts transpositions of odd symbols
only.  All coefficients are exact Gaussian rationals.
"""
from __future__ import annotations

from .chart import Chart, ChartError, ODD
from .rationals import GaussianRational, ONE


# ---------------------------------------------------------------------------
# monomials
#
# evens: tuple of (variable_index, exponent), sorted by index, exponent >= 1
# odds:  tuple of variable indices, strictly increasing
# ---------------------------------------------------------------------------

UNIT_MONO = ((), ())


def mono_mul(m1, m2):
    """Normal-ordered product of two monomials.

    Returns (monomial, sign) or None when an odd variable repeats.
    """
    e1, o1 = m1
    e2, o2 = m2
    if not e2:
        evens = e1
    elif not e1:
        evens = e2
    else:
        acc = dict(e1)
        for idx, k in e2:
            acc[idx] = acc.get(idx, 0) + k
        evens = tuple(sorted(acc.items()))
    if not o1:
        return (evens, o2), 1
    if not o2:
        return (evens, o1), 1
    # merge the two increasing odd tuples, counting inversions
    merged = []
    sign = 1
    i = j = 0
    n1 = len(o1)
    while i < n1 and j < len(o2):
        a, b = o1[i], o2[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            if (n1 - i) % 2:
                sign = -sign
            j += 1
    merged.extend(o1[i:])
    merged.extend(o2[j:])
    return (evens, tuple(merged)), sign


def mono_parity(mono) -> int:
    # only odd variables carry parity; even exponents contribute nothing
    return len(mono[1]) % 2


def mono_degree(mono) -> int:
    return sum(k for _, k in mono[0]) + len(mono[1])


def mono_grading(mono, variables):
    """(eps, delta, kappa) of a monomial over the chart's variable list."""
    e = d = 0
    for idx, k in mono[0]:
        v = variables[idx]
        e += v.eps * k
        d += v.delta * k
    for idx in mono[1]:
        v = variables[idx]
        e += v.eps
        d += v.delta
    return e, d, e + d


def mono_sort_key(mono):
    """Graded-lexicographic: total degree first (descending on print), then
    the sorted declaration-index word with each variable repeated by its
    exponent.  The word is compared run by run, as (index, -exponent): at
    equal degree a longer run of a lower index sorts first, as it would
    letter by letter, and x^k costs one pair instead of k letters."""
    evens, odds = mono
    runs = [(idx, -k) for idx, k in evens]
    runs.extend((idx, -1) for idx in odds)
    runs.sort()
    return (-mono_degree(mono), tuple(runs))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class SuperPolynomial:
    """Exact sparse polynomial attached to a chart; the constructor alone drops
    zero coefficients, so the operators need not and none is ever stored.

    Terms never change after construction, so the hash, the gradient and
    each partial are computed on first use and kept on the polynomial.
    """

    __slots__ = ("chart", "terms", "_hash", "_grad", "_partials")

    def __init__(self, chart: Chart, terms=None):
        self.chart = chart
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    self.terms[mono] = coeff

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(chart) -> "SuperPolynomial":
        return SuperPolynomial(chart)

    @staticmethod
    def constant(chart, value) -> "SuperPolynomial":
        value = GaussianRational.coerce(value)
        if value.is_zero():
            return SuperPolynomial(chart)
        return SuperPolynomial(chart, {UNIT_MONO: value})

    @staticmethod
    def variable(chart, name) -> "SuperPolynomial":
        v = chart.var(name)
        if v.parity == ODD:
            mono = ((), (v.index,))
        else:
            mono = (((v.index, 1),), ())
        return SuperPolynomial(chart, {mono: ONE})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self):
        """Parity of a parity-homogeneous polynomial, or None for 0 / mixed."""
        ps = {mono_parity(m) for m in self.terms}
        if len(ps) == 1:
            return ps.pop()
        return None

    def parity_components(self):
        """Split into (even part, odd part); a homogeneous polynomial is its own part."""
        ev = {m: c for m, c in self.terms.items() if mono_parity(m) == 0}
        if len(ev) == len(self.terms):
            return self, SuperPolynomial(self.chart)
        if not ev:
            return SuperPolynomial(self.chart), self
        od = {m: c for m, c in self.terms.items() if mono_parity(m) == 1}
        return SuperPolynomial(self.chart, ev), SuperPolynomial(self.chart, od)

    def _check_chart(self, other):
        if self.chart is not other.chart:
            raise ChartError("polynomials live on different charts")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int,)) and other == 0:
            return self
        other = self._coerce(other)
        self._check_chart(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            terms[m] = c if s is None else s + c
        return SuperPolynomial(self.chart, terms)

    __radd__ = __add__

    def __neg__(self):
        return SuperPolynomial(self.chart, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def _coerce(self, other) -> "SuperPolynomial":
        if isinstance(other, SuperPolynomial):
            return other
        return SuperPolynomial.constant(self.chart, other)

    def __mul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            return self.scale(other)
        self._check_chart(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = mono_mul(m1, m2)
                if prod is None:
                    continue
                mono, sign = prod
                c = c1 * c2
                if sign < 0:
                    c = -c
                s = out.get(mono)
                out[mono] = c if s is None else s + c
        return SuperPolynomial(self.chart, out)

    def scale(self, value) -> "SuperPolynomial":
        value = GaussianRational.coerce(value)
        if value.is_zero():
            return SuperPolynomial(self.chart)
        return SuperPolynomial(self.chart, {m: c * value for m, c in self.terms.items()})

    def __pow__(self, k: int):
        """Square-and-multiply: about 2 log2(k) products, not k."""
        if k < 0:
            raise ValueError("negative power")
        out = SuperPolynomial.constant(self.chart, 1)
        square = self
        while k:
            if k & 1:
                out = out * square
            k >>= 1
            if k:
                square = square * square
        return out

    # -- calculus ----------------------------------------------------------

    def partial(self, var) -> "SuperPolynomial":
        """Left derivative with respect to a chart variable, kept per variable."""
        if isinstance(var, str):
            var = self.chart.var(var)
        if self.chart.by_name.get(var.name) is not var:
            raise ChartError(f"variable {var.name!r} does not belong to the chart")
        try:
            partials = self._partials
        except AttributeError:
            partials = self._partials = {}
        out = partials.get(var.index)
        if out is None:
            # the two parity components' derivatives have opposite parities,
            # so their monomials are disjoint
            grad = self.gradient()
            terms = dict(grad.get((0, var.index), ()))
            terms.update(grad.get((1, var.index), ()))
            out = partials[var.index] = SuperPolynomial(self.chart, terms)
        return out

    def gradient(self):
        """Every nonzero left partial, in one pass over the terms, kept.

        Returns {(fp, j): {mono: coeff}}: the left derivative by variable j
        of the parity-fp component.  Striking one factor of variable j is
        injective on the monomials that contain it, so no two terms land on
        the same entry and no coefficient cancels.  The result is kept on the
        polynomial, so callers must not mutate it.
        """
        try:
            return self._grad
        except AttributeError:
            pass
        out = {}
        for (evens, odds), coeff in self.terms.items():
            fp = len(odds) % 2
            for pos, (j, k) in enumerate(evens):
                if k > 1:
                    mono = (evens[:pos] + ((j, k - 1),) + evens[pos + 1:], odds)
                    c = coeff * k
                else:
                    mono = (evens[:pos] + evens[pos + 1:], odds)
                    c = coeff
                out.setdefault((fp, j), {})[mono] = c
            for pos, j in enumerate(odds):
                # moving the left derivative past `pos` odd factors
                mono = (evens, odds[:pos] + odds[pos + 1:])
                out.setdefault((fp, j), {})[mono] = coeff if pos % 2 == 0 else -coeff
        self._grad = out
        return out

    # -- gradings ----------------------------------------------------------

    def gradings(self):
        """Set of (eps, delta, kappa) triples occurring in the polynomial."""
        variables = self.chart.variables
        return {mono_grading(mono, variables) for mono in self.terms}

    def bigraded_components(self):
        """Split into homogeneous pieces keyed by (eps, delta, kappa)."""
        variables = self.chart.variables
        out = {}
        for mono, coeff in self.terms.items():
            out.setdefault(mono_grading(mono, variables), {})[mono] = coeff
        return {key: SuperPolynomial(self.chart, t) for key, t in out.items()}

    def max_degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def uses_only(self, allowed) -> bool:
        allowed_idx = {v.index for v in allowed}
        for evens, odds in self.terms:
            if any(idx not in allowed_idx for idx, _ in evens):
                return False
            if any(idx not in allowed_idx for idx in odds):
                return False
        return True

    def variables_used(self):
        seen = set()
        for evens, odds in self.terms:
            seen.update(idx for idx, _ in evens)
            seen.update(odds)
        return [self.chart.variables[i] for i in sorted(seen)]

    # -- substitution ------------------------------------------------------

    def substitute(self, target_chart, mapping) -> "SuperPolynomial":
        """Map variables through `mapping` (name -> polynomial on target chart).

        Substituted odd images must be parity-homogeneous of the same parity
        as the variable they replace; factors multiply in the source order,
        so all Koszul signs come out of the target normal ordering.
        """
        images = {}
        for v in self.variables_used():
            if v.name in mapping:
                img = mapping[v.name]
                if not isinstance(img, SuperPolynomial):
                    img = SuperPolynomial.constant(target_chart, img)
                if not img.is_zero() and img.parity() != v.parity:
                    raise ChartError(
                        f"substitution image of {v.name!r} has wrong parity")
                images[v.index] = img
            else:
                if v.name not in target_chart:
                    raise ChartError(
                        f"no image for variable {v.name!r} and no same-named "
                        f"variable on the target chart")
                images[v.index] = SuperPolynomial.variable(target_chart, v.name)
        out = SuperPolynomial.zero(target_chart)
        for (evens, odds), coeff in self.terms.items():
            term = SuperPolynomial.constant(target_chart, coeff)
            for idx, k in evens:
                term = term * images[idx] ** k
            for idx in odds:
                term = term * images[idx]
            out = out + term
        return out

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, GaussianRational)):
            other = self._coerce(other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        self._check_chart(other)
        return self.terms == other.terms

    def __hash__(self):
        # terms never change after construction, so the hash is kept
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((id(self.chart), frozenset(self.terms.items())))
            return self._hash

    def __str__(self):
        from .printing import format_poly
        return format_poly(self)

    def __repr__(self):
        return f"<poly {self}>"


def poly_sum(chart, items):
    out = SuperPolynomial.zero(chart)
    for p in items:
        out = out + p
    return out
