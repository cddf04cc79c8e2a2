"""Sparse normal-ordered polynomials over Z2-graded variables.

A monomial stores even variables as an exponent map and odd variables as a
strictly increasing tuple of declaration indices; odd squares vanish.  The
normal order is: even factors first, then odd factors sorted by declaration
index.  The Koszul sign of a reordering counts transpositions of odd symbols
only.  All coefficients are exact Gaussian rationals.
"""
from __future__ import annotations

from .chart import Chart, ChartError, EVEN, ODD
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


def mono_index_word(mono):
    word = []
    for idx, k in mono[0]:
        word.extend([idx] * k)
    word.extend(mono[1])
    return tuple(sorted(word))


def mono_sort_key(mono):
    # graded-lexicographic: total degree first (descending on print),
    # then the expanded declaration-index word
    return (-mono_degree(mono), mono_index_word(mono))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class SuperPolynomial:
    """Exact sparse polynomial attached to a chart; zero coefficients never stored."""

    __slots__ = ("chart", "terms")

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
        """Split into (even part, odd part)."""
        ev = {m: c for m, c in self.terms.items() if mono_parity(m) == 0}
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
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            s = c if s is None else s + c
            if s:
                terms[m] = s
            elif m in terms:
                del terms[m]
        return SuperPolynomial(self.chart, terms)

    __radd__ = __add__

    def __neg__(self):
        return SuperPolynomial(self.chart, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

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
                s = c if s is None else s + c
                if s:
                    out[mono] = s
                elif mono in out:
                    del out[mono]
        return SuperPolynomial(self.chart, out)

    def __rmul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value) -> "SuperPolynomial":
        value = GaussianRational.coerce(value)
        if value.is_zero():
            return SuperPolynomial(self.chart)
        return SuperPolynomial(self.chart, {m: c * value for m, c in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = SuperPolynomial.constant(self.chart, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------------

    def partial(self, var) -> "SuperPolynomial":
        """Left derivative with respect to a chart variable."""
        if isinstance(var, str):
            var = self.chart.var(var)
        if self.chart.by_name.get(var.name) is not var:
            raise ChartError(f"variable {var.name!r} does not belong to the chart")
        out = {}
        idx = var.index
        for (evens, odds), coeff in self.terms.items():
            if var.parity == EVEN:
                for pos, (j, k) in enumerate(evens):
                    if j == idx:
                        new_evens = (
                            evens[:pos] + ((j, k - 1),) + evens[pos + 1:]
                            if k > 1 else evens[:pos] + evens[pos + 1:]
                        )
                        mono = (new_evens, odds)
                        c = coeff * k
                        s = out.get(mono)
                        s = c if s is None else s + c
                        if s:
                            out[mono] = s
                        elif mono in out:
                            del out[mono]
                        break
            else:
                for pos, j in enumerate(odds):
                    if j == idx:
                        # moving the left derivative past `pos` odd factors
                        mono = (evens, odds[:pos] + odds[pos + 1:])
                        c = coeff if pos % 2 == 0 else -coeff
                        s = out.get(mono)
                        s = c if s is None else s + c
                        if s:
                            out[mono] = s
                        elif mono in out:
                            del out[mono]
                        break
        return SuperPolynomial(self.chart, out)

    def gradient(self):
        """Every nonzero left partial, in one pass over the terms.

        Returns {(fp, j): {mono: coeff}}: the left derivative by variable j
        of the parity-fp component.  Striking one factor of variable j is
        injective on the monomials that contain it, so no two terms land on
        the same entry and no coefficient cancels.
        """
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
        return out

    # -- gradings ----------------------------------------------------------

    def gradings(self):
        """Set of (eps, delta, kappa) triples occurring in the polynomial."""
        out = set()
        variables = self.chart.variables
        for evens, odds in self.terms:
            e = d = 0
            for idx, k in evens:
                v = variables[idx]
                e += v.eps * k
                d += v.delta * k
            for idx in odds:
                v = variables[idx]
                e += v.eps
                d += v.delta
            out.add((e, d, e + d))
        return out

    def grading(self):
        """The unique (eps, delta, kappa) triple of a homogeneous polynomial."""
        g = self.gradings()
        if len(g) != 1:
            raise ValueError(f"polynomial is not bigraded-homogeneous: {sorted(g)}")
        return g.pop()

    def bigraded_components(self):
        """Split into homogeneous pieces keyed by (eps, delta, kappa)."""
        variables = self.chart.variables
        out = {}
        for mono, coeff in self.terms.items():
            e = d = 0
            for idx, k in mono[0]:
                v = variables[idx]
                e += v.eps * k
                d += v.delta * k
            for idx in mono[1]:
                v = variables[idx]
                e += v.eps
                d += v.delta
            out.setdefault((e, d, e + d), {})[mono] = coeff
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
        return hash((id(self.chart), frozenset(self.terms.items())))

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
