"""Slow, independent re-implementations used as oracles.

Multiplication sorts explicit symbol sequences with a bubble sort counting
odd transpositions; the brackets are defined by the generator table plus the
graded Leibniz recursion, never touching the partial-derivative formulas of
the package.  The section oracles rebuild every product from the bracket
kernel with no memo: nothing is kept between calls.  The span oracles grow a
basis one `in_span` decision at a time, each a fresh elimination.
"""
from __future__ import annotations

from fractions import Fraction

from bigbracket.brackets import canonical_bracket, derived_bracket
from bigbracket.chart import DarbouxChart, EVEN, ODD
from bigbracket.courant import CourantSection
from bigbracket.linalg import in_span, nullspace
from bigbracket.poly import SuperPolynomial
from bigbracket.rationals import GaussianRational, ONE, ZERO


def mono_symbols(chart, mono):
    evens, odds = mono
    seq = []
    for idx, k in evens:
        seq.extend([idx] * k)
    seq.extend(odds)
    return seq


def slow_multiply(p: SuperPolynomial, q: SuperPolynomial) -> SuperPolynomial:
    """Concatenate symbol sequences, bubble-sort, count odd-odd swaps."""
    chart = p.chart
    out = SuperPolynomial.zero(chart)
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            seq = mono_symbols(chart, m1) + mono_symbols(chart, m2)
            sign = 1
            n = len(seq)
            changed = True
            while changed:
                changed = False
                for i in range(n - 1):
                    if seq[i] > seq[i + 1]:
                        if (chart.variables[seq[i]].parity == ODD
                                and chart.variables[seq[i + 1]].parity == ODD):
                            sign = -sign
                        seq[i], seq[i + 1] = seq[i + 1], seq[i]
                        changed = True
            dead = any(
                seq[i] == seq[i + 1] and chart.variables[seq[i]].parity == ODD
                for i in range(n - 1))
            if dead:
                continue
            term = SuperPolynomial.constant(chart, c1 * c2 * sign)
            for idx in seq:
                term = term * SuperPolynomial.variable(chart, chart.variables[idx].name)
            out = out + term
    return out


def _generator_table(chart: DarbouxChart):
    """Bracket values on generator pairs, keyed by variable index pairs."""
    table = {}
    for pos, mom in chart.pairs:
        if chart.bracket_parity == EVEN:
            table[(mom.index, pos.index)] = GaussianRational(1)
            # skew: {x, x*} = -(-1)^{parities}
            sign = -1 if pos.parity == EVEN else 1
            table[(pos.index, mom.index)] = GaussianRational(sign)
        else:
            sign = 1 if pos.parity == EVEN else -1
            table[(mom.index, pos.index)] = GaussianRational(sign)
            # odd skew: {x, th} = -(-1)^{(x~+1)(th~+1)} {th, x}
            flip = -1 if ((pos.parity + 1) * (mom.parity + 1)) % 2 == 0 else 1
            table[(pos.index, mom.index)] = GaussianRational(sign * flip)
    return table


def _var_poly(chart, idx):
    return SuperPolynomial.variable(chart, chart.variables[idx].name)


def slow_bracket(p: SuperPolynomial, q: SuperPolynomial) -> SuperPolynomial:
    """Bracket via bilinearity and the Leibniz recursion on symbol sequences.

    Even case: {fg, h} = f{g,h} + (-1)^{g~h~} {f,h} g and
    {v, gh} = {v,g} h + (-1)^{v~g~} g {v,h} on generators v.
    Odd case: the same with every parity shifted by one on the bracket slot.
    """
    chart = p.chart
    eps = chart.bracket_parity
    table = _generator_table(chart)
    out = SuperPolynomial.zero(chart)

    def parity_of_seq(seq):
        return sum(chart.variables[i].parity for i in seq) % 2

    def gen_with_seq(v_idx, seq, q_par_tail):
        """{v, product(seq)} as a polynomial."""
        res = SuperPolynomial.zero(chart)
        v_par = chart.variables[v_idx].parity
        for pos in range(len(seq)):
            val = table.get((v_idx, seq[pos]))
            if val is None:
                continue
            # sign from moving the derivation past the leading factors
            lead_par = parity_of_seq(seq[:pos])
            sign = -1 if ((v_par + eps) * lead_par) % 2 else 1
            term = SuperPolynomial.constant(chart, val * sign)
            for idx in seq[:pos] + seq[pos + 1:]:
                term = term * _var_poly(chart, idx)
            res = res + term
        return res

    for m1, c1 in p.terms.items():
        seq1 = mono_symbols(chart, m1)
        for m2, c2 in q.terms.items():
            seq2 = mono_symbols(chart, m2)
            acc = SuperPolynomial.zero(chart)
            for pos in range(len(seq1)):
                v = seq1[pos]
                inner = gen_with_seq(v, seq2, 0)
                if inner.is_zero():
                    continue
                tail = seq1[pos + 1:]
                tail_par = parity_of_seq(tail)
                q_par = parity_of_seq(seq2)
                # {f v g, h}: pull v to act on h, pass the tail over h
                sign = -1 if (tail_par * (q_par + eps)) % 2 else 1
                term = SuperPolynomial.constant(chart, GaussianRational(sign))
                for idx in seq1[:pos]:
                    term = term * _var_poly(chart, idx)
                term = term * inner
                for idx in tail:
                    term = term * _var_poly(chart, idx)
                acc = acc + term
            out = out + acc.scale(c1 * c2)
    return out


def slow_section(structure, poly: SuperPolynomial) -> CourantSection:
    """The section embedding as `poly`, decomposed afresh by partials."""
    bundle = structure.bundle
    vec, cov = {}, {}
    for a, (xi, xis) in enumerate(zip(bundle.fiber, bundle.fiber_momenta)):
        vcomp, ccomp = poly.partial(xis), poly.partial(xi)
        if not vcomp.is_zero():
            vec[a + 1] = vcomp
        if not ccomp.is_zero():
            cov[a + 1] = ccomp
    section = CourantSection(structure, vec, cov)
    assert section.embedded == poly, "not the embedding of a section"
    return section


def slow_circ(e1: CourantSection, e2: CourantSection) -> CourantSection:
    s = e1.structure
    return slow_section(s, derived_bracket(s.theta.total, e1.embedded, e2.embedded))


def slow_skew(e1: CourantSection, e2: CourantSection) -> CourantSection:
    diff = slow_circ(e1, e2).embedded - slow_circ(e2, e1).embedded
    return slow_section(e1.structure, diff.scale(GaussianRational(Fraction(1, 2))))


def slow_t_tensor(e1, e2, e3) -> SuperPolynomial:
    total = (canonical_bracket(slow_skew(e1, e2).embedded, e3.embedded)
             + canonical_bracket(slow_skew(e2, e3).embedded, e1.embedded)
             + canonical_bracket(slow_skew(e3, e1).embedded, e2.embedded))
    return total.scale(GaussianRational(Fraction(1, 6)))


def slow_independent(vectors):
    """Indices of the vectors a greedy basis keeps, one span test per vector."""
    kept = []
    basis = []
    for j, v in enumerate(vectors):
        if not in_span(basis, v):
            basis.append(v)
            kept.append(j)
    return kept


def slow_intersect_with_coordinate_subspace(matrix_cols, keep):
    """The image vectors vanishing outside `keep`, pruned greedily."""
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
        vec = []
        for r in range(nrows):
            acc = ZERO
            for c, col in zip(coeffs, matrix_cols):
                if c:
                    acc = acc + c * col[r]
            vec.append(acc)
        out.append(vec)
    basis = []
    for v in out:
        if not in_span(basis, v):
            basis.append(v)
    return basis


def slow_quotient_generators(cocycles, boundaries):
    """Cocycles outside the span of the boundaries and the cocycles kept so far."""
    reps = []
    span = [list(b) for b in boundaries]
    for z in cocycles:
        if not in_span(span, z):
            reps.append(z)
            span.append(list(z))
    return reps
