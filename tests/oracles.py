"""Slow, independent re-implementations used as oracles.

Multiplication sorts explicit symbol sequences with a bubble sort counting
odd transpositions, and `slow_substitute` expands each substituted term into
words of runs sorted the same way; the brackets are defined by the generator
table plus the graded Leibniz recursion, never touching the
partial-derivative formulas of the package.  The section oracles rebuild every product from the bracket
kernel with no memo: nothing is kept between calls.  A section is built
from its components by `section_from_components`, and `slow_components`
decides a polynomial by taking its partials and rebuilding it, where the
engine checks the total degree of each monomial.  The span oracles grow a
basis one `dense_in_span` decision at a time, each a fresh elimination by
`dense_rref`, the dense elimination the engine used before it stored rows
sparsely; none of them calls `bigbracket.linalg`.  They take dense lists;
`sparse_rows`, `dense_rows`, `sparse_vector`, `dense_vector` and
`column_rows` convert between those and the engine's sparse rows and
vectors.  `SlowGaussianRational` is the scalar as a pair of Fractions, as
it was before it became one integer triple, with its own text form.  The
table oracle `collect_table` antisymmetrizes a document table the loader's
old way, and the SH-Lie sign is the product `perm_sign * koszul_sign` of a
cycle count and an odd-inversion count.

The print order `expanded_word_sort_key` writes each monomial out as its
full index word, where the engine compares runs of one index.

The other routes here reach the same objects another way than the engine:
- `VectorField`, a vector field as a component map with its own
  supercommutator, where the engine keeps one hamiltonian h and applies
  {h, .}: `bracket_fields` stores {h, x^A} for every coordinate, and
  `commutator_homomorphism_residuals` decides an action's homomorphism by
  commutators of anchors instead of brackets of momentum-linear functions;
- the Cartan calculus on Pi TM (`pi_tangent_chart`, `de_rham`, `interior`,
  `lie_derivative`, `base_field`) and the vector field `cartan_differential`
  of an anchored bundle, squared without any bracket; `fiber_de_rham` is
  `de_rham` on forms of a big chart, where the engine takes {mu, .};
- derived brackets of other hamiltonians: the Schouten bracket of gamma*,
  the lift `hamiltonian_lift` of a vector field and `poisson_bracket_of` a
  bivector;
- `anchor_apply` as <e, D f>, the left-product expression `k_expression` and
  the splitting change `splitting_shift` of a gauged twist;
- `sweep_axioms_1_2`, Courant axioms 1 and 2 term by term on every tuple,
  where the gate reads them off 1/2{theta, theta};
- `sweep_axioms_3_5`, Courant axioms 3-5 with a residual built on every
  tuple, where the gate compares the two sides and subtracts once;
- `sweep_shla`, the lines of `shla_check` from every sorted tuple's
  identity, none skipped, where the gate leaves out the tuples that repeat a
  section or the constant, stops each line's sweep at its first failure and
  reads every map off index-keyed tables.  Its evaluator is the
  object-keyed path the gate used before: `GradedElement`s, `ShlaMaps`
  (which keeps each skew bracket by its embeddings and builds T from them)
  and `shla_identity`, summing polynomials term by term; `jacobiator` is
  the sum of three nested skew brackets, where the gate reads nested terms;
- `swap_proto`, the swapped pair (A*, A) rebuilt table by table, where the
  engine takes the Legendre image of mu + gamma*;
- `slow_mode_cohomology`, a mode's cohomology with each image first
  intersected with the trusted coordinates, where the engine quotients by
  the whole image;
- the su(2) origin of the sphere family: `su2_bivector`, its quotient
  `bruhat_w_chart`, and `rescaled_pi_c`, which maps the members into one
  another.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from bigbracket.algebroid import (AlgebroidSpec, ProtoBialgebroidSpec, SpecError,
                                  dual_chart_for)
from bigbracket.brackets import canonical_bracket, derived_bracket
from bigbracket.chart import (Chart, ChartError, DarbouxChart, GradedVariable,
                              cotangent_chart, darboux_chart, EVEN, ODD)
from bigbracket.courant import (CONSTANT, FUNCTION, SECTION, CourantSection,
                                CourantStructure, _signed_unshuffles, basis_sections, circ,
                                coordinate_functions, d_operator, generator_family, pairing,
                                skew_bracket)
from bigbracket.necklace import _format_generator, build_structures, mode_matrices
from bigbracket.parsing import parse_poly
from bigbracket.poly import SuperPolynomial, poly_sum
from bigbracket.rationals import GaussianRational, ONE, ZERO

HALF = GaussianRational(Fraction(1, 2))
SIXTH = GaussianRational(Fraction(1, 6))


def mono_symbols(chart, mono):
    evens, odds = mono
    seq = []
    for idx, k in evens:
        seq.extend([idx] * k)
    seq.extend(odds)
    return seq


def expanded_word_sort_key(mono):
    """The print order spelled out: total degree descending, then the sorted
    declaration-index word with each variable written out once per power."""
    word = mono_symbols(None, mono)
    return (-len(word), tuple(sorted(word)))


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


def _scalar_power(c, k):
    out = ONE
    while k:
        if k & 1:
            out = out * c
        c = c * c
        k >>= 1
    return out


def _normal_word(chart, word):
    """(sign, monomial) of a word of (index, count) runs, or None when it vanishes.

    Bubble-sorts the runs; swapping runs of m and n letters of two odd
    variables costs (-1)^(m n).  Equal runs then sit side by side and merge,
    and an odd variable written twice kills the word.
    """
    runs = list(word)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(runs) - 1):
            (a, m), (b, n) = runs[i], runs[i + 1]
            if a > b:
                if (chart.variables[a].parity == ODD and chart.variables[b].parity == ODD
                        and m * n % 2):
                    sign = -sign
                runs[i], runs[i + 1] = runs[i + 1], runs[i]
                changed = True
    merged = []
    for idx, count in runs:
        if merged and merged[-1][0] == idx:
            merged[-1] = (idx, merged[-1][1] + count)
        else:
            merged.append((idx, count))
    if any(chart.variables[idx].parity == ODD and count > 1 for idx, count in merged):
        return None
    evens = tuple(run for run in merged if chart.variables[run[0]].parity != ODD)
    odds = tuple(idx for idx, _ in merged if chart.variables[idx].parity == ODD)
    return sign, (evens, odds)


def slow_substitute(p: SuperPolynomial, target, mapping) -> SuperPolynomial:
    """p with its variables replaced, every product expanded into symbol words.

    An image is a list of (coefficient, word) on the target chart, a word a
    tuple of (index, count) runs; a variable with no image is the
    same-named target variable, whatever its parity.  Each source term is
    the product of its factors' images in the source order, expanded choice
    by choice; a k-th power of a one-term image of at most one run is that
    run with its count times k, so a huge exponent is one run.  Each word is
    put in normal order by `_normal_word`.  Only the constructor of
    `SuperPolynomial` is used, to hold the result.
    """
    source = p.chart
    images = {}
    for evens, odds in p.terms:
        for idx in [i for i, _ in evens] + list(odds):
            if idx in images:
                continue
            v = source.variables[idx]
            if v.name not in mapping:
                if v.name not in target:
                    raise ChartError(f"no image for {v.name!r}")
                images[idx] = [(ONE, ((target.var(v.name).index, 1),))]
                continue
            img = mapping[v.name]
            if isinstance(img, SuperPolynomial):
                if img.chart is not target:
                    raise ChartError("image on another chart")
                terms = [(c, evens_ + tuple((j, 1) for j in odds_))
                         for (evens_, odds_), c in img.terms.items()]
            else:
                img = GaussianRational.coerce(img)
                terms = [(img, ())] if img else []
            parities = {sum(n for j, n in w if target.variables[j].parity == ODD) % 2
                        for _, w in terms}
            if parities - {v.parity}:
                raise ChartError(f"image of {v.name!r} has the wrong parity")
            images[idx] = terms
    out = {}
    for (evens, odds), coeff in p.terms.items():
        words = [(coeff, ())]
        for idx, k in list(evens) + [(idx, 1) for idx in odds]:
            image = images[idx]
            if len(image) == 1 and len(image[0][1]) <= 1:
                c, w = image[0]
                power = tuple((j, n * k) for j, n in w)
                words = [(a * _scalar_power(c, k), u + power) for a, u in words]
                continue
            for _ in range(k):
                words = [(a * c, u + w) for a, u in words for c, w in image]
        for a, word in words:
            normal = _normal_word(target, word)
            if normal is not None:
                sign, mono = normal
                out[mono] = out.get(mono, ZERO) + (a if sign > 0 else -a)
    return SuperPolynomial(target, {m: c for m, c in out.items() if c})


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


def section_from_components(structure, vector=None, covector=None) -> CourantSection:
    """X + xi from its components {a: X^a} and {a: xi_a}, embedded as
    sum X^a xis_a + sum xi_a xi^a.

    A component may be a number or a base function on any chart with the
    same variable names; anything else raises SpecError.
    """
    chart = structure.chart
    bundle = structure.bundle
    base_vars = set(bundle.base)
    terms = []
    for comps, symbols in ((vector, bundle.fiber_momenta), (covector, bundle.fiber)):
        for a, val in (comps or {}).items():
            if not isinstance(val, SuperPolynomial):
                val = SuperPolynomial.constant(chart, val)
            elif val.chart is not chart:
                val = val.substitute(chart, {})   # match by variable name
            if not val.uses_only(base_vars):
                raise SpecError("section components must be base functions")
            terms.append(val * SuperPolynomial.variable(chart, symbols[a - 1].name))
    return CourantSection(structure, poly_sum(chart, terms))


def slow_components(structure, poly: SuperPolynomial):
    """(vector, covector) of the section embedding as `poly`, decomposed afresh
    by partials and checked by rebuilding it; SpecError if it is no section."""
    bundle = structure.bundle
    vec, cov = {}, {}
    for a, (xi, xis) in enumerate(zip(bundle.fiber, bundle.fiber_momenta)):
        vcomp, ccomp = poly.partial(xis), poly.partial(xi)
        if not vcomp.is_zero():
            vec[a + 1] = vcomp
        if not ccomp.is_zero():
            cov[a + 1] = ccomp
    if section_from_components(structure, vec, cov).embedded != poly:
        raise SpecError("not the embedding of a section")
    return vec, cov


def slow_section(structure, poly: SuperPolynomial) -> CourantSection:
    """The section embedding as `poly`, decomposed afresh by partials."""
    return section_from_components(structure, *slow_components(structure, poly))


def slow_circ(e1: CourantSection, e2: CourantSection) -> CourantSection:
    s = e1.structure
    return slow_section(s, derived_bracket(s.theta.total, e1.embedded, e2.embedded))


def slow_skew(e1: CourantSection, e2: CourantSection) -> CourantSection:
    diff = slow_circ(e1, e2).embedded - slow_circ(e2, e1).embedded
    return slow_section(e1.structure, diff.scale(HALF))


def slow_t_tensor(e1, e2, e3) -> SuperPolynomial:
    total = (canonical_bracket(slow_skew(e1, e2).embedded, e3.embedded)
             + canonical_bracket(slow_skew(e2, e3).embedded, e1.embedded)
             + canonical_bracket(slow_skew(e3, e1).embedded, e2.embedded))
    return total.scale(GaussianRational(Fraction(1, 6)))


def collect_table(doc, name, chart, violations, label):
    """Parse and antisymmetrize a structure table from document entries.

    The loader's own routine before `algebroid.antisymmetrize` replaced it:
    diagonal entries stay out of the table, and each broken mirrored pair is
    appended to `violations` once from each side.
    """
    raw = {}
    for (tname, idx), text in doc.entries.items():
        if tname != name:
            continue
        raw[idx] = parse_poly(text, chart)
    completed = 0
    table = {}
    for (a, b, c), poly in raw.items():
        if a == b:
            if not poly.is_zero():
                violations.append((f"{label}-antisymmetry({a},{b},{c})", poly + poly))
            continue
        mirror = raw.get((b, a, c))
        if mirror is None:
            table[(a, b, c)] = poly
            table[(b, a, c)] = -poly
            completed += 1
        else:
            if not (poly + mirror).is_zero():
                violations.append((f"{label}-antisymmetry({a},{b},{c})", poly + mirror))
            table[(a, b, c)] = poly
            table[(b, a, c)] = mirror
    return table, completed


def perm_sign(perm) -> int:
    """Sign of a permutation from its cycle lengths."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def koszul_sign(perm, degrees) -> int:
    """Sign from moving graded symbols through each other, inversions only."""
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b] and degrees[perm[a]] % 2 and degrees[perm[b]] % 2:
                sign = -sign
    return sign


def generic_jacobiator(names, rank):
    """The Jacobiator of structure constants that are independent variables.

    `names` maps (a, b, c) with a < b to the variable standing for C^c_ab; the
    other constants follow from C^c_ba = -C^c_ab.  Returns J^d_abc =
    sum_e (C^e_ab C^d_ec + C^e_bc C^d_ea + C^e_ca C^d_eb) for a < b < c as
    {(a, b, c, d): {sorted tuple of variable names: integer coefficient}},
    nonzero coefficients only.  Plain dict arithmetic, no engine polynomial.
    """
    def const(a, b, c):
        if a == b:
            return {}
        return {(names[(a, b, c)],): 1} if a < b else {(names[(b, a, c)],): -1}

    jacobiator = {}
    indices = range(1, rank + 1)
    for a, b, c in combinations(indices, 3):
        for d in indices:
            total = {}
            for e in indices:
                for (p, q, r) in ((a, b, c), (b, c, a), (c, a, b)):
                    for m1, x1 in const(p, q, e).items():
                        for m2, x2 in const(e, r, d).items():
                            mono = tuple(sorted(m1 + m2))
                            total[mono] = total.get(mono, 0) + x1 * x2
            total = {mono: x for mono, x in total.items() if x}
            if total:
                jacobiator[(a, b, c, d)] = total
    return jacobiator


# ---------------------------------------------------------------------------
# the Gaussian-rational scalar without its real-only fast paths
# ---------------------------------------------------------------------------


class SlowGaussianRational:
    """A number a + b*i with exact rational a, b and i^2 = -1."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def coerce(x) -> "SlowGaussianRational":
        if isinstance(x, SlowGaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return SlowGaussianRational(x)
        raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = SlowGaussianRational.coerce(other)
        return SlowGaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return SlowGaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = SlowGaussianRational.coerce(other)
        return SlowGaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = SlowGaussianRational.coerce(other)
        if not self.im and not other.im:
            return SlowGaussianRational(self.re * other.re)
        return SlowGaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = SlowGaussianRational.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero Gaussian rational")
        if not other.im:
            return SlowGaussianRational(self.re / other.re, self.im / other.re)
        n = other.re * other.re + other.im * other.im
        return SlowGaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return SlowGaussianRational.coerce(other) / self

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SlowGaussianRational(other)
        if not isinstance(other, SlowGaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"SlowGaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        if self.im in (1, -1):
            return f"({self.re}{sign}i)"
        return f"({self.re}{sign}{abs(self.im)}*i)"


# ---------------------------------------------------------------------------
# dense linear algebra, and conversion to and from the engine's sparse shapes
# ---------------------------------------------------------------------------


def sparse_vector(vec):
    """{index: entry} of the nonzero entries of a dense vector."""
    return {j: x for j, x in enumerate(vec) if x}


def dense_vector(vec, dim, zero=ZERO):
    """The dense list of length `dim` of a sparse vector."""
    return [vec.get(j, zero) for j in range(dim)]


def sparse_rows(matrix):
    """The engine's sparse rows of a dense matrix."""
    return [sparse_vector(row) for row in matrix]


def dense_rows(rows, ncols, zero=ZERO):
    """The dense matrix of sparse rows over `ncols` columns."""
    return [dense_vector(row, ncols, zero) for row in rows]


def column_rows(cols, nrows):
    """Sparse rows of the nrows x len(cols) matrix whose columns are the dense `cols`."""
    return [{j: col[r] for j, col in enumerate(cols) if col[r]} for r in range(nrows)]


def dense_rref(rows, ncols):
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


def dense_nullspace(matrix, ncols=None):
    """Basis of the right kernel by `dense_rref`; matrix given as list of rows."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    rows = [list(row) for row in matrix]
    pivots = dense_rref(rows, ncols)
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


def dense_in_span(vectors, target) -> bool:
    """Whether M x = target is consistent, M having the vectors as columns, by `dense_rref`."""
    if not vectors:
        return all(not x for x in target)
    n = len(vectors)
    rows = [list(row) + [b] for row, b in zip(zip(*vectors), target)]
    dense_rref(rows, n)
    return not any(row[n] and all(not x for x in row[:n]) for row in rows)


def slow_independent(vectors):
    """Indices of the vectors a greedy basis keeps, one span test per vector."""
    kept = []
    basis = []
    for j, v in enumerate(vectors):
        if not dense_in_span(basis, v):
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
        kern = dense_nullspace(sub, len(matrix_cols))
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
        if not dense_in_span(basis, v):
            basis.append(v)
    return basis


def slow_quotient_generators(cocycles, boundaries):
    """Cocycles outside the span of the boundaries and the cocycles kept so far."""
    reps = []
    span = [list(b) for b in boundaries]
    for z in cocycles:
        if not dense_in_span(span, z):
            reps.append(z)
            span.append(list(z))
    return reps


def slow_mode_cohomology(c, n, N):
    """(dims, generators) of a mode by dense kernels of d0 and d1 on the trusted
    degrees m <= N - 1, each image intersected with the trusted coordinates
    and pruned (`slow_intersect_with_coordinate_subspace`), then the greedy
    quotient of the cocycles by that intersection (`slow_quotient_generators`),
    where the engine quotients by the whole image."""
    comp = mode_matrices(c, n, N)
    size = N + 1
    trusted = list(range(N))
    matrices = (None, dense_rows(comp.d0, size), dense_rows(comp.d1, 2 * size), None)
    spaces = ((size, trusted), (2 * size, trusted + [size + m for m in trusted]),
              (size, trusted))
    gens = []
    for k, (dim, keep) in enumerate(spaces):
        if matrices[k + 1] is None:         # no d_2: every trusted two-field is a cocycle
            cocycles = [[ONE if j == m else ZERO for j in range(dim)] for m in keep]
        else:
            cocycles = []
            for v in dense_nullspace([[row[j] for j in keep] for row in matrices[k + 1]],
                                     len(keep)):
                z = [ZERO] * dim
                for j, x in zip(keep, v):
                    z[j] = x
                cocycles.append(z)
        boundaries = []
        if matrices[k] is not None:
            cols = [list(col) for col in zip(*matrices[k])]
            boundaries = slow_intersect_with_coordinate_subspace(cols, set(keep))
        reps = slow_quotient_generators(cocycles, boundaries)
        gens.append(tuple(_format_generator(sparse_vector(z), k, size) for z in reps))
    return tuple(map(len, gens)), tuple(gens)


# ---------------------------------------------------------------------------
# Vector fields as component maps, and the Cartan calculus on Pi TM
# ---------------------------------------------------------------------------


class VectorField:
    """Derivation X = sum c^A(x) d/dx^A with left coefficients."""

    __slots__ = ("chart", "components", "parity")

    def __init__(self, chart: Chart, components, parity=None):
        self.chart = chart
        comps = {}
        for key, poly in components.items():
            var = chart.var(key) if isinstance(key, str) else key
            if not isinstance(poly, SuperPolynomial):
                poly = SuperPolynomial.constant(chart, poly)
            if poly.chart is not chart:
                raise ChartError("component polynomial on a different chart")
            if not poly.is_zero():
                comps[var] = poly
        self.components = comps
        parities = set()
        for var, poly in comps.items():
            pp = poly.parity()
            if pp is None:
                raise ChartError(
                    f"component of d/d{var.name} is not parity-homogeneous")
            parities.add((pp + var.parity) % 2)
        if len(parities) > 1:
            raise ChartError("vector field mixes parities")
        if parity is None:
            parity = parities.pop() if parities else EVEN
        elif parities and parities != {parity}:
            raise ChartError("declared parity contradicts the components")
        self.parity = parity

    def is_zero(self) -> bool:
        return not self.components

    def component(self, var) -> SuperPolynomial:
        if isinstance(var, str):
            var = self.chart.var(var)
        return self.components.get(var, SuperPolynomial.zero(self.chart))

    def apply(self, p: SuperPolynomial) -> SuperPolynomial:
        if p.chart is not self.chart:
            raise ChartError("argument lives on a different chart")
        out = SuperPolynomial.zero(self.chart)
        for var, coeff in self.components.items():
            out = out + coeff * p.partial(var)
        return out

    def commutator(self, other: "VectorField") -> "VectorField":
        """[X, Y] = X Y - (-1)^{X~ Y~} Y X, computed on chart generators."""
        if self.chart is not other.chart:
            raise ChartError("vector fields on different charts")
        sign = -1 if (self.parity * other.parity) % 2 else 1
        comps = {}
        for var in set(self.components) | set(other.components):
            lead = self.apply(other.component(var))
            trail = other.apply(self.component(var))
            comps[var] = lead - trail if sign > 0 else lead + trail
        return VectorField(self.chart, comps, (self.parity + other.parity) % 2)

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        if self.chart is not other.chart:
            raise ChartError("vector fields on different charts")
        keys = set(self.components) | set(other.components)
        return all(self.component(v) == other.component(v) for v in keys)

    def __repr__(self):
        body = " + ".join(f"({p})*d/d{v.name}" for v, p in sorted(
            self.components.items(), key=lambda kv: kv[0].index))
        return f"<field {body or '0'}>"


def bracket_fields(h: SuperPolynomial):
    """{h, .} as component maps, one per parity component of h.

    Each field stores the coefficients {h_p, x^A} of the coordinate
    derivations; applying the list and summing is {h, .} on any function.
    """
    chart = h.chart
    return [VectorField(chart, {v: canonical_bracket(part, SuperPolynomial.variable(chart, v.name))
                                for v in chart.variables})
            for part in h.parity_components() if not part.is_zero()]


def commutator_homomorphism_residuals(spec):
    """rho([e_a, e_b]) - [rho e_a, rho e_b] as commutators of component maps.

    Each residual component is multiplied by its coordinate as a marker, so
    the result is one polynomial per generator pair (a, b), 1-based.
    """
    chart = spec.chart
    base = spec.base_names
    rho = [VectorField(chart, {base[i]: spec.anchor[a][i] for i in range(len(base))})
           for a in range(spec.rank)]
    out = []
    for a in range(spec.rank):
        for b in range(spec.rank):
            comm = rho[a].commutator(rho[b])
            expect = {}
            for i, x in enumerate(base):
                acc = SuperPolynomial.zero(chart)
                for c in range(spec.rank):
                    entry = spec.structure[a][b][c]
                    if not entry.is_zero():
                        acc = acc + entry * spec.anchor[c][i]
                expect[x] = acc
            residual = poly_sum(chart, [
                (expect[x] - comm.component(x)) * SuperPolynomial.variable(chart, x)
                for x in base
            ])
            out.append(((a + 1, b + 1), residual))
    return out


def plain_chart(specs) -> Chart:
    """Chart from (name, parity, eps, delta) tuples."""
    return Chart([GradedVariable(n, p, e, d, i) for i, (n, p, e, d) in enumerate(specs)])


class TangentPiChart(Chart):
    """Chart of Pi TM: base coordinates paired with odd velocities dx^A.

    Not symplectic; the pairing table is what the Cartan operators use.
    Velocities are identified by the declared table, never by name munging.
    """

    def __init__(self, base_specs, velocity_names):
        specs = []
        for (name, parity), vel in zip(base_specs, velocity_names):
            specs.append((name, parity, 0, 0))
            specs.append((vel, 1 - parity, 0, 1))
        super().__init__(plain_chart(specs).variables)
        self.pairing = tuple(
            (self.variables[2 * k], self.variables[2 * k + 1])
            for k in range(len(base_specs))
        )

    @property
    def base(self):
        return [b for b, _ in self.pairing]


def pi_tangent_chart(base_names, velocity_names=None) -> TangentPiChart:
    base_names = list(base_names)
    if velocity_names is None:
        velocity_names = ["d" + x for x in base_names]
    return TangentPiChart([(x, EVEN) for x in base_names], velocity_names)


def _require_pit(chart) -> TangentPiChart:
    if not isinstance(chart, TangentPiChart):
        raise ChartError("Cartan operators need a Pi T chart with a pairing table")
    return chart


def de_rham(chart: TangentPiChart) -> VectorField:
    """d = xi^A d/dx^A; homological of degree 1."""
    _require_pit(chart)
    comps = {x: SuperPolynomial.variable(chart, v.name) for x, v in chart.pairing}
    return VectorField(chart, comps, ODD)


def fiber_de_rham(bundle, form: SuperPolynomial) -> SuperPolynomial:
    """d(form) for a form on the big chart of `bundle` written in base
    coordinates and fiber symbols, each fiber symbol xi_k read as dx_k: the
    Cartan `de_rham` on the Pi T chart whose velocities carry the fiber
    names, and back."""
    pit = pi_tangent_chart(bundle.base_names, bundle.fiber_names)
    return de_rham(pit).apply(form.substitute(pit, {})).substitute(bundle.chart, {})


def interior(components, chart: TangentPiChart) -> VectorField:
    """i_X = (-1)^{X~} X^A d/dxi^A for X given by base components."""
    _require_pit(chart)
    base_vars = set(chart.base)
    vel_of = {x: v for x, v in chart.pairing}
    comps = {}
    parities = set()
    for key, poly in components.items():
        var = chart.var(key) if isinstance(key, str) else key
        if var not in base_vars:
            raise ChartError(f"{var.name!r} is not a base coordinate")
        if not isinstance(poly, SuperPolynomial):
            poly = SuperPolynomial.constant(chart, poly)
        if not poly.uses_only(base_vars):
            raise ChartError("interior derivative needs base-only components")
        if not poly.is_zero():
            pp = poly.parity()
            if pp is None:
                raise ChartError("components must be parity-homogeneous")
            parities.add((pp + var.parity) % 2)
            comps[vel_of[var]] = poly
    if len(parities) > 1:
        raise ChartError("vector field mixes parities")
    xpar = parities.pop() if parities else EVEN
    if xpar == ODD:
        comps = {v: -p for v, p in comps.items()}
    return VectorField(chart, comps, (xpar + 1) % 2)


def lie_derivative(components, chart: TangentPiChart) -> VectorField:
    """L_X = [d, i_X]."""
    return de_rham(chart).commutator(interior(components, chart))


def base_field(components, chart: TangentPiChart) -> VectorField:
    """The field X^A d/dx^A itself, acting on functions of the base."""
    _require_pit(chart)
    comps = {}
    for key, poly in components.items():
        var = chart.var(key) if isinstance(key, str) else key
        comps[var] = poly
    return VectorField(chart, comps)


def cartan_differential(spec) -> VectorField:
    """The degree-1 vector field on Pi A determined by an AlgebroidSpec.

    d = xi^a A^i_a d/dx^i - 1/2 C^c_ab xi^a xi^b d/dxi^c.  Squaring it is an
    independent route to the structure equations.
    """
    names = []
    for x in spec.base_names:
        names.append((x, EVEN, 0, 0))
    for f in spec.fiber_names:
        names.append((f, ODD, 0, 1))
    chart = plain_chart(names)
    xi = [SuperPolynomial.variable(chart, f) for f in spec.fiber_names]
    base_map = {name: SuperPolynomial.variable(chart, name) for name in spec.base_names}
    comps = {}
    for i, x in enumerate(spec.base_names):
        acc = SuperPolynomial.zero(chart)
        for a in range(spec.rank):
            entry = spec.anchor[a][i]
            if not entry.is_zero():
                acc = acc + xi[a] * entry.substitute(chart, base_map)
        comps[x] = acc
    for c, f in enumerate(spec.fiber_names):
        acc = SuperPolynomial.zero(chart)
        for a in range(spec.rank):
            for b in range(spec.rank):
                entry = spec.structure[a][b][c]
                if not entry.is_zero():
                    acc = acc - (entry.substitute(chart, base_map) * xi[a] * xi[b]).scale(HALF)
        comps[f] = acc
    return VectorField(chart, comps, ODD)


# ---------------------------------------------------------------------------
# derived brackets of other hamiltonians
# ---------------------------------------------------------------------------


def schouten_bracket(xi: SuperPolynomial, eta: SuperPolynomial,
                     gamma_star: SuperPolynomial) -> SuperPolynomial:
    """Generalized Schouten bracket on fiberwise polynomials of Pi A.

    [xi, eta] = (-1)^{xi~+1} {{gamma*, xi}, eta}, restricted to arguments in
    the coordinate subalgebra (no momenta).
    """
    chart = gamma_star.chart
    positions = {pos for pos, _ in chart.pairs}
    for arg in (xi, eta):
        if not arg.uses_only(positions):
            raise ChartError("Schouten bracket arguments may not involve momenta")
    return derived_bracket(gamma_star, xi, eta, chart)


def hamiltonian_lift(components, chart: DarbouxChart) -> SuperPolynomial:
    """Fibrewise-linear hamiltonian h_v = v^a(x) x*_a of a vector field on the base.

    `components` maps position variables (or names) to coefficient
    polynomials in the positions only.  Only even charts admit the lift.
    """
    if chart.bracket_parity != EVEN:
        raise ChartError("hamiltonian lift requires an even chart")
    mom_of = dict(chart.pairs)
    positions = mom_of.keys()
    h = SuperPolynomial.zero(chart)
    for key, comp in components.items():
        pos = chart.var(key) if isinstance(key, str) else key
        if pos not in positions:
            raise ChartError(f"{pos.name!r} is not a position variable")
        if not isinstance(comp, SuperPolynomial):
            comp = SuperPolynomial.constant(chart, comp)
        if not comp.uses_only(positions):
            raise ChartError("vector field components must depend on positions only")
        h = h + comp * SuperPolynomial.variable(chart, mom_of[pos].name)
    return h


def poisson_bracket_of(pi: SuperPolynomial, f: SuperPolynomial, g: SuperPolynomial):
    """{f, g} generated by a bivector via the derived product on functions."""
    return derived_bracket(pi, f, g, pi.chart)


# ---------------------------------------------------------------------------
# section algebra
# ---------------------------------------------------------------------------


def anchor_apply(e: CourantSection, f: SuperPolynomial) -> SuperPolynomial:
    """rho(e) f = <e, D f>, with D f = {theta, f} computed afresh."""
    return canonical_bracket(e.embedded, canonical_bracket(e.structure.theta.total, f))


def k_expression(e1, e2, e3) -> CourantSection:
    """K = (e1 o e2) o e3 + e2 o (e1 o e3) - e1 o (e2 o e3)."""
    k = (circ(circ(e1, e2), e3).embedded
         + circ(e2, circ(e1, e3)).embedded
         - circ(e1, circ(e2, e3)).embedded)
    return CourantSection.from_embedded(e1.structure, k)


def sweep_axioms_1_2(structure) -> dict:
    """The first nonzero residual of axioms 1 and 2, each by its triple sweep.

    Every tuple evaluates the Leibniz-Jacobi or anchor identity term by term,
    over the gate's generator family in the gate's order; the gate reads both
    axioms off 1/2{theta, theta} when theta has total degree 3.
    """
    sections = generator_family(structure)
    functions = coordinate_functions(structure)
    theta_bracket = structure.theta_bracket
    emb = [s.embedded for s in sections]
    d_of = [theta_bracket(e) for e in emb]
    prod = [[structure.product(a, b) for b in emb] for a in emb]
    zero = SuperPolynomial.zero(structure.chart)
    indices = range(len(sections))
    rho_of = {}

    def rho(i, f):
        """rho(e_i) f, once per generator and distinct function."""
        out = rho_of.get((i, f))
        if out is None:
            out = rho_of[(i, f)] = canonical_bracket(emb[i], theta_bracket(f))
        return out

    def leibniz_jacobi():
        for i in indices:
            for j in indices:
                d_ij = theta_bracket(prod[i][j])
                for k in indices:
                    yield (canonical_bracket(d_of[i], prod[j][k])
                           - canonical_bracket(d_ij, emb[k])
                           - canonical_bracket(d_of[j], prod[i][k]))

    def anchor_homomorphism():
        for i in indices:
            for j in indices:
                for f in functions:
                    lhs = canonical_bracket(prod[i][j], theta_bracket(f))
                    yield lhs - (rho(i, rho(j, f)) - rho(j, rho(i, f)))

    return {name: next((r for r in sweep() if not r.is_zero()), zero)
            for name, sweep in (("axiom1-leibniz-jacobi", leibniz_jacobi),
                                ("axiom2-anchor-homomorphism", anchor_homomorphism))}


def sweep_axioms_3_5(structure) -> dict:
    """The first nonzero residual of axioms 3-5, subtracting on every tuple.

    The gate's sweeps before they compared the two sides of each identity:
    every tuple builds its residual polynomial, over the whole generator
    family in the gate's order, axiom 5 included (the gate sweeps axiom 5 on
    the basis sections once axioms 3 and 4 pass on a theta of degree 3).
    """
    sections = generator_family(structure)
    functions = coordinate_functions(structure)
    theta_bracket = structure.theta_bracket
    emb = [s.embedded for s in sections]
    d_of = [theta_bracket(e) for e in emb]
    prod = [[structure.product(a, b) for b in emb] for a in emb]
    pair = [[canonical_bracket(a, b) for b in emb] for a in emb]
    zero = SuperPolynomial.zero(structure.chart)
    indices = range(len(sections))
    rho_of = {}

    def rho(i, f):
        """rho(e_i) f, once per generator and distinct function."""
        out = rho_of.get((i, f))
        if out is None:
            out = rho_of[(i, f)] = canonical_bracket(emb[i], theta_bracket(f))
        return out

    def module_leibniz():
        for i in indices:
            for j in indices:
                for f in functions:
                    lhs = canonical_bracket(d_of[i], f * emb[j])
                    yield lhs - (f * prod[i][j] + rho(i, f) * emb[j])

    def symmetric_part():
        for i in indices:
            for j in indices:
                yield prod[i][j] + prod[j][i] - theta_bracket(pair[i][j])

    def pairing_invariance():
        for i in indices:
            table = [[canonical_bracket(p, e) for e in emb] for p in prod[i]]
            for j in indices:
                for k in indices:
                    yield rho(i, pair[j][k]) - (table[j][k] + table[k][j])

    return {name: next((r for r in sweep() if not r.is_zero()), zero)
            for name, sweep in (("axiom3-module-leibniz", module_leibniz),
                                ("axiom4-symmetric-part", symmetric_part),
                                ("axiom5-pairing-invariance", pairing_invariance))}


# -- the SH-Lie maps on graded elements, each value made afresh ----------------


@dataclass
class GradedElement:
    degree: int
    value: object        # CourantSection in degree SECTION, else SuperPolynomial


def graded_section(e: CourantSection) -> GradedElement:
    return GradedElement(SECTION, e)


def graded_function(f: SuperPolynomial) -> GradedElement:
    return GradedElement(FUNCTION, f)


def graded_constant(structure: CourantStructure, c) -> GradedElement:
    return GradedElement(CONSTANT, SuperPolynomial.constant(structure.chart,
                                                            GaussianRational.coerce(c)))


class ShlaMaps:
    """l1, l2, l3 of the resolution (constants -> functions -> sections); the
    skew bracket of each pair of sections is kept by their embeddings."""

    def __init__(self, structure: CourantStructure):
        self.structure = structure
        self.skews = {}

    def skew(self, e1, e2) -> CourantSection:
        key = (e1.embedded, e2.embedded)
        out = self.skews.get(key)
        if out is None:
            out = self.skews[key] = skew_bracket(e1, e2)
        return out

    def l1(self, x: GradedElement) -> GradedElement | None:
        if x.degree == SECTION:
            return None
        if x.degree == FUNCTION:
            return graded_section(d_operator(self.structure, x.value))
        return graded_function(x.value)    # inclusion of constants

    def l2(self, x: GradedElement, y: GradedElement) -> GradedElement | None:
        dx, dy = x.degree, y.degree
        if dx == SECTION and dy == SECTION:
            return graded_section(self.skew(x.value, y.value))
        if dx == SECTION and dy == FUNCTION:
            return graded_function(pairing(x.value, d_operator(self.structure, y.value)).scale(HALF))
        if dx == FUNCTION and dy == SECTION:
            # x ^ y = -(-1)^{1*0} y ^ x in the graded exterior algebra
            out = self.l2(y, x)
            return graded_function(-out.value)
        return None    # degree above one

    def l3(self, x, y, z) -> GradedElement | None:
        """-T, with T(e1, e2, e3) = 1/6 (<[e1, e2], e3> + cyclic) on the kept skew brackets."""
        if x.degree == y.degree == z.degree == SECTION:
            e1, e2, e3 = x.value, y.value, z.value
            t = (pairing(self.skew(e1, e2), e3) + pairing(self.skew(e2, e3), e1)
                 + pairing(self.skew(e3, e1), e2))
            return graded_function(-t.scale(SIXTH))
        return None

    def apply(self, i, args):
        """l_i on a list of i elements, for i in 1, 2, 3."""
        return (self.l1, self.l2, self.l3)[i - 1](*args)


def shla_identity(maps: ShlaMaps, n: int, args) -> SuperPolynomial:
    """Value of the n-th generalized Jacobi identity on the given elements.

    sum over i + j = n + 1 of (-1)^{i(j-1)} sum over (i, n-i)-unshuffles of
    sgn * koszul * l_j(l_i(front), back); zero in every degree when the maps
    form a homotopy Lie algebra.  The outputs are sections (by their
    embeddings, of total degree 1) and base functions (of total degree 0), so
    their one sum is zero exactly when every degree is.
    """
    terms = []
    for i, j, perm, sign in _signed_unshuffles(n, tuple(a.degree for a in args)):
        inner = maps.apply(i, [args[k] for k in perm[:i]])
        if inner is None:
            continue
        # the inner element lands in the first slot of l_j, already leftmost
        outer = maps.apply(j, [inner] + [args[k] for k in perm[i:]])
        if outer is None:
            continue
        value = outer.value.embedded if outer.degree == SECTION else outer.value
        terms.append(value if sign > 0 else -value)
    return poly_sum(maps.structure.chart, terms)


def jacobiator(e1, e2, e3, skew=skew_bracket) -> CourantSection:
    j = (skew(skew(e1, e2), e3).embedded
         + skew(skew(e2, e3), e1).embedded
         + skew(skew(e3, e1), e2).embedded)
    return CourantSection.from_embedded(e1.structure, j)


def sweep_shla(structure, n) -> dict:
    """The arity-n lines of `shla_check`, {name: first nonzero residual}.

    Every tuple of the gate's generators, in the gate's order, has its
    identity evaluated by `shla_identity`, and nothing is skipped:
    identity-n{n} keeps the first nonzero value of all, the lemma of arity 3
    or 4 the first among tuples of its shape.  For n = 4 the quadrilinear
    pairing identity K + 2J is evaluated on every 4-tuple of sections.
    """
    basis = basis_sections(structure)
    coords = coordinate_functions(structure)
    generators = [graded_section(e) for e in basis]
    if coords and basis:
        generators += [graded_section(CourantSection.from_embedded(structure, f * e.embedded))
                       for e, f in ((basis[-1], coords[0]), (basis[0], coords[-1]))]
    generators += [graded_function(f) for f in coords]
    generators.append(graded_constant(structure, 1))
    shapes = {f"identity-n{n}": None}
    if n == 3:
        shapes["chainmap-on-two-sections-and-function"] = (SECTION, SECTION, FUNCTION)
    if n == 4:
        shapes["l3l2-equals-l2l3-on-sections"] = (SECTION,) * 4
    zero = SuperPolynomial.zero(structure.chart)
    first = dict.fromkeys(shapes, zero)
    maps = ShlaMaps(structure)
    for args in combinations_with_replacement(generators, n):
        residual = shla_identity(maps, n, list(args))
        shape = tuple(a.degree for a in args)
        for name, want in shapes.items():
            if first[name].is_zero() and want in (None, shape):
                first[name] = residual
    if n != 4:
        return first
    quadrilinear = zero
    sections = [g.value for g in generators if g.degree == SECTION]
    skew = maps.skew
    for e1, e2, e3, e4 in combinations_with_replacement(sections, 4):
        j = (pairing(jacobiator(e1, e2, e3, skew), e4) - pairing(jacobiator(e1, e2, e4, skew), e3)
             + pairing(jacobiator(e1, e3, e4, skew), e2)
             - pairing(jacobiator(e2, e3, e4, skew), e1))
        k = (pairing(skew(e1, e2), skew(e3, e4)) - pairing(skew(e1, e3), skew(e2, e4))
             + pairing(skew(e1, e4), skew(e2, e3)))
        if quadrilinear.is_zero():
            quadrilinear = k + j + j
    identity, lemma = first.items()
    return dict([identity, ("quadrilinear-pairing-identity", quadrilinear), lemma])


def swap_proto(proto: ProtoBialgebroidSpec) -> ProtoBialgebroidSpec:
    """Exchange the two sides (A*, A); fibers are renamed to the fixed decorations."""
    a, astar = proto.a_side, proto.astar_side
    n = len(a.base_names)

    def entries_from(spec, new_chart):
        base_map = {x: SuperPolynomial.variable(new_chart, x) for x in spec.base_names}
        anchor = {}
        for ai in range(spec.rank):
            for i in range(n):
                if not spec.anchor[ai][i].is_zero():
                    anchor[(ai + 1, i + 1)] = spec.anchor[ai][i].substitute(new_chart, base_map)
        structure = {}
        for x in range(spec.rank):
            for y in range(spec.rank):
                for z in range(spec.rank):
                    entry = spec.structure[x][y][z]
                    if x < y and not entry.is_zero():
                        structure[(x + 1, y + 1, z + 1)] = entry.substitute(new_chart, base_map)
        return anchor, structure

    primal_fibers = tuple(f"xi{k+1}" for k in range(astar.rank))
    primal_bundle = cotangent_chart(a.base_names, primal_fibers)
    anchor_p, structure_p = entries_from(astar, primal_bundle.chart)
    new_primal = AlgebroidSpec.build(a.base_names, primal_fibers, anchor_p, structure_p,
                                     bundle=primal_bundle)
    dual_bundle = dual_chart_for(new_primal)
    anchor_d, structure_d = entries_from(a, dual_bundle.chart)
    new_dual = AlgebroidSpec.build(a.base_names, tuple(f.name for f in dual_bundle.fiber),
                                   anchor_d, structure_d, bundle=dual_bundle)
    # cubic terms swap roles: the old psi becomes the new phi and vice versa
    new_phi = None
    if proto.psi is not None and not proto.psi.is_zero():
        ren = {f"th{k+1}": SuperPolynomial.variable(primal_bundle.chart, f"xi{k+1}")
               for k in range(astar.rank)}
        new_phi = proto.psi.substitute(primal_bundle.chart, ren)
    new_psi = None
    if proto.phi is not None and not proto.phi.is_zero():
        ren = {f"xi{k+1}": SuperPolynomial.variable(dual_bundle.chart, f"th{k+1}")
               for k in range(a.rank)}
        new_psi = proto.phi.substitute(dual_bundle.chart, ren)
    return ProtoBialgebroidSpec(new_primal, new_dual, new_phi, new_psi)


def splitting_shift(omega, e: CourantSection) -> CourantSection:
    """Section map of a twist's splitting change by the gauge two-form `omega`
    (None for none): X + xi -> X + xi - i_X omega."""
    if omega is None:
        return e
    structure = e.structure
    chart = structure.chart
    omega = omega.substitute(chart, {}) if omega.chart is not chart else omega
    # i_X omega = X^b d(omega)/dxi^b; its xi_a coefficients shift the covector
    ix = SuperPolynomial.zero(chart)
    for b, bname in enumerate(structure.bundle.fiber_names):
        xcomp = e.vector.get(b + 1)
        if xcomp is not None:
            ix = ix + xcomp * omega.partial(bname)
    cov = dict(e.covector)
    for a, name in enumerate(structure.bundle.fiber_names):
        comp = ix.partial(name)
        if not comp.is_zero():
            cov[a + 1] = cov.get(a + 1, SuperPolynomial.zero(chart)) - comp
    return section_from_components(structure, e.vector, cov)


# ---------------------------------------------------------------------------
# the su(2) origin of the sphere family
# ---------------------------------------------------------------------------


def su2_bivector():
    """The multiplicative structure on the complex two-space chart.

    Conjugate coordinates are independent even symbols; the bracket table
    {u,ub} = -i v vb, {u,v} = i/2 uv, {u,vb} = i/2 u vb, {v,vb} = 0 is packed
    into a bivector on the odd cotangent chart.
    """
    chart = darboux_chart(
        [("u", 0, "tu"), ("ub", 0, "tub"), ("v", 0, "tv"), ("vb", 0, "tvb")], ODD)
    u, ub, v, vb = (SuperPolynomial.variable(chart, n) for n in ("u", "ub", "v", "vb"))
    tu, tub, tv, tvb = (SuperPolynomial.variable(chart, n) for n in ("tu", "tub", "tv", "tvb"))
    i = GaussianRational(0, 1)
    half_i = GaussianRational(0, Fraction(1, 2))
    table = [
        ((v * vb).scale(-i), tu, tub),          # {u, ub}
        ((u * v).scale(half_i), tu, tv),        # {u, v}
        ((u * vb).scale(half_i), tu, tvb),      # {u, vb}
        ((ub * vb).scale(-half_i), tub, tvb),   # {ub, vb} = conj of {u, v}
        ((ub * v).scale(-half_i), tub, tv),     # {ub, v}  = conj of {u, vb}
    ]
    pi = poly_sum(chart, [coeff * a * b for coeff, a, b in table])
    return chart, pi


def bruhat_w_chart():
    """The quotient structure in the inhomogeneous coordinate w (W its conjugate)."""
    chart = darboux_chart([("w", 0, "tw"), ("W", 0, "tW")], ODD)
    w, W = SuperPolynomial.variable(chart, "w"), SuperPolynomial.variable(chart, "W")
    tw, tW = SuperPolynomial.variable(chart, "tw"), SuperPolynomial.variable(chart, "tW")
    one = SuperPolynomial.constant(chart, 1)
    i = GaussianRational(0, 1)
    pi1 = (w * W * (one + w * W)).scale(-i) * tw * tW
    return chart, pi1


def rescaled_pi_c(c, alpha):
    """pi_c after s -> alpha s, t -> alpha t, expressed in the new unit chart.

    The image is the family member whose circle radius is scaled by 1/alpha;
    used to confirm that all degenerate members are locally isomorphic.
    """
    c = Fraction(c)
    alpha = Fraction(alpha)
    structure = build_structures(c)
    chart = structure.chart
    s = SuperPolynomial.variable(chart, "s")
    t = SuperPolynomial.variable(chart, "t")
    sig = SuperPolynomial.variable(chart, "sigma")
    tau = SuperPolynomial.variable(chart, "tau")
    a = GaussianRational(alpha)
    inv = GaussianRational(Fraction(1, 1) / alpha)
    mapping = {"s": s.scale(a), "t": t.scale(a),
               "sigma": sig.scale(inv), "tau": tau.scale(inv)}
    image = structure.pi_c.substitute(chart, mapping)
    c_new = 1 - (1 - c) / alpha ** 2
    return image, Fraction(c_new)
