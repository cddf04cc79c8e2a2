"""Sections of A + A* as degree-1 hamiltonians, the circle operation via
derived brackets, both axiom systems, homotopy structure maps, subbundle
checks and twisted exact structures.

Everything is computed upstairs on the big chart: a section X + xi embeds as
sum X^a(x) xis_a + sum xi_a(x) xi^a, the pairing is the canonical bracket of
embeddings, and e1 o e2 = {{theta, e1}, e2}.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, combinations_with_replacement, product

from .algebroid import (AlgebroidSpec, ProtoBialgebroidSpec, SpecError, ThetaHamiltonian,
                        build_mu)
from .brackets import canonical_bracket, derived_bracket
from .chart import ChartError, CotangentOfParityReversed
from .linalg import PolyFrac, rank, solve_over_fractions
from .poly import SuperPolynomial
from .rationals import GaussianRational
from .report import Check, Report, first_failure

HALF = GaussianRational(Fraction(1, 2))
SIXTH = GaussianRational(Fraction(1, 6))


class CourantStructure:
    """A Courant structure: its hamiltonian theta and the products of its
    sections, each computed once and kept as long as the structure lives.

    `total` is theta summed once.  `brackets`, `products` and `sections` are
    keyed by embedded polynomials: `brackets` maps p to {theta, p},
    `products` a pair (a, b) to {{theta, a}, b}, and `sections` an embedding
    to its validated section.
    """

    __slots__ = ("theta", "total", "brackets", "products", "sections")

    def __init__(self, theta: ThetaHamiltonian):
        self.theta = theta
        self.total = theta.total
        self.brackets = {}
        self.products = {}
        self.sections = {}

    @property
    def chart(self):
        return self.theta.chart

    @property
    def bundle(self) -> CotangentOfParityReversed:
        return self.theta.bundle

    @property
    def rank(self):
        return len(self.bundle.fiber_names)

    def theta_bracket(self, p: SuperPolynomial) -> SuperPolynomial:
        out = self.brackets.get(p)
        if out is None:
            out = self.brackets[p] = canonical_bracket(self.total, p)
        return out

    def product(self, a: SuperPolynomial, b: SuperPolynomial) -> SuperPolynomial:
        key = (a, b)
        out = self.products.get(key)
        if out is None:
            out = self.products[key] = derived_bracket(self.total, a, b, self.chart,
                                                       self.theta_bracket)
        return out


def structure_from_proto(proto: ProtoBialgebroidSpec) -> CourantStructure:
    return CourantStructure(proto.theta())


def standard_proto(n: int) -> ProtoBialgebroidSpec:
    """Tangent bundle of R^n (identity anchor) against the zero dual structure."""
    base = tuple(f"x{k+1}" for k in range(n))
    fibers = tuple(f"xi{k+1}" for k in range(n))
    a = AlgebroidSpec.build(base, fibers, {(k + 1, k + 1): 1 for k in range(n)}, {})
    return ProtoBialgebroidSpec.build(a)


class CourantSection:
    """An element X + xi of the doubled bundle, kept as its embedding
    sum X^a(x) xis_a + sum xi_a(x) xi^a on the structure's chart.

    A polynomial is such an embedding exactly when every monomial has total
    degree 1 (weights: x 0, xi 1, xis 1, xs 2), that is one fiber symbol or
    fiber momentum times a base function.
    """

    __slots__ = ("structure", "embedded")

    def __init__(self, structure: CourantStructure, embedded: SuperPolynomial):
        if embedded.chart is not structure.chart:
            raise ChartError("embedded polynomial on the wrong chart")
        if any(k != 1 for (_e, _d, k) in embedded.gradings()):
            raise SpecError("polynomial is not the embedding of a section")
        self.structure = structure
        self.embedded = embedded

    @staticmethod
    def from_embedded(structure: CourantStructure, poly: SuperPolynomial) -> "CourantSection":
        """The structure's section embedding as `poly`, validated once per distinct polynomial.

        A polynomial that fails is never kept, so it fails on every call.
        """
        section = structure.sections.get(poly)
        if section is None:
            section = structure.sections[poly] = CourantSection(structure, poly)
        return section

    @property
    def vector(self) -> dict:
        """{a: X^a} for the nonzero components, read off as d/dxis_a."""
        return _components(self.embedded, self.structure.bundle.fiber_momenta)

    @property
    def covector(self) -> dict:
        """{a: xi_a} for the nonzero components, read off as d/dxi^a."""
        return _components(self.embedded, self.structure.bundle.fiber)

    def scaled_by(self, f) -> "CourantSection":
        return CourantSection(self.structure, f * self.embedded)

    def __eq__(self, other):
        if not isinstance(other, CourantSection):
            return NotImplemented
        return self.embedded == other.embedded

    def is_zero(self):
        return self.embedded.is_zero()

    def __repr__(self):
        return f"<section {self.embedded}>"


def _components(poly: SuperPolynomial, symbols) -> dict:
    out = {}
    for a, v in enumerate(symbols):
        comp = poly.partial(v)
        if not comp.is_zero():
            out[a + 1] = comp
    return out


def basis_sections(structure: CourantStructure):
    """The fiber basis e_a (the xis_a) and the dual basis (the xi^a), as kept sections."""
    bundle = structure.bundle
    chart = structure.chart
    return [CourantSection.from_embedded(structure, SuperPolynomial.variable(chart, v.name))
            for v in bundle.fiber_momenta + bundle.fiber]


def generator_family(structure: CourantStructure):
    """Basis sections, then each of them scaled by every base coordinate.

    verify_axioms relies on this order: every basis section comes before its
    multiples.
    """
    basis = basis_sections(structure)
    family = list(basis)
    for f in coordinate_functions(structure):
        family.extend(s.scaled_by(f) for s in basis)
    return family


def coordinate_functions(structure: CourantStructure):
    chart = structure.chart
    return [SuperPolynomial.variable(chart, x) for x in structure.bundle.base_names]


def pairing(e1: CourantSection, e2: CourantSection) -> SuperPolynomial:
    """<e1, e2> = xi1(X2) + xi2(X1), realized as the bracket of embeddings."""
    return canonical_bracket(e1.embedded, e2.embedded)


def circ(e1: CourantSection, e2: CourantSection) -> CourantSection:
    """e1 o e2 through the derived bracket of the structure hamiltonian."""
    s = e1.structure
    return CourantSection.from_embedded(s, s.product(e1.embedded, e2.embedded))


def d_operator(structure: CourantStructure, f: SuperPolynomial) -> CourantSection:
    """D f as a section; the embedding is {theta, f}."""
    if not f.uses_only(structure.bundle.base):
        raise SpecError("D applies to base functions only")
    return CourantSection.from_embedded(structure, structure.theta_bracket(f))


def skew_bracket(e1, e2) -> CourantSection:
    diff = circ(e1, e2).embedded - circ(e2, e1).embedded
    return CourantSection.from_embedded(e1.structure, diff.scale(HALF))


def t_tensor(e1, e2, e3) -> SuperPolynomial:
    total = (pairing(skew_bracket(e1, e2), e3)
             + pairing(skew_bracket(e2, e3), e1)
             + pairing(skew_bracket(e3, e1), e2))
    return total.scale(SIXTH)


# ---------------------------------------------------------------------------
# the five structure axioms
# ---------------------------------------------------------------------------


_AXIOMS = ("axiom1-leibniz-jacobi", "axiom2-anchor-homomorphism", "axiom3-module-leibniz",
          "axiom4-symmetric-part", "axiom5-pairing-invariance")


def verify_axioms(structure: CourantStructure) -> Report:
    """Residual report for the five axioms over a finite generator family.

    The sections are the basis sections followed by each of them scaled by
    every base coordinate, and the functions the base coordinates.  Each
    axiom is one `first_failure` sweep over index tuples of the family, in
    loop order.  {theta, e_i}, the pair products e_i o e_j, the pairings
    <e_i, e_j> (symmetric on degree 1, so made at i <= j only), the scaled
    sections f_k e_j and the anchors rho(e_i) f are caches keyed by
    generator index (an anchor by index and function), each entry made when
    a sweep first reads it; the brackets and products themselves come from
    the structure's memo.
    A term-by-term evaluator returns the two sides of its identity, so only
    the first tuple where they differ subtracts.

    When every monomial of theta has total degree 3, axioms 1 and 2 are read
    off T2 = 1/2{theta, theta}: the Leibniz-Jacobi residual at (e_i, e_j, e_k)
    is -{{{T2, e_i}, e_j}, e_k} and the anchor residual at (e_i, e_j, f) is
    +{{{T2, e_i}, e_j}, f} (the Jacobiator of a derived bracket is the derived
    bracket of the square of its differential).  The two sweeps share one
    cache of {T2, e_i} and {{T2, e_i}, e_j}, and a zero {{T2, e_i}, e_j} is
    contracted with nothing.  Both sweeps keep their order, so the first
    failing tuple and its residual are those of the term-by-term identities;
    a zero T2 passes both without a tuple, and without base coordinates the
    anchor sweep has no tuple.

    Axioms 3-5 hold for every such theta: with e o e' = {{theta, e}, e'} and
    rho(e) f = {e, {theta, f}}, axiom 3 is the Leibniz rule of {., .} with
    {e, f} = 0 (it has degree -1), which by graded Jacobi makes
    {{theta, e}, f} = rho(e) f, and axioms 4 and 5 are the graded Jacobi
    identity with the pairing symmetric on degree 1.  So the tuples of the
    2 * rank basis sections, where they check the bracket, are the prefix of
    the axiom 3 and 4 sweeps: only a failure there sweeps the whole family,
    and axiom 5 then goes over the whole family too, so a bracket defect
    reports the full family's first failing tuple and residual.  Otherwise
    axiom 5 is swept on the basis sections alone, and axiom 5 failing alone
    is reported at its basis triple, the full family's first: where axioms 3
    and 4 hold its anomaly is C-infinity-linear, so at a scaled generator it
    is a coordinate times its value at the basis section, which comes
    earlier.  An off-degree theta (the (0,2) phi or (2,0) psi probe) is not
    odd, so neither T2 nor these identities decide it: all five axioms are
    swept over the whole family.
    """
    functions = coordinate_functions(structure)
    theta = structure.total
    theta_bracket = structure.theta_bracket
    emb = [s.embedded for s in generator_family(structure)]
    zero = SuperPolynomial.zero(structure.chart)
    family = range(len(emb))
    by_function = range(len(functions))
    d_of = cache(lambda i: theta_bracket(emb[i]))
    prod = cache(lambda i, j: structure.product(emb[i], emb[j]))
    pair = cache(lambda i, j: canonical_bracket(emb[i], emb[j]))
    f_emb = cache(lambda j, k: functions[k] * emb[j])
    rho = cache(lambda i, f: canonical_bracket(emb[i], theta_bracket(f)))   # rho(e_i) f
    d_prod = cache(lambda i, j: theta_bracket(prod(i, j)))

    def leibniz_jacobi(index):
        i, j, k = index
        return (canonical_bracket(d_of(i), prod(j, k)),
                canonical_bracket(d_prod(i, j), emb[k]) + canonical_bracket(d_of(j), prod(i, k)))

    def anchor_homomorphism(index):
        i, j, k = index
        f = functions[k]
        return (canonical_bracket(prod(i, j), theta_bracket(f)),
                rho(i, rho(j, f)) - rho(j, rho(i, f)))

    def module_leibniz(index):
        i, j, k = index
        f = functions[k]
        return canonical_bracket(d_of(i), f_emb(j, k)), f * prod(i, j) + rho(i, f) * emb[j]

    def symmetric_part(index):
        # both sides are symmetric in (i, j), so the first failing pair has i <= j
        i, j = index
        return prod(i, j) + prod(j, i), theta_bracket(pair(i, j))

    def pairing_invariance(swept):
        # the pairing is symmetric on degree 1 and kills degree 0, so
        # {e_j, e_i o e_k} is {e_i o e_k, e_j}: one bracket table per i; the
        # anchor term rho(e_i)<e_j, e_k> is {e_i, D<e_j, e_k>}, bracketed once
        # per unordered (j, k) and only where D<e_j, e_k> is nonzero
        d_pair = {(j, k): d for j, k in combinations_with_replacement(swept, 2)
                  if not (d := theta_bracket(pair(j, k))).is_zero()}

        @cache
        def row(i):
            table = [[canonical_bracket(prod(i, j), emb[k]) for k in swept] for j in swept]
            anchor = [[zero] * len(swept) for _ in swept]
            for (j, k), d in d_pair.items():
                anchor[j][k] = anchor[k][j] = canonical_bracket(emb[i], d)
            return table, anchor

        def evaluate(index):
            i, j, k = index
            table, anchor = row(i)
            return anchor[j][k], table[j][k] + table[k][j]
        return evaluate

    if all(k == 3 for (_e, _d, k) in theta.gradings()):
        basis = range(2 * structure.rank)
        t2 = canonical_bracket(theta, theta).scale(HALF)
        t2_of = cache(lambda i: canonical_bracket(t2, emb[i]))
        t2_pair = cache(lambda i, j: canonical_bracket(t2_of(i), emb[j]))

        def contraction(last):
            def evaluate(index):
                i, j, k = index
                t2_ij = t2_pair(i, j)
                return t2_ij if t2_ij.is_zero() else canonical_bracket(t2_ij, last[k])
            return evaluate

        # a zero T2 leaves both sweeps without a tuple
        family_t2 = () if t2.is_zero() else family
        axiom1 = -first_failure(product(family_t2, family, family), contraction(emb), zero)[1]
        axiom2 = first_failure(product(family_t2, family, by_function), contraction(functions),
                               zero)[1]
        prefix3 = product(basis, basis, by_function)
        prefix4 = combinations_with_replacement(basis, 2)
    else:
        basis = family
        axiom1 = first_failure(product(family, repeat=3), leibniz_jacobi, zero)[1]
        axiom2 = first_failure(product(family, family, by_function), anchor_homomorphism,
                               zero)[1]
        prefix3 = prefix4 = None
    axiom3 = first_failure(product(family, family, by_function), module_leibniz, zero,
                           prefix3)[1]
    axiom4 = first_failure(combinations_with_replacement(family, 2), symmetric_part, zero,
                           prefix4)[1]
    swept = basis if axiom3.is_zero() and axiom4.is_zero() else family
    axiom5 = first_failure(product(swept, repeat=3), pairing_invariance(swept), zero)[1]
    return Report([Check.from_residual(name, residual) for name, residual
                   in zip(_AXIOMS, (axiom1, axiom2, axiom3, axiom4, axiom5))])


# ---------------------------------------------------------------------------
# homotopy structure maps
# ---------------------------------------------------------------------------

SECTION, FUNCTION, CONSTANT = 0, 1, 2

# the output degree of l_k on each input degree pattern; on any other l_k is zero by degree
_OUTPUT_DEGREE = {(FUNCTION,): SECTION, (CONSTANT,): FUNCTION, (SECTION, SECTION): SECTION,
                  (SECTION, FUNCTION): FUNCTION, (FUNCTION, SECTION): FUNCTION,
                  (SECTION, SECTION, SECTION): FUNCTION}


class _OffDegree(Exception):
    """Its argument is an l2 output that is no section, which no map takes."""


class ShlaTables:
    """l1, l2, l3 of the resolution (constants -> functions -> sections) on
    numbered generators (degree, value): the basis sections, two scaled by a
    coordinate, the coordinates as functions and the constant 1.  `maps`
    keeps l_i(front) by the sorted index tuple `front`, `terms` the j = 2
    terms l2(l_i(front), c) by (front, (c,)), which a nested T and K + 2J
    read again, each made once; None is zero.  Any other (front, back) is
    read by the one tuple front + back.  `apply` makes exactly the patterns
    of `_OUTPUT_DEGREE`: a map is zero by degree on any other."""

    __slots__ = ("structure", "generators", "degrees", "maps", "terms")

    def __init__(self, structure: CourantStructure):
        basis = basis_sections(structure)
        coords = coordinate_functions(structure)
        generators = [(SECTION, e) for e in basis]
        if coords and basis:
            # a coordinate-scaled section keeps T and the anomalies nonzero
            generators += [(SECTION, CourantSection.from_embedded(structure, f * e.embedded))
                           for e, f in ((basis[-1], coords[0]), (basis[0], coords[-1]))]
        generators += [(FUNCTION, f) for f in coords]
        generators.append((CONSTANT, SuperPolynomial.constant(structure.chart, 1)))
        self.structure, self.generators, self.maps, self.terms = structure, generators, {}, {}
        self.degrees = tuple(degree for degree, _value in generators)

    def map(self, front):
        if front not in self.maps:
            self.maps[front] = self.apply(*[self.generators[k] for k in front])
        return self.maps[front]

    def term(self, front, back):
        """The polynomial of l_j(l_i(front), back), j = len(back); None is zero."""
        key = (front, back)
        if key in self.terms:
            return self.terms[key]
        inner = self.map(front)    # lands in the first slot of l_j
        outer = inner and (inner[0], *map(self.degrees.__getitem__, back))
        if outer == (SECTION,) * 3:
            # -T(x, c, d) = -1/6 (<[x, c], d> + <[c, d], x> - <[x, d], c>), off the tables
            c, d = (self.generators[k][1].embedded for k in back)
            pieces = ((self.term(front, back[:1]), d, 1), (self.term(front, back[1:]), c, -1),
                      (self.map(back)[1].embedded, inner[1].embedded, 1))
            poly = _signed_sum(self.structure.chart, [
                (p and canonical_bracket(p, q), sign) for p, q, sign in pieces]).scale(-SIXTH)
        elif outer in _OUTPUT_DEGREE:
            out = self.apply(inner, *[self.generators[k] for k in back])
            poly = out[1].embedded if out[0] == SECTION else out[1]
        else:
            return None
        poly = None if poly.is_zero() else poly
        if len(back) == 1:
            self.terms[key] = poly
        return poly

    def apply(self, *args):
        """l_k on k elements, k = 1, 2, 3, as (output degree, value); None on
        a pattern outside `_OUTPUT_DEGREE`."""
        degrees, v = zip(*args)
        out = _OUTPUT_DEGREE.get(degrees)
        if out is None:
            return None
        if degrees == (CONSTANT,):
            return out, v[0]    # inclusion of constants
        if degrees == (FUNCTION,):
            return out, d_operator(self.structure, v[0])
        if degrees == (SECTION, SECTION):
            try:
                return out, skew_bracket(*v)
            except SpecError:    # a product or the bracket itself is no section
                s, (a, b) = self.structure, (e.embedded for e in v)
                raise _OffDegree((s.product(a, b) - s.product(b, a)).scale(HALF)) from None
        if len(degrees) == 2:
            # f ^ e = -(-1)^{1*0} e ^ f in the graded exterior algebra
            (e, f), half = (v, HALF) if degrees[0] == SECTION else (v[::-1], -HALF)
            return out, pairing(e, d_operator(self.structure, f)).scale(half)
        # an identity reads l2 of a triple's pairs (its i = 2 terms) before T of it
        return out, -t_tensor(*v)


def _signed_sum(chart, pieces) -> SuperPolynomial:
    """The sum of sign * p over `pieces` (p, sign), in one coefficient dict; None is zero."""
    acc = {}
    for poly, sign in pieces:
        for mono, c in (poly.terms.items() if poly is not None else ()):
            c = c if sign > 0 else -c
            s = acc.get(mono)
            acc[mono] = c if s is None else s + c
    return SuperPolynomial(chart, acc)


def _shla_sign(perm, degrees) -> int:
    """The permutation sign times the Koszul sign of reordering graded symbols:
    -1 per inversion of two symbols that are not both odd."""
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b] and not (degrees[perm[a]] % 2 and degrees[perm[b]] % 2):
                sign = -sign
    return sign


@cache
def _signed_unshuffles(n, degrees):
    """(i, j, perm, sign) of every term of the n-th identity, in summation order,
    built once per degree pattern: i + j = n + 1 with i, j <= 3, perm an
    (i, n-i)-unshuffle and sign (-1)^{i(j-1)} times its SH-Lie sign."""
    out = []
    for i in range(max(1, n - 2), min(n, 3) + 1):
        j = n + 1 - i
        outer_sign = -1 if (i * (j - 1)) % 2 else 1
        for chosen in combinations(range(n), i):
            perm = chosen + tuple(k for k in range(n) if k not in chosen)
            out.append((i, j, perm, outer_sign * _shla_sign(perm, degrees)))
    return tuple(out)


@cache
def _live_terms(n, degrees):
    """(front positions, back positions, sign) of the terms of
    `_signed_unshuffles` whose l_i is not zero by degree, in order; sign 0
    marks a probe, whose l_j is."""
    out = []
    for i, _j, perm, sign in _signed_unshuffles(n, degrees):
        front, back = perm[:i], perm[i:]
        inner = _OUTPUT_DEGREE.get(tuple(degrees[k] for k in front))
        if inner is not None:
            outer = (inner, *(degrees[k] for k in back))
            out.append((front, back, sign if outer in _OUTPUT_DEGREE else 0))
    return tuple(out)


def shla_identity(tables: ShlaTables, n: int, combo) -> SuperPolynomial:
    """The n-th generalized Jacobi identity on the generators `combo` (sorted
    indices), or the first l2 output it needs that is no section.

    sum over i + j = n + 1 of (-1)^{i(j-1)} sum over (i, n-i)-unshuffles of
    sgn * koszul * l_j(l_i(front), back).  The outputs are sections (by their
    embeddings, of total degree 1) and base functions (of total degree 0), so
    their one sum is zero exactly when every degree is.

    Only `_live_terms` is summed.  A map is zero off `_OUTPUT_DEGREE`, which
    also gives the degree of l_i(front), so the degrees of `combo` decide
    which terms are zero by degree.  A term with such an l_i makes nothing.
    A probe, whose l_j is such a zero, makes only l_i(front), where the full
    sum made it, so an l2 output that is no section fails the same term.
    """
    at = combo.__getitem__
    pieces = []
    try:
        for front, back, sign in _live_terms(n, tuple(map(tables.degrees.__getitem__, combo))):
            front = tuple(map(at, front))
            if sign:
                pieces.append((tables.term(front, tuple(map(at, back))), sign))
            else:
                tables.map(front)    # a probe: l_i(front) may raise
    except _OffDegree as off:
        return off.args[0]
    return _signed_sum(tables.structure.chart, pieces)


# the lemma each arity also reads off its sweep, and the shape of its tuples
_LEMMAS = {3: {"chainmap-on-two-sections-and-function": (SECTION, SECTION, FUNCTION)},
           4: {"l3l2-equals-l2l3-on-sections": (SECTION,) * 4}}


def shla_check(structure: CourantStructure, n: int) -> Report:
    """Generalized Jacobi identities of arities 1..n over sorted tuples of generators.

    One `ShlaTables`, made for this call, serves the sweeps of every arity.
    For each arity k, identity-n{k} is the first failure over the sorted
    k-tuples in which no section and not the constant repeats, and for k = 3
    and 4 the lemma of _LEMMAS the first among those of its shape, one
    evaluation per tuple.  k = 4 also sweeps K + 2J over 4-sets of distinct
    sections, reported between identity-n4 and its lemma.

    The tuples left out have a zero identity, so each line keeps the first
    failing tuple and residual of the sweep over all sorted tuples.  Every
    map is graded-antisymmetric (`skew_bracket` antisymmetrizes, l2(f, e) is
    -l2(e, f), T is a cyclic sum of antisymmetric pieces, and a map is zero
    on two functions or on the constant and more), so each Jacobiator is too,
    and swapping two equal arguments of even degree negates it.  At a
    repeated section the terms of K + 2J cancel in pairs, since [e, e] = 0,
    the jacobiator is antisymmetric and the pairing is symmetric on degree 1.
    A line fails at the first tuple needing an l2 output that is no section
    (as an off-degree theta gives), with that output as residual.
    """
    tables = ShlaTables(structure)
    degrees = tables.degrees
    zero = SuperPolynomial.zero(structure.chart)
    identity = cache(lambda k, combo: shla_identity(tables, k, combo))
    checks = []
    for k in range(1, n + 1):
        # with E sections and constant and F functions, sum over m of
        # multichoose(F, m) * C(E, k - m) tuples: m functions, k - m distinct others
        tuples = [c for c in combinations_with_replacement(range(len(degrees)), k)
                  if all(a != b or degrees[a] == FUNCTION for a, b in zip(c, c[1:]))]
        lines = {f"identity-n{k}": tuples}
        for name, shape in _LEMMAS.get(k, {}).items():
            lines[name] = [c for c in tuples if tuple(degrees[i] for i in c) == shape]
        checks += [Check.from_residual(name, first_failure(swept, partial(identity, k), zero)[1])
                   for name, swept in lines.items()]
        if k == 4:
            res = _quadrilinear_failure(tables, zero)[1]
            checks.insert(-1, Check.from_residual("quadrilinear-pairing-identity", res))
    return Report(checks)


def _quadrilinear_failure(tables: ShlaTables, zero):
    """The first 4-set of distinct sections where K + 2J, the quadrilinear
    compatibility of jacobiators and pairings, is nonzero.  The jacobiator
    of a < b < c is [[a, b], c] + [[b, c], a] - [[a, c], b], made once."""
    chart = tables.structure.chart
    emb = [e.embedded for degree, e in tables.generators if degree == SECTION]   # come first
    jacobiator = cache(lambda a, b, c: _signed_sum(chart, [
        (tables.term(pair, (k,)), sign) for pair, k, sign in (((a, b), c, 1), ((b, c), a, 1),
                                                               ((a, c), b, -1))]))

    def k_plus_2j(quad):
        a, b, c, d = quad
        try:
            j = [(canonical_bracket(jacobiator(*abc), emb[e]), sign) for abc, e, sign in (
                ((a, b, c), d, 1), ((a, b, d), c, -1), ((a, c, d), b, 1), ((b, c, d), a, -1))]
            k = [(canonical_bracket(tables.map(x)[1].embedded, tables.map(y)[1].embedded), sign)
                 for x, y, sign in (((a, b), (c, d), 1), ((a, c), (b, d), -1),
                                    ((a, d), (b, c), 1))]
            return _signed_sum(chart, j + j + k)
        except _OffDegree as off:
            return off.args[0]
    return first_failure(combinations(range(len(emb)), 4), k_plus_2j, zero)


# ---------------------------------------------------------------------------
# Dirac subbundles
# ---------------------------------------------------------------------------


def _section_components(section):
    """Sparse row {column: nonzero base function}: vector block, then covector block."""
    n = section.structure.rank
    row = {a - 1: p for a, p in section.vector.items()}
    row.update((n + a - 1, p) for a, p in section.covector.items())
    return row


def _eval_at_point(poly: SuperPolynomial, point: dict):
    """Evaluate a base-only polynomial at rational coordinates."""
    acc = GaussianRational(0)
    chart = poly.chart
    for (evens, odds), coeff in poly.terms.items():
        if odds:
            raise SpecError("not a base function")
        val = coeff
        for idx, k in evens:
            val = val * GaussianRational(Fraction(point[chart.variables[idx].name]) ** k)
        acc = acc + val
    return acc


def check_dirac(structure: CourantStructure, sections) -> Report:
    """Isotropy, constant maximal rank and closure under the circle product."""
    if not sections:
        raise SpecError("empty spanning set")
    rows = [_section_components(s) for s in sections]
    ncols = 2 * structure.rank
    chart = structure.chart
    constant = all(p.max_degree() == 0 for row in rows for p in row.values())
    if constant:
        rk = rank([{j: next(iter(p.terms.values())) for j, p in row.items()} for row in rows],
                  ncols)
    else:
        pts = [
            {x: 0 for x in structure.bundle.base_names},
            {x: k + 1 for k, x in enumerate(structure.bundle.base_names)},
            {x: Fraction(1, k + 2) for k, x in enumerate(structure.bundle.base_names)},
            {x: -(k + 2) for k, x in enumerate(structure.bundle.base_names)},
        ]
        ranks = set()
        for pt in pts:
            mat = [{j: v for j, p in row.items() if (v := _eval_at_point(p, pt))}
                   for row in rows]
            ranks.add(rank(mat, ncols))
        if len(ranks) != 1:
            raise SpecError(f"spanning set rank varies over sample points: {sorted(ranks)}")
        rk = ranks.pop()
    if rk != len(sections):
        raise SpecError(f"spanning set is rank deficient: rank {rk} from {len(sections)} sections")

    zero = SuperPolynomial.zero(chart)
    isotropy = first_failure(combinations_with_replacement(sections, 2),
                             lambda pair: pairing(*pair), zero)[1]
    # the matrix whose columns are the sections' components
    frac_rows = [{} for _ in range(ncols)]
    for j, row in enumerate(rows):
        for a, p in row.items():
            frac_rows[a][j] = PolyFrac(p)

    def outside_span(pair):
        """s1 o s2 when it is outside the span of the sections, else zero."""
        prod = circ(*pair)
        rhs = {a: PolyFrac(p) for a, p in _section_components(prod).items()}
        inside = solve_over_fractions(frac_rows, len(sections), rhs) is not None
        return zero if inside else prod.embedded

    closure = first_failure(product(sections, repeat=2), outside_span, zero)[1]
    return Report([Check.from_residual("isotropy", isotropy),
                   Check.decided("maximal", rk == structure.rank,
                                 note=f"rank {rk} of expected {structure.rank}"),
                   Check.from_residual("closure", closure)])


# ---------------------------------------------------------------------------
# twisted exact structures
# ---------------------------------------------------------------------------


@dataclass
class TwistedStructure:
    structure: CourantStructure
    phi: SuperPolynomial            # the active cubic term
    phi_raw: SuperPolynomial        # cubic term before gauging
    proto: ProtoBialgebroidSpec     # identity anchor, zero dual side, active phi


def twist_exact(std: ProtoBialgebroidSpec, phi: SuperPolynomial,
                omega: SuperPolynomial | None = None) -> TwistedStructure:
    """The standard structure `std` on R^n twisted by a three-form, optionally re-gauged.

    `std` is `standard_proto(n)`; only its two sides are read, so the proto
    of an earlier twist serves as well.  With a gauge two-form the active
    twist is phi + d(omega), where d is {mu, .} for the mu of `std`'s
    identity anchor; the result keeps both the raw and the active twist.
    The active twist is checked where every phi is, by
    `ProtoBialgebroidSpec.theta`.
    """
    bundle = std.a_side.bundle
    chart = bundle.chart
    phi = phi.substitute(chart, {}) if phi.chart is not chart else phi
    active = phi
    if omega is not None:
        omega = omega.substitute(chart, {}) if omega.chart is not chart else omega
        if not omega.uses_only(set(bundle.base) | set(bundle.fiber)):
            raise SpecError("gauge must use base and fiber coordinates only")
        for (_e, d, _k) in omega.gradings():
            if d != 2:
                raise SpecError("gauge must be a two-form (delta degree 2)")
        active = phi + canonical_bracket(build_mu(std.a_side), omega)
    proto = ProtoBialgebroidSpec(std.a_side, std.astar_side, active, None)
    return TwistedStructure(structure_from_proto(proto), active, phi, proto)
