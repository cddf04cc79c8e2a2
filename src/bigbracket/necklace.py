"""Rotation-covariant Poisson structures on the sphere and their cohomology.

The one-parameter family pi_c = 1/2 (s^2 + t^2 - (1-c)/2) ds^dt lives on the
unit disk chart; for |c| < 1 it vanishes on a circle and its cohomology is
computed mode by mode in action-angle variables, where the differential
becomes finite-dimensional in each Fourier mode after truncating in the
radial variable.  Each mode is eliminated once, at one truncation; why its
answer does not depend on the truncation is argued in `mode_cohomology`.
The global answer is assembled from the computed annulus cohomology and
recorded two-disk constants through the long exact sequence.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .brackets import canonical_bracket
from .chart import darboux_chart, ODD
from .linalg import in_span, independent, intersect_with_coordinate_subspace, nullspace
from .poly import SuperPolynomial
from .rationals import GaussianRational, ONE

HALF = GaussianRational(Fraction(1, 2))
QUARTER = GaussianRational(Fraction(1, 4))


def disk_chart():
    """Odd symplectic chart (s, t; sigma, tau) with sigma, tau for d/ds, d/dt."""
    return darboux_chart([("s", 0, "sigma"), ("t", 0, "tau")], ODD)


@dataclass
class NecklaceStructure:
    c: Fraction
    chart: object
    pi_c: SuperPolynomial
    pi: SuperPolynomial


def build_structures(c) -> NecklaceStructure:
    """The family member pi_c together with the invariant structure pi."""
    c = Fraction(c)
    chart = disk_chart()
    s = SuperPolynomial.variable(chart, "s")
    t = SuperPolynomial.variable(chart, "t")
    sig = SuperPolynomial.variable(chart, "sigma")
    tau = SuperPolynomial.variable(chart, "tau")
    radius2 = SuperPolynomial.constant(chart, GaussianRational(Fraction(1 - c, 2)))
    pi_c = (s * s + t * t - radius2) * sig * tau
    pi_c = pi_c.scale(HALF)
    pi = (sig * tau).scale(QUARTER)
    return NecklaceStructure(c, chart, pi_c, pi)


def schouten_square(pi: SuperPolynomial) -> SuperPolynomial:
    """[pi, pi] through the odd canonical bracket; zero exactly when Poisson.

    The input must be an even bivector: every monomial carries exactly two
    odd momenta.
    """
    chart = pi.chart
    for evens, odds in pi.terms:
        if len(odds) != 2:
            raise ValueError("input must be quadratic in the odd variables")
    if pi.parity() not in (None, 0):
        raise ValueError("input must be even")
    return canonical_bracket(pi, pi, chart)


# ---------------------------------------------------------------------------
# Fourier-mode complexes in action-angle form
# ---------------------------------------------------------------------------


@dataclass
class ModeComplex:
    """Exact matrices of the mode-n differential truncated at radial degree N.

    Bases: functions f(I) e^{in th} by I-degree 0..N; one-fields by the pair
    of blocks (xi-coefficients, eta-coefficients) each 0..N; two-fields by
    I-degree 0..N.  Entries follow d(f) = (in f_{m-1}) xi_m - (m f_m) eta_m
    and d(X) = ((m-1) a_m + in b_{m-1}) (xi eta)_m, all degrees <= N kept.
    Each matrix is a list of sparse rows {column: nonzero entry}: d0 has
    2(N+1) rows over N+1 columns, d1 has N+1 rows over 2(N+1) columns.
    """
    d0: list
    d1: list


def mode_matrices(c, n: int, N: int) -> ModeComplex:
    if N < 3:
        raise ValueError("truncation must be at least 3")
    c = Fraction(c)
    if abs(c) >= 1:
        raise ValueError("the mode model applies to the degenerate family members only")
    size = N + 1
    i_n = GaussianRational(0, n)
    d0 = [{} for _ in range(2 * size)]
    d1 = [{} for _ in range(size)]
    for m in range(size):
        if m != 1:
            d1[m][m] = GaussianRational(m - 1)  # from the xi block
        if m and n:
            d0[m][m - 1] = i_n                  # xi block, raises I-degree
            d1[m][size + m - 1] = i_n           # from the eta block
        if m:
            d0[size + m][m] = GaussianRational(-m)   # eta block, preserves degree
    return ModeComplex(d0, d1)


@dataclass
class CohomologyReport:
    dims: tuple
    generators: tuple            # tuple of tuples of printable strings
    provenance: dict

    def __eq__(self, other):
        return (self.dims == other.dims and self.generators == other.generators)


# Basis suffix of each block of a mode vector, by form degree: functions,
# one-fields (d_I block, then d_theta block) and two-fields.
_BLOCK_SUFFIXES = (("",), ("d_I", "d_theta"), ("d_I^d_theta",))


def _format_generator(vec, degree, size):
    """Text of a mode vector: each basis element is an I-power times a suffix.

    Index block * size + m of the sparse vector is I^m times the block's suffix.
    """
    suffixes = _BLOCK_SUFFIXES[degree]
    parts = []
    for k in sorted(vec):
        block, m = divmod(k, size)
        x = vec[k]
        power = "" if m == 0 else ("I" if m == 1 else f"I^{m}")
        factors = [f for f in (power, suffixes[block]) if f]
        if x != ONE:
            factors.insert(0, f"({x})")
        parts.append("*".join(factors) or "1")
    return " + ".join(parts) if parts else "0"


def _quotient_generators(cocycles, boundaries, dim):
    """Representatives of cocycles modulo boundaries, greedily in basis order.

    A cocycle is kept when it is outside the span of the boundaries and the
    cocycles before it: a pivot column of boundaries followed by cocycles.
    """
    skip = len(boundaries)
    return [cocycles[j - skip] for j in independent(boundaries + cocycles, dim) if j >= skip]


def _swap_blocks(v, size):
    # list one-field coordinates angular block first, so representative
    # extraction prefers low-degree rotation terms; an involution
    return {(k + size) % (2 * size): x for k, x in v.items()}


def mode_cohomology(c, n: int, N: int) -> CohomologyReport:
    """Exact mode-n cohomology at truncation N, read on the degrees <= N - 1.

    One elimination decides the mode: its answer is the same at every N >= 4.
    For n != 0, h0(a, b)_m = a_{m+1} / (i n) and h1(w) = (a_0 = -w_0,
    b_m = w_{m+1} / (i n)) give h0 d0 = 1, d0 h0 + h1 d1 = 1 and d1 h1 = 1 on
    the trusted degrees m <= M = N - 1, with primitives of degree <= M, so the
    mode is (0, 0, 0).  Each identity reads only the degrees m - 1..m + 1,
    where the entries are the same formulas in m at every N.  For n = 0, d0
    and d1 are diagonal, zero only at m = 0 and m = 1: (1, 2, 1), generated by
    1; I*d_I, d_theta; I*d_I^d_theta.  tests/test_necklace.py checks both.
    """
    if N < 4:
        raise ValueError("truncation must be at least 4")
    comp = mode_matrices(c, n, N)
    size = N + 1
    M = N - 1                     # trusted degree range
    # degree-0: kernel of d0 on inputs of degree <= M
    kern0 = nullspace([{m: x for m, x in row.items() if m <= M} for row in comp.d0], M + 1)
    gens0 = tuple(_format_generator(v, 0, size) for v in kern0)

    # degree-1: cocycles supported in the trusted degrees, modulo the part of
    # the image landing there (primitives may use the full truncated space)
    keep1 = set(range(M + 1)) | {size + m for m in range(M + 1)}
    cols1_idx = sorted(keep1)
    position = {cidx: k for k, cidx in enumerate(cols1_idx)}
    sub_d1 = [{position[j]: x for j, x in row.items() if j in position} for row in comp.d1]
    cocycles1 = [{cols1_idx[k]: x for k, x in v.items()}
                 for v in nullspace(sub_d1, len(cols1_idx))]
    image1 = intersect_with_coordinate_subspace(comp.d0, size, keep1)
    reps1 = _quotient_generators([_swap_blocks(v, size) for v in cocycles1],
                                 [_swap_blocks(v, size) for v in image1], 2 * size)
    gens1 = tuple(_format_generator(_swap_blocks(v, size), 1, size) for v in reps1)

    # degree-2: everything of degree <= M is a cocycle
    cocycles2 = [{m: ONE} for m in range(M + 1)]
    image2 = intersect_with_coordinate_subspace(comp.d1, 2 * size, set(range(M + 1)))
    reps2 = _quotient_generators(cocycles2, image2, size)
    gens2 = tuple(_format_generator(v, 2, size) for v in reps2)

    return CohomologyReport(
        dims=(len(gens0), len(gens1), len(gens2)), generators=(gens0, gens1, gens2),
        provenance={"status": "computed", "mode": n, "truncation": N, "c": str(Fraction(c))})


# ---------------------------------------------------------------------------
# global assembly
# ---------------------------------------------------------------------------


@dataclass
class RecordedConstants:
    """Analytic inputs that are recorded, never machine-verified.

    h_disks: the complement of the circle is two open disks; h_annuli: the
    overlap is two annuli; restriction_rank_h1 = 1 records that the dilation
    class restricts nontrivially while the rotation class bounds the kernel
    (its global class is nonzero).  flat_note records the formal-to-smooth
    comparison entering the local computation.
    """
    h_disks: tuple = (2, 0, 0)
    h_annuli: tuple = (2, 2, 0)
    restriction_rank_h1: int = 1
    flat_note: str = "flat complex acyclic (recorded analytic input)"


class AssemblyError(RuntimeError):
    pass


def global_assembly(c, local: CohomologyReport | None = None,
                    recorded: RecordedConstants | None = None) -> CohomologyReport:
    """Sphere cohomology by exactness bookkeeping over the two-set cover.

    `local` is the mode-0 cohomology of a |c| < 1 member, as
    `mode_cohomology(c, 0, N)` gives it; a member with |c| > 1 reads neither
    it nor `recorded`.

    The range check gives h1 = hU1 + hV1 - r1 >= 0 (r1: restriction rank).
    The long exact sequence's alternating sum is 0 on every input: the
    degree-0 check zeroes its degree-0 term, and its terms h1 - (hU1 + hV1) +
    hUV1 and h2 - (hU2 + hV2) + hUV2 both equal hUV1 - r1.
    """
    c = Fraction(c)
    if abs(c) == 1:
        raise AssemblyError("the |c| = 1 members are outside this computation")
    if abs(c) > 1:
        return CohomologyReport(
            dims=(1, 0, 1), generators=(("1",), (), ("pi_c",)),
            provenance={"status": "recorded-constant",
                        "reason": "nondegenerate member, sphere de Rham constants"})
    if recorded is None:
        recorded = RecordedConstants()
    hU = local.dims
    hV = recorded.h_disks
    hUV = recorded.h_annuli
    r1 = recorded.restriction_rank_h1
    # degree 0 row: constants glue, the connecting map vanishes
    if 1 - (hU[0] + hV[0]) + hUV[0] != 0:
        raise AssemblyError("degree-0 exactness fails with the given inputs")
    h0 = 1
    if not (0 <= r1 <= min(hU[1] + hV[1], hUV[1])):
        raise AssemblyError("recorded restriction rank is out of range")
    h1 = (hU[1] + hV[1]) - r1
    h2 = (hUV[1] - r1) + hU[2] + hV[2] - hUV[2]
    if h2 < 0:
        raise AssemblyError("negative dimension from exactness arithmetic")
    return CohomologyReport(
        dims=(h0, h1, h2),
        generators=(("1",), ("Delta_omega",), ("pi_c", "pi")),
        provenance={
            "status": "assembled",
            "local annulus": "computed",
            "disks": f"recorded-constant {hV}",
            "annuli overlap": f"recorded-constant {hUV}",
            "restriction rank": f"recorded-constant {r1} "
                                "(dilation class survives, rotation class glues)",
            "flat comparison": recorded.flat_note,
            "generator identification": "recorded-constant",
        })


# ---------------------------------------------------------------------------
# modular field, volume, structure identities
# ---------------------------------------------------------------------------


def modular_and_volume(structure: NecklaceStructure):
    """The rotation field, and for nondegenerate members the total volume.

    Returns (h, volume_description, volume_value); h = -t*sigma + s*tau, on
    the structure's chart, is the hamiltonian of the modular vector field of
    pi_c for the rotation-invariant area form, whose field {h, .} is
    s d/dt - t d/ds in the disk chart.  That {h, pi_c} = 0 is for the caller
    to check.  The volume uses the closed form 2*pi*ln((c+1)/(c-1)); its
    evaluation is the only floating point number in the package.
    """
    c = structure.c
    chart = structure.chart
    s = SuperPolynomial.variable(chart, "s")
    t = SuperPolynomial.variable(chart, "t")
    sig = SuperPolynomial.variable(chart, "sigma")
    tau = SuperPolynomial.variable(chart, "tau")
    h = (-t) * sig + s * tau
    if abs(c) > 1:
        ratio = Fraction(c + 1, c - 1)
        if abs(ratio - 1) < Fraction(1, 2):
            # far from |c| = 1 the ratio nears 1, where a float of it loses
            # the digits the log needs; ratio - 1 = 2/(c-1) is exact
            log_ratio = math.log1p(float(ratio - 1))
        elif sys.float_info.min <= ratio <= sys.float_info.max:
            log_ratio = math.log(ratio)
        else:
            # near |c| = 1 the ratio overflows a float or loses its precision;
            # math.log takes big ints, and two logs this far apart do not cancel
            log_ratio = math.log(ratio.numerator) - math.log(ratio.denominator)
        value = 2.0 * math.pi * log_ratio
        desc = f"2*pi*ln({ratio})"
        return h, desc, value
    return h, "volume undefined for |c| <= 1", None


class StructureIdentityError(RuntimeError):
    pass


def structure_identities(structure: NecklaceStructure, c_prime=Fraction(1, 2), N: int = 12):
    """Exact identities tying the family together, plus the no-rescaling facts.

    Verifies [pi_c, E] = pi for the Euler field E = (s d_s + t d_t)/(2(c-1)),
    the affine relation pi_c - pi_c' = (c - c') pi, and, for |c| < 1, that
    neither pi_c nor the rotation field is exact in the truncated zero mode.
    The |c| > 1 members get the first two identities only.
    """
    c = structure.c
    if abs(c) == 1:
        raise StructureIdentityError(
            "the |c| = 1 members are outside the identities "
            "(the Euler primitive is undefined at c = 1)")
    chart = structure.chart
    s = SuperPolynomial.variable(chart, "s")
    t = SuperPolynomial.variable(chart, "t")
    sig = SuperPolynomial.variable(chart, "sigma")
    tau = SuperPolynomial.variable(chart, "tau")
    coeff = GaussianRational(Fraction(1, 2 * (c - 1)))
    euler = (s * sig + t * tau).scale(coeff)
    results = {}
    results["euler-primitive"] = (
        canonical_bracket(structure.pi_c, euler, chart) - structure.pi).is_zero()
    other = build_structures(c_prime)
    diff = structure.pi_c - other.pi_c.substitute(chart, {})
    scale = GaussianRational(Fraction(c - c_prime))
    results["affine-family"] = (diff - structure.pi.scale(scale)).is_zero()
    if abs(c) > 1:
        return results          # the mode model covers the degenerate members only

    comp = mode_matrices(c, 0, N)
    size = N + 1
    # pi_c in action-angle form is the degree-1 two-field
    results["pi_c-not-exact"] = not in_span(comp.d1, 2 * size, {1: ONE})
    # the rotation field is the constant eta one-field; d1 of it is column size of d1
    results["modular-not-exact"] = not in_span(comp.d0, size, {size: ONE})
    results["modular-cocycle"] = all(size not in row for row in comp.d1)
    return results
