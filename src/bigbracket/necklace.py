"""Rotation-covariant Poisson structures on the sphere and their cohomology.

The one-parameter family pi_c = 1/2 (s^2 + t^2 - (1-c)/2) ds^dt lives on the
unit disk chart; for |c| < 1 it vanishes on a circle and its cohomology is
computed mode by mode in action-angle variables, where the differential
becomes finite-dimensional in each Fourier mode after truncating in the
radial variable.  The global answer is assembled from the computed annulus
cohomology and recorded two-disk constants through the long exact sequence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .brackets import canonical_bracket
from .cartan import VectorField
from .chart import darboux_chart, ODD
from .linalg import in_span, independent, intersect_with_coordinate_subspace, nullspace
from .poly import SuperPolynomial, poly_sum
from .rationals import GaussianRational, ONE, ZERO

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


def poisson_bracket_of(pi: SuperPolynomial, f: SuperPolynomial, g: SuperPolynomial):
    """{f, g} generated by a bivector via the derived product on functions."""
    from .brackets import derived_bracket
    return derived_bracket(pi, f, g, pi.chart)


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
    """
    n: int
    N: int
    d0: list
    d1: list

    def dims(self):
        return (self.N + 1, 2 * (self.N + 1), self.N + 1)


def mode_matrices(c, n: int, N: int) -> ModeComplex:
    if N < 3:
        raise ValueError("truncation must be at least 3")
    c = Fraction(c)
    if abs(c) >= 1:
        raise ValueError("the mode model applies to the degenerate family members only")
    size = N + 1
    i_n = GaussianRational(0, n)
    d0 = [[ZERO for _ in range(size)] for _ in range(2 * size)]
    for m in range(1, size):
        d0[m][m - 1] = i_n                      # xi block, raises I-degree
    for m in range(0, size):
        if m:
            d0[size + m][m] = GaussianRational(-m)   # eta block, preserves degree
    d1 = [[ZERO for _ in range(2 * size)] for _ in range(size)]
    for m in range(0, size):
        d1[m][m] = GaussianRational(m - 1)      # from the xi block
        if m >= 1:
            d1[m][size + m - 1] = i_n           # from the eta block
    return ModeComplex(n, N, d0, d1)


@dataclass
class CohomologyReport:
    dims: tuple
    generators: tuple            # tuple of tuples of printable strings
    provenance: dict
    label: str = ""

    def __eq__(self, other):
        return (self.dims == other.dims and self.generators == other.generators)


# Basis suffix of each block of a mode vector, by form degree: functions,
# one-fields (d_I block, then d_theta block) and two-fields.
_BLOCK_SUFFIXES = (("",), ("d_I", "d_theta"), ("d_I^d_theta",))


def _format_generator(vec, degree):
    """Text of a mode vector: each basis element is an I-power times a suffix."""
    suffixes = _BLOCK_SUFFIXES[degree]
    size = len(vec) // len(suffixes)
    parts = []
    for block, suffix in enumerate(suffixes):
        for m in range(size):
            x = vec[block * size + m]
            if x:
                power = "" if m == 0 else ("I" if m == 1 else f"I^{m}")
                factors = [f for f in (power, suffix) if f]
                if x != ONE:
                    factors.insert(0, f"({x})")
                parts.append("*".join(factors) or "1")
    return " + ".join(parts) if parts else "0"


def _quotient_generators(cocycles, boundaries):
    """Representatives of cocycles modulo boundaries, greedily in basis order.

    A cocycle is kept when it is outside the span of the boundaries and the
    cocycles before it: a pivot column of boundaries followed by cocycles.
    """
    skip = len(boundaries)
    return [cocycles[j - skip] for j in independent(boundaries + cocycles) if j >= skip]


class TruncationInstability(RuntimeError):
    pass


def _mode_cohomology_once(c, n, N):
    comp = mode_matrices(c, n, N)
    size = N + 1
    M = N - 1                     # trusted degree range
    # degree-0: kernel of d0 on inputs of degree <= M
    cols0 = [[comp.d0[r][m] for r in range(2 * size)] for m in range(M + 1)]
    sub_d0 = [[cols0[m][r] for m in range(M + 1)] for r in range(2 * size)]
    kern0 = nullspace(sub_d0, M + 1)
    h0 = len(kern0)
    gens0 = tuple(_format_generator(v, 0) for v in kern0)

    # degree-1: cocycles supported in the trusted degrees, modulo the part of
    # the image landing there (primitives may use the full truncated space)
    keep1 = set(range(M + 1)) | {size + m for m in range(M + 1)}
    cols1_idx = sorted(keep1)
    sub_d1 = [[comp.d1[r][cidx] for cidx in cols1_idx] for r in range(size)]
    kern1 = nullspace(sub_d1, len(cols1_idx))
    cocycles1 = []
    for v in kern1:
        full = [ZERO] * (2 * size)
        for val, cidx in zip(v, cols1_idx):
            full[cidx] = val
        cocycles1.append(full)
    image1 = intersect_with_coordinate_subspace(
        [[comp.d0[r][m] for r in range(2 * size)] for m in range(size)], keep1)
    reps1 = _quotient_generators([_swap_blocks(v) for v in cocycles1],
                                 [_swap_blocks(v) for v in image1])
    h1 = len(reps1)
    gens1 = tuple(_format_generator(_swap_blocks(v), 1) for v in reps1)

    # degree-2: everything of degree <= M is a cocycle
    cocycles2 = []
    for m in range(M + 1):
        vec = [ZERO] * size
        vec[m] = ONE
        cocycles2.append(vec)
    image2 = intersect_with_coordinate_subspace(
        [[comp.d1[r][cidx] for r in range(size)] for cidx in range(2 * size)],
        set(range(M + 1)))
    reps2 = _quotient_generators(cocycles2, image2)
    h2 = len(reps2)
    gens2 = tuple(_format_generator(v, 2) for v in reps2)

    return CohomologyReport(
        dims=(h0, h1, h2), generators=(gens0, gens1, gens2),
        provenance={"status": "computed", "mode": n, "truncation": N, "c": str(Fraction(c))},
        label=f"mode {n}")


def _swap_blocks(v):
    # list one-field coordinates angular block first, so representative
    # extraction prefers low-degree rotation terms; an involution
    half = len(v) // 2
    return list(v[half:]) + list(v[:half])


def mode_cohomology(c, n: int, N: int) -> CohomologyReport:
    """Exact mode-n cohomology at truncation N, with an N+2 stability check."""
    if N < 4:
        raise ValueError("truncation must be at least 4")
    first = _mode_cohomology_once(c, n, N)
    second = _mode_cohomology_once(c, n, N + 2)
    if first.dims != second.dims:
        raise TruncationInstability(
            f"mode {n}: dims {first.dims} at N={N} but {second.dims} at N={N + 2}")
    return first


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
    """Sphere cohomology by exactness bookkeeping over the two-set cover."""
    c = Fraction(c)
    if abs(c) == 1:
        raise AssemblyError("the |c| = 1 members are outside this computation")
    if abs(c) > 1:
        return CohomologyReport(
            dims=(1, 0, 1), generators=(("1",), (), ("pi_c",)),
            provenance={"status": "recorded-constant",
                        "reason": "nondegenerate member, sphere de Rham constants"},
            label=f"global c={c}")
    if recorded is None:
        recorded = RecordedConstants()
    if local is None:
        local = mode_0_summary(c)
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
    if h1 < 0 or h2 < 0:
        raise AssemblyError("negative dimension from exactness arithmetic")
    alternating = (h0 - (hU[0] + hV[0]) + hUV[0]
                   - (h1 - (hU[1] + hV[1]) + hUV[1])
                   + (h2 - (hU[2] + hV[2]) + hUV[2]))
    if alternating != 0:
        raise AssemblyError("long-exact-sequence alternating sum is nonzero")
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
        },
        label=f"global c={c}")


def mode_0_summary(c) -> CohomologyReport:
    return mode_cohomology(c, 0, 12)


# ---------------------------------------------------------------------------
# modular field, volume, structure identities
# ---------------------------------------------------------------------------


def modular_and_volume(c):
    """The rotation field, and for nondegenerate members the total volume.

    Returns (field, volume_description, volume_value); the field is the
    modular vector field of pi_c for the rotation-invariant area form,
    expressed in the disk chart as s d/dt - t d/ds.  The volume uses the
    closed form 2*pi*ln((c+1)/(c-1)); its evaluation is the only floating
    point number in the package.
    """
    c = Fraction(c)
    structure = build_structures(c)
    chart = structure.chart
    s = SuperPolynomial.variable(chart, "s")
    t = SuperPolynomial.variable(chart, "t")
    comps = {"s": -t, "t": s}
    field = VectorField(chart, comps)
    sig = SuperPolynomial.variable(chart, "sigma")
    tau = SuperPolynomial.variable(chart, "tau")
    h_field = (-t) * sig + s * tau
    commutes = canonical_bracket(h_field, structure.pi_c, chart).is_zero()
    if not commutes:
        raise AssertionError("modular field fails to preserve the structure")
    if abs(c) > 1:
        ratio = Fraction(c + 1, c - 1)
        value = 2.0 * math.pi * math.log(float(ratio))
        desc = f"2*pi*ln({ratio})"
        return field, desc, value
    return field, "volume undefined for |c| <= 1", None


class StructureIdentityError(RuntimeError):
    pass


def structure_identities(c, c_prime=Fraction(1, 2), N: int = 12):
    """Exact identities tying the family together, plus the no-rescaling facts.

    Verifies [pi_c, E] = pi for the Euler field E = (s d_s + t d_t)/(2(c-1)),
    the affine relation pi_c - pi_c' = (c - c') pi, and, for |c| < 1, that
    neither pi_c nor the rotation field is exact in the truncated zero mode.
    The |c| > 1 members get the first two identities only.
    """
    c = Fraction(c)
    if abs(c) == 1:
        raise StructureIdentityError(
            "the |c| = 1 members are outside the identities "
            "(the Euler primitive is undefined at c = 1)")
    structure = build_structures(c)
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
    target2 = [ZERO] * size
    target2[1] = ONE
    results["pi_c-not-exact"] = not in_span(list(zip(*comp.d1)), target2)
    # the rotation field is the constant eta one-field
    target1 = [ZERO] * (2 * size)
    target1[size] = ONE
    results["modular-not-exact"] = not in_span(list(zip(*comp.d0)), target1)
    results["modular-cocycle"] = all(
        not x for x in _apply_matrix(comp.d1, target1))
    return results


def _apply_matrix(matrix, vec):
    out = []
    for row in matrix:
        acc = ZERO
        for a, b in zip(row, vec):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return out


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
