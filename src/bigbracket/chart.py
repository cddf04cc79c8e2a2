"""Variable tables for graded polynomial algebras and Darboux supercharts.

A chart declares an ordered list of Z2-graded variables.  Each variable also
carries two nonnegative weights (eps, delta): eps is the momentum degree,
delta the degree in (base momenta, fiber coordinates).  Their sum kappa is
the total grading; it is never stored separately.
"""
from __future__ import annotations

from dataclasses import dataclass, field

EVEN = 0
ODD = 1


@dataclass(frozen=True)
class GradedVariable:
    name: str
    parity: int          # 0 even, 1 odd
    eps: int             # momentum degree
    delta: int           # (base-momentum, fiber-coordinate) degree
    index: int           # declaration index, fixes the canonical odd order

    @property
    def kappa(self) -> int:
        return self.eps + self.delta

    def __repr__(self):
        return f"<{self.name}>"


class ChartError(ValueError):
    pass


class Chart:
    """An ordered table of graded variables with unique names."""

    def __init__(self, variables):
        self.variables = tuple(variables)
        self.by_name = {}
        for v in self.variables:
            if v.name in self.by_name:
                raise ChartError(f"duplicate variable name {v.name!r}")
            self.by_name[v.name] = v
        for i, v in enumerate(self.variables):
            if v.index != i:
                raise ChartError(f"variable {v.name!r} has index {v.index}, expected {i}")

    def var(self, name: str) -> GradedVariable:
        try:
            return self.by_name[name]
        except KeyError:
            raise ChartError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.by_name

    def __len__(self):
        return len(self.variables)

    def __iter__(self):
        return iter(self.variables)

    def names(self):
        return [v.name for v in self.variables]

    def __repr__(self):
        return f"Chart({', '.join(self.names())})"


def _build_vars(specs):
    # specs: iterable of (name, parity, eps, delta)
    return [GradedVariable(n, p, e, d, i) for i, (n, p, e, d) in enumerate(specs)]


def plain_chart(specs) -> Chart:
    """Chart from (name, parity, eps, delta) tuples."""
    return Chart(_build_vars(specs))


class DarbouxChart(Chart):
    """A chart whose variables split into conjugate (position, momentum) pairs.

    bracket_parity 0 gives the canonical even Poisson bracket of a cotangent
    bundle (momentum parity equals position parity); bracket_parity 1 gives
    the odd bracket of a parity-reversed cotangent bundle (momentum parity is
    the opposite of the position parity).
    """

    def __init__(self, variables, pairs, bracket_parity):
        super().__init__(variables)
        self.pairs = tuple(pairs)            # tuples (position, momentum)
        self.bracket_parity = bracket_parity
        # variable index -> (conjugate variable, whether the indexed one is a momentum)
        self.conjugate = {}
        for pos, mom in self.pairs:
            self.conjugate[pos.index] = (mom, False)
            self.conjugate[mom.index] = (pos, True)
        seen = set()
        for pos, mom in self.pairs:
            if self.by_name.get(pos.name) is not pos or self.by_name.get(mom.name) is not mom:
                raise ChartError("pair variable not in chart")
            want = pos.parity if bracket_parity == EVEN else 1 - pos.parity
            if mom.parity != want:
                raise ChartError(
                    f"momentum {mom.name!r} has parity {mom.parity}, expected {want}")
            seen.update((pos.index, mom.index))
        if len(seen) != len(self.variables):
            raise ChartError("every chart variable must appear in exactly one pair")

    @property
    def positions(self):
        return [p for p, _ in self.pairs]

    @property
    def momenta(self):
        return [m for _, m in self.pairs]


def darboux_chart(pair_specs, bracket_parity=EVEN) -> DarbouxChart:
    """Build a Darboux chart from (pos_name, pos_parity, mom_name) triples.

    Weight conventions: positions carry eps 0 and delta equal to their
    parity; momenta carry eps 1 and, on even charts, delta 1 for base pairs
    (even position) and 0 for fiber pairs (odd position).  On odd charts
    momenta carry delta 0.  This realizes the standard bigrading in which a
    base momentum has total degree 2 and odd fiber variables degree 1.
    """
    specs = []
    n = len(pair_specs)
    for pos_name, pos_parity, _mom in pair_specs:
        pos_delta = 1 if pos_parity == ODD else 0
        specs.append((pos_name, pos_parity, 0, pos_delta))
    for pos_name, pos_parity, mom_name in pair_specs:
        mom_parity = pos_parity if bracket_parity == EVEN else 1 - pos_parity
        mom_delta = 1 if (bracket_parity == EVEN and pos_parity == EVEN) else 0
        specs.append((mom_name, mom_parity, 1, mom_delta))
    variables = _build_vars(specs)
    pair_idx = [(variables[k], variables[n + k]) for k in range(n)]
    return DarbouxChart(variables, pair_idx, bracket_parity)


def momentum_name(name: str) -> str:
    """Conjugate-momentum name: an s is inserted before trailing digits.

    x1 -> xs1, xi2 -> xis2, th1 -> ths1, u3 -> us3, w -> ws.
    """
    stem = name.rstrip("0123456789")
    return stem + "s" + name[len(stem):]


@dataclass
class CotangentOfParityReversed:
    """The Darboux chart of T*(Pi A) for a rank-r bundle over a coordinate base.

    Positions are the base coordinates x^i and odd fiber coordinates; momenta
    are their conjugates.  Variable order is all base pairs first, then all
    fiber pairs, which fixes the canonical odd ordering.
    """
    base_names: tuple
    fiber_names: tuple
    chart: DarbouxChart = field(init=False)

    def __post_init__(self):
        pairs = [(x, EVEN, momentum_name(x)) for x in self.base_names]
        pairs += [(f, ODD, momentum_name(f)) for f in self.fiber_names]
        object.__setattr__(self, "chart", darboux_chart(pairs, EVEN))

    @property
    def base(self):
        return [self.chart.var(x) for x in self.base_names]

    @property
    def base_momenta(self):
        return [self.chart.var(momentum_name(x)) for x in self.base_names]

    @property
    def fiber(self):
        return [self.chart.var(f) for f in self.fiber_names]

    @property
    def fiber_momenta(self):
        return [self.chart.var(momentum_name(f)) for f in self.fiber_names]


def cotangent_chart(base_names, fiber_names) -> CotangentOfParityReversed:
    return CotangentOfParityReversed(tuple(base_names), tuple(fiber_names))


def odd_cotangent_chart(base_names, momentum_names=None) -> DarbouxChart:
    """Odd symplectic chart of Pi T*M over an even coordinate base.

    Functions on it are the multivector fields of the base; the canonical
    odd bracket is the Schouten bracket.
    """
    base_names = list(base_names)
    if momentum_names is None:
        momentum_names = ["d" + x for x in base_names]
    pairs = [(x, EVEN, th) for x, th in zip(base_names, momentum_names)]
    return darboux_chart(pairs, ODD)


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
        super().__init__(_build_vars(specs))
        self.pairing = tuple(
            (self.variables[2 * k], self.variables[2 * k + 1])
            for k in range(len(base_specs))
        )

    @property
    def base(self):
        return [b for b, _ in self.pairing]

    @property
    def velocities(self):
        return [v for _, v in self.pairing]


def pi_tangent_chart(base_names, velocity_names=None) -> TangentPiChart:
    base_names = list(base_names)
    if velocity_names is None:
        velocity_names = ["d" + x for x in base_names]
    return TangentPiChart([(x, EVEN) for x in base_names], velocity_names)
