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

    def __repr__(self):
        return f"Chart({', '.join(v.name for v in self.variables)})"


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
    variables = [GradedVariable(n, p, e, d, i) for i, (n, p, e, d) in enumerate(specs)]
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
    # the chart variables of each block, looked up once
    base: tuple = field(init=False, repr=False, compare=False)
    base_momenta: tuple = field(init=False, repr=False, compare=False)
    fiber: tuple = field(init=False, repr=False, compare=False)
    fiber_momenta: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = [(x, EVEN, momentum_name(x)) for x in self.base_names]
        pairs += [(f, ODD, momentum_name(f)) for f in self.fiber_names]
        chart = darboux_chart(pairs, EVEN)
        self.chart = chart
        self.base = tuple(chart.var(x) for x in self.base_names)
        self.base_momenta = tuple(chart.var(momentum_name(x)) for x in self.base_names)
        self.fiber = tuple(chart.var(f) for f in self.fiber_names)
        self.fiber_momenta = tuple(chart.var(momentum_name(f)) for f in self.fiber_names)


def cotangent_chart(base_names, fiber_names) -> CotangentOfParityReversed:
    return CotangentOfParityReversed(tuple(base_names), tuple(fiber_names))
