"""Deterministic text form of polynomials.

Monomials are printed in graded-lexicographic order: higher total degree
first, ties broken by the expanded declaration-index word.  Coefficients are
exact; the imaginary unit prints as i.  print and parse round trip on normal
forms.
"""
from __future__ import annotations

from .poly import SuperPolynomial, mono_sort_key


def _format_bare_monomial(chart, mono) -> str:
    evens, odds = mono
    factors = []
    for idx, k in evens:
        name = chart.variables[idx].name
        factors.append(name if k == 1 else f"{name}^{k}")
    for idx in odds:
        factors.append(chart.variables[idx].name)
    return "*".join(factors)


def format_poly(p: SuperPolynomial) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for mono in sorted(p.terms, key=mono_sort_key):
        coeff = p.terms[mono]
        body = _format_bare_monomial(p.chart, mono)
        # pull a leading minus out of purely rational or purely imaginary coefficients
        negative = False
        if (coeff.p < 0 and not coeff.q) or (coeff.q < 0 and not coeff.p):
            negative, coeff = True, -coeff
        if not body:
            text = str(coeff)
        elif coeff == 1:
            text = body
        else:
            text = f"{coeff}*{body}"
        if not pieces:
            pieces.append(f"-{text}" if negative else text)
        else:
            pieces.append(f" - {text}" if negative else f" + {text}")
    return "".join(pieces)
