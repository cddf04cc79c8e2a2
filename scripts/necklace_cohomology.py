#!/usr/bin/env python3
"""Sweep the Fourier-mode cohomology of a degenerate family member and
assemble the global answer; prints one table row per mode.

Usage: python scripts/necklace_cohomology.py [c] [modes] [truncation]

Exit status 0; a bad argument or a member outside the computation (|c| = 1)
prints an `error:` line to stderr, nothing to stdout, and exits 2, like the
CLI.
"""
import sys
from fractions import Fraction

from bigbracket.cli import USAGE_EXIT
from bigbracket.necklace import (AssemblyError, TruncationInstability,
                                 global_assembly, mode_cohomology)


def table(c, modes, truncate):
    lines = [f"family parameter c = {c}, truncation N = {truncate}"]
    local = None
    if abs(c) < 1:
        lines.append(f"{'mode':>6} {'dims':>12}  generators")
        for n in range(modes + 1):
            rep = mode_cohomology(c, n, truncate)
            if n == 0:
                local = rep
            gens = "; ".join(", ".join(g) for g in rep.generators if g)
            lines.append(f"{n:>6} {str(rep.dims):>12}  {gens}")
    result = global_assembly(c, local)
    lines.append(f"global dims: {result.dims}")
    gens = "; ".join(", ".join(g) for g in result.generators if g)
    lines.append(f"global generators: {gens}")
    for key, value in result.provenance.items():
        lines.append(f"  provenance[{key}] = {value}")
    return lines


def _argument(argv, k, kind, what, default):
    if len(argv) <= k:
        return default
    try:
        return kind(argv[k])
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"argument {k + 1} must be {what}, got {argv[k]!r}") from None


def main(argv):
    try:
        c = _argument(argv, 0, Fraction, "a rational number", Fraction(0))
        modes = _argument(argv, 1, int, "an integer", 5)
        truncate = _argument(argv, 2, int, "an integer", 12)
        lines = table(c, modes, truncate)
    except (ValueError, AssemblyError, TruncationInstability) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
