"""Command surface: structure verification, doubles, cohomology, reports.

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage or parse
error.  Output is deterministic; timing is printed to stderr on request.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys
import time
from fractions import Fraction

from . import courant as crt
from .algebroid import (check_bialgebroid, check_lie_algebroid, check_proto,
                        double_differential, homomorphism_residuals)
from .brackets import canonical_bracket
from .necklace import (AssemblyError, StructureIdentityError, build_structures,
                       global_assembly, mode_cohomology, modular_and_volume,
                       schouten_square, structure_identities)
from .parsing import parse_poly
from .poly import SuperPolynomial
from .report import FAIL, PASS, RECORDED, Check, Report, first_failure
from .specfile import (DocumentError, Materialized, load_document, load_preset,
                       materialize)

USAGE_EXIT = 2

# argparse reads a value such as -1/2 or -xis1 as an option (it only knows
# -3 or -0.5 as numbers), so `--c -1/2` is joined into `--c=-1/2` first.  Per
# option: the shortest word argparse resolves to it, and the values joined.
_NEGATIVE_NUMBER = re.compile(r"-[0-9.]")
_NEGATIVE_POLYNOMIAL = re.compile(r"-(?!-)")
_MINUS_VALUED = (("--c", "--c", _NEGATIVE_NUMBER), ("--cprime", "--cp", _NEGATIVE_NUMBER),
                 ("--omega", "--o", _NEGATIVE_POLYNOMIAL),
                 ("--section", "--se", _NEGATIVE_POLYNOMIAL))


def _join_negative_values(argv):
    out = []
    for word in argv:
        if out and any(value.match(word) for option, shortest, value in _MINUS_VALUED
                       if out[-1].startswith(shortest) and option.startswith(out[-1])):
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


def _document(args):
    """The document named by --preset or --spec, or None when neither is given."""
    if args.preset:
        return load_preset(args.preset)
    if args.spec:
        return load_document(args.spec)
    return None


def _load(args) -> Materialized:
    """The materialized document of a structure command; its proto is the one checked."""
    doc = _document(args)
    if doc is None:
        raise DocumentError("one of --preset or --spec is required")
    if doc.kind == "necklace":
        raise DocumentError("a necklace document defines no cubic hamiltonian")
    return materialize(doc)


def _echo(args, name) -> str:
    src = args.preset or args.spec or ""
    echo = f"{name} --{'preset' if args.preset else 'spec'} {src}"
    return echo


def _document_lines(mat: Materialized) -> list:
    """The completion count and the broken antisymmetries of a document's tables."""
    completed = mat.doc.completed
    lines = [Check("antisymmetry-completion", PASS,
                   note=f"auto-completed {completed} mirrored entries")] if completed else []
    return lines + [Check(label, FAIL, residual) for label, residual in mat.violations]


def _structure_command(name, gate):
    """A command that reports the document's table lines and, when no table is
    broken, the checks `gate(mat, args)` returns for its hamiltonian."""
    def command(args) -> Report:
        mat = _load(args)
        report = Report(_document_lines(mat), _echo(args, name))
        if not mat.violations:
            report.checks += gate(mat, args)
        return report
    return command


def _verify_algebroid(mat, _args):
    pairs = homomorphism_residuals(mat.action) if mat.action is not None else []
    return ([Check.from_residual(f"action-homomorphism{pair}", residual)
             for pair, residual in pairs] + check_lie_algebroid(mat.proto.a_side).checks)


def _double(mat, _args):
    theta = mat.proto.theta()
    field, anomaly = double_differential(theta)
    chart = theta.chart

    def squared(v):
        return field.apply(field.apply(SuperPolynomial.variable(chart, v.name)))
    _variable, residual = first_failure(chart.variables, squared, SuperPolynomial.zero(chart))
    return [Check.from_residual("self-commuting-hamiltonian", anomaly),
            Check.from_residual("differential-squares-to-zero", residual)]


def _dirac_check(mat, args):
    structure = crt.structure_from_proto(mat.proto)
    sections = [crt.CourantSection.from_embedded(structure, parse_poly(text, structure.chart))
                for text in args.section or []]
    if not sections:
        raise DocumentError("at least one --section is required")
    return crt.check_dirac(structure, sections).checks


STRUCTURE_COMMANDS = {
    "verify-algebroid": _verify_algebroid,
    "verify-bialgebroid": lambda mat, _args: check_bialgebroid(mat.proto).checks,
    "verify-proto": lambda mat, _args: check_proto(mat.proto).checks,
    "double": _double,
    "courant-verify": lambda mat, _args: crt.verify_axioms(
        crt.structure_from_proto(mat.proto)).checks,
    "dirac-check": _dirac_check,
    "shla-check": lambda mat, args: crt.shla_check(crt.structure_from_proto(mat.proto),
                                                   args.n).checks,
}


def cmd_twist(args) -> Report:
    mat = _load(args)
    twisted = mat.twisted
    if twisted is None:
        raise DocumentError("twist applies to exact-courant documents")
    if args.omega is not None:
        omega = parse_poly(args.omega, twisted.structure.chart)
        twisted = crt.twist_exact(twisted.proto, twisted.phi_raw, omega)
    checks = crt.verify_axioms(twisted.structure).checks
    # theta is mu + phi and {phi, form} = 0, so {theta, form} is d(form); on
    # R^n a closed form is exact
    d = twisted.structure.theta_bracket
    for name, form in (("gauge-difference-exact", twisted.phi - twisted.phi_raw),
                       ("twist-closed", twisted.phi)):
        residual = d(form)
        checks.append(Check.from_residual(name, residual, str(residual.is_zero())))
    return Report(checks, _echo(args, "twist"))


def _rational(text, what) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DocumentError(f"{what} must be a rational number, got {text!r}") from None


def _necklace_parameter(args):
    if args.c is not None:
        return _rational(args.c, "c")
    doc = _document(args)
    if doc is not None and doc.kind == "necklace" and "c" in doc.scalars:
        return _rational(doc.scalars["c"], "c")
    raise DocumentError("a family parameter is required (--c or a necklace document)")


def cmd_cohomology(args) -> Report:
    c = _necklace_parameter(args)
    checks = []
    if abs(c) < 1:
        local = None
        for n in range(0, args.modes + 1):
            rep = mode_cohomology(c, n, args.truncate)
            if n == 0:
                local = rep
            gens = "; ".join(", ".join(g) for g in rep.generators if g)
            note = f"dims {rep.dims}" + (f" generators [{gens}]" if gens else "")
            checks.append(Check(f"mode-{n}", PASS, note=note))
        result = global_assembly(c, local)
    else:
        result = global_assembly(c)
    gens = "; ".join(", ".join(g) for g in result.generators if g)
    checks.append(Check("global", PASS, note=f"dims {result.dims} generators [{gens}]"))
    for key, value in result.provenance.items():
        status = RECORDED if "recorded" in str(value) else PASS
        checks.append(Check(f"provenance-{key.replace(' ', '-')}", status, note=str(value)))
    return Report(checks, f"cohomology --c {c} --modes {args.modes} --truncate {args.truncate}")


def cmd_invariants(args) -> Report:
    c = _necklace_parameter(args)
    structure = build_structures(c)
    ids = structure_identities(structure, _rational(args.cprime, "cprime"), args.truncate)
    checks = [Check.decided(name, ok) for name, ok in ids.items()]
    h, desc, value = modular_and_volume(structure)
    checks.append(Check.from_residual("modular-field", canonical_bracket(h, structure.pi_c),
                                      "s*d_t - t*d_s (disk chart)"))
    if value is not None:
        checks.append(Check("symplectic-volume", PASS, note=f"{desc} = {value!r}"))
    checks.append(Check.decided("structure-is-poisson",
                                schouten_square(structure.pi_c).is_zero()))
    return Report(checks, f"invariants --c {c}")


def _integer(low, high=None):
    """argparse type: an integer no smaller than `low` and, if given, no larger than `high`."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="bigbracket",
        description="exact checker for graded symplectic structure data")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_doc=True):
        if needs_doc:
            p.add_argument("--preset", help="preset name")
            p.add_argument("--spec", help="path to a structure document")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--timing", action="store_true", help="print elapsed time to stderr")

    parsers = {}
    for name, gate in STRUCTURE_COMMANDS.items():
        p = parsers[name] = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=_structure_command(name, gate))
    parsers["dirac-check"].add_argument(
        "--section", action="append",
        help="total-degree-1 polynomial spanning the subbundle; repeatable")
    # l_k = 0 for k > 3, so no term of an identity of arity 5 or more is evaluated
    parsers["shla-check"].add_argument("--n", type=_integer(1, 4), default=4,
                                       help="check identities up to this arity (1 to 4)")

    p = sub.add_parser("twist")
    common(p)
    p.add_argument("--omega", help="gauge two-form overriding the document")
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("cohomology")
    common(p)
    p.add_argument("--c", help="rational family parameter (or use a necklace document)")
    p.add_argument("--modes", type=_integer(0), default=5)
    p.add_argument("--truncate", type=_integer(4), default=12)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("invariants")
    common(p)
    p.add_argument("--c", help="rational family parameter (or use a necklace document)")
    p.add_argument("--cprime", default="1/2")
    p.add_argument("--truncate", type=_integer(3), default=12)
    p.set_defaults(fn=cmd_invariants)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return USAGE_EXIT if exc.code else 0
    started = time.perf_counter()
    try:
        report = args.fn(args)
    except (ValueError, AssemblyError, StructureIdentityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    sys.stdout.write(report.render(args.format))
    if getattr(args, "timing", False):
        print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
