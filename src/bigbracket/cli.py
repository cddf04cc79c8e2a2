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
from .algebroid import (SpecError, check_bialgebroid, check_lie_algebroid, check_proto,
                        double_differential, homomorphism_residuals)
from .brackets import canonical_bracket
from .chart import ChartError
from .necklace import (AssemblyError, RecordedConstants, StructureIdentityError,
                       TruncationInstability, build_structures, global_assembly,
                       mode_cohomology, modular_and_volume, schouten_square,
                       structure_identities)
from .parsing import ParseError, parse_poly
from .poly import SuperPolynomial
from .report import Report
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


def _violation_checks(report: Report, mat: Materialized) -> bool:
    if mat.doc.completed:
        report.add_info("antisymmetry-completion",
                        f"auto-completed {mat.doc.completed} mirrored entries")
    for label, residual in mat.violations:
        report.add(label, False, str(residual))
    return not mat.violations


def cmd_verify_algebroid(args) -> Report:
    mat = _load(args)
    report = Report(_echo(args, "verify-algebroid"))
    if not _violation_checks(report, mat):
        return report
    if mat.action is not None:
        for pair, residual in homomorphism_residuals(mat.action):
            report.add(f"action-homomorphism{pair}", residual.is_zero(), str(residual))
    for check in check_lie_algebroid(mat.proto.a_side).checks:
        report.add_check(check)
    return report


def cmd_verify_bialgebroid(args) -> Report:
    mat = _load(args)
    report = Report(_echo(args, "verify-bialgebroid"))
    if not _violation_checks(report, mat):
        return report
    for check in check_bialgebroid(mat.proto).checks:
        report.add_check(check)
    return report


def cmd_verify_proto(args) -> Report:
    mat = _load(args)
    report = Report(_echo(args, "verify-proto"))
    if not _violation_checks(report, mat):
        return report
    for check in check_proto(mat.proto).checks:
        report.add_check(check)
    return report


def cmd_double(args) -> Report:
    mat = _load(args)
    report = Report(_echo(args, "double"))
    if not _violation_checks(report, mat):
        return report
    theta = mat.proto.theta()
    field, anomaly = double_differential(theta)
    report.add("self-commuting-hamiltonian", anomaly.is_zero(), str(anomaly))
    ok = True
    witness = None
    for v in theta.chart.variables:
        r = field.apply(field.apply(SuperPolynomial.variable(theta.chart, v.name)))
        if not r.is_zero():
            ok = False
            witness = r
            break
    report.add("differential-squares-to-zero", ok,
               str(witness) if witness is not None else None)
    return report


def cmd_courant_verify(args) -> Report:
    mat = _load(args)
    report = Report(_echo(args, "courant-verify"))
    if not _violation_checks(report, mat):
        return report
    structure = crt.structure_from_proto(mat.proto)
    for check in crt.verify_axioms(structure).checks:
        report.add_check(check)
    return report


def cmd_dirac_check(args) -> Report:
    mat = _load(args)
    report = Report(_echo(args, "dirac-check"))
    if not _violation_checks(report, mat):
        return report
    structure = crt.structure_from_proto(mat.proto)
    sections = []
    for text in args.section or []:
        poly = parse_poly(text, structure.chart)
        sections.append(crt.CourantSection.from_embedded(structure, poly))
    if not sections:
        raise DocumentError("at least one --section is required")
    for check in crt.check_dirac(structure, sections).checks:
        report.add_check(check)
    return report


def cmd_shla_check(args) -> Report:
    mat = _load(args)
    report = Report(_echo(args, "shla-check"))
    if not _violation_checks(report, mat):
        return report
    structure = crt.structure_from_proto(mat.proto)
    for n in range(1, args.n + 1):
        for check in crt.shla_check(structure, n).checks:
            report.add_check(check)
    return report


def cmd_twist(args) -> Report:
    mat = _load(args)
    report = Report(_echo(args, "twist"))
    twisted = mat.twisted
    if twisted is None:
        raise DocumentError("twist applies to exact-courant documents")
    if args.omega is not None:
        omega = parse_poly(args.omega, twisted.structure.chart)
        twisted = crt.twist_exact(twisted.proto, twisted.phi_raw, omega)
    for check in crt.verify_axioms(twisted.structure).checks:
        report.add_check(check)
    # theta is mu + phi and {phi, form} = 0, so {theta, form} is d(form); on
    # R^n a closed form is exact
    d = twisted.structure.theta_bracket
    for name, form in (("gauge-difference-exact", twisted.phi - twisted.phi_raw),
                       ("twist-closed", twisted.phi)):
        residual = d(form)
        report.add(name, residual.is_zero(), str(residual), str(residual.is_zero()))
    return report


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
    report = Report(f"cohomology --c {c} --modes {args.modes} --truncate {args.truncate}")
    if abs(c) < 1:
        local = None
        for n in range(0, args.modes + 1):
            rep = mode_cohomology(c, n, args.truncate)
            if n == 0:
                local = rep
            gens = "; ".join(", ".join(g) for g in rep.generators if g)
            note = f"dims {rep.dims}" + (f" generators [{gens}]" if gens else "")
            report.add_info(f"mode-{n}", note)
        result = global_assembly(c, local, RecordedConstants())
    else:
        result = global_assembly(c)
    gens = "; ".join(", ".join(g) for g in result.generators if g)
    report.add_info("global", f"dims {result.dims} generators [{gens}]")
    for key, value in result.provenance.items():
        if "recorded" in str(value):
            report.add_recorded(f"provenance-{key.replace(' ', '-')}", str(value))
        else:
            report.add_info(f"provenance-{key.replace(' ', '-')}", str(value))
    return report


def cmd_invariants(args) -> Report:
    c = _necklace_parameter(args)
    report = Report(f"invariants --c {c}")
    structure = build_structures(c)
    ids = structure_identities(structure, _rational(args.cprime, "cprime"), args.truncate)
    for name, ok in ids.items():
        report.add(name, ok)
    h, desc, value = modular_and_volume(structure)
    residual = canonical_bracket(h, structure.pi_c)
    report.add("modular-field", residual.is_zero(), str(residual), "s*d_t - t*d_s (disk chart)")
    if value is not None:
        report.add_info("symplectic-volume", f"{desc} = {value!r}")
    report.add("structure-is-poisson", schouten_square(structure.pi_c).is_zero())
    return report


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

    for name, fn in (
        ("verify-algebroid", cmd_verify_algebroid),
        ("verify-bialgebroid", cmd_verify_bialgebroid),
        ("verify-proto", cmd_verify_proto),
        ("double", cmd_double),
        ("courant-verify", cmd_courant_verify),
    ):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("dirac-check")
    common(p)
    p.add_argument("--section", action="append",
                   help="total-degree-1 polynomial spanning the subbundle; repeatable")
    p.set_defaults(fn=cmd_dirac_check)

    p = sub.add_parser("shla-check")
    common(p)
    # l_k = 0 for k > 3, so no term of an identity of arity 5 or more is evaluated
    p.add_argument("--n", type=_integer(1, 4), default=4,
                   help="check identities up to this arity (1 to 4)")
    p.set_defaults(fn=cmd_shla_check)

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
    except (DocumentError, ParseError, SpecError, ChartError, ValueError,
            AssemblyError, StructureIdentityError, TruncationInstability) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    sys.stdout.write(report.render(args.format))
    if getattr(args, "timing", False):
        print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
