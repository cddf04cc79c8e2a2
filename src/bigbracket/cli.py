"""Command surface: structure verification, doubles, cohomology, reports.

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage or parse
error.  Output is deterministic; timing is printed to stderr on request.
"""
from __future__ import annotations

import argparse
import re
import sys
import time
from fractions import Fraction

from . import courant as crt
from .algebroid import (ProtoBialgebroidSpec, SpecError, brst_theta,
                        check_bialgebroid, check_lie_algebroid, check_proto,
                        double_differential, swap_proto)
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

# Options taking a rational that may be negative.  argparse reads a following
# word such as -1/2 as an option (it only recognises -3 or -0.5 as numbers),
# so `--c -1/2` is joined into `--c=-1/2` before parsing.
_RATIONAL_OPTIONS = ("--c", "--cprime")
_NEGATIVE_WORD = re.compile(r"-[0-9.]")


def _join_negative_values(argv):
    out = []
    for word in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and _NEGATIVE_WORD.match(word):
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
    doc = _document(args)
    if doc is None:
        raise DocumentError("one of --preset or --spec is required")
    return materialize(doc)


def _twisted(mat: Materialized, omega_text=None) -> "crt.TwistedStructure":
    """The twisted standard structure of an exact-courant document.

    phi and omega are read here only; omega_text overrides the document's.
    """
    if mat.doc.kind != "exact-courant":
        raise DocumentError("twist applies to exact-courant documents")
    n = len(mat.doc.base_names)
    chart = crt.standard_proto(n).a_side.chart
    phi = parse_poly(mat.doc.scalars.get("phi", "0"), chart)
    omega_text = omega_text or mat.doc.scalars.get("omega")
    omega = parse_poly(omega_text, chart) if omega_text is not None else None
    return crt.twist_exact(phi, omega=omega, dim=n)


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
        for pair, residual in mat.action.homomorphism_residuals():
            report.add(f"action-homomorphism{pair}", residual.is_zero(), str(residual))
        spec = mat.action.action_algebroid()
    elif mat.proto is not None:
        spec = mat.proto.a_side
    else:
        raise DocumentError("document does not describe an anchored bundle")
    for check in check_lie_algebroid(spec).checks:
        report.add_check(check)
    return report


def cmd_verify_bialgebroid(args) -> Report:
    mat = _load(args)
    report = Report(_echo(args, "verify-bialgebroid"))
    if not _violation_checks(report, mat):
        return report
    if mat.proto is None:
        raise DocumentError("document does not carry dual-side data")
    for check in check_bialgebroid(mat.proto).checks:
        report.add_check(check)
    swapped = swap_proto(mat.proto)
    report.add("self-duality", check_bialgebroid(swapped).passed)
    return report


def cmd_verify_proto(args) -> Report:
    mat = _load(args)
    report = Report(_echo(args, "verify-proto"))
    if not _violation_checks(report, mat):
        return report
    proto = _proto_for_courant(mat)
    for check in check_proto(proto).checks:
        report.add_check(check)
    return report


def _proto_for_courant(mat: Materialized) -> ProtoBialgebroidSpec:
    if mat.doc.kind == "exact-courant":
        return _twisted(mat).proto
    if mat.proto is not None:
        return mat.proto
    if mat.action is not None:
        return ProtoBialgebroidSpec.build(mat.action.action_algebroid())
    raise DocumentError("document kind does not define a cubic hamiltonian")


def cmd_double(args) -> Report:
    mat = _load(args)
    report = Report(_echo(args, "double"))
    if not _violation_checks(report, mat):
        return report
    if mat.action is not None:
        theta = brst_theta(mat.action)
    elif mat.proto is not None:
        theta = mat.proto.theta()
    else:
        raise DocumentError("document kind does not define a double")
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
    structure = _structure_of(mat)
    for check in crt.verify_axioms(structure).checks:
        report.add_check(check)
    return report


def _structure_of(mat: Materialized) -> "crt.CourantStructure":
    if mat.doc.kind == "exact-courant":
        return _twisted(mat).structure
    if mat.proto is not None:
        return crt.structure_from_proto(mat.proto)
    if mat.action is not None:
        return crt.CourantStructure(brst_theta(mat.action))
    raise DocumentError("document kind does not define a doubled structure")


def cmd_dirac_check(args) -> Report:
    mat = _load(args)
    report = Report(_echo(args, "dirac-check"))
    if not _violation_checks(report, mat):
        return report
    structure = _structure_of(mat)
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
    structure = _structure_of(mat)
    for n in range(1, args.n + 1):
        for check in crt.shla_check(structure, n).checks:
            report.add_check(check)
    return report


def cmd_twist(args) -> Report:
    mat = _load(args)
    report = Report(_echo(args, "twist"))
    twisted = _twisted(mat, args.omega)
    for check in crt.verify_axioms(twisted.structure).checks:
        report.add_check(check)
    diff = twisted.phi - twisted.phi_raw.substitute(twisted.structure.chart, {})
    report.add_info("gauge-difference-exact",
                    str(crt.is_exact_difference(twisted.structure.bundle, diff)))
    closed = crt.de_rham_on_fibers(twisted.structure.bundle, twisted.phi).is_zero()
    report.add_info("twist-closed", str(closed))
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
    ids = structure_identities(c, _rational(args.cprime, "cprime"), args.truncate)
    for name, ok in ids.items():
        report.add(name, ok)
    field, desc, value = modular_and_volume(c)
    report.add_info("modular-field", "s*d_t - t*d_s (disk chart)")
    if value is not None:
        report.add_info("symplectic-volume", f"{desc} = {value!r}")
    structure = build_structures(c)
    report.add("structure-is-poisson", schouten_square(structure.pi_c).is_zero())
    return report


def _at_least(low):
    """argparse type: an integer no smaller than `low`."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--n", type=_at_least(1), default=4,
                   help="check identities up to this arity")
    p.set_defaults(fn=cmd_shla_check)

    p = sub.add_parser("twist")
    common(p)
    p.add_argument("--omega", help="gauge two-form overriding the document")
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("cohomology")
    common(p)
    p.add_argument("--c", help="rational family parameter (or use a necklace document)")
    p.add_argument("--modes", type=_at_least(0), default=5)
    p.add_argument("--truncate", type=_at_least(4), default=12)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("invariants")
    common(p)
    p.add_argument("--c", help="rational family parameter (or use a necklace document)")
    p.add_argument("--cprime", default="1/2")
    p.add_argument("--truncate", type=int, default=12)
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
