"""Structure-specification documents: the on-disk format behind the CLI.

A document declares a kind (algebroid, bialgebroid, proto, exact-courant,
brst, necklace), base coordinates and polynomial-valued entries.  Structure
tables are antisymmetrized: missing mirror entries are completed (and
counted), while contradictory entries become data violations that verify
commands report as failing checks rather than parse errors.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .algebroid import (AlgebroidSpec, LieAlgebraAction, ProtoBialgebroidSpec,
                        dual_chart_for)
from .chart import cotangent_chart
from .parsing import ParseError, parse_poly

PRESET_NAMES = (
    "su2-bialgebra", "tangent-R1", "tangent-R2", "tangent-R3",
    "standard-R1", "standard-R2", "standard-R3",
    "brst-so2-on-R2", "weil-su2", "poisson-R2", "exact-twist-R3",
)


class DocumentError(ValueError):
    pass


@dataclass
class SpecDocument:
    kind: str
    base_names: tuple
    rank: int
    entries: dict                 # ("A"|"C"|"Abar"|"Cbar"|"lie"|"rho", idx tuple) -> text
    scalars: dict                 # "c", "phi", "omega", "psi", ...
    completed: int = 0            # auto-completed antisymmetric entries
    violations: list = field(default_factory=list)   # (label, residual text)

    @property
    def fiber_names(self):
        return tuple(f"xi{k+1}" for k in range(self.rank))


_INT_KEYS = {"rank", "dim"}
_TABLE_ARITY = {"A": 2, "C": 3, "Abar": 2, "Cbar": 3, "lie": 3, "rho": 2}
_KINDS = {"algebroid", "bialgebroid", "proto", "exact-courant", "brst", "necklace"}


def parse_document(text: str) -> SpecDocument:
    kind = None
    base = ()
    rank = 0
    entries = {}
    scalars = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line and "=" not in line:
            key, _, value = line.partition(":")
            key = key.strip()
            value = value.strip()
            if key == "kind":
                if value not in _KINDS:
                    raise DocumentError(f"line {lineno}: unknown kind {value!r}")
                kind = value
            elif key == "base":
                base = tuple(value.split())
            elif key in _INT_KEYS:
                rank = int(value)
            elif key == "name":
                scalars["name"] = value
            else:
                raise DocumentError(f"line {lineno}: unknown header {key!r}")
            continue
        if "=" not in line:
            raise DocumentError(f"line {lineno}: expected 'key = value'")
        lhs, _, rhs = line.partition("=")
        lhs = lhs.strip()
        rhs = rhs.strip()
        if "[" in lhs:
            name = lhs[:lhs.index("[")]
            if name not in _TABLE_ARITY:
                raise DocumentError(f"line {lineno}: unknown table {name!r}")
            idx_text = lhs[lhs.index("["):]
            idx = []
            rest = idx_text
            while rest:
                if not rest.startswith("["):
                    raise DocumentError(f"line {lineno}: malformed index in {lhs!r}")
                close = rest.index("]")
                idx.append(int(rest[1:close]))
                rest = rest[close + 1:]
            if len(idx) != _TABLE_ARITY[name]:
                raise DocumentError(
                    f"line {lineno}: {name} takes {_TABLE_ARITY[name]} indices")
            entries[(name, tuple(idx))] = rhs
        else:
            scalars[lhs] = rhs
    if kind is None:
        raise DocumentError("missing 'kind:' header")
    return SpecDocument(kind, base, rank, entries, scalars)


def load_preset(name: str) -> SpecDocument:
    if name not in PRESET_NAMES:
        raise DocumentError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    data = resources.files("bigbracket").joinpath("presets", f"{name}.spec").read_text()
    return parse_document(data)


def load_document(path: str) -> SpecDocument:
    """The document in the file at `path`; shipped presets go through load_preset."""
    p = Path(path)
    if not p.is_file():
        raise DocumentError(f"spec file {path!r} does not exist or is not a file")
    return parse_document(p.read_text())


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------


def _parse_entry(text, chart, label):
    try:
        return parse_poly(text, chart)
    except ParseError as exc:
        raise DocumentError(f"{label}: {exc}") from None


def _collect_table(doc, name, chart, violations, label):
    """Parse and antisymmetrize a structure table from document entries."""
    raw = {}
    for (tname, idx), text in doc.entries.items():
        if tname != name:
            continue
        raw[idx] = _parse_entry(text, chart, f"{label}{list(idx)}")
    completed = 0
    table = {}
    for (a, b, c), poly in raw.items():
        if a == b:
            if not poly.is_zero():
                violations.append((f"{label}-antisymmetry({a},{b},{c})", poly + poly))
            continue
        mirror = raw.get((b, a, c))
        if mirror is None:
            table[(a, b, c)] = poly
            table[(b, a, c)] = -poly
            completed += 1
        else:
            if not (poly + mirror).is_zero():
                violations.append((f"{label}-antisymmetry({a},{b},{c})", poly + mirror))
            table[(a, b, c)] = poly
            table[(b, a, c)] = mirror
    return table, completed


@dataclass
class Materialized:
    doc: SpecDocument
    proto: ProtoBialgebroidSpec | None = None
    action: LieAlgebraAction | None = None

    @property
    def violations(self):
        return self.doc.violations


def materialize(doc: SpecDocument) -> Materialized:
    """Build the structure objects a document describes.

    Data violations (broken antisymmetry) are collected on the document
    rather than raised, so verification commands can print them as failing
    checks with residuals.
    """
    doc.violations = []
    if doc.kind == "necklace":
        return Materialized(doc)
    if doc.kind == "brst":
        chart = cotangent_chart(doc.base_names, tuple(f"xi{k+1}" for k in range(doc.rank))).chart
        lie, _ = _collect_table(doc, "lie", chart, doc.violations, "lie")
        rho = {}
        for (tname, idx), text in doc.entries.items():
            if tname == "rho":
                rho[idx] = _parse_entry(text, chart, f"rho{list(idx)}")
        action = LieAlgebraAction(doc.base_names, doc.rank,
                                  {k: v for k, v in lie.items()}, rho)
        return Materialized(doc, action=action)

    bundle = cotangent_chart(doc.base_names, doc.fiber_names)
    chart = bundle.chart
    anchor = {}
    for (tname, idx), text in doc.entries.items():
        if tname == "A":
            anchor[idx] = _parse_entry(text, chart, f"A{list(idx)}")
    structure, comp1 = _collect_table(doc, "C", chart, doc.violations, "C")
    doc.completed = comp1
    if doc.violations:
        return Materialized(doc)
    a_side = AlgebroidSpec.build(doc.base_names, doc.fiber_names, anchor, structure,
                                 bundle=bundle)
    dual_bundle = dual_chart_for(a_side)
    dchart = dual_bundle.chart
    anchor_d = {}
    for (tname, idx), text in doc.entries.items():
        if tname == "Abar":
            anchor_d[idx] = _parse_entry(text, dchart, f"Abar{list(idx)}")
    structure_d, comp2 = _collect_table(doc, "Cbar", dchart, doc.violations, "Cbar")
    doc.completed += comp2
    if doc.violations:
        return Materialized(doc)
    astar = AlgebroidSpec.build(doc.base_names, tuple(f.name for f in dual_bundle.fiber),
                                anchor_d, structure_d, bundle=dual_bundle)
    phi = None
    if "phi" in doc.scalars:
        phi = _parse_entry(doc.scalars["phi"], chart, "phi")
    psi = None
    if "psi" in doc.scalars:
        psi = _parse_entry(doc.scalars["psi"], dchart, "psi")
    proto = ProtoBialgebroidSpec(a_side, astar, phi, psi)
    return Materialized(doc, proto=proto)
