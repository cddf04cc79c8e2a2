"""Structure-specification documents: the on-disk format behind the CLI.

A document declares a kind (algebroid, bialgebroid, proto, exact-courant,
brst, necklace), base coordinates and polynomial-valued entries; each kind
reads a fixed set of tables and scalars, and any other is a parse error.
Structure tables go through `algebroid.antisymmetrize`: missing mirror
entries are completed (and counted), while contradictory entries become data
violations that verify commands report as failing checks rather than parse
errors.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .algebroid import AlgebroidSpec, ProtoBialgebroidSpec, antisymmetrize, dual_chart_for
from .chart import cotangent_chart
from .courant import TwistedStructure, standard_proto, twist_exact
from .parsing import _DIGITS, ParseError, parse_poly

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
    lines: dict = field(default_factory=dict)        # each key given -> its line number

    @property
    def fiber_names(self):
        return tuple(f"xi{k+1}" for k in range(self.rank))


_INT_KEYS = {"rank", "dim"}
_TABLE_ARITY = {"A": 2, "C": 3, "Abar": 2, "Cbar": 3, "lie": 3, "rho": 2}
_GENERIC = ("A", "C", "Abar", "Cbar", "phi", "psi")
# The tables and scalars each kind reads; `name` is allowed on every kind.
_READS = {"algebroid": _GENERIC, "bialgebroid": _GENERIC, "proto": _GENERIC,
          "brst": ("lie", "rho"), "exact-courant": ("phi", "omega"), "necklace": ("c",)}


def _check_reads(kind, entries, scalars):
    """Reject the tables and scalars a document's kind does not read."""
    reads = _READS[kind]
    unread = sorted(({name for name, _idx in entries} | set(scalars))
                    - set(reads) - {"name"})
    if unread:
        listing = " and ".join(", ".join(reads).rsplit(", ", 1))
        article = "an" if kind[0] in "ae" else "a"
        raise DocumentError(f"{article} {kind} document reads only {listing}, "
                            f"not {', '.join(unread)}")


def _numeral(text) -> bool:
    """Whether `text` is one or more of the ASCII digits 0-9 and nothing else."""
    return bool(text) and all(ch in _DIGITS for ch in text)


def parse_document(text: str) -> SpecDocument:
    kind = None
    base = ()
    rank = 0
    entries = {}
    scalars = {}
    first_line = {}               # key set so far -> the line that set it

    def claim(key, lineno, label):
        if first_line.setdefault(key, lineno) != lineno:
            raise DocumentError(f"line {lineno}: {label} repeats line {first_line[key]}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line and "=" not in line:
            key, _, value = line.partition(":")
            key = key.strip()
            value = value.strip()
            claim("rank" if key in _INT_KEYS else key, lineno, key)
            if key == "kind":
                if value not in _READS:
                    raise DocumentError(f"line {lineno}: unknown kind {value!r}")
                kind = value
            elif key == "base":
                base = tuple(value.split())
            elif key in _INT_KEYS:
                # int() alone also reads "٢", "1_0" and "+1"
                if not _numeral(value.removeprefix("-")):
                    raise DocumentError(f"line {lineno}: {key} must be an integer")
                rank = int(value)
                if rank < 0:
                    raise DocumentError(f"line {lineno}: {key} must not be negative")
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
                close = rest.find("]")
                number = rest[1:close].strip() if close > 0 and rest[0] == "[" else ""
                if not _numeral(number):
                    raise DocumentError(f"line {lineno}: malformed index in {lhs!r}")
                idx.append(int(number))
                rest = rest[close + 1:]
            if len(idx) != _TABLE_ARITY[name]:
                raise DocumentError(
                    f"line {lineno}: {name} takes {_TABLE_ARITY[name]} indices")
            claim((name, tuple(idx)), lineno, name + "".join(f"[{i}]" for i in idx))
            entries[(name, tuple(idx))] = rhs
        else:
            claim(lhs, lineno, lhs)
            scalars[lhs] = rhs
    if kind is None:
        raise DocumentError("missing 'kind:' header")
    _check_reads(kind, entries, scalars)
    return SpecDocument(kind, base, rank, entries, scalars, lines=first_line)


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


def _parse_entry(text, chart, label, line):
    try:
        return parse_poly(text, chart)
    except ParseError as exc:
        raise DocumentError(f"line {line}: {label}: {exc}") from None


def _scalar(doc, name, chart):
    """The parsed scalar `name`, or None when the document does not give it."""
    text = doc.scalars.get(name)
    return None if text is None else _parse_entry(text, chart, name, doc.lines.get(name))


def _table(doc, name, chart):
    """The parsed entries {idx: poly} of one table of the document."""
    return {idx: _parse_entry(text, chart, f"{name}{list(idx)}", doc.lines.get((tname, idx)))
            for (tname, idx), text in doc.entries.items() if tname == name}


def _structure_table(doc, name, chart):
    """A structure table's entries, its completions and violations recorded on doc."""
    entries = _table(doc, name, chart)
    _full, completed, violations = antisymmetrize(entries)
    doc.completed += completed
    doc.violations += [(f"{name}-antisymmetry({a},{b},{c})", residual)
                       for (a, b, c), residual in violations]
    return entries


@dataclass
class Materialized:
    """A document with the one proto-bialgebroid every structure command checks.

    proto is None only for a necklace document and for a document with data
    violations.  action is the action algebroid of a brst document, read by
    the action-homomorphism lines; twisted is the twisted standard structure
    of an exact-courant document, read by the gauge lines of `twist`.
    """
    doc: SpecDocument
    proto: ProtoBialgebroidSpec | None = None
    action: AlgebroidSpec | None = None
    twisted: TwistedStructure | None = None

    @property
    def violations(self):
        return self.doc.violations


def materialize(doc: SpecDocument) -> Materialized:
    """Build the proto-bialgebroid a document describes, whatever its kind.

    - algebroid, bialgebroid, proto: the A, C, Abar and Cbar tables and the
      cubic terms phi (primal chart) and psi (dual chart);
    - brst: the action algebroid of the lie and rho tables against the zero
      dual structure;
    - exact-courant: the standard structure on R^n (identity anchor, zero
      dual) twisted by phi + d(omega), both read on the standard chart.

    Data violations (broken antisymmetry) are collected on the document
    rather than raised, so verification commands can print them as failing
    checks with residuals.
    """
    doc.completed = 0
    doc.violations = []
    if doc.kind == "necklace":
        return Materialized(doc)
    if doc.kind == "exact-courant":
        return _materialize_exact(doc)
    bundle = cotangent_chart(doc.base_names, doc.fiber_names)
    chart = bundle.chart
    brst = doc.kind == "brst"
    anchor = _table(doc, "rho" if brst else "A", chart)
    structure = _structure_table(doc, "lie" if brst else "C", chart)
    if doc.violations:
        return Materialized(doc)
    a_side = AlgebroidSpec.build(doc.base_names, doc.fiber_names, anchor, structure,
                                 bundle=bundle)
    # a brst document has no dual tables or cubic terms: the zero dual structure
    dual_bundle = dual_chart_for(a_side)
    dchart = dual_bundle.chart
    anchor_d = _table(doc, "Abar", dchart)
    structure_d = _structure_table(doc, "Cbar", dchart)
    if doc.violations:
        return Materialized(doc)
    astar = AlgebroidSpec.build(doc.base_names, tuple(f.name for f in dual_bundle.fiber),
                                anchor_d, structure_d, bundle=dual_bundle)
    proto = ProtoBialgebroidSpec(a_side, astar, _scalar(doc, "phi", chart),
                                 _scalar(doc, "psi", dchart))
    return Materialized(doc, proto, a_side if brst else None)


def _materialize_exact(doc: SpecDocument) -> Materialized:
    n = len(doc.base_names)
    if doc.rank != n:
        raise DocumentError(f"exact-courant rank {doc.rank} differs from the base "
                            f"dimension {n}")
    std = standard_proto(n)
    chart = std.a_side.chart
    phi = _parse_entry(doc.scalars.get("phi", "0"), chart, "phi", doc.lines.get("phi"))
    twisted = twist_exact(std, phi, _scalar(doc, "omega", chart))
    return Materialized(doc, twisted.proto, twisted=twisted)
