"""Verdicts: one record per check, the sweep that decides a quantified
check, and the deterministic text and JSON renderings of a report.

An engine gate returns a `Report` of `Check` records; a command collects
them into its own report, which is rendered in order.  Reruns are
byte-identical (timing, when requested, goes to stderr).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS, FAIL, RECORDED = "pass", "fail", "recorded"


@dataclass
class Check:
    """One verdict: a name, a status (pass, fail or recorded), the residual
    that decided it, if any, and a note.  Only a failing line shows its
    residual."""
    name: str
    status: str
    residual: object = None
    note: str = ""

    @staticmethod
    def decided(name, ok, residual=None, note=""):
        return Check(name, PASS if ok else FAIL, residual, note)

    @staticmethod
    def from_residual(name, residual, note=""):
        """Passes exactly when the residual is zero."""
        return Check.decided(name, residual.is_zero(), residual, note)

    @property
    def passed(self) -> bool:
        return self.status != FAIL

    @property
    def shown_residual(self) -> str | None:
        return str(self.residual) if self.status == FAIL and self.residual is not None else None


@dataclass
class Report:
    """The checks of a gate or a command, in order; a command's report also
    echoes its command line."""
    checks: list = field(default_factory=list)
    command: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def render_text(self) -> str:
        out = [f"command: {self.command}"]
        for c in self.checks:
            piece = f"check {c.name}: {c.status}"
            residual = c.shown_residual
            if residual is not None:
                piece += f" residual={residual}"
            if c.note:
                piece += f" ({c.note})"
            out.append(piece)
        count = {status: sum(1 for c in self.checks if c.status == status)
                 for status in (PASS, FAIL, RECORDED)}
        verdict = "PASS" if self.passed else "FAIL"
        tail = f"result: {verdict} ({count[PASS]} pass, {count[FAIL]} fail"
        tail += f", {count[RECORDED]} recorded)" if count[RECORDED] else ")"
        out.append(tail)
        return "\n".join(out) + "\n"

    def render_json(self) -> str:
        doc = {
            "command": self.command,
            "checks": [
                {"name": c.name, "status": c.status, "residual": c.shown_residual,
                 "note": c.note or None}
                for c in self.checks
            ],
            "result": "PASS" if self.passed else "FAIL",
        }
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"

    def render(self, fmt: str) -> str:
        return self.render_json() if fmt == "json" else self.render_text()


def first_failure(tuples, evaluate, zero, prefix=None):
    """(index, residual) at the first of `tuples` whose identity fails, else (None, zero).

    `evaluate(index)` returns the identity's residual, or its two sides
    (lhs, rhs).  Neither side stores a zero coefficient, so the sides are
    equal exactly when their term dicts are, and only the failing index
    subtracts.  The sweep stops at its first failure.

    `prefix`, when given, is swept first: the caller's tuples on which the
    identity holds everywhere if it holds at all (in `verify_axioms`, those
    of the basis sections).  Only a failure there sweeps `tuples`, so the
    result is always that of the whole sweep.
    """
    if prefix is not None and first_failure(prefix, evaluate, zero)[0] is None:
        return None, zero
    for index in tuples:
        value = evaluate(index)
        if type(value) is tuple:
            lhs, rhs = value
            if lhs.terms != rhs.terms:
                return index, lhs - rhs
        elif not value.is_zero():
            return index, value
    return None, zero
