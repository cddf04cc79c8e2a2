"""Per-layer tracing of the engine from outside, without touching its source.

Each traced function is replaced by a wrapper at every place it is bound by
name: module globals (``from .brackets import canonical_bracket`` copies the
function into ``courant``, ``algebroid``, ``necklace`` and ``cli``) and class
attributes (``__add__`` and ``__radd__`` are one function).  Wrappers only
update aggregate counters; nothing is recorded per call, because the hot
leaves run millions of times per pass.

Timed wrappers keep a stack of child time, so ``self`` time excludes the
time spent in other timed functions.  ``brackets.canonical.s`` is reported
as self time; every other ``.s`` metric is inclusive.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

# (metric key, module, qualified name, mode): "timed" keeps calls and time,
# "counted" only calls.  Keys are the metric names without ".calls" / ".s".
TRACED = (
    ("poly.partial", "poly", "SuperPolynomial.partial", "timed"),
    ("poly.mul", "poly", "SuperPolynomial.__mul__", "timed"),
    ("poly.add", "poly", "SuperPolynomial.__add__", "timed"),
    ("poly.substitute", "poly", "SuperPolynomial.substitute", "timed"),
    ("rationals.mul", "rationals", "GaussianRational.__mul__", "counted"),
    ("rationals.add", "rationals", "GaussianRational.__add__", "counted"),
    ("brackets.canonical", "brackets", "canonical_bracket", "timed"),
    ("brackets.derived", "brackets", "derived_bracket", "timed"),
    ("courant.verify_axioms", "courant", "verify_axioms", "timed"),
    ("courant.shla_check", "courant", "shla_check", "timed"),
    ("courant.shla_identity", "courant", "shla_identity", "timed"),
    ("courant.circ", "courant", "circ", "timed"),
    ("courant.skew_bracket", "courant", "skew_bracket", "timed"),
    ("courant.from_embedded", "courant", "CourantSection.from_embedded", "timed"),
    ("courant.t_tensor", "courant", "t_tensor", "timed"),
    ("courant.check_dirac", "courant", "check_dirac", "timed"),
    ("algebroid.check_lie_algebroid", "algebroid", "check_lie_algebroid", "timed"),
    ("algebroid.check_bialgebroid", "algebroid", "check_bialgebroid", "timed"),
    ("algebroid.check_proto", "algebroid", "check_proto", "timed"),
    ("algebroid.theta", "algebroid", "ProtoBialgebroidSpec.theta", "timed"),
    ("algebroid.double_differential", "algebroid", "double_differential", "timed"),
    ("cartan.apply", "cartan", "VectorField.apply", "timed"),
    ("necklace.mode_cohomology", "necklace", "mode_cohomology", "timed"),
    ("necklace.structure_identities", "necklace", "structure_identities", "timed"),
    ("linalg.rref", "linalg", "_rref", "timed"),
    ("linalg.nullspace", "linalg", "nullspace", "timed"),
    ("linalg.solve", "linalg", "solve", "timed"),
    ("linalg.in_span", "linalg", "in_span", "timed"),
    ("linalg.solve_over_fractions", "linalg", "solve_over_fractions", "timed"),
    ("specfile.load", "specfile", "load_document", "timed"),
    ("specfile.materialize", "specfile", "materialize", "timed"),
    ("parsing.parse_poly", "parsing", "parse_poly", "timed"),
    ("report.render", "report", "Report.render", "timed"),
    ("cli.main", "cli", "main", "timed"),
)


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.total = Counter()
        self.selftime = Counter()
        self.extra = Counter()
        self.skew_keys = set()
        self._stack = [0.0]

    # -- wrappers ------------------------------------------------------------

    def _timed(self, key, fn, after=None):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                tracer.calls[key] += 1
                tracer.total[key] += dt
                tracer.selftime[key] += dt - child
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counted(self, key, fn):
        tracer = self

        def wrapper(*args):
            tracer.calls[key] += 1
            return fn(*args)
        return wrapper

    def _rational_mul(self, fn):
        tracer = self

        def wrapper(a, b):
            tracer.calls["rationals.mul"] += 1
            if a.im or getattr(b, "im", 0):
                tracer.extra["rationals.mul.nonreal"] += 1
            return fn(a, b)
        return wrapper

    # -- what each wrapper records beyond calls and time ----------------------

    def _after_mul(self, args, result):
        other = args[1]
        if hasattr(other, "terms"):
            self.extra["poly.mul.pairs"] += len(args[0].terms) * len(other.terms)
            self.extra["poly.mul.terms_out"] += len(result.terms)

    def _after_canonical(self, args, result):
        self.extra["brackets.canonical.terms_in"] += len(args[0].terms) + len(args[1].terms)
        self.extra["brackets.canonical.terms_out"] += len(result.terms)

    def _after_skew(self, args, result):
        self.skew_keys.add((args[0].embedded, args[1].embedded))

    def _after_rref(self, args, result):
        rows, ncols = args
        self.extra["linalg.cells"] += len(rows) * ncols

    def _after_solve_over_fractions(self, args, result):
        matrix = args[0]
        self.extra["linalg.cells"] += len(matrix) * (len(matrix[0]) + 1 if matrix else 0)

    def _after_main(self, args, result):
        if result == 2:
            self.extra["cli.errors"] += 1

    # -- installation ----------------------------------------------------------

    def install(self, package: str = "bigbracket"):
        """Wrap every traced function wherever the engine binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        after = {"poly.mul": self._after_mul, "brackets.canonical": self._after_canonical,
                 "courant.skew_bracket": self._after_skew, "linalg.rref": self._after_rref,
                 "linalg.solve_over_fractions": self._after_solve_over_fractions,
                 "cli.main": self._after_main}
        for key, module, qualname, mode in TRACED:
            owner = sys.modules[f"{package}.{module}"]
            for part in qualname.split(".")[:-1]:
                owner = getattr(owner, part)
            name = qualname.split(".")[-1]
            raw = owner.__dict__[name]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if key == "rationals.mul":
                wrapper = self._rational_mul(fn)
            elif mode == "counted":
                wrapper = self._counted(key, fn)
            else:
                wrapper = self._timed(key, fn, after.get(key))
            if _rebind(modules, fn, wrapper) == 0:
                raise RuntimeError(f"{module}.{qualname} is bound nowhere")


def _rebind(modules, fn, wrapper) -> int:
    """Replace `fn` by `wrapper` in module globals and class dicts; count sites."""
    sites = 0
    for mod in modules:
        namespace = vars(mod)
        for attr, value in list(namespace.items()):
            if value is fn:
                setattr(mod, attr, wrapper)
                sites += 1
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is fn:
                        setattr(value, cattr, wrapper)
                        sites += 1
                    elif isinstance(cvalue, staticmethod) and cvalue.__func__ is fn:
                        setattr(value, cattr, staticmethod(wrapper))
                        sites += 1
    return sites


def layer_metrics(t: Tracer) -> dict:
    """Every per-layer metric of one traced pass, by metric name."""
    c, s, x = t.calls, t.total, t.extra
    skew_calls = c["courant.skew_bracket"]
    mul_calls = c["rationals.mul"]
    return {
        "poly.partial.calls": c["poly.partial"],
        "poly.partial.s": s["poly.partial"],
        "poly.mul.calls": c["poly.mul"],
        "poly.mul.s": s["poly.mul"],
        "poly.mul.pairs": x["poly.mul.pairs"],
        "poly.mul.useful_ratio": x["poly.mul.terms_out"] / x["poly.mul.pairs"]
        if x["poly.mul.pairs"] else 0.0,
        "poly.add.calls": c["poly.add"],
        "poly.add.s": s["poly.add"],
        "poly.substitute.s": s["poly.substitute"],
        "rationals.mul.calls": mul_calls,
        "rationals.add.calls": c["rationals.add"],
        "rationals.nonreal_share": x["rationals.mul.nonreal"] / mul_calls if mul_calls else 0.0,
        "brackets.canonical.calls": c["brackets.canonical"],
        "brackets.canonical.s": t.selftime["brackets.canonical"],
        "brackets.canonical.terms_in": x["brackets.canonical.terms_in"],
        "brackets.canonical.terms_out": x["brackets.canonical.terms_out"],
        "brackets.derived.calls": c["brackets.derived"],
        "courant.verify_axioms.s": s["courant.verify_axioms"],
        "courant.shla_check.s": s["courant.shla_check"],
        "courant.shla_identity.calls": c["courant.shla_identity"],
        "courant.circ.calls": c["courant.circ"],
        "courant.skew_bracket.calls": skew_calls,
        "courant.skew_bracket.distinct_ratio": len(t.skew_keys) / skew_calls
        if skew_calls else 0.0,
        "courant.from_embedded.calls": c["courant.from_embedded"],
        "courant.from_embedded.s": s["courant.from_embedded"],
        "courant.t_tensor.calls": c["courant.t_tensor"],
        "courant.check_dirac.s": s["courant.check_dirac"],
        "algebroid.check_lie_algebroid.s": s["algebroid.check_lie_algebroid"],
        "algebroid.check_bialgebroid.s": s["algebroid.check_bialgebroid"],
        "algebroid.check_proto.s": s["algebroid.check_proto"],
        "algebroid.theta.s": s["algebroid.theta"],
        "algebroid.double_differential.s": s["algebroid.double_differential"],
        "cartan.apply.calls": c["cartan.apply"],
        "necklace.mode_cohomology.calls": c["necklace.mode_cohomology"],
        "necklace.mode_cohomology.s": s["necklace.mode_cohomology"],
        "necklace.structure_identities.s": s["necklace.structure_identities"],
        "linalg.nullspace.calls": c["linalg.nullspace"],
        "linalg.nullspace.s": s["linalg.nullspace"],
        "linalg.solve.calls": c["linalg.solve"],
        "linalg.solve.s": s["linalg.solve"],
        "linalg.in_span.calls": c["linalg.in_span"],
        "linalg.cells": x["linalg.cells"],
        "linalg.solve_over_fractions.s": s["linalg.solve_over_fractions"],
        "specfile.load.s": s["specfile.load"],
        "specfile.materialize.s": s["specfile.materialize"],
        "parsing.parse_poly.calls": c["parsing.parse_poly"],
        "parsing.parse_poly.s": s["parsing.parse_poly"],
        "report.render.s": s["report.render"],
        "cli.main.s": s["cli.main"],
        "cli.errors": x["cli.errors"],
    }
