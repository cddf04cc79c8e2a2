import io
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from bigbracket import cli, courant, specfile
from bigbracket.brackets import canonical_bracket
from bigbracket.cli import main
from bigbracket.parsing import parse_poly
from bigbracket.rationals import GaussianRational


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_verify_bialgebroid_passes():
    code, out, _ = run(["verify-bialgebroid", "--preset", "su2-bialgebra"])
    assert code == 0
    assert "result: PASS" in out
    assert "check {mu,gamma*}: pass" in out


def test_verify_algebroid_each_preset():
    for preset in ("tangent-R1", "tangent-R2", "tangent-R3", "brst-so2-on-R2"):
        code, out, _ = run(["verify-algebroid", "--preset", preset])
        assert code == 0, out


def test_failing_spec_prints_residual_and_exits_one(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("""
kind: algebroid
base: x1 x2
rank: 2
A[1][1] = 1
A[2][2] = 1
C[1][2][1] = 1
""")
    code, out, _ = run(["verify-algebroid", "--spec", str(bad)])
    assert code == 1
    assert "check {mu,mu}: fail residual=" in out


def test_antisymmetry_violation_is_a_failing_check(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("""
kind: algebroid
rank: 2
C[1][2][1] = 1
C[2][1][1] = 1
""")
    code, out, _ = run(["verify-algebroid", "--spec", str(bad)])
    assert code == 1
    assert "antisymmetry" in out
    assert "residual=2" in out


def test_parse_error_exits_two(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("kind: algebroid\nrank: 1\nA[1][1] = xi^\n")
    code, out, err = run(["verify-algebroid", "--spec", str(bad)])
    assert code == 2
    assert "error:" in err


def test_unknown_flag_exits_two():
    code, _, _ = run(["verify-algebroid", "--bogus"])
    assert code == 2


def test_missing_document_exits_two():
    code, _, err = run(["verify-algebroid"])
    assert code == 2


def test_courant_and_shla_commands():
    code, out, _ = run(["courant-verify", "--preset", "poisson-R2"])
    assert code == 0 and "axiom5-pairing-invariance: pass" in out
    code, out, _ = run(["shla-check", "--preset", "standard-R1", "--n", "4"])
    assert code == 0 and "identity-n4: pass" in out


def test_dirac_command():
    code, out, _ = run(["dirac-check", "--preset", "standard-R2",
                        "--section", "xis1", "--section", "xis2"])
    assert code == 0 and "closure: pass" in out
    code, out, _ = run([
        "dirac-check", "--preset", "standard-R3",
        "--section", "xis1 + x3*xi2", "--section", "xis2 - x3*xi1",
        "--section", "xis3"])
    assert code == 1 and "closure: fail" in out


def test_dirac_check_raises_a_sample_coordinate_to_a_huge_power_at_once():
    start = time.perf_counter()
    code, out, _ = run(["dirac-check", "--preset", "standard-R1",
                        "--section", "x1^100000*xis1 + xis1"])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "check maximal: pass (rank 1 of expected 1)\n" in out


def test_twist_command_reports_closedness(tmp_path):
    probe = tmp_path / "probe.spec"
    probe.write_text("""
kind: exact-courant
base: x1 x2 x3
rank: 3
phi = x1*xi2*xi3
""")
    code, out, _ = run(["twist", "--spec", str(probe)])
    assert code == 1
    assert "axiom1-leibniz-jacobi: fail" in out
    assert "check gauge-difference-exact: pass (True)" in out
    assert "check twist-closed: fail residual=xi1*xi2*xi3 (False)" in out


# the (0,2) phi probe and its mirror, the (2,0) psi probe, each over an anchor on its side
PROBE_MIRRORS = {
    "phi": "kind: proto\nbase: x1\nrank: 3\nA[3][1] = 1\nphi = xi1*xi2*xi3 + x1*xi1*xi2\n",
    "psi": "kind: proto\nbase: x1\nrank: 3\nAbar[3][1] = 1\n"
           "psi = th1*th2*th3 + x1*th1*th2\n",
}


def test_phi_and_psi_probes_are_read_alike(tmp_path):
    out = {}
    for side, text in PROBE_MIRRORS.items():
        doc = tmp_path / f"{side}.spec"
        doc.write_text(text)
        for command in ("verify-proto", "courant-verify"):
            code, stdout, err = run([command, "--spec", str(doc)])
            assert code == 1 and err == "", (side, command, err)
            out[side, command] = stdout.split("\n", 1)[1]
    assert "check {mu,phi}: fail residual=xi1*xi2*xi3\n" in out["phi", "verify-proto"]
    assert "check {gamma*,psi*}: fail residual=xis1*xis2*xis3\n" in out["psi", "verify-proto"]
    # the off-degree theta of either probe goes through the term-by-term sweep
    assert out["phi", "courant-verify"] == out["psi", "courant-verify"]
    assert "check axiom1-leibniz-jacobi: fail" in out["psi", "courant-verify"]


# off-degree probes whose theta mixes parities: D = {theta, .} is then not odd,
# so D^2 need not vanish where {theta, theta} does; `double` decides it anyway
MIXED_PARITY_DOUBLES = {
    "su2-phi.spec": ("kind: proto\nbase:\nrank: 3\nC[1][2][3] = 1\nC[2][3][1] = 1\n"
                     "C[3][1][2] = 1\nphi = xi1*xi2\n", 1, """command: double --spec {path}
check antisymmetry-completion: pass (auto-completed 3 mirrored entries)
check self-commuting-hamiltonian: pass
check differential-squares-to-zero: fail residual=-2*xi1*xi3
result: FAIL (2 pass, 1 fail)
"""),
    "psi-mirror.spec": ("kind: proto\nbase: x1\nrank: 3\npsi = th1*th2*th3 + x1*th1*th2\n",
                        0, """command: double --spec {path}
check self-commuting-hamiltonian: pass
check differential-squares-to-zero: pass
result: PASS (2 pass, 0 fail)
"""),
}


@pytest.mark.parametrize("name", sorted(MIXED_PARITY_DOUBLES))
def test_double_decides_mixed_parity_probes(tmp_path, name):
    text, expected_code, expected_out = MIXED_PARITY_DOUBLES[name]
    doc = tmp_path / name
    doc.write_text(text)
    code, out, err = run(["double", "--spec", str(doc)])
    assert (code, err) == (expected_code, "")
    assert out == expected_out.format(path=doc)
    # the same document passes verify-proto: its structure equations hold
    assert run(["verify-proto", "--spec", str(doc)])[0] == 0


@pytest.mark.parametrize("scalar, message", [
    ("phi = x1*xi1", "phi has bidegree (0, 1), expected (0, 3) or the (0, 2) probe"),
    ("psi = x1*th1", "psi* has bidegree (1, 0), expected (3, 0) or the (2, 0) probe"),
    ("psi = th1*th2*th3 + th1", "psi* has bidegree (1, 0), expected (3, 0) or the (2, 0) probe"),
])
def test_other_cubic_bidegrees_are_usage_errors(tmp_path, scalar, message):
    doc = tmp_path / "doc.spec"
    doc.write_text(f"kind: proto\nbase: x1\nrank: 3\n{scalar}\n")
    for command in ("verify-proto", "courant-verify"):
        code, out, err = run([command, "--spec", str(doc)])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("extra", [[], ["--omega", "x1*xi2*xi3"]])
def test_twist_builds_one_standard_structure(extra, monkeypatch):
    """materialize builds standard_proto(3) once, and --omega re-gauges on it."""
    calls = []
    real = courant.standard_proto

    def counted(n):
        calls.append(n)
        return real(n)
    monkeypatch.setattr(courant, "standard_proto", counted)
    monkeypatch.setattr(specfile, "standard_proto", counted)
    code, _out, err = run(["twist", "--preset", "exact-twist-R3", *extra])
    assert code == 0, err
    assert calls == [3]


def test_cohomology_command():
    code, out, _ = run(["cohomology", "--c", "0", "--modes", "2", "--truncate", "8"])
    assert code == 0
    assert "dims (1, 2, 1)" in out
    assert "dims (1, 1, 2)" in out
    assert "recorded" in out


def test_cohomology_on_small_input():
    """c = 1/3 at truncation 5: the mode-0 generators and the global dims."""
    code, out, err = run(["cohomology", "--c", "1/3", "--modes", "1", "--truncate", "5"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert ("check mode-0: pass (dims (1, 2, 1) generators "
            "[1; I*d_I, d_theta; I*d_I^d_theta])") in lines
    assert "check global: pass (dims (1, 1, 2) generators [1; Delta_omega; pi_c, pi])" in lines


def test_cohomology_on_symplectic_member():
    code, out, _ = run(["cohomology", "--c", "3"])
    assert code == 0
    assert "check global: pass (dims (1, 0, 1) generators [1; pi_c])" in out.splitlines()


@pytest.mark.parametrize("c", ["3/2", "-3/2"])
def test_symplectic_member_near_the_unit_circle_computes_no_mode(c):
    """Every |c| > 1 reads the sphere's de Rham constants, however close to 1."""
    code, out, _ = run(["cohomology", "--c", c, "--modes", "1", "--truncate", "5"])
    assert (code, out) == (0, f"command: cohomology --c {c} --modes 1 --truncate 5\n"
                              "check global: pass (dims (1, 0, 1) generators [1; pi_c])\n"
                              "check provenance-status: recorded (recorded-constant)\n"
                              "check provenance-reason: pass (nondegenerate member, sphere "
                              "de Rham constants)\n"
                              "result: PASS (2 pass, 0 fail, 1 recorded)\n")


def test_invariants_command():
    code, out, _ = run(["invariants", "--c", "0"])
    assert code == 0
    assert "euler-primitive: pass" in out


def test_modular_field_is_a_decided_check(monkeypatch):
    """A nonzero {h, pi_c} fails the modular-field line with its residual."""
    monkeypatch.setattr(cli, "canonical_bracket", lambda h, _pi_c: h)
    code, out, err = run(["invariants", "--c", "0"])
    assert code == 1
    assert "check modular-field: fail residual=s*tau - t*sigma (s*d_t - t*d_s (disk chart))" in out
    assert "result: FAIL (6 pass, 1 fail)" in out
    assert err == ""


def test_byte_identical_reruns():
    argv = ["verify-bialgebroid", "--preset", "poisson-R2", "--format", "json"]
    _, first, _ = run(argv)
    _, second, _ = run(argv)
    assert first == second
    doc = json.loads(first)
    assert doc["result"] == "PASS"
    assert all(rec["status"] in ("pass", "fail", "recorded") for rec in doc["checks"])


def test_timing_goes_to_stderr():
    code, out, err = run(["verify-algebroid", "--preset", "tangent-R1", "--timing"])
    assert code == 0
    assert "elapsed" in err
    assert "elapsed" not in out


def test_timing_is_the_elapsed_time_of_the_command():
    start = time.perf_counter()
    code, _, err = run(["verify-algebroid", "--preset", "tangent-R1", "--timing"])
    elapsed = float(re.fullmatch(r"elapsed: (\d+\.\d{3})s\n", err).group(1))
    assert code == 0 and 0 <= elapsed <= time.perf_counter() - start + 0.001


@pytest.mark.parametrize("argv", [["--help"], ["twist", "--help"]])
def test_help_exits_zero(argv):
    code, out, _ = run(argv)
    assert code == 0 and out.startswith("usage: bigbracket")


def test_necklace_document_supplies_the_family_parameter(tmp_path):
    doc = tmp_path / "neck.spec"
    doc.write_text("kind: necklace\nc = 1/3\n")
    code, out, err = run(["invariants", "--spec", str(doc)])
    assert (code, out) == run(["invariants", "--c", "1/3"])[:2] and code == 0, err


GOLDEN_SU2 = """command: verify-bialgebroid --preset su2-bialgebra
check antisymmetry-completion: pass (auto-completed 5 mirrored entries)
check {mu,mu}: pass
check {gamma,gamma}: pass
check {mu,gamma*}: pass
check self-duality: pass
result: PASS (5 pass, 0 fail)
"""

GOLDEN_INVARIANTS = """command: invariants --c 0
check euler-primitive: pass
check affine-family: pass
check pi_c-not-exact: pass
check modular-not-exact: pass
check modular-cocycle: pass
check modular-field: pass (s*d_t - t*d_s (disk chart))
check structure-is-poisson: pass
result: PASS (7 pass, 0 fail)
"""


def test_golden_text_reports():
    _, out, _ = run(["verify-bialgebroid", "--preset", "su2-bialgebra"])
    assert out == GOLDEN_SU2
    _, out, _ = run(["invariants", "--c", "0"])
    assert out == GOLDEN_INVARIANTS


@pytest.mark.parametrize("argv", [
    ["invariants", "--c", "1"],
    ["invariants", "--c", "1/0"],
    ["shla-check", "--preset", "standard-R1", "--n", "0"],
    ["cohomology", "--c", "0", "--modes", "-1"],
    ["cohomology", "--c", "0", "--truncate", "3"],
    ["invariants", "--c", "2", "--truncate", "-1"],
    ["invariants", "--c", "1/2", "--truncate", "-1"],
    ["verify-algebroid", "--spec", "/nonexistent"],
    ["shla-check", "--preset", "standard-R1", "--n", "5"],
    ["twist", "--preset", "exact-twist-R3", "--omega", ""],
    ["cohomology", "--c", "1"],                 # |c| = 1: outside the assembly
    ["cohomology", "--c", "-1"],
    ["cohomology", "--c", "x"],
    ["cohomology", "--c", "1/0"],
    ["cohomology", "--c", "0", "--modes", "two"],
    ["cohomology", "--c", "0", "--modes", "2", "--truncate", "4.5"],
    ["cohomology", "--c", "0", "--modes", "2", "--truncate", "3"],  # below the mode model's bound
])
def test_bad_input_is_a_usage_error(argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert "error:" in err or "usage:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("c", ["2", "1/2"])
def test_invariants_truncation_bound_is_that_of_the_mode_model(c):
    # |c| > 1 never builds a mode matrix, so only the parser can reject it
    _, _, err = run(["invariants", "--c", c, "--truncate", "2"])
    assert "usage:" in err and "must be at least 3" in err
    code, _, err = run(["invariants", "--c", c, "--truncate", "3"])
    assert code == 0, err


def test_missing_spec_file_is_named_as_such():
    _, _, err = run(["verify-algebroid", "--spec", "/nonexistent"])
    assert "does not exist" in err
    assert "unknown preset" not in err


def test_necklace_document_with_zero_denominator(tmp_path):
    doc = tmp_path / "neck.spec"
    doc.write_text("kind: necklace\nc = 1/0\n")
    code, out, err = run(["invariants", "--spec", str(doc)])
    assert code == 2 and out == "" and "error:" in err


def test_invariants_reports_volume_of_symplectic_member():
    code, out, _ = run(["invariants", "--c", "3"])
    assert code == 0
    assert "symplectic-volume: pass (2*pi*ln(2) = " in out
    assert "euler-primitive: pass" in out and "affine-family: pass" in out
    assert "not-exact" not in out and "modular-cocycle" not in out


def _volume(out):
    return float(re.search(r"symplectic-volume: pass \(2\*pi\*ln\([0-9/]+\) = (.+)\)\n", out)[1])


def test_invariants_volume_near_unit_parameter():
    # (c + 1)/(c - 1) is about 2*10^401 here, beyond the float range
    c = "1." + "0" * 400 + "1"
    expected = 2 * math.pi * (math.log(2) + 401 * math.log(10))
    for text, sign in ((c, 1), ("-" + c, -1)):
        code, out, err = run(["invariants", "--c", text])
        assert code == 0, err
        assert abs(_volume(out) - sign * expected) <= 1e-9 * expected
    # a subnormal ratio keeps only a few bits of a float
    c = "1." + "0" * 320 + "1"
    code, out, err = run(["invariants", "--c", "-" + c])
    assert code == 0, err
    expected = 2 * math.pi * (math.log(2) + 321 * math.log(10))
    assert abs(_volume(out) + expected) <= 1e-9 * expected


def test_invariants_volume_of_ordinary_member_is_unchanged():
    code, out, _ = run(["invariants", "--c", "3"])
    assert code == 0
    assert "symplectic-volume: pass (2*pi*ln(2) = " in out
    assert _volume(out) == 2.0 * math.pi * math.log(2.0)


# one process, one cached parser: each call must print and exit as it does on
# a parser built for that call alone.  Per sequence: the calls and their exit codes.
_PARSER_SEQUENCES = {
    "append-then-fewer": (
        [["dirac-check", "--preset", "standard-R2", "--section", "xis1", "--section", "xis2"],
         ["dirac-check", "--preset", "standard-R2", "--section", "xis1"]], [0, 1]),
    "json-then-text": (
        [["verify-algebroid", "--preset", "tangent-R2", "--format", "json"],
         ["verify-algebroid", "--preset", "tangent-R2"]], [0, 0]),
    "usage-error-then-valid": (
        [["cohomology", "--c", "0", "--modes", "-1"],
         ["cohomology", "--c", "0", "--modes", "1", "--truncate", "4"]], [2, 0]),
}


@pytest.mark.parametrize("name", sorted(_PARSER_SEQUENCES))
def test_cached_parser_keeps_no_state_between_calls(name, monkeypatch):
    sequence, codes = _PARSER_SEQUENCES[name]
    with monkeypatch.context() as fresh_parsers:
        fresh_parsers.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run(argv)[:2] for argv in sequence]
    assert [code for code, _ in fresh] == codes and fresh[0][1] != fresh[1][1]
    parser = cli.build_parser()
    assert [run(argv)[:2] for argv in sequence] == fresh
    assert cli.build_parser() is parser


@pytest.mark.parametrize("separate, joined", [
    (["invariants", "--c", "-1/2"], ["invariants", "--c=-1/2"]),
    (["invariants", "--c", "-1/2", "--cprime", "-3/4"],
     ["invariants", "--c=-1/2", "--cprime=-3/4"]),
    (["invariants", "--c", "1/3", "--cprime", "-0.25"],
     ["invariants", "--c=1/3", "--cprime=-0.25"]),
    (["cohomology", "--c", "-1/2", "--modes", "2", "--truncate", "8"],
     ["cohomology", "--c=-1/2", "--modes", "2", "--truncate", "8"]),
    (["invariants", "--c", "0", "--cp", "-3/4"], ["invariants", "--c", "0", "--cprime=-3/4"]),
    (["invariants", "--c", "0", "--cpr", "-3/4"], ["invariants", "--c", "0", "--cprime=-3/4"]),
    (["invariants", "--cprim", "-1/3", "--c", "-1/5"],
     ["invariants", "--cprime=-1/3", "--c=-1/5"]),
])
def test_negative_rational_as_separate_word(separate, joined):
    code, out, err = run(separate)
    assert code == 0, err
    assert (code, out) == run(joined)[:2]


@pytest.mark.parametrize("argv", [
    ["invariants", "--c", "-x"],
    ["invariants", "--c", "-1/0"],
    ["invariants", "--c", "0", "--cprime", "-1/0"],
    ["invariants", "--c"],
    ["cohomology", "--c", "-", "--modes", "2"],
])
def test_malformed_negative_rational_is_a_usage_error(argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert "error:" in err or "usage:" in err


def test_preset_ignores_same_named_file_in_working_directory(tmp_path, monkeypatch):
    (tmp_path / "tangent-R1").write_text("""
kind: algebroid
base: x1 x2
rank: 2
A[1][1] = 1
A[2][2] = 1
C[1][2][1] = 1
""")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["verify-algebroid", "--preset", "tangent-R1"])
    assert code == 0
    assert out.startswith("command: verify-algebroid --preset tangent-R1\n")
    assert "result: PASS" in out
    code, out, _ = run(["verify-algebroid", "--spec", "tangent-R1"])
    assert code == 1 and "check {mu,mu}: fail" in out


@pytest.mark.parametrize("entry", ["A[1][2] = x1", "A[0][1] = 1", "A[3][1] = 1",
                                   "C[1][2][3] = 1", "C[0][1][1] = 1"])
def test_out_of_range_table_index_is_a_usage_error(tmp_path, entry):
    doc = tmp_path / "doc.spec"
    doc.write_text(f"kind: algebroid\nbase: x1\nrank: 2\n{entry}\n")
    code, out, err = run(["verify-algebroid", "--spec", str(doc)])
    assert (code, out) == (2, "")
    assert "error:" in err and "out of range" in err


@pytest.mark.parametrize("command, body, message", [
    ("verify-algebroid", "A[1][1] = 1\nA[1][1] = 2\n", "line 5: A[1][1] repeats line 4"),
    ("verify-proto", "phi = 0\nphi = x1*xi1\n", "line 5: phi repeats line 4"),
    ("verify-algebroid", "dim: 1\n", "line 4: dim repeats line 3"),
])
def test_a_key_given_twice_is_a_usage_error(tmp_path, command, body, message):
    doc = tmp_path / "doc.spec"
    doc.write_text(f"kind: proto\nbase: x1\nrank: 1\n{body}")
    code, out, err = run([command, "--spec", str(doc)])
    assert (code, out) == (2, "")
    assert f"error: {message}" in err


def test_a_rank_that_is_not_an_integer_is_a_usage_error(tmp_path):
    doc = tmp_path / "doc.spec"
    doc.write_text("kind: algebroid\nbase: x1\nrank: two\n")
    code, out, err = run(["verify-algebroid", "--spec", str(doc)])
    assert (code, out, err) == (2, "", "error: line 3: rank must be an integer\n")


RANK_ZERO = "kind: bialgebroid\nbase: x1\nrank: 0\n"


@pytest.mark.parametrize("argv", [
    ["verify-algebroid"], ["verify-bialgebroid"], ["verify-proto"], ["double"],
    ["courant-verify"], ["shla-check", "--n", "1"], ["shla-check", "--n", "2"],
    ["shla-check", "--n", "3"], ["shla-check"],
], ids=" ".join)
def test_rank_zero_bundle_passes_every_structure_command(tmp_path, argv):
    doc = tmp_path / "rank0.spec"
    doc.write_text(RANK_ZERO)
    code, out, err = run(argv + ["--spec", str(doc)])
    assert code == 0, err
    assert "result: PASS" in out
    assert "Traceback" not in err


STRUCTURE_COMMANDS = (["verify-algebroid"], ["verify-bialgebroid"], ["verify-proto"],
                      ["double"], ["courant-verify"], ["shla-check", "--n", "2"],
                      ["dirac-check", "--section", "xis1"])


def test_non_closed_twist_fails_every_hamiltonian_gate(tmp_path):
    doc = tmp_path / "twist-R4.spec"
    doc.write_text("kind: exact-courant\nbase: x1 x2 x3 x4\nrank: 4\nphi = x1*xi2*xi3*xi4\n")
    for command in ("double", "verify-proto", "courant-verify"):
        code, out, err = run([command, "--spec", str(doc)])
        assert code == 1, (command, out, err)
    code, out, _ = run(["double", "--spec", str(doc)])
    assert "check self-commuting-hamiltonian: fail residual=2*xi1*xi2*xi3*xi4" in out


# [e1, e2] = e1, but the action sends e1, e2 to the commuting d/dx, d/dy
BRST_NON_HOMOMORPHIC = """kind: brst
base: x y
rank: 2
lie[1][2][1] = 1
rho[1][1] = 1
rho[2][2] = 1
"""


@pytest.mark.parametrize("argv", STRUCTURE_COMMANDS, ids=" ".join)
def test_non_homomorphic_action_is_a_failing_check(tmp_path, argv):
    doc = tmp_path / "brst.spec"
    doc.write_text(BRST_NON_HOMOMORPHIC)
    code, out, err = run([argv[0], "--spec", str(doc), *argv[1:]])
    assert code == 1, err
    assert "fail" in out and "error:" not in err


@pytest.mark.parametrize("text", [
    "kind: exact-courant\nbase: x1 x2\nrank: 3\n",
    "kind: exact-courant\nbase: x1 x2 x3\nrank: 2\nphi = x1*xi1*xi2\n",
    "kind: exact-courant\nbase: x1\nrank: 1\nA[1][1] = 1\n",
    "kind: exact-courant\nbase: x1 x2 x3\nrank: 3\npsi = th1*th2*th3\n",
], ids=["rank-above-dimension", "rank-below-dimension", "anchor-table", "psi"])
def test_exact_courant_input_the_kind_does_not_read_is_a_usage_error(tmp_path, text):
    doc = tmp_path / "exact.spec"
    doc.write_text(text)
    for argv in STRUCTURE_COMMANDS + (["twist"],):
        code, out, err = run([argv[0], "--spec", str(doc), *argv[1:]])
        assert (code, out) == (2, ""), argv
        assert "error:" in err


# C[3][1][2] = 2 and C[1][2][1] = 1 break the Jacobi identity of the su(2) table
NON_JACOBI = """kind: bialgebroid
base: x1
rank: 3
C[1][2][3] = 1
C[2][3][1] = 1
C[3][1][2] = 2
C[1][2][1] = 1
"""

GOLDEN_NON_JACOBI_SHLA = """command: shla-check --spec {path}
check antisymmetry-completion: pass (auto-completed 4 mirrored entries)
check identity-n1: pass
check identity-n2: pass
check identity-n3: fail residual=-2*xis2
check chainmap-on-two-sections-and-function: pass
check identity-n4: fail residual=2
check quadrilinear-pairing-identity: fail residual=-18
check l3l2-equals-l2l3-on-sections: fail residual=2
result: FAIL (4 pass, 4 fail)
"""


def test_failing_shla_residuals_are_pinned(tmp_path):
    doc = tmp_path / "non-jacobi.spec"
    doc.write_text(NON_JACOBI)
    code, out, _ = run(["shla-check", "--spec", str(doc), "--n", "4"])
    assert code == 1
    assert out == GOLDEN_NON_JACOBI_SHLA.format(path=doc)


# phi has total degree 2, so theta is off-degree: the skew bracket of xis2 and
# xis3 is -x1, no section, and the SH-Lie maps are not defined on it
OFF_DEGREE_PROBE = "kind: exact-courant\nbase: x1 x2 x3\nrank: 3\nphi = x1*xi2*xi3\n"

GOLDEN_OFF_DEGREE_SHLA = """command: shla-check --spec {path}
check identity-n1: pass
check identity-n2: fail residual=-x1
check identity-n3: fail residual=-x1
check chainmap-on-two-sections-and-function: fail residual=-x1
check identity-n4: fail residual=-x1
check quadrilinear-pairing-identity: fail residual=-x1
check l3l2-equals-l2l3-on-sections: fail residual=-x1
result: FAIL (1 pass, 6 fail)
"""


def test_off_degree_probe_is_decided_by_shla_check(tmp_path):
    """Each line that needs an l2 output which is no section fails with the
    first one in its sweep; the document is well formed, so no error."""
    doc = tmp_path / "probe.spec"
    doc.write_text(OFF_DEGREE_PROBE)
    code, out, err = run(["shla-check", "--spec", str(doc)])
    assert (code, out, err) == (1, GOLDEN_OFF_DEGREE_SHLA.format(path=doc), "")
    assert run(["courant-verify", "--spec", str(doc)])[0] == 1


# -- no argv ends in a traceback -------------------------------------------------

_FUZZ_DOCUMENTS = {
    "plane.spec": "kind: bialgebroid\nbase: x1 x2\nrank: 2\nA[1][1] = 1\nA[2][2] = x1\n",
    "probe.spec": "kind: exact-courant\nbase: x1 x2\nrank: 2\nphi = x1*xi1*xi2\n",
    "line.spec": "kind: exact-courant\nbase: x1\nrank: 1\n",
    "brst.spec": "kind: brst\nbase: x y\nrank: 1\nrho[1][1] = -y\nrho[1][2] = x\n",
    "neck.spec": "kind: necklace\nc = 1/3\n",
    "anchor-range.spec": "kind: algebroid\nbase: x1\nrank: 2\nA[1][2] = x1\n",
    "anchor-zero.spec": "kind: algebroid\nbase: x1\nrank: 1\nA[0][1] = 1\n",
    "structure-range.spec": "kind: bialgebroid\nbase: x1\nrank: 2\nC[1][2][3] = 1\n",
    "rank-zero.spec": RANK_ZERO,
    "rho-range.spec": "kind: brst\nbase: x\nrank: 1\nrho[2][1] = x\n",
    "bad-index.spec": "kind: algebroid\nbase: x1\nrank: 1\nA[1][x] = 1\n",
    "open-index.spec": "kind: algebroid\nbase: x1\nrank: 1\nA[1][1 = 1\n",
    "bad-rank.spec": "kind: algebroid\nbase: x1\nrank: two\n",
    "negative-rank.spec": "kind: algebroid\nbase: x1\nrank: -1\n",
    "bad-poly.spec": "kind: algebroid\nbase: x1\nrank: 1\nA[1][1] = x1 +\n",
    "foreign-variable.spec": "kind: algebroid\nbase: x1\nrank: 1\nA[1][1] = y\n",
    "bad-phi.spec": "kind: exact-courant\nbase: x1 x2\nrank: 2\nphi = x1\n",
    "bad-c.spec": "kind: necklace\nc = 1/0\n",
    "no-kind.spec": "base: x1\nrank: 1\n",
    "empty.spec": "",
}

# option -> (well-formed values, malformed values)
_FUZZ_VALUES = {
    "--preset": (["standard-R1", "tangent-R1", "tangent-R2", "su2-bialgebra",
                  "brst-so2-on-R2"], ["nope", "", "-1"]),
    "--format": (["text", "json"], ["xml", ""]),
    "--section": (["xis1", "xis1 + x1*xi1", "xi1", "i*xis2", "xis1 - xi2"],
                  ["xi1*xi2", "x1", "xis1 +", "(", "", "1/0*xis1", "xis9"]),
    "--n": (["1", "2"], ["0", "-1", "x", "1.5", ""]),
    "--omega": (["x1*xi1*xi2", "xi1*xi2"], ["x1", "+", ""]),
    "--c": (["0", "1/3", "-1/2", "3", "-5/4"], ["1", "-1", "1/0", "x", "", "-", "--c"]),
    "--cprime": (["1/2", "-3/4", "0"], ["1", "x", "1/0"]),
    "--modes": (["0", "1"], ["-1", "x"]),
    "--truncate": (["4", "5"], ["3", "0", "-2", "x"]),
}


def _fuzz_value(rng, option):
    good, bad = _FUZZ_VALUES[option]
    return rng.choice(good if rng.random() < 0.75 else bad)


# each subcommand's own options besides --preset, --spec, --format and --timing
_FUZZ_OWN_OPTIONS = {
    "verify-algebroid": (), "verify-bialgebroid": (), "verify-proto": (), "double": (),
    "courant-verify": (), "dirac-check": ("--section",), "shla-check": ("--n",),
    "twist": ("--omega",), "cohomology": ("--c", "--modes", "--truncate"),
    "invariants": ("--c", "--cprime", "--truncate"),
}
_FUZZ_STRAYS = ("--bogus", "-h", "--", "x", "--spec", "--section", "--c")
# options that make a sweep grow; the seeded values keep it small
_FUZZ_BOUNDED = {"shla-check": ("--n",), "cohomology": ("--modes", "--truncate")}
# options a run of the subcommand usually needs
_FUZZ_USUAL = {"dirac-check": "--section", "cohomology": "--c", "invariants": "--c"}


def _fuzz_argv(rng, specs):
    command = rng.choice(list(_FUZZ_OWN_OPTIONS)) if rng.random() > 0.05 else "bogus"
    argv = [command]
    source = rng.random()
    if source < 0.45:
        argv += ["--preset", _fuzz_value(rng, "--preset")]
    elif source < 0.9:
        argv += ["--spec", rng.choice(specs)]
    for option in _FUZZ_BOUNDED.get(command, ()):
        argv += [option, _fuzz_value(rng, option)]
    if command in _FUZZ_USUAL and rng.random() < 0.8:
        argv += [_FUZZ_USUAL[command], _fuzz_value(rng, _FUZZ_USUAL[command])]
    own = _FUZZ_OWN_OPTIONS.get(command, ()) + ("--format", "--timing")
    for _ in range(rng.randint(0, 3)):
        option = rng.choice(own) if rng.random() < 0.85 else rng.choice(_FUZZ_STRAYS)
        if option in ("--n", "--modes", "--truncate") and command in _FUZZ_BOUNDED:
            continue
        argv += [option] if option not in _FUZZ_VALUES else [option, _fuzz_value(rng, option)]
    if rng.random() < 0.1:
        del argv[rng.randrange(len(argv))]
    return argv


def test_no_argv_raises(tmp_path):
    """Seeded argv lists from the real subcommands, options and malformed values."""
    specs = [str(tmp_path / "missing.spec"), str(tmp_path)]
    for name, text in _FUZZ_DOCUMENTS.items():
        (tmp_path / name).write_text(text)
        specs.append(str(tmp_path / name))
    rng = random.Random(7)
    codes = []
    for _ in range(400):
        argv = _fuzz_argv(rng, specs)
        try:
            code = run(argv)[0]
        except Exception as exc:     # name the argv that escaped the exit-code contract
            raise AssertionError(f"{argv} raised {type(exc).__name__}: {exc}") from exc
        assert code in (0, 1, 2), (argv, code)
        codes.append(code)
    assert {0, 1, 2} <= set(codes)


CUBIC_DOCUMENTS = {
    "twist-R4.spec": "kind: exact-courant\nbase: x1 x2 x3 x4\nrank: 4\nphi = x1*xi2*xi3*xi4\n",
    # the two-form probe x1*xi2*xi3 next to a three-form
    "probe.spec": "kind: exact-courant\nbase: x1 x2 x3\nrank: 3\nphi = x1*xi2*xi3\n"
                  "omega = x3*xi1*xi2\n",
    "psi.spec": "kind: proto\nrank: 3\npsi = th1*th2*th3\n",
}


@pytest.mark.parametrize("source, cubic", [
    (["--preset", "exact-twist-R3"], "xi1*xi2*xi3"),
    (["--spec", "twist-R4.spec"], "x1*xi2*xi3*xi4"),
    (["--spec", "probe.spec"], "x1*xi2*xi3 + xi1*xi2*xi3"),
    (["--spec", "psi.spec"], "xis1*xis2*xis3"),
], ids=lambda value: value[-1] if isinstance(value, list) else None)
def test_cubic_terms_are_a_failing_bialgebroid_check(tmp_path, monkeypatch, source, cubic):
    for name, text in CUBIC_DOCUMENTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["verify-bialgebroid", *source])
    assert code == 1 and err == ""
    assert out.splitlines()[1:] == [
        f"check cubic-terms: fail residual={cubic}",
        "check {mu,mu}: pass", "check {gamma,gamma}: pass", "check {mu,gamma*}: pass",
        "check self-duality: pass", "result: FAIL (4 pass, 1 fail)"]


TWIST_R3 = "kind: exact-courant\nbase: x1 x2 x3\nrank: 3\nphi = xi1*xi2*xi3\n"


@pytest.mark.parametrize("separate, joined", [
    (["twist", "--spec", "d.spec", "--omega", "-1/2*x1*x1*xi2*xi3"],
     ["twist", "--spec", "d.spec", "--omega=-1/2*x1*x1*xi2*xi3"]),
    (["twist", "--spec", "d.spec", "--om", "-x3*xi1*xi2"],
     ["twist", "--spec", "d.spec", "--omega=-x3*xi1*xi2"]),
    (["dirac-check", "--preset", "standard-R2", "--section", "-xis1", "--section", "xis2"],
     ["dirac-check", "--preset", "standard-R2", "--section=-xis1", "--section", "xis2"]),
    (["dirac-check", "--preset", "standard-R2", "--sec", "-xis1", "--section", "-xis2"],
     ["dirac-check", "--preset", "standard-R2", "--section=-xis1", "--section=-xis2"]),
])
def test_negative_polynomial_as_separate_word(tmp_path, monkeypatch, separate, joined):
    (tmp_path / "d.spec").write_text(TWIST_R3)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(separate)
    assert code in (0, 1) and "error:" not in err, err
    assert (code, out) == run(joined)[:2]


@pytest.mark.parametrize("argv, text", [
    (["verify-algebroid"], "kind: brst\nbase: x y\nrank: 1\nrho[1][1] = -y\nrho[1][2] = x\n"
                           "C[1][1][1] = 1\n"),
    (["verify-bialgebroid"], "kind: bialgebroid\nbase: x1\nrank: 1\nA[1][1] = 1\n"
                             "omega = x1*xi1\n"),
    (["verify-bialgebroid"], "kind: bialgebroid\nbase: x1 x2\nrank: 2\nA[1][1] = 1\n"
                             "A[2][2] = 1\nlie[1][2][1] = 1\n"),
    (["verify-proto"], "kind: proto\nbase: x1\nrank: 1\nA[1][1] = 1\nrho[1][1] = 1\n"),
    (["cohomology", "--modes", "1", "--truncate", "8"], "kind: necklace\nc = 1/3\nA[1][1] = 1\n"),
], ids=["brst-C", "bialgebroid-omega", "bialgebroid-lie", "proto-rho", "necklace-A"])
def test_input_the_kind_does_not_read_is_a_usage_error(tmp_path, argv, text):
    doc = tmp_path / "doc.spec"
    doc.write_text(text)
    code, out, err = run([argv[0], "--spec", str(doc), *argv[1:]])
    assert (code, out) == (2, "")
    assert "error:" in err and "document reads only" in err


@pytest.mark.parametrize("phi, omega", [
    ("xi1", None), ("xis1*xi2*xi3", None), ("x2*xi1 + xi1*xi2*xi3", None),
    ("xi1*xi2*xi3", "xi1"), ("xi1*xi2*xi3", "xs1*xi2"),
])
def test_invalid_twist_is_a_usage_error(tmp_path, phi, omega):
    doc = tmp_path / "twist.spec"
    doc.write_text(f"kind: exact-courant\nbase: x1 x2 x3\nrank: 3\nphi = {phi}\n"
                   + (f"omega = {omega}\n" if omega else ""))
    for command in ("twist", "courant-verify", "verify-proto"):
        code, out, err = run([command, "--spec", str(doc)])
        assert (code, out) == (2, ""), (command, err)
        assert "error:" in err


# phi = x1^k with k ~ 1e9: parsing squares and multiplies, and printing
# compares the exponent, so no step grows with k
HUGE_EXPONENT = "kind: proto\nbase: x1\nrank: 3\nphi = x1^999999999*xi1*xi2*xi3\n"
ROOT = Path(__file__).resolve().parents[1]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("command", STRUCTURE_COMMANDS, ids=lambda argv: argv[0])
def test_huge_exponent_is_decided_quickly(tmp_path, command):
    doc = tmp_path / "huge.spec"
    doc.write_text(HUGE_EXPONENT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-m", "bigbracket.cli", command[0], "--spec", str(doc), *command[1:]],
        capture_output=True, text=True, env=env, timeout=5, preexec_fn=_cap_address_space)
    assert done.returncode in (0, 1), done.stderr
    assert done.stderr == ""
    assert done.stdout.endswith(")\n")


# twists of the standard structure: closed, closed with a base factor, the
# R^4 document and a non-closed sum of two terms
TWISTS = [("x1 x2 x3", "xi1*xi2*xi3", True), ("x1 x2 x3", "x1*xi1*xi2*xi3", True),
          ("x1 x2 x3 x4", "x1*xi2*xi3*xi4", False),
          ("x1 x2 x3 x4", "x2*xi1*xi3*xi4 + x1^2*xi2*xi3*xi4", False)]


@pytest.mark.parametrize("base, phi, closed", TWISTS + [("gauge", "x1*xi2*xi3", True)],
                         ids=lambda value: value if isinstance(value, str) else None)
def test_twist_gates_agree(tmp_path, base, phi, closed):
    """1/2{theta, theta} = {mu, phi} is the twist-closed residual, and axiom 1
    passes iff it vanishes; the gauge row is exact-twist-R3 with --omega."""
    if base == "gauge":
        argv = ["twist", "--preset", "exact-twist-R3", "--omega", phi]
        twisted = specfile.materialize(specfile.load_preset("exact-twist-R3")).twisted
        omega = parse_poly(phi, twisted.structure.chart)
        twisted = courant.twist_exact(twisted.proto, twisted.phi_raw, omega)
    else:
        doc = tmp_path / "twist.spec"
        doc.write_text(f"kind: exact-courant\nbase: {base}\nrank: {len(base.split())}\n"
                       f"phi = {phi}\n")
        argv = ["twist", "--spec", str(doc)]
        twisted = specfile.materialize(specfile.load_document(str(doc))).twisted
    structure = twisted.structure
    theta = structure.theta
    residual = canonical_bracket(theta.mu, theta.phi)
    half = GaussianRational(Fraction(1, 2))
    assert canonical_bracket(structure.total, structure.total).scale(half) == residual
    assert residual.is_zero() == closed
    axiom1 = courant.verify_axioms(structure)["axiom1-leibniz-jacobi"]
    assert axiom1.passed == closed
    code, out, err = run(argv)
    assert (code, err) == (0 if closed else 1, "")
    expect = "pass (True)" if closed else f"fail residual={residual} (False)"
    assert f"check twist-closed: {expect}" in out.splitlines()
    assert out.splitlines()[1].startswith(
        f"check axiom1-leibniz-jacobi: {'pass' if closed else 'fail'}")


# -- failing residuals of the dirac-check and shla-check lemma sweeps -------------

# Recorded by the last version with a hand-written loop per sweep.  Isotropy
# reports the first nonzero pairing over the pairs (s1, s2) with s1 <= s2;
# closure the first product s1 o s2 outside the span, in (s1, s2) order.
DIRAC_FAILURES = {
    ("standard-R2", "xis1", "xis2 + x1*xi2"):
        "check isotropy: fail residual=2*x1\n"
        "check maximal: pass (rank 2 of expected 2)\n"
        "check closure: fail residual=xi2\n",
    ("tangent-R2", "xis2", "xis1 + x2*xi2"):
        "check isotropy: fail residual=x2\n"
        "check maximal: pass (rank 2 of expected 2)\n"
        "check closure: fail residual=xi2\n",
    ("standard-R3", "xis1 + x3*xi2", "xis2 - x3*xi1", "xis3"):
        "check isotropy: pass\n"
        "check maximal: pass (rank 3 of expected 3)\n"
        "check closure: fail residual=xi3\n",
    ("standard-R3", "xis3", "xis1 + x3*xi2", "xis2 - x3*xi1"):
        "check isotropy: pass\n"
        "check maximal: pass (rank 3 of expected 3)\n"
        "check closure: fail residual=xi2\n",
}


@pytest.mark.parametrize("case", DIRAC_FAILURES, ids=" ".join)
def test_failing_dirac_residuals_are_pinned(case):
    preset, *sections = case
    argv = ["dirac-check", "--preset", preset]
    for section in sections:
        argv += ["--section", section]
    code, out, _ = run(argv)
    lines = DIRAC_FAILURES[case]
    fails = lines.count(": fail")
    assert code == 1
    assert out == (f"command: dirac-check --preset {preset}\n{lines}"
                   f"result: FAIL ({3 - fails} pass, {fails} fail)\n")


GOLDEN_PERTURBED_D_SHLA = """command: shla-check --preset poisson-R2
check antisymmetry-completion: pass (auto-completed 1 mirrored entries)
check identity-n1: fail residual=xis2
check identity-n2: fail residual=-1/2*xis2
check identity-n3: fail residual=1/4*xis2
check chainmap-on-two-sections-and-function: fail residual=1/4
result: FAIL (1 pass, 4 fail)
"""


def test_failing_chainmap_lemma_residual_is_pinned(monkeypatch):
    """D f perturbed by f * xis2: the lemma fails at a tuple of its shape
    after identity-n3 has failed at another, with another residual."""
    original = courant.d_operator

    def perturbed(structure, f):
        last = courant.SuperPolynomial.variable(structure.chart, "xis2")
        return courant.CourantSection.from_embedded(
            structure, original(structure, f).embedded + f * last)

    monkeypatch.setattr(courant, "d_operator", perturbed)
    code, out, _ = run(["shla-check", "--preset", "poisson-R2", "--n", "3"])
    assert (code, out) == (1, GOLDEN_PERTURBED_D_SHLA)
