import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from bigbracket.cli import main


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
    assert "twist-closed: pass (False)" in out


def test_cohomology_command():
    code, out, _ = run(["cohomology", "--c", "0", "--modes", "2", "--truncate", "8"])
    assert code == 0
    assert "dims (1, 2, 1)" in out
    assert "dims (1, 1, 2)" in out
    assert "recorded" in out


def test_invariants_command():
    code, out, _ = run(["invariants", "--c", "0"])
    assert code == 0
    assert "euler-primitive: pass" in out


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
    ["verify-algebroid", "--spec", "/nonexistent"],
])
def test_bad_input_is_a_usage_error(argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert "error:" in err or "usage:" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("separate, joined", [
    (["invariants", "--c", "-1/2"], ["invariants", "--c=-1/2"]),
    (["invariants", "--c", "-1/2", "--cprime", "-3/4"],
     ["invariants", "--c=-1/2", "--cprime=-3/4"]),
    (["invariants", "--c", "1/3", "--cprime", "-0.25"],
     ["invariants", "--c=1/3", "--cprime=-0.25"]),
    (["cohomology", "--c", "-1/2", "--modes", "2", "--truncate", "8"],
     ["cohomology", "--c=-1/2", "--modes", "2", "--truncate", "8"]),
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
