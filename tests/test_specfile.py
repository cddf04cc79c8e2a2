import pytest

from bigbracket.algebroid import check_bialgebroid, check_lie_algebroid
from bigbracket.specfile import (DocumentError, PRESET_NAMES, load_preset,
                                 materialize, parse_document)


def test_all_presets_load_and_materialize():
    for name in PRESET_NAMES:
        doc = load_preset(name)
        mat = materialize(doc)
        assert not mat.violations, name


def test_unknown_preset():
    with pytest.raises(DocumentError):
        load_preset("definitely-not-a-preset")


def test_su2_preset_structure_constants():
    mat = materialize(load_preset("su2-bialgebra"))
    spec = mat.proto.a_side
    assert spec.rank == 3
    assert spec.structure[0][1][2] == 1      # first pair of basis vectors
    assert spec.structure[1][0][2] == -1     # completed mirror
    assert check_bialgebroid(mat.proto).passed


def test_antisymmetry_completion_counted():
    doc = parse_document("""
kind: algebroid
rank: 3
C[1][2][3] = 1
C[2][3][1] = 1
C[3][1][2] = 1
""")
    mat = materialize(doc)
    assert doc.completed == 3
    assert not mat.violations


def test_contradictory_entries_become_violations():
    doc = parse_document("""
kind: algebroid
rank: 2
C[1][2][1] = 1
C[2][1][1] = 1
""")
    mat = materialize(doc)
    assert mat.violations
    label, residual = mat.violations[0]
    assert "antisymmetry" in label
    assert str(residual) == "2"


def test_diagonal_entry_is_a_violation():
    doc = parse_document("""
kind: brst
base: x y
rank: 1
lie[1][1][1] = 1
rho[1][1] = -y
rho[1][2] = x
""")
    mat = materialize(doc)
    assert mat.violations
    label, residual = mat.violations[0]
    assert "lie-antisymmetry(1,1,1)" == label
    assert str(residual) == "2"


def test_malformed_header():
    with pytest.raises(DocumentError):
        parse_document("kind: not-a-kind")
    with pytest.raises(DocumentError):
        parse_document("rank: 2")          # missing kind


@pytest.mark.parametrize("text, message", [
    ("kind: algebroid\nbase: x1\nrank: -1\n", "must not be negative"),
    ("kind: algebroid\nbase: x1\nrank: 1\nA[1][1 = 1\n", "malformed index"),
    ("kind: algebroid\nbase: x1\nrank: 1\nA[1][12 = 1\n", "malformed index"),
    ("kind: algebroid\nbase: x1\nrank: 1\nA[1][x] = 1\n", "malformed index"),
    ("kind: algebroid\nbase: x1\nrank: 1\nA[1][-1] = 1\n", "malformed index"),
    ("kind: algebroid\nbase: x1\nrank: 1\nA[1]1] = 1\n", "malformed index"),
])
def test_malformed_rank_and_index(text, message):
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert message in str(err.value)


def test_malformed_polynomial_positions():
    doc = parse_document("""
kind: algebroid
base: x1
rank: 1
A[1][1] = xi^
""")
    with pytest.raises(DocumentError) as err:
        materialize(doc)
    assert "column" in str(err.value)


def test_tangent_presets_pass_the_gate():
    for name in ("tangent-R1", "tangent-R2", "tangent-R3"):
        mat = materialize(load_preset(name))
        assert check_lie_algebroid(mat.proto.a_side).passed


def test_exact_courant_proto_is_the_gauged_standard_twist():
    mat = materialize(parse_document(
        "kind: exact-courant\nbase: x1 x2 x3\nrank: 3\nphi = x1*xi2*xi3\nomega = x3*xi1*xi2\n"))
    proto = mat.proto
    assert proto is mat.twisted.proto
    assert [[str(entry) for entry in row] for row in proto.a_side.anchor] == [
        ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert all(entry.is_zero() for row in proto.astar_side.anchor for entry in row)
    assert str(mat.twisted.phi_raw) == "x1*xi2*xi3"
    assert str(proto.phi) == "x1*xi2*xi3 + xi1*xi2*xi3"      # phi + d(omega)


def test_brst_proto_is_the_action_algebroid_against_the_zero_dual():
    mat = materialize(load_preset("brst-so2-on-R2"))
    assert mat.proto.a_side is mat.action
    assert [[str(entry) for entry in row] for row in mat.action.anchor] == [["-y", "x"]]
    assert check_bialgebroid(mat.proto).passed
