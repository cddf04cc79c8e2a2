import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from bigbracket.algebroid import antisymmetrize, check_bialgebroid, check_lie_algebroid
from bigbracket.chart import cotangent_chart
from bigbracket.cli import main
from bigbracket.parsing import parse_poly
from bigbracket.specfile import (DocumentError, PRESET_NAMES, load_preset,
                                 materialize, parse_document)

from oracles import collect_table


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
    ("kind: algebroid\nbase: x1\nrank: two\n", "line 3: rank must be an integer"),
    ("kind: algebroid\nbase: x1\nrank: ٢\n", "line 3: rank must be an integer"),
    ("kind: algebroid\nbase: x1\ndim: 1.5\n", "line 3: dim must be an integer"),
    # a key given twice is refused, naming both lines, however it is spelled
    ("kind: algebroid\nbase: x1\nrank: 1\nA[1][1] = 1\nA[1][1] = 2\n",
     "line 5: A[1][1] repeats line 4"),
    ("kind: algebroid\nbase: x1\nrank: 1\nA[1][1] = 1\n\n# again\nA[ 1][01 ] = 1\n",
     "line 7: A[1][1] repeats line 4"),
    ("kind: proto\nbase: x1\nrank: 1\nphi = 0\nphi = x1*xi1\n", "line 5: phi repeats line 4"),
    ("kind: algebroid\nbase: x1\nrank: 1\ndim: 1\n", "line 4: dim repeats line 3"),
    ("kind: algebroid\nbase: x1\nrank: 1\nrank: 2\n", "line 4: rank repeats line 3"),
    ("kind: algebroid\nbase: x1\nbase: x2\n", "line 3: base repeats line 2"),
    ("kind: algebroid\nkind: proto\n", "line 2: kind repeats line 1"),
    ("kind: necklace\nname: a\nname = b\n", "line 3: name repeats line 2"),
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


@pytest.mark.parametrize("entry, message", [
    ("A[²][1] = 1", "line 4: malformed index in 'A[²][1]'"),
    ("A[1][1] = ²", "line 4: A[1, 1]: unexpected character '²' (at column 1)"),
    ("A[٢][2] = ٣", "line 4: malformed index in 'A[٢][2]'"),
])
def test_numerals_are_ascii_digits(tmp_path, entry, message):
    doc = tmp_path / "d.spec"
    doc.write_text(f"kind: algebroid\nbase: x1 x2\nrank: 2\n{entry}\n")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify-algebroid", "--spec", str(doc)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: {message}\n"


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


TABLE_VALUES = ("1", "-1", "x1", "-x1", "2*x1", "0")


def random_table_document(rng):
    """One-sided entries, mirrored pairs that cancel or contradict, diagonal entries."""
    rank = rng.randint(2, 3)
    lines = {}
    for _ in range(rng.randint(1, 4)):
        a, b = rng.sample(range(1, rank + 1), 2)
        c = rng.randint(1, rank)
        value = rng.choice(TABLE_VALUES)
        lines[(a, b, c)] = value
        mirror = rng.random()
        if mirror < 0.3:
            lines[(b, a, c)] = f"-({value})"
        elif mirror < 0.5:
            lines[(b, a, c)] = rng.choice(TABLE_VALUES)
    if rng.random() < 0.3:
        a, c = rng.randint(1, rank), rng.randint(1, rank)
        lines[(a, a, c)] = rng.choice(TABLE_VALUES)
    keys = list(lines)
    rng.shuffle(keys)
    return f"kind: algebroid\nbase: x1\nrank: {rank}\n" + "".join(
        f"C[{a}][{b}][{c}] = {lines[(a, b, c)]}\n" for a, b, c in keys)


@pytest.mark.parametrize("seed", range(60))
def test_antisymmetrize_agrees_with_the_old_loader(seed):
    text = random_table_document(random.Random(seed))
    doc = parse_document(text)
    chart = cotangent_chart(doc.base_names, doc.fiber_names).chart
    old_violations = []
    old_table, old_completed = collect_table(doc, "C", chart, old_violations, "C")

    entries = {idx: parse_poly(value, chart)
               for (_name, idx), value in doc.entries.items()}
    table, completed, violations = antisymmetrize(entries)
    assert completed == old_completed
    assert [(f"C-antisymmetry({a},{b},{c})", r) for (a, b, c), r in violations] \
        == old_violations
    assert {k: v for k, v in table.items() if k[0] != k[1]} == old_table
    assert all(table[k] == entries[k] for k in table if k[0] == k[1])

    mat = materialize(doc)         # on a chart of its own, so compare by text
    assert doc.completed == old_completed
    assert [(label, str(r)) for label, r in mat.violations] \
        == [(label, str(r)) for label, r in old_violations]
    assert (mat.proto is None) == bool(old_violations)


def test_brst_completions_are_counted():
    doc = parse_document("kind: brst\nbase: x y\nrank: 2\nlie[1][2][1] = 1\n"
                         "rho[1][1] = 1\nrho[2][2] = 1\n")
    mat = materialize(doc)
    assert doc.completed == 1 and not mat.violations
    assert str(mat.action.structure[1][0][0]) == "-1"


@pytest.mark.parametrize("kind, body", [
    ("algebroid", "A[1][1] = 1\nC[1][1][1] = 0\nAbar[1][1] = 0\nCbar[1][1][1] = 0\n"
                  "phi = 0\npsi = 0\n"),
    ("bialgebroid", "A[1][1] = 1\n"),
    ("proto", "phi = 0\npsi = 0\n"),
    ("brst", "lie[1][1][1] = 0\nrho[1][1] = x1\n"),
    ("exact-courant", "phi = 0\nomega = 0\n"),
    ("necklace", "c = 1/3\n"),
])
def test_each_kind_reads_its_own_tables_and_a_name(kind, body):
    doc = parse_document(f"kind: {kind}\nbase: x1\nrank: 1\nname: example\n{body}")
    assert doc.scalars["name"] == "example"


@pytest.mark.parametrize("kind, body, unread", [
    ("brst", "C[1][2][1] = 1\n", "C"),
    ("bialgebroid", "omega = 0\n", "omega"),
    ("algebroid", "lie[1][2][1] = 1\nrho[1][1] = 1\n", "lie, rho"),
    ("exact-courant", "psi = 0\nA[1][1] = 1\n", "A, psi"),
    ("necklace", "phi = 0\n", "phi"),
])
def test_input_a_kind_does_not_read_is_rejected(kind, body, unread):
    with pytest.raises(DocumentError) as err:
        parse_document(f"kind: {kind}\nbase: x1\nrank: 2\n{body}")
    assert str(err.value).endswith(f", not {unread}")


def test_unread_input_message_names_what_the_kind_reads():
    with pytest.raises(DocumentError) as err:
        parse_document("kind: algebroid\nrank: 1\nlie[1][1][1] = 0\n")
    assert str(err.value) == ("an algebroid document reads only A, C, Abar, Cbar, phi "
                              "and psi, not lie")
    with pytest.raises(DocumentError) as err:
        parse_document("kind: brst\nrank: 1\nC[1][1][1] = 0\n")
    assert str(err.value) == "a brst document reads only lie and rho, not C"
