from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from bigbracket import courant
from bigbracket.courant import (ShlaMaps, _shla_sign, _signed_unshuffles, basis_sections,
                                d_operator, graded_constant, graded_function,
                                graded_section, jacobiator, pairing,
                                shla_check, shla_identity, skew_bracket,
                                structure_from_proto, t_tensor)
from bigbracket.poly import SuperPolynomial
from bigbracket.rationals import GaussianRational
from bigbracket.specfile import PRESET_NAMES, load_preset, materialize, parse_document

from conftest import standard_structure
from oracles import koszul_sign, perm_sign, sweep_shla
from test_algebroid import su2_bialgebra
from test_cli_surface import DOCUMENTS

STD1 = standard_structure(1)


def test_low_arity_map_values():
    maps = ShlaMaps(STD1)
    e = basis_sections(STD1)[0]              # the coordinate field
    f = SuperPolynomial.variable(STD1.chart, "x1")
    out = maps.l2(graded_section(e), graded_function(f))
    assert out.value == SuperPolynomial.constant(STD1.chart, GaussianRational(Fraction(1, 2)))
    anti = maps.l2(graded_function(f), graded_section(e))
    assert anti.value == -out.value
    const = graded_constant(STD1, 1)
    assert maps.l1(const).value == SuperPolynomial.constant(STD1.chart, 1)
    assert maps.l2(const, graded_section(e)) is None


def test_first_identity_on_each_degree():
    for structure in (STD1, structure_from_proto(su2_bialgebra())):
        gens = [graded_section(e) for e in basis_sections(structure)]
        gens += [graded_function(SuperPolynomial.variable(structure.chart, n))
                 for n in structure.bundle.base_names]
        gens.append(graded_constant(structure, 1))
        for g in gens:
            assert shla_identity(ShlaMaps(structure), 1, [g]).is_zero()


def test_identities_up_to_arity_four():
    for structure in (STD1, structure_from_proto(su2_bialgebra())):
        for n in (1, 2, 3, 4):
            report = shla_check(structure, n)
            assert report.passed, (n, [(c.name, c.passed) for c in report.checks])


def test_named_subchecks_present():
    rep3 = shla_check(STD1, 3)
    assert any(c.name == "chainmap-on-two-sections-and-function" for c in rep3.checks)
    rep4 = shla_check(STD1, 4)
    names = {c.name for c in rep4.checks}
    assert "quadrilinear-pairing-identity" in names
    assert "l3l2-equals-l2l3-on-sections" in names


def test_point_double_has_trivial_differential_but_nonzero_ternary_map():
    dsu2 = structure_from_proto(su2_bialgebra())
    maps = ShlaMaps(dsu2)
    # no base coordinates: the degree-lowering map kills all functions
    one = SuperPolynomial.constant(dsu2.chart, 1)
    assert d_operator(dsu2, one).is_zero()
    gens = basis_sections(dsu2)
    nonzero = False
    for e1 in gens:
        for e2 in gens:
            for e3 in gens:
                val = maps.l3(graded_section(e1), graded_section(e2), graded_section(e3))
                nonzero = nonzero or not val.value.is_zero()
                assert val.value == -t_tensor(e1, e2, e3)
    assert nonzero
    # anomalies vanish: the binary bracket is an honest Lie bracket here
    for e1 in gens[:3]:
        for e2 in gens[:3]:
            for e3 in gens[:3]:
                assert jacobiator(e1, e2, e3).is_zero()


def test_quadrilinear_pairing_identity_by_hand():
    dsu2 = structure_from_proto(su2_bialgebra())
    gens = basis_sections(dsu2)
    quads = [(0, 1, 2, 3), (0, 1, 4, 5), (1, 2, 3, 4), (0, 2, 3, 5)]
    for i, j, k, l in quads:
        e1, e2, e3, e4 = gens[i], gens[j], gens[k], gens[l]
        Jb = (pairing(jacobiator(e1, e2, e3), e4)
              - pairing(jacobiator(e1, e2, e4), e3)
              + pairing(jacobiator(e1, e3, e4), e2)
              - pairing(jacobiator(e2, e3, e4), e1))
        Kb = (pairing(skew_bracket(e1, e2), skew_bracket(e3, e4))
              - pairing(skew_bracket(e1, e3), skew_bracket(e2, e4))
              + pairing(skew_bracket(e1, e4), skew_bracket(e2, e3)))
        assert (Kb + Jb + Jb).is_zero()


def test_chain_map_identity_with_scaled_sections():
    structure = standard_structure(2)
    x1 = SuperPolynomial.variable(structure.chart, "x1")
    x2 = SuperPolynomial.variable(structure.chart, "x2")
    gens = basis_sections(structure)
    scaled = [g.scaled_by(x1) for g in gens] + [g.scaled_by(x2) for g in gens]
    elements = ([graded_section(g) for g in gens + scaled]
                + [graded_function(x1), graded_function(x2 * x1)]
                + [graded_constant(structure, 3)])
    maps = ShlaMaps(structure)
    for e1 in elements[:6]:
        for e2 in elements[6:12]:
            for f in elements[12:]:
                assert shla_identity(maps, 3, [e1, e2, f]).is_zero()


def test_shla_sign_is_the_permutation_sign_times_the_koszul_sign():
    """Every permutation of up to five symbols of degree 0, 1 or 2."""
    for n in range(6):
        for degrees in product((0, 1, 2), repeat=n):
            for perm in permutations(range(n)):
                assert _shla_sign(perm, degrees) == perm_sign(perm) * koszul_sign(perm, degrees)


def test_identity_sweep_evaluates_each_tuple_once(monkeypatch):
    """The lemma lines are read off the identity sweep, not swept again."""
    seen = []
    original = courant.shla_identity

    def counted(maps, n, args):
        seen.append((n, tuple(id(a) for a in args)))
        return original(maps, n, args)

    monkeypatch.setattr(courant, "shla_identity", counted)
    structure = standard_structure(2)
    for n in (3, 4):
        seen.clear()
        report = shla_check(structure, n)
        assert report.passed
        assert len(seen) == len(set(seen)) > 0


def test_signed_unshuffles_match_the_oracle_signs():
    """Every (i, n-i)-unshuffle with i + j = n + 1, i, j <= 3, in summation
    order, signed by (-1)^{i(j-1)} perm_sign * koszul_sign."""
    for n in range(1, 5):
        for degrees in product((0, 1, 2), repeat=n):
            want = []
            for i in range(max(1, n - 2), min(n, 3) + 1):
                j = n + 1 - i
                for chosen in combinations(range(n), i):
                    perm = chosen + tuple(k for k in range(n) if k not in chosen)
                    sign = (-1) ** (i * (j - 1)) * perm_sign(perm) * koszul_sign(perm, degrees)
                    want.append((i, j, perm, sign))
            assert list(_signed_unshuffles(n, degrees)) == want


def test_shla_check_builds_its_maps_and_each_sign_table_once(monkeypatch):
    built = []

    class CountedMaps(ShlaMaps):
        def __init__(self, structure):
            built.append(structure)
            super().__init__(structure)

    monkeypatch.setattr(courant, "ShlaMaps", CountedMaps)
    _signed_unshuffles.cache_clear()
    report = shla_check(standard_structure(2), 4)
    assert report.passed and len(built) == 1
    info = _signed_unshuffles.cache_info()
    assert info.currsize == info.misses < info.hits


# the documents of the CLI snapshot whose shla-check fails
FAILING_SHLA = ("twist-R4.spec", "brst-non-homomorphic.spec")


@pytest.mark.parametrize("source", PRESET_NAMES + FAILING_SHLA)
def test_shla_check_agrees_with_the_sweep_of_every_tuple(source):
    """Names, verdicts and residuals of every line, n = 1..4, against
    `sweep_shla`, each on its own structure so no memo is shared."""
    doc = load_preset(source) if source in PRESET_NAMES else parse_document(DOCUMENTS[source])
    proto = materialize(doc).proto
    verdicts = set()
    for n in range(1, 5):
        report = shla_check(structure_from_proto(proto), n)
        oracle = sweep_shla(structure_from_proto(proto), n)
        assert [c.name for c in report.checks] == list(oracle), n
        for name, residual in oracle.items():
            assert report[name].passed == residual.is_zero(), (n, name)
            assert report[name].residual == residual, (n, name)
        verdicts.add(report.passed)
    assert verdicts == ({True} if source in PRESET_NAMES else {True, False})
