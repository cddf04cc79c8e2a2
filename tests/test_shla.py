import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest

from bigbracket import courant
from bigbracket.courant import (_shla_sign, _signed_unshuffles, basis_sections, d_operator,
                                pairing, shla_check, skew_bracket, structure_from_proto,
                                t_tensor)
from bigbracket.poly import SuperPolynomial
from bigbracket.rationals import GaussianRational
from bigbracket.specfile import PRESET_NAMES, load_preset, materialize, parse_document

from conftest import standard_structure
from oracles import (ShlaMaps, graded_constant, graded_function, graded_section, jacobiator,
                     koszul_sign, perm_sign, shla_identity, sweep_shla)
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
    """The sweeps of every arity of one call share one set of tables, made
    for that call and not kept on the structure."""
    built = []

    class CountedTables(courant.ShlaTables):
        def __init__(self, structure):
            built.append(structure)
            super().__init__(structure)

    monkeypatch.setattr(courant, "ShlaTables", CountedTables)
    _signed_unshuffles.cache_clear()
    structure = standard_structure(2)
    assert shla_check(structure, 4).passed
    assert built == [structure] and not hasattr(structure, "shla")
    info = _signed_unshuffles.cache_info()
    assert info.currsize == info.misses < info.hits
    assert shla_check(structure, 2).passed
    assert built == [structure, structure]


# (structure, sections and constant E, functions F): the identity anchor on
# R^r has 2r basis sections, two scaled ones and r coordinates
COST_LADDER = {f"R{r}": (lambda r=r: standard_structure(r), 2 * r + 3, r) for r in range(1, 5)}
COST_LADDER["su2-bialgebra"] = (lambda: structure_from_proto(su2_bialgebra()), 7, 0)
# evaluations per command for n = 1..4 on the two shla-sweep benchmark documents
COMMAND_TOTALS = {"R1": 79, "su2-bialgebra": 98}


def multichoose(f, k):
    return comb(f + k - 1, k) if k else 1


@pytest.mark.parametrize("rung", COST_LADDER)
def test_shla_check_evaluates_the_closed_form_number_of_identities(monkeypatch, rung):
    """A passing n-th sweep evaluates sum_k multichoose(F, k) * C(E, n - k)
    identities: k functions, repeats allowed, and n - k distinct others."""
    seen = Counter()
    original = courant.shla_identity

    def counted(tables, n, combo):
        seen[n] += 1
        return original(tables, n, combo)

    monkeypatch.setattr(courant, "shla_identity", counted)
    make, even, functions = COST_LADDER[rung]
    structure = make()
    assert shla_check(structure, 4).passed
    assert seen == {n: sum(multichoose(functions, k) * comb(even, n - k) for k in range(n + 1))
                    for n in range(1, 5)}
    if rung in COMMAND_TOTALS:
        assert sum(seen.values()) == COMMAND_TOTALS[rung]


# the documents of the CLI snapshot whose shla-check fails
FAILING_SHLA = ("twist-R4.spec", "brst-non-homomorphic.spec")


def generated_proto(seed) -> str:
    """A seeded proto document: rank 1-3, 0-2 base coordinates and random
    A, C, Abar and Cbar entries, each antisymmetric pair given once."""
    rng = random.Random(seed)
    rank, base = rng.randint(1, 3), [f"x{k + 1}" for k in range(rng.randint(0, 2))]
    values = ["1", "-1", "2", "-1/2"] + base + [f"{x}*{y}" for x in base for y in base]
    lines = ["kind: proto", f"base: {' '.join(base)}", f"rank: {rank}"]
    fibers = range(1, rank + 1)
    for table, indices, share in (
            ("A", product(fibers, range(1, len(base) + 1)), 0.4),
            ("Abar", product(fibers, range(1, len(base) + 1)), 0.3),
            ("C", [(a, b, c) for a, b in combinations(fibers, 2) for c in fibers], 0.4),
            ("Cbar", [(a, b, c) for a, b in combinations(fibers, 2) for c in fibers], 0.3)):
        lines += [f"{table}{''.join(f'[{k}]' for k in idx)} = {rng.choice(values)}"
                  for idx in indices if rng.random() < share]
    return "\n".join(lines) + "\n"


GENERATED = tuple(f"generated-{seed}" for seed in range(20))


def _proto(source):
    if source in PRESET_NAMES:
        return materialize(load_preset(source)).proto
    text = DOCUMENTS.get(source) or generated_proto(int(source.rsplit("-", 1)[1]))
    return materialize(parse_document(text)).proto


@pytest.mark.parametrize("source", PRESET_NAMES + FAILING_SHLA + GENERATED)
def test_shla_check_agrees_with_the_sweep_of_every_tuple(source):
    """Names, order, verdicts and residuals of every line of one
    `shla_check(structure, 4)`, against `sweep_shla` for n = 1..4 in turn.
    The gate sweeps every arity in one call, as the CLI does, and the oracle
    each on its own structure, so they share no table."""
    proto = _proto(source)
    report = shla_check(structure_from_proto(proto), 4)
    oracle = [sweep_shla(structure_from_proto(proto), n) for n in range(1, 5)]
    assert [c.name for c in report.checks] == [name for lines in oracle for name in lines]
    verdicts = set()
    for n, lines in enumerate(oracle, 1):
        for name, residual in lines.items():
            assert report[name].passed == residual.is_zero(), (n, name)
            assert report[name].residual == residual, (n, name)
        verdicts.add(all(report[name].passed for name in lines))
    if source in PRESET_NAMES:
        assert verdicts == {True}
    elif source in FAILING_SHLA:
        assert verdicts == {True, False}


@pytest.mark.parametrize("source", PRESET_NAMES + FAILING_SHLA)
def test_lower_arities_are_the_first_lines_of_arity_four(source):
    """`shla-check --n k` prints the lines of arities 1..k, which open the
    lines of --n 4."""
    structure = structure_from_proto(_proto(source))
    full = shla_check(structure, 4).checks
    for n in (1, 2, 3):
        lines = shla_check(structure, n).checks
        assert lines == full[:len(lines)]
        assert full[len(lines)].name == f"identity-n{n + 1}"


def test_generated_documents_fail_some_lines():
    """The skipped tuples are compared where identities are nonzero: lines
    fail on a share of the generated documents, at several arities."""
    arity = {f"identity-n{n}": n for n in range(1, 5)} | {
        "chainmap-on-two-sections-and-function": 3, "quadrilinear-pairing-identity": 4,
        "l3l2-equals-l2l3-on-sections": 4}
    failing = set()
    for source in GENERATED:
        structure = structure_from_proto(_proto(source))
        failing |= {(source, arity[c.name], c.name)
                    for c in shla_check(structure, 4).checks if not c.passed}
    assert len({source for source, _n, _name in failing}) >= 5
    assert {n for _source, n, _name in failing} >= {2, 3, 4}
