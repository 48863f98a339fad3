"""Bracket table and relation verification tests."""

import functools
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammagroups import brackets, search
from gammagroups.brackets import (
    COMPONENT_TABLES,
    TABLE_NAMES,
    BracketTable,
    ComponentMatch,
    component_composition,
    find_component_match,
    verify_bracket_table,
    verify_relations,
)
from gammagroups.words import (
    RelationSet, VerificationReport, parse_word, table_roles, word_element, word_index,
)
from gammagroups.catalog import (
    CATALOG_NAMES,
    EXTENSION_NAMES,
    POOL_NAMES,
    catalog_entry,
    catalog_group,
    load_generator_file,
    enumerate_extensions,
    pool_group,
    sweep_extensions,
)
from gammagroups.data import load_json
from gammagroups.exact import (
    COUNTERS, UNITS, ExactMatrix, GaussianRational, block_diag, format_matrix, parse_matrix,
    parse_scalar,
)
from gammagroups.groups import MatrixGroup, mask_indices

MINUS = GaussianRational(-1, 0)
IMAG = GaussianRational(0, 1)

SX = parse_matrix("[[0,1],[1,0]]")
SY = parse_matrix("[[0,-i],[i,0]]")
SZ = parse_matrix("[[1,0],[0,-1]]")
A1 = SZ * SY
A2 = SX * SZ
A3 = SY * SX
CENTRAL = SX * SY * SZ

D_ASSIGNMENT = {"a1": A1, "a2": A2, "a3": A3, "b1": SX, "b2": SY, "b3": SZ}


def pauli_group():
    return MatrixGroup.from_generators([SX, SY, SZ])


def commutator(a, b):
    return a * b - b * a


def matrix_bracket_report(table, assignment):
    """The reference check: every stored row [x, y] = coeff * z of the
    table, formed as exact matrices from an explicit assignment."""
    report = VerificationReport(f"bracket-table-{table.name}", [])
    dim = assignment[table.labels[0]].dim
    zero = ExactMatrix.identity(dim).scale(GaussianRational(0, 0))
    for x, y, sign, z in table.signed_rows:
        got = commutator(assignment[x], assignment[y])
        want = zero if z is None else assignment[z].scale(GaussianRational(2 * sign))
        detail = ""
        if got != want:
            detail = f"[{x},{y}] = {format_matrix(got, bare=True)}, expected {format_matrix(want, bare=True)}"
        report.add(f"{table.name}:[{x},{y}]", got == want, detail)
    return report


def evaluate_word(text, assignment, *, dim=None):
    """The reference value of a relation word: the exact matrix product of
    its factors' powers over an explicit assignment, times its scalar i^p."""
    phase, factors = parse_word(text)
    if dim is None:
        if not assignment:
            raise ValueError("cannot size a scalar word without an assignment or dim")
        dim = next(iter(assignment.values())).dim
    acc = ExactMatrix.identity(dim)
    for label, exp in factors:
        if label not in assignment:
            raise ValueError(f"word {text!r} uses unassigned label {label!r}")
        acc = acc * (assignment[label] ** exp)
    return acc.scale(UNITS[phase])


def matrix_relations_report(relations, assignment):
    """The reference check: both sides of every relation formed as exact
    matrices from an explicit assignment and compared."""
    report = VerificationReport(f"relations-{relations.name}", [])
    for rel_id, lhs, rhs in relations.relations:
        left = evaluate_word(lhs, assignment)
        right = evaluate_word(rhs, assignment, dim=left.dim)
        detail = ""
        if left != right:
            detail = f"{lhs} = {format_matrix(left, bare=True)} but {rhs} = {format_matrix(right, bare=True)}"
        report.add(f"{relations.name}:{rel_id}", left == right, detail)
    return report


def relations_on_closure(relations, assignment):
    """verify_relations on the group the assignment's matrices close into,
    each label played by its matrix's index; the whole report, details
    included, is first checked against the matrix reference."""
    group = MatrixGroup.from_generators(list(assignment.values()))
    roles = {label: group.index_of(m) for label, m in assignment.items()}
    report = verify_relations(group, relations, roles)
    assert report == matrix_relations_report(relations, assignment)
    return report


def cache_the_matrix_reference(monkeypatch):
    """Memoize the reference's commutators, scalings and failure texts for
    one test whose role assignments share their matrices."""
    monkeypatch.setitem(globals(), "commutator", functools.cache(commutator))
    monkeypatch.setitem(globals(), "format_matrix", functools.cache(format_matrix))
    monkeypatch.setattr(ExactMatrix, "scale", functools.cache(ExactMatrix.scale))


def row_outcomes(report):
    return [(check.check_id, check.passed) for check in report.checks]


def rows_hold(group, table, roles):
    """The component scan's yes/no row check, stopping at the first failure."""
    return next(brackets._failed_rows(group, table, roles), None) is None


def verify_on_closure(table, assignment):
    """verify_bracket_table on the group the assignment's matrices close
    into, each label played by its matrix's index; every row's outcome is
    first checked against the matrix reference."""
    group = MatrixGroup.from_generators(list(assignment.values()))
    roles = {label: group.index_of(m) for label, m in assignment.items()}
    report = verify_bracket_table(group, table, roles)
    assert row_outcomes(report) == row_outcomes(matrix_bracket_report(table, assignment))
    return report


class TestTableData:
    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_all_tables_load(self, name):
        table = BracketTable.load(name)
        want = 15 if table.boosts else 3
        assert len(table.signed_rows) == want

    def test_unknown_table_name(self):
        with pytest.raises(KeyError):
            BracketTable.load("z")

    def test_boost_signs(self):
        assert BracketTable.load("d").boost_signs == (-1, -1, -1)
        assert BracketTable.load("f").boost_signs == (1, -1, -1)
        assert BracketTable.load("b").boost_signs == (1, 1, 1)
        assert BracketTable.load("c").boost_signs == (-1, 1, 1)
        assert BracketTable.load("q2").boost_signs is None

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            BracketTable(
                "bad",
                ["a1", "a2", "a3"],
                [],
                [
                    ("a1", "a2", GaussianRational(2, 0), "a3"),
                    ("a2", "a1", GaussianRational(-2, 0), "a3"),
                    ("a2", "a3", GaussianRational(2, 0), "a1"),
                ],
            )

    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            BracketTable(
                "bad",
                ["a1", "a2", "a3"],
                [],
                [("a1", "a2", GaussianRational(2, 0), "a3")],
            )

    @pytest.mark.parametrize("coeff", ["2i", "1", "-4", "1/2"])
    def test_coefficients_other_than_zero_and_two_rejected(self, coeff):
        # The Cayley-table row check decides 0 and +-2 rows only.
        payload = {
            "name": "bad",
            "rotations": ["a1", "a2", "a3"],
            "brackets": [
                {"x": "a1", "y": "a2", "coeff": coeff, "z": "a3"},
                {"x": "a2", "y": "a3", "coeff": "2", "z": "a1"},
                {"x": "a3", "y": "a1", "coeff": "-2", "z": "a2"},
            ],
        }
        with pytest.raises(ValueError, match="not 0, 2 or -2"):
            BracketTable.from_dict(payload)
        payload["brackets"][0]["coeff"] = "2"
        assert BracketTable.from_dict(payload).boost_signs is None

    @pytest.mark.parametrize("row", [{"coeff": "0"}, {"coeff": "-2", "z": "b1"}])
    def test_boost_row_without_its_rotation_has_no_signs(self, row):
        payload = load_json("tables", "d.json")
        payload["brackets"][4] = {"x": "b2", "y": "b3", **row}
        with pytest.raises(ValueError, match=r"\[b2,b3\] does not have the 2\*a1 shape"):
            BracketTable.from_dict(payload)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown label"):
            BracketTable(
                "bad",
                ["a1", "a2", "a3"],
                [],
                [
                    ("a1", "a2", GaussianRational(2, 0), "zz"),
                    ("a2", "a3", GaussianRational(2, 0), "a1"),
                    ("a3", "a1", GaussianRational(2, 0), "a2"),
                ],
            )


class TestWordGrammar:
    def test_plain_factors(self):
        phase, factors = parse_word("a1 b2 a1")
        assert phase == 0
        assert factors == (("a1", 1), ("b2", 1), ("a1", 1))

    def test_exponents(self):
        _, factors = parse_word("a1^3 b2^-1")
        assert factors == (("a1", 3), ("b2", -1))

    def test_scalar_prefix(self):
        phase, factors = parse_word("-1*a2 a1")
        assert phase == 2
        assert factors == (("a2", 1), ("a1", 1))

    def test_bare_scalar_word(self):
        for phase, text in enumerate(["1", "i", "-1", "-i"]):
            assert parse_word(text) == (phase, ())
            assert parse_word(f"{text}*a1") == (phase, (("a1", 1),))

    @pytest.mark.parametrize(
        "bad", ["", "a1^", "^2", "a1**b2", "3a1", "a1 ^2", "-2/3", "2*a1", "0*a1"],
    )
    def test_malformed_words(self, bad):
        with pytest.raises(ValueError):
            parse_word(bad)

    def test_evaluate_word(self):
        got = evaluate_word("-1*b1 b2", {"b1": SX, "b2": SY})
        assert got == (SX * SY).scale(MINUS)

    def test_evaluate_scalar_word_needs_dim(self):
        got = evaluate_word("i", {}, dim=2)
        assert got.scalar_value() == IMAG
        with pytest.raises(ValueError):
            evaluate_word("i", {})

    def test_evaluate_unassigned_label(self):
        with pytest.raises(ValueError, match="unassigned"):
            evaluate_word("a1 zz", {"a1": SX})

    def test_negative_exponent_is_inverse(self):
        assert evaluate_word("a1^-1", {"a1": A1}) == A1.inverse()


class TestTableVerification:
    def test_first_table_on_standard_assignment(self):
        report = verify_on_closure(BracketTable.load("d"), D_ASSIGNMENT)
        assert report.passed
        assert len(report.checks) == 15

    def test_three_label_table(self):
        report = verify_on_closure(
            BracketTable.load("q2"), {"a1": A1, "ap2": SY, "ap3": SZ}
        )
        assert report.passed

    def test_conjugate_table_on_derived_boosts(self):
        assignment = {
            "a1": A1,
            "ap2": SY,
            "ap3": SZ,
            "bp1": SX,
            "bp2": SY.scale(IMAG),
            "bp3": SZ.scale(IMAG),
        }
        assert verify_on_closure(BracketTable.load("f"), assignment).passed

    def test_conjugate_table_on_alternative_boosts(self):
        # A second valid realization with a different rotation triple.
        assignment = {
            "a1": SZ.scale(IMAG).scale(MINUS),
            "ap2": SY,
            "ap3": SX.scale(MINUS),
            "bp1": SZ,
            "bp2": SY.scale(IMAG),
            "bp3": SX.scale(IMAG).scale(MINUS),
        }
        assert verify_on_closure(BracketTable.load("f"), assignment).passed

    def test_twisted_boosts_satisfy_second_table(self):
        # Scaling each boost by i turns a passing first-table assignment
        # into a passing second-table assignment.
        twisted = dict(D_ASSIGNMENT)
        for label, twist in (("b1", "bpp1"), ("b2", "bpp2"), ("b3", "bpp3")):
            twisted[twist] = twisted.pop(label).scale(IMAG)
        assert verify_on_closure(BracketTable.load("b"), twisted).passed

    def test_failure_carries_detail(self):
        broken = dict(D_ASSIGNMENT)
        broken["b3"] = SZ.scale(MINUS)
        report = verify_on_closure(BracketTable.load("d"), broken)
        assert not report.passed
        bad = report.failures()
        assert bad
        assert all(item.detail for item in bad)

    def test_failure_names_the_row_and_what_the_table_found(self):
        # A flipped boost anticommutes with the wrong sign and the identity
        # in every role commutes: each failing detail names the row's pair,
        # what their products showed and the matrix of the product. Two
        # D16 elements do neither.
        table = BracketTable.load("d")
        group = pauli_group()
        broken = dict(D_ASSIGNMENT, b3=SZ.scale(MINUS))
        flipped = {label: group.index_of(m) for label, m in broken.items()}
        trivial = dict.fromkeys(table.labels, 0)
        for roles, found in ((flipped, "anticommute"), (trivial, "commute")):
            bad = verify_bracket_table(group, table, roles).failures()
            assert bad, found
            for check in bad:
                x, y = check.check_id.partition("[")[2].rstrip("]").split(",")
                product = group.elements[group.mul(roles[x], roles[y])]
                assert check.detail.startswith(f"{x} and {y} {found}, "), check.detail
                assert format_matrix(product, bare=True) in check.detail
                assert f"expected [{x},{y}] = " in check.detail
        r = parse_matrix("[[0,0,0,-1],[1,0,0,0],[0,1,0,0],[0,0,1,0]]")
        f = parse_matrix("[[1,0,0,0],[0,0,0,-1],[0,0,-1,0],[0,-1,0,0]]")
        d16 = MatrixGroup.from_generators([r, f])
        roles = dict(trivial, a1=d16.index_of(r), a2=d16.index_of(f))
        assert verify_bracket_table(d16, table, roles).checks[0].detail == (
            "a1 and a2 neither commute nor anticommute, with a1 a2 = "
            + format_matrix(r * f, bare=True) + "; expected [a1,a2] = 2*a3"
        )
        # S3 as permutation matrices has no -1, so no pair anticommutes.
        swap = parse_matrix("[[0,1,0],[1,0,0],[0,0,1]]")
        cycle = parse_matrix("[[0,0,1],[1,0,0],[0,1,0]]")
        s3 = MatrixGroup.from_generators([swap, cycle])
        assert s3.minus_index() is None
        roles = dict(trivial, a1=s3.index_of(swap), a2=s3.index_of(cycle))
        first, *rest = verify_bracket_table(s3, table, roles).failures()
        assert first.detail.startswith("a1 and a2 neither commute nor anticommute, ")
        assert rest and all(" commute, " in check.detail for check in rest)

    def test_missing_label_raises(self):
        partial = {k: v for k, v in D_ASSIGNMENT.items() if k != "b2"}
        group = pauli_group()
        roles = {label: group.index_of(m) for label, m in partial.items()}
        with pytest.raises(ValueError, match="misses"):
            verify_bracket_table(group, BracketTable.load("d"), roles)

    def test_conjugation_invariance(self):
        group = pauli_group()
        for g in group.elements:
            moved = {k: g * m * g.inverse() for k, m in D_ASSIGNMENT.items()}
            assert verify_on_closure(BracketTable.load("d"), moved).passed


class TestRelations:
    @pytest.mark.parametrize("name", ["pauli_products", "quaternion", "dihedral"])
    def test_relation_sets_load(self, name):
        rels = RelationSet.load(name)
        assert rels.relations

    def test_pauli_product_identities(self):
        assignment = dict(D_ASSIGNMENT, c=CENTRAL)
        report = relations_on_closure(RelationSet.load("pauli_products"), assignment)
        assert report.passed
        assert len(report.checks) == 12

    def test_quaternion_relations(self):
        report = relations_on_closure(
            RelationSet.load("quaternion"), {"a1": A1, "a2": A2, "a3": A3}
        )
        assert report.passed

    def test_dihedral_relations(self):
        report = relations_on_closure(
            RelationSet.load("dihedral"), {"a1": A1, "ap2": SY, "ap3": A1 * SY}
        )
        assert report.passed

    def test_dirac_relations(self):
        gammas = {
            "g1": parse_matrix("[[0,0,0,-i],[0,0,-i,0],[0,i,0,0],[i,0,0,0]]"),
            "g2": parse_matrix("[[0,0,0,-1],[0,0,1,0],[0,1,0,0],[-1,0,0,0]]"),
            "g3": parse_matrix("[[0,0,-i,0],[0,0,0,i],[i,0,0,0],[0,-i,0,0]]"),
            "g4": parse_matrix("[[1,0,0,0],[0,1,0,0],[0,0,-1,0],[0,0,0,-1]]"),
        }
        assert relations_on_closure(search.SignatureSpec.parse("++++").relations(), gammas).passed

    def test_failing_relation_reports_detail(self):
        report = relations_on_closure(
            RelationSet.load("quaternion"), {"a1": A1, "a2": A2, "a3": A3.scale(MINUS)}
        )
        assert not report.passed
        (failed,) = [c for c in report.failures() if "third-rotation-is-product" in c.check_id]
        # both sides as matrices, as the reference writes them
        assert " but " in failed.detail and "[[" in failed.detail

    def test_scalar_outside_the_group_checks_without_it(self):
        # i is not in Q8, yet A1 = i * (-i A1) reads as a ratio of scalars.
        group = MatrixGroup.from_generators([A1, A2])
        assert group.order == 8 and ExactMatrix.identity(2).scale(IMAG) not in group
        relations = RelationSet("ratio", ["x", "y"], [
            ("holds", "i*x", "-i*y^-1 x y"), ("fails", "i*x", "x"), ("scalars", "-i", "-i*x^4"),
        ])
        roles = {"x": group.index_of(A1), "y": group.index_of(A2)}
        report = verify_relations(group, relations, roles)
        assert [c.passed for c in report.checks] == [True, False, True]
        assert report == matrix_relations_report(relations, {"x": A1, "y": A2})
        relations = RelationSet("ratio", ["x", "y"], [("holds", "i*x", "-i*y^-1 x^5 y^4 y")])
        assert verify_relations(group, relations, roles).passed

    def test_reports_do_not_share_their_check_lists(self):
        relations = RelationSet.load("quaternion")
        group = MatrixGroup.from_generators([A1, A2])
        roles = {label: group.index_of(m) for label, m in (("a1", A1), ("a2", A2), ("a3", A3))}
        first = verify_relations(group, relations, roles)
        second = verify_relations(group, relations, roles)
        assert first.checks is not second.checks
        assert first.checks == second.checks

    def test_label_outside_set_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            RelationSet("bad", ["x"], [("r", "x y", "1")])

    @pytest.mark.parametrize("side", ["0", "0*x", "0*x y", "2*x", "1/2*x y", "1+i*x"])
    def test_non_unit_scalar_side_rejected(self, side):
        # A word's scalar is i^p; any other scalar is no word.
        with pytest.raises(ValueError, match="word"):
            RelationSet("bad", ["x", "y"], [("r0", "x", side)])
        with pytest.raises(ValueError, match="word"):
            RelationSet("bad", ["x", "y"], [("r0", side, "x")])


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_INPUTS = ("s3.json", "d8_perm.json", "two_t.json")


def lacking_phases(source):
    """The unit phases a group lacks, i being 1, -1 being 2 and -i being 3:
    s3 and d8_perm lack -1, and only the pauli entries and the pools hold i."""
    if source in ("s3.json", "d8_perm.json"):
        return {1, 2, 3}
    if source.startswith("pauli") or source in POOL_NAMES:
        return set()
    return {1, 3}


def word_group(source):
    """A catalog group, a pool, or the group of a golden generator file."""
    if source in POOL_NAMES:
        return pool_group(source)
    if source in GOLDEN_INPUTS:
        return load_generator_file(str(GOLDEN / source))[1]
    return catalog_group(source)


class TestWordIndex:
    def test_factors_read_off_the_table(self):
        group = pauli_group()
        roles = {"b1": group.index_of(SX), "b2": group.index_of(SY)}
        phase, k = word_index(group, "-1*b1 b2", roles)
        assert phase == 2 and group.elements[k] == SX * SY

    def test_exponents_reduce_modulo_the_order(self):
        group = MatrixGroup.from_generators([A1, A2])
        roles = {"a": group.index_of(A1)}
        for exp in range(-9, 10):
            _, k = word_index(group, f"a^{exp}", roles)
            assert group.elements[k] == A1 ** exp

    def test_scalar_word_is_the_identity(self):
        assert word_index(pauli_group(), "i", {}) == (1, 0)

    def test_unassigned_label_raises(self):
        group = pauli_group()
        with pytest.raises(ValueError, match="unassigned"):
            word_index(group, "a1 zz", {"a1": group.index_of(SX)})

    def test_word_element_scales_into_the_group(self):
        group = pauli_group()
        roles = {"b1": group.index_of(SX)}
        assert group.elements[word_element(group, "-i*b1", roles)] == SX.scale(-IMAG)
        q8 = MatrixGroup.from_generators([A1, A2])
        with pytest.raises(ValueError, match="not an element"):
            word_element(q8, "i*a", {"a": q8.index_of(A1)})

    @pytest.mark.parametrize("source", [*CATALOG_NAMES, *POOL_NAMES, *GOLDEN_INPUTS])
    def test_phases_against_the_matrix_reference(self, source):
        # i^p * g lies in the group exactly when i^p does: every element and
        # phase against scaling the matrix, on groups that lack -1
        # (d8_perm) or i (q8, d4) too.
        group = word_group(source)
        lacking = set()
        for k, g in enumerate(group.elements):
            for p, unit in enumerate(("1", "i", "-1", "-i")):
                word = f"{unit}*x^3 x^-2"
                assert word_index(group, word, {"x": k})[1] == k
                try:
                    want = group.index_of(g.scale(UNITS[p]))
                except ValueError:
                    lacking.add(p)
                    with pytest.raises(ValueError, match="not an element"):
                        word_element(group, word, {"x": k})
                else:
                    assert word_element(group, word, {"x": k}) == want
        assert lacking == lacking_phases(source)


def entry_assignment(entry, words):
    """The reference's matrix for each label word over the entry's generators."""
    genmap = {f"g{k + 1}": m for k, m in enumerate(entry.generators)}
    return {label: evaluate_word(word, genmap) for label, word in words.items()}


# Each stored relation set on every entry that names it, and each declared
# signature, as "signature", on its entry's generators.
STORED_RELATION_SETS = [
    (name, set_name)
    for name in CATALOG_NAMES
    for set_name in catalog_entry(name).relations
] + [(name, "signature") for name in CATALOG_NAMES if catalog_entry(name).signature]


@functools.cache
def stored_roles(name, set_name):
    """(relations, group, index roles, reference matrices) of a stored
    relation set's labels, or a declared signature's generators, on its
    catalog entry."""
    entry = catalog_entry(name)
    group = catalog_group(name)
    gens = entry.generator_roles(group)
    if set_name == "signature":
        relations = search.SignatureSpec.parse(entry.signature).relations()
        return relations, group, gens, dict(zip(gens, entry.generators))
    relations = RelationSet.load(set_name)
    words = {label: entry.roles[label] for label in relations.labels}
    roles = {label: word_element(group, word, gens) for label, word in words.items()}
    return relations, group, roles, entry_assignment(entry, words)


@st.composite
def drawn_words(draw, labels):
    """A word of 0-4 factors over the labels, exponents -3..3, scalar +-1 or +-i."""
    scalar = draw(st.sampled_from(["1", "-1", "i", "-i"]))
    factors = draw(st.lists(
        st.tuples(st.sampled_from(labels), st.integers(min_value=-3, max_value=3)), max_size=4,
    ))
    if not factors:
        return scalar
    body = " ".join(label if exp == 1 else f"{label}^{exp}" for label, exp in factors)
    return body if scalar == "1" else f"{scalar}*{body}"


class TestRelationsOnTheTable:
    """The table engine against the matrix reference, report for report."""

    @pytest.mark.parametrize("name,set_name", STORED_RELATION_SETS)
    def test_stored_sets_on_their_entries(self, name, set_name):
        relations, group, roles, assignment = stored_roles(name, set_name)
        assert all(group.elements[roles[label]] == m for label, m in assignment.items())
        report = verify_relations(group, relations, roles)
        assert report.passed
        assert report == matrix_relations_report(relations, assignment)

    @pytest.mark.parametrize("name", [
        n for n in CATALOG_NAMES if catalog_entry(n).table and catalog_entry(n).roles
    ])
    def test_stored_table_words_name_the_reference_matrices(self, name):
        entry = catalog_entry(name)
        group = catalog_group(name)
        table = BracketTable.load(entry.table)
        roles = table_roles(group, entry, table)
        assignment = entry_assignment(entry, {label: entry.roles[label] for label in table.labels})
        assert {label: group.elements[k] for label, k in roles.items()} == assignment

    @pytest.mark.parametrize("name,set_name", STORED_RELATION_SETS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_drawn_relations_on_stored_entries(self, name, set_name, data):
        _, group, roles, assignment = stored_roles(name, set_name)
        labels = sorted(roles)
        pairs = data.draw(st.lists(
            st.tuples(drawn_words(labels), drawn_words(labels)), min_size=10, max_size=14,
        ))
        relations = RelationSet(set_name, labels, [
            (f"r{k}", lhs, rhs) for k, (lhs, rhs) in enumerate(pairs)
        ])
        report = verify_relations(group, relations, roles)
        assert report == matrix_relations_report(relations, assignment)

    def test_found_extensions(self):
        found = [r for r in sweep_extensions() if r.found]
        assert len(found) == 4
        for result in found:
            assignment = {f"g{k}": g for k, g in enumerate(result.generators, 1)}
            squares = tuple(int((g * g).scalar_value().re) for g in result.generators)
            relations = search.SignatureSpec(squares).relations()
            assert len(relations.relations) == 5 + 10 + 5 + 1
            assert result.report == matrix_relations_report(relations, assignment)

    @pytest.mark.parametrize("base", ["gamma_minus", "gamma_plus", "pauli_c2", "q8_v4", "d4_v4"])
    @pytest.mark.parametrize("square", [1, -1])
    def test_extension_witness_matches_the_phase_loop(self, base, square):
        # The reference: each phase of the generator product, by matrices.
        gens = catalog_entry(base).generators
        product = gens[0] * gens[1] * gens[2] * gens[3]
        for phase in ("1", "-1", "i", "-i"):
            witness = product.scale(parse_scalar(phase))
            if (witness * witness).scalar_value() == GaussianRational(square, 0) and all(
                witness * g == (g * witness).scale(MINUS) for g in gens
            ):
                break
        else:
            phase = None
        result = enumerate_extensions(base, square)
        assert result.found == (phase is not None)
        if phase is not None:
            assert result.phase == phase
            assert result.generators[-1] == block_diag(witness, witness.scale(MINUS))


class TestClassification:
    def test_pauli_classifies_first(self):
        assert find_component_match(pauli_group()).table == "d"

    def test_designated_boosts_pick_the_table(self):
        group = pauli_group()
        assert find_component_match(group, designated=[SX, SY, SZ]).table == "d"
        scaled = [SX, SY.scale(IMAG), SZ.scale(IMAG)]
        assert find_component_match(group, designated=scaled).table == "f"

    def test_component_composition_pauli(self):
        assert component_composition(pauli_group()) == frozenset({"d", "f"})

    def test_quaternion_double_admits_only_b(self):
        ri = parse_matrix("[[i,0],[0,-i]]")
        rj = parse_matrix("[[0,1],[-1,0]]")
        mats = [block_diag(m, m.scale(MINUS)) for m in (ri, rj, ri * rj)]
        group = MatrixGroup.from_generators(mats)
        assert group.order == 16
        assert find_component_match(group).table == "b"
        assert component_composition(group) == frozenset({"b"})

    def test_dihedral_double_admits_only_c(self):
        r = parse_matrix("[[0,-1],[1,0]]")
        f = parse_matrix("[[1,0],[0,-1]]")
        mats = [block_diag(m, m.scale(MINUS)) for m in (r, f, r * f)]
        group = MatrixGroup.from_generators(mats)
        assert group.order == 16
        assert find_component_match(group).table == "c"
        assert find_component_match(group, designated=mats).table == "c"
        assert component_composition(group) == frozenset({"c"})

    def test_abelian_group_has_no_component(self):
        gens = [
            parse_matrix("[[i,0,0],[0,1,0],[0,0,1]]"),
            parse_matrix("[[1,0,0],[0,-1,0],[0,0,1]]"),
            parse_matrix("[[1,0,0],[0,1,0],[0,0,-1]]"),
        ]
        group = MatrixGroup.from_generators(gens)
        assert group.order == 16
        assert component_composition(group) == frozenset()
        assert find_component_match(group) is None

    def test_wrong_order_rejected(self):
        q8 = MatrixGroup.from_generators([A1, A2])
        with pytest.raises(ValueError, match="order-16"):
            find_component_match(q8)
        # Q8 has no order-16 subgroup to compose from.
        assert component_composition(q8) == frozenset()

    def test_designated_validation(self):
        group = pauli_group()
        with pytest.raises(ValueError, match="three"):
            find_component_match(group, designated=[SX, SY])
        stranger = parse_matrix("[[0,2],[1/2,0]]")
        with pytest.raises(ValueError, match="belong"):
            find_component_match(group, designated=[SX, SY, stranger])

    def test_match_round_trips_through_verification(self):
        group = pauli_group()
        match = find_component_match(group)
        assert match is not None
        table = BracketTable.load(match.table)
        assert verify_bracket_table(group, table, match.roles(table)).passed

    def test_search_is_deterministic(self):
        group = pauli_group()
        first = find_component_match(group)
        second = find_component_match(group)
        assert first == second

    def test_component_table_order(self):
        assert COMPONENT_TABLES == ("d", "f", "b", "c")

    @pytest.mark.parametrize("name", ["pauli", "pauli_f", "q8_c2", "d4_c2"])
    def test_boost_triples_match_matrix_enumeration(self, name):
        # Ordered triples straight off the matrices, in the order the
        # reference scan (and so the component search) picks its first
        # match from.
        group = catalog_group(name) if name != "pauli" else pauli_group()
        identity = group.elements[0]
        minus = identity.scale(MINUS)
        boosts = [
            i for i, m in enumerate(group.elements)
            if m.scalar_value() is None and m * m in (identity, minus)
        ]

        elements = group.elements
        anti = {
            (i, j) for i in boosts for j in boosts
            if elements[i] * elements[j] == (elements[j] * elements[i]).scale(MINUS)
        }
        expected = [
            (s1, s2, s3)
            for s1 in boosts for s2 in boosts for s3 in boosts
            if {(s1, s2), (s1, s3), (s2, s3)} <= anti
        ]
        assert list(anticommuting_triples(group)) == expected


# The catalog groups of order at most 32, and the golden generator files.
SMALL_SOURCES = [
    *(n for n in CATALOG_NAMES if load_json("catalog", f"{n}.json")["expected"]["order"] <= 32),
    *GOLDEN_INPUTS,
]
Q2_REALIZERS = {
    "pauli", "pauli_f", "d4", "gamma_minus", "gamma_plus", "pauli_c2", "d4_v4", "d4_c2",
}
Q2_COUNTS = {"pauli": 24, "gamma_minus": 80}


def realizing_triples(group, table):
    """The brute-force reference: every ordered triple of elements, in index
    order, on which every row of a three-label table holds."""
    found = []
    for triple in itertools.product(range(group.order), repeat=3):
        roles = dict(zip(table.labels, triple))
        if rows_hold(group, table, roles):
            found.append(roles)
    return found


class TestRotationTableSearch:
    """A table without boosts (q2) is searched on a group of any order."""

    @pytest.mark.parametrize("source", SMALL_SOURCES)
    def test_first_realization_against_brute_force(self, source):
        group, table = word_group(source), BracketTable.load("q2")
        found = realizing_triples(group, table)
        roles = table_roles(group, None, table)
        assert roles == (found[0] if found else None)
        assert (roles is not None) == (source in Q2_REALIZERS)
        if source in Q2_COUNTS:
            assert len(found) == Q2_COUNTS[source]
        if roles is not None:
            assignment = {label: group.elements[k] for label, k in roles.items()}
            assert matrix_bracket_report(table, assignment).passed


def neg_index(group):
    minus = group.elements[0].scale(MINUS)
    return group.index_of(minus) if minus in group else None


def anticommuting_triples(group):
    """Ordered triples of distinct boost candidates that pairwise anticommute.

    Candidates are the non-scalar elements whose square is the scalar +1
    or -1; each position runs over them in increasing index.
    """
    squares = group.unit_square_masks()
    candidates = squares[1] | squares[-1]
    anti = group.commutation_masks()[1]
    for s1 in mask_indices(candidates):
        for s2 in mask_indices(anti[s1] & candidates):
            for s3 in mask_indices(anti[s1] & anti[s2] & candidates):
                yield (s1, s2, s3)


def is_canonical(group, boosts, neg):
    """Whether a boost triple is the one the scan keeps among its sign
    changes and its swaps of equal squares: each generator the lower index
    of its pair {s, -s}, and generators with equal squares in increasing
    index."""
    squares = [group.mul(s, s) for s in boosts]
    return all(s < group.mul(neg, s) for s in boosts) and all(
        a < b for (a, sa), (b, sb) in itertools.combinations(zip(boosts, squares), 2) if sa == sb
    )


def first_generating_triples(group):
    """The ordered reference scan: per square signature, in the component
    scan's signature order, the first boost triple in increasing (s1, s2,
    s3) over every ordered and signed triple whose closure has order 16;
    sorted."""
    squares = group.unit_square_masks()
    anti = group.commutation_masks()[1]
    found = []
    for e1, e2, e3 in itertools.product((1, -1), repeat=3):
        triples = (
            (s1, s2, s3)
            for s1 in mask_indices(squares[e1])
            for s2 in mask_indices(anti[s1] & squares[e2])
            for s3 in mask_indices(anti[s1] & anti[s2] & squares[e3])
        )
        first = next((t for t in triples if len(group.closure_indices(t)) == 16), None)
        if first is not None:
            found.append(first)
    return sorted(found)


def scanned_triples(group):
    """How many boost triples the scan visits (per square signature, the
    canonical ones up to and including its first generating one) and how
    many signatures have a generating triple, both decided by closures."""
    neg = neg_index(group)
    by_signature: dict[tuple[int, ...], list[bool]] = {}
    for boosts in anticommuting_triples(group):
        if not is_canonical(group, boosts, neg):
            continue
        squares = tuple(group.mul(s, s) for s in boosts)
        by_signature.setdefault(squares, []).append(len(group.closure_indices(boosts)) == 16)
    seen = by_signature.values()
    visited = sum(flags.index(True) + 1 if True in flags else len(flags) for flags in seen)
    return visited, sum(True in flags for flags in seen)


def boost_roles(group, table, signs, boosts, neg):
    """Rotation indices r_k = e_k s_i s_j and the label -> index map of a triple."""
    s1, s2, s3 = boosts
    rotations = tuple(
        group.mul(a, b) if e > 0 else group.mul(neg, group.mul(a, b))
        for e, (a, b) in zip(signs, ((s2, s3), (s3, s1), (s1, s2)))
    )
    roles = dict(zip(table.rotations, rotations))
    roles.update(zip(table.boosts, boosts))
    return rotations, roles


def reference_match(group, table_name, triples=None):
    """First fit of one table by the plain per-triple scan.

    Every triple (by default every anticommuting one) gets the full row
    check and then the closure check; no row check is shared between
    triples of one square signature.
    """
    neg = neg_index(group)
    if neg is None:
        return None
    table = BracketTable.load(table_name)
    signs = table.boost_signs
    for boosts in anticommuting_triples(group) if triples is None else triples:
        rotations, roles = boost_roles(group, table, signs, boosts, neg)
        if not rows_hold(group, table, roles):
            continue
        if len(group.closure_indices(boosts)) == group.order:
            return ComponentMatch(table_name, boosts, rotations)
    return None


def order16_groups(source, sample=None):
    """The order-16 catalog group itself, or (a seeded sample of) the
    order-16 subgroups of a larger catalog group or pool."""
    parent = pool_group(source) if source == "dirac4" else catalog_group(source)
    if parent.order == 16:
        return [parent]
    subs = parent.subgroups_of_order(16)
    if sample is not None:
        subs = random.Random(f"order16:{source}").sample(subs, sample)
    return [sub.as_group() for sub in subs]


# Every order-16 catalog entry and every order-16 subgroup of the five
# order-32 entries (75 groups), then a seeded sample of the 155 order-16
# subgroups of each order-64 entry and of the dirac4 pool.
COMPONENT_SOURCES = [
    ("pauli", None), ("pauli_f", None), ("q8_c2", None), ("d4_c2", None),
    ("gamma_minus", None), ("gamma_plus", None), ("pauli_c2", None),
    ("q8_v4", None), ("d4_v4", None),
    ("gamma64_minus", 5), ("gamma64_plus", 5), ("gamma64_null", 5), ("dirac4", 5),
]
# The sources that are themselves an order-16 catalog entry.
ORDER16_ENTRIES = ("pauli", "pauli_f", "q8_c2", "d4_c2")


class TestSquareSignatureMemo:
    @pytest.mark.parametrize("source, sample", COMPONENT_SOURCES)
    def test_search_matches_the_reference_scan(self, source, sample):
        for group in order16_groups(source, sample):
            want = {name: reference_match(group, name) for name in COMPONENT_TABLES}
            for name in COMPONENT_TABLES:
                assert find_component_match(group, tables=(name,)) == want[name]
            first = next((m for m in want.values() if m is not None), None)
            assert find_component_match(group) == first
            assert component_composition(group) == frozenset(
                name for name, match in want.items() if match is not None
            )

    @pytest.mark.parametrize("source", CATALOG_NAMES + POOL_NAMES)
    def test_generating_triples_match_the_ordered_reference_scan(self, source):
        # The canonical walk against the first generating triple per square
        # signature over every ordered, signed triple: on every catalog
        # group and pool, and on each order-16 subgroup of the order-32
        # and order-64 entries (556 groups in all).
        parent = pool_group(source) if source in POOL_NAMES else catalog_group(source)
        groups = [parent]
        if source in CATALOG_NAMES and parent.order > 16:
            groups += [sub.as_group() for sub in parent.subgroups_of_order(16)]
        found = False
        for group in groups:
            want = first_generating_triples(group)
            neg = neg_index(group)
            if neg is None:
                assert want == []
                continue
            assert brackets._generating_triples(group) == want
            found |= bool(want)
        assert found == (parent.order >= 16)  # q8 and d4 have order 8

    @pytest.mark.parametrize("source, sample", COMPONENT_SOURCES)
    def test_one_lookup_decides_generation_like_the_closure(self, source, sample):
        # Every scanned triple generates the group exactly when its
        # closure does; the scan takes the lookup in place of the closure.
        verdicts = []
        for group in order16_groups(source, sample):
            for boosts in anticommuting_triples(group):
                whole = len(group.closure_indices(boosts)) == group.order
                assert brackets._scanned_triple_generates(group, boosts) == whole
                verdicts.append(whole)
        assert True in verdicts

    @pytest.mark.parametrize("name", ORDER16_ENTRIES)
    def test_designated_triples_match_the_reference_scan(self, name):
        # The entry's own generators, their conjugates by a seeded sample
        # of group elements, and a seeded sample of anticommuting triples,
        # each as a designated triple against a scan of that one triple.
        group = catalog_group(name)
        rng = random.Random(f"designated:{name}")
        gens = catalog_entry(name).generators
        designated = [gens]
        for g in rng.sample(group.elements, 4):
            designated.append([g * m * g.inverse() for m in gens])
        for boosts in rng.sample(list(anticommuting_triples(group)), 4):
            designated.append([group.elements[i] for i in boosts])
        verdicts = set()
        for mats in designated:
            triple = [tuple(group.index_of(m) for m in mats)]
            want = {table: reference_match(group, table, triple) for table in COMPONENT_TABLES}
            for table in COMPONENT_TABLES:
                got = find_component_match(group, designated=mats, tables=(table,))
                assert got == want[table]
            first = next((m for m in want.values() if m is not None), None)
            assert find_component_match(group, designated=mats) == first
            verdicts.add(first is not None)
        assert True in verdicts

    @pytest.mark.parametrize("source, sample", COMPONENT_SOURCES)
    def test_row_checks_stay_within_one_per_table_and_signature(self, source, sample):
        # The scan visits each signature's triples up to its first
        # generating one, testing each once, and checks the rows at most
        # once per (table, generating signature).
        counters = COUNTERS
        for group in order16_groups(source, sample):
            visited, generated = scanned_triples(group)
            for scan in (component_composition, find_component_match):
                before = dict(counters)
                scan(group)
                done = {k: counters[k] - before[k] for k in before}
                assert done["component.row_checks"] <= len(COMPONENT_TABLES) * generated
                assert done["component.triples"] == visited

    @pytest.mark.parametrize("source", ["pauli", "pauli_c2", "d4_v4"])
    def test_row_check_is_constant_per_square_signature(self, source):
        outcomes_seen = set()
        for group in order16_groups(source):
            neg = neg_index(group)
            if neg is None:
                continue  # no anticommuting pairs, so no boost triples
            for name in COMPONENT_TABLES:
                table = BracketTable.load(name)
                signs = table.boost_signs
                by_squares: dict[tuple[int, int, int], set[bool]] = {}
                for boosts in anticommuting_triples(group):
                    _, roles = boost_roles(group, table, signs, boosts, neg)
                    squares = tuple(group.mul(s, s) for s in boosts)
                    holds = rows_hold(group, table, roles)
                    by_squares.setdefault(squares, set()).add(holds)
                assert all(len(seen) == 1 for seen in by_squares.values()), (name, by_squares)
                outcomes_seen.update(*by_squares.values())
        assert outcomes_seen == {True, False}

    @pytest.mark.parametrize("name", COMPONENT_TABLES)
    def test_rows_name_the_remaining_cyclic_role(self, name):
        # The premise of the per-signature row check: [x_i, y_j] is +-2
        # times the role with index k = the third of (i, j), a rotation
        # unless exactly one of x, y is a boost, and [r_i, s_i] = 0.
        table = BracketTable.load(name)
        index = {lab: k for labels in (table.rotations, table.boosts) for k, lab in enumerate(labels)}
        for x, y, sign, z in table.signed_rows:
            i, j = index[x], index[y]
            if i == j:
                assert z is None
                continue
            mixed = (x in table.boosts) != (y in table.boosts)
            assert z == (table.boosts if mixed else table.rotations)[3 - i - j]
            assert sign in (1, -1)

    @pytest.mark.parametrize("source, sample", COMPONENT_SOURCES)
    def test_index_check_agrees_with_the_matrix_check(self, source, sample, monkeypatch):
        # The Cayley-table row check, row by row and as the scan's early
        # exit, against the matrix reference on the role matrices: every
        # triple of an order-16 catalog entry and a seeded sample of the
        # triples of each subgroup, on every component table.
        cache_the_matrix_reference(monkeypatch)
        rng = random.Random(f"rows:{source}")
        verdicts = set()
        for group in order16_groups(source, sample):
            neg = neg_index(group)
            if neg is None:
                continue
            triples = list(anticommuting_triples(group))
            if source not in ORDER16_ENTRIES:
                triples = rng.sample(triples, min(len(triples), 8))
            for name in COMPONENT_TABLES:
                table = BracketTable.load(name)
                signs = table.boost_signs
                for boosts in triples:
                    _, roles = boost_roles(group, table, signs, boosts, neg)
                    matrices = {label: group.elements[i] for label, i in roles.items()}
                    want = row_outcomes(matrix_bracket_report(table, matrices))
                    report = verify_bracket_table(group, table, roles)
                    assert row_outcomes(report) == want, (name, boosts)
                    holds = rows_hold(group, table, roles)
                    assert holds == report.passed, (name, boosts)
                    verdicts.add(holds)
        assert verdicts == {True, False}

    def test_index_check_agrees_with_the_matrix_check_off_boost_triples(self, monkeypatch):
        # D16 as signed 4x4 permutations contains -1, and arbitrary
        # designated triples give role pairs that neither commute nor
        # anticommute, whose rows the table check fails without matrices.
        # A seeded sample of ordered triples, and of boost triples so that
        # some pass, against the matrix reference row by row and, as
        # designated boosts, against the matrix check of a triple
        # generating D16.
        cache_the_matrix_reference(monkeypatch)
        r = parse_matrix("[[0,0,0,-1],[1,0,0,0],[0,1,0,0],[0,0,1,0]]")
        f = parse_matrix("[[1,0,0,0],[0,0,0,-1],[0,0,-1,0],[0,-1,0,0]]")
        group = MatrixGroup.from_generators([r, f])
        assert group.order == 16
        neg = neg_index(group)
        cay = group.cayley()
        rng = random.Random("rows:d16")
        triples = rng.sample(list(itertools.permutations(range(group.order), 3)), 96)
        triples += rng.sample(list(anticommuting_triples(group)), 24)
        verdicts, neither = set(), False
        for name in COMPONENT_TABLES:
            table = BracketTable.load(name)
            signs = table.boost_signs
            for boosts in triples:
                _, roles = boost_roles(group, table, signs, boosts, neg)
                matrices = {label: group.elements[i] for label, i in roles.items()}
                want = row_outcomes(matrix_bracket_report(table, matrices))
                report = verify_bracket_table(group, table, roles)
                assert row_outcomes(report) == want, (name, boosts)
                holds = rows_hold(group, table, roles)
                assert holds == report.passed, (name, boosts)
                mats = [group.elements[i] for i in boosts]
                whole = len(group.closure_indices(boosts)) == group.order
                got = find_component_match(group, designated=mats, tables=(name,))
                assert (got is not None) == (holds and whole), (name, boosts)
                verdicts.add(holds)
                products = [
                    (cay[roles[x]][roles[y]], cay[roles[y]][roles[x]])
                    for x, y, *_ in table.signed_rows
                ]
                neither |= any(yx not in (xy, cay[neg][xy]) for xy, yx in products)
        assert verdicts == {True, False}
        assert neither

    def test_row_signs_read_the_coefficients(self):
        # Each row once, in file order, with its data-file coefficient as 2 * sign.
        for name in TABLE_NAMES:
            rows = load_json("tables", f"{name}.json")["brackets"]
            want = [(r["x"], r["y"], {"2": 1, "0": 0, "-2": -1}[r["coeff"]], r.get("z")) for r in rows]
            assert list(BracketTable.load(name).signed_rows) == want

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_every_failing_row_names_its_expected_bracket(self, name):
        # Rotations on SX and boosts on SY fail every row: like roles
        # commute, and a mixed pair anticommutes with product +-i SZ. Each
        # detail ends in the row's data-file coefficient and target.
        table = BracketTable.load(name)
        group = pauli_group()
        roles = dict.fromkeys(table.rotations, group.index_of(SX))
        roles.update(dict.fromkeys(table.boosts, group.index_of(SY)))
        report = verify_bracket_table(group, table, roles)
        rows = load_json("tables", f"{name}.json")["brackets"]
        assert [c.passed for c in report.checks] == [False] * len(rows)
        wants = []
        for check, row in zip(report.checks, rows):
            want = f"{row['coeff']}*{row['z']}" if "z" in row else "0"
            assert check.detail.partition("; ")[2] == f"expected [{row['x']},{row['y']}] = {want}"
            wants.append(want.partition("*")[0])
        assert set(wants) == ({"2", "-2", "0"} if table.boosts else {"2", "-2"})

    def test_tables_are_parsed_once(self):
        assert BracketTable.load("d") is BracketTable.load("d")


def walked_composition(group):
    """The per-subgroup walk: the tables some order-16 subgroup admits."""
    found = set()
    for sub in group.subgroups_of_order(16):
        found |= component_composition(sub.as_group())
    return frozenset(found)


@st.composite
def pool_generator_files(draw):
    """A generator file of two to four elements of a pool, conjugated by a
    signed permutation matrix, so its elements come in another order."""
    pool = pool_group(draw(st.sampled_from(POOL_NAMES)))
    dim = pool.elements[0].dim
    rows = [["0"] * dim for _ in range(dim)]
    for row, column in enumerate(draw(st.permutations(range(dim)))):
        rows[row][column] = draw(st.sampled_from(["1", "-1", "i", "-i"]))
    m = parse_matrix("[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]")
    elements = st.integers(min_value=1, max_value=pool.order - 1)
    picks = draw(st.lists(elements, min_size=2, max_size=4))
    return {
        "name": "drawn",
        "dimension": dim,
        "generators": [format_matrix(m * pool.elements[k] * m.inverse()) for k in picks],
    }


class TestComposition:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_one_scan_matches_the_subgroup_walk_on_catalog_entries(self, name):
        group = catalog_group(name)
        assert component_composition(group) == walked_composition(group)

    @pytest.mark.parametrize("name", POOL_NAMES)
    def test_one_scan_matches_the_subgroup_walk_on_pools(self, name):
        group = pool_group(name)
        assert component_composition(group) == walked_composition(group) == frozenset("bcdf")

    @pytest.mark.parametrize("name", EXTENSION_NAMES)
    def test_one_scan_matches_the_subgroup_walk_on_order32_subgroups(self, name):
        seen = set()
        for sub in catalog_group(name).subgroups_of_order(32):
            group = sub.as_group()
            found = component_composition(group)
            assert found == walked_composition(group)
            seen.add(found)
        assert len(seen) > 1

    def test_row_checks_are_one_per_table_and_generated_signature(self):
        # Every triple of the scan is tested for generating an order-16
        # group, and the rows are checked only on each signature's first
        # generating triple, at most once per table.
        counters = COUNTERS
        for name in CATALOG_NAMES:
            group = catalog_group(name)
            neg = neg_index(group)
            visited, generated = scanned_triples(group)
            before = dict(counters)
            found = component_composition(group)
            done = {k: counters[k] - before[k] for k in before}
            assert len(found) <= done["component.row_checks"], name
            assert done["component.row_checks"] <= len(COMPONENT_TABLES) * generated, name
            assert done["component.triples"] == visited, name
            assert (neg is None) == (done["component.triples"] == 0), name

    def test_a_group_without_minus_one_has_no_composition(self):
        group = MatrixGroup.from_generators([parse_matrix("[[1, 0], [0, -1]]")])
        assert component_composition(group) == frozenset()

    @settings(max_examples=30, deadline=None)
    @given(payload=pool_generator_files())
    def test_one_scan_matches_the_subgroup_walk_on_generator_files(
        self, tmp_path_factory, payload
    ):
        path = tmp_path_factory.mktemp("drawn") / "drawn.json"
        path.write_text(json.dumps(payload))
        _, group = load_generator_file(str(path))
        assert component_composition(group) == walked_composition(group)


@settings(max_examples=50, deadline=None)
@given(st.tuples(*[st.integers(min_value=0, max_value=15)] * 3))
def test_jacobi_identity(indices):
    group = pauli_group()
    x, y, z = (group.elements[i] for i in indices)
    total = (
        commutator(commutator(x, y), z)
        + commutator(commutator(y, z), x)
        + commutator(commutator(z, x), y)
    )
    assert all(total[i, j].is_zero() for i in range(2) for j in range(2))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=15))
def test_conjugated_assignment_still_classifies(index):
    group = pauli_group()
    g = group.elements[index]
    moved = [g * m * g.inverse() for m in (SX, SY, SZ)]
    assert find_component_match(group, designated=moved).table == "d"
