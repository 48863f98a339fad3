"""End-to-end acceptance checks, one test per criterion.

Run with -v to get one pass/fail line per criterion. Every check is
exact (structural equality on exact arithmetic) and deterministic:
the suites enumerate exhaustively instead of sampling, so there is no
seed to vary. Expensive sweeps run once per module via fixtures.
"""

import functools
from fractions import Fraction

import pytest

from gammagroups import catalog
from gammagroups.brackets import (
    BracketTable,
    find_component_match,
    verify_bracket_table,
    verify_relations,
)
from gammagroups.exact import ExactMatrix, GaussianRational
from gammagroups.groups import MatrixGroup
from gammagroups.reps import (
    invariant_bilinear_form,
    irrep_census,
    spin_weights,
    structural_invariant,
)
from gammagroups.words import RelationSet, word_element

# The five order-32 groups that survive the sweep, with the expected
# value of the structural invariant on their irreducible blocks.
STABLE_INVARIANTS = {
    "gamma_minus": -1,
    "gamma_plus": 1,
    "pauli_c2": 0,
    "q8_v4": -1,
    "d4_v4": 1,
}

# Index-two decompositions of the order-64 groups, as sorted
# (identified name, count) pairs; counts add up to 31 in each case.
DELTA_DECOMPOSITIONS = {
    "gamma64_minus": (("gamma_minus", 16), ("pauli_c2", 10), ("q8_v4", 5)),
    "gamma64_plus": (("d4_v4", 9), ("gamma_plus", 16), ("pauli_c2", 6)),
    "gamma64_null": (("gamma_minus", 6), ("gamma_plus", 10), ("pauli_c2", 15)),
}

DELTA_SIXTH_SQUARES = {"gamma64_minus": 1, "gamma64_plus": 1, "gamma64_null": -1}

DELTA_INVARIANTS = {"gamma64_minus": -1, "gamma64_plus": 1, "gamma64_null": 0}

DELTA_FORMS = {
    "gamma64_minus": "antisymmetric",
    "gamma64_plus": "symmetric",
    "gamma64_null": "none",
}

FORM_BY_INVARIANT = {1: "symmetric", -1: "antisymmetric", 0: "none"}

ONE = GaussianRational(1, 0)
MINUS = GaussianRational(-1, 0)
IMAG = GaussianRational(0, 1)


@pytest.fixture(scope="module")
def penta_sweep():
    return catalog.sweep_stable_models("penta8")


@pytest.fixture(scope="module")
def extension_sweep():
    return catalog.sweep_extensions()


def _word_roles(entry, mapping):
    """The index of each label's word in the entry's catalog group."""
    group = catalog.catalog_group(entry.name)
    gens = entry.generator_roles(group)
    return {label: word_element(group, word, gens) for label, word in mapping.items()}


def _role_words(entry, labelled):
    """The entry's role words for the labels of a relation set or bracket table."""
    return {label: entry.roles[label] for label in labelled.labels}


def _assignment(entry, mapping):
    group = catalog.catalog_group(entry.name)
    return {label: group.matrix(k) for label, k in _word_roles(entry, mapping).items()}


def _roles(group, assignment):
    return {label: group.index_of(m) for label, m in assignment.items()}


def test_01_pauli_structure():
    """Order 16, 10 classes, scalar center of size 4, census, rank 3."""
    group = catalog.catalog_group("pauli")
    assert group.order == 16
    assert len(group.conjugacy_classes()) == 10
    center = {group.matrix(i).scalar_value() for i in group.center()}
    assert center == {ONE, MINUS, IMAG, GaussianRational(0, -1)}
    assert irrep_census(group) == ((1, 8), (2, 2))
    assert group.minimal_generator_count() == 3


def test_02_quaternion_subgroups():
    """Both order-8 rotation groups check out and are not isomorphic."""
    pauli = catalog.catalog_entry("pauli")
    quaternion_set = RelationSet.load("quaternion")
    quaternion = _assignment(pauli, _role_words(pauli, quaternion_set))
    q8 = MatrixGroup.from_generators([quaternion["a1"], quaternion["a2"]])
    assert q8.order == 8
    quaternion_roles = _word_roles(pauli, _role_words(pauli, quaternion_set))
    pauli_group = catalog.catalog_group("pauli")
    assert verify_relations(pauli_group, quaternion_set, quaternion_roles).passed

    d4_entry = catalog.catalog_entry("d4")
    second = MatrixGroup.from_generators(d4_entry.generators)
    assert second.order == 8
    assert [second.element_order(i) for i in second.generator_indices] == [4, 2]
    table = BracketTable.load("q2")
    roles = _roles(second, _assignment(d4_entry, _role_words(d4_entry, table)))
    assert verify_bracket_table(second, table, roles).passed

    assert not q8.is_isomorphic(second)
    assert q8.isomorphism_map(second) is None


def test_03_bracket_tables():
    """All five tables verify; the i-substitution maps d onto b."""
    realizations = {
        "d": "pauli", "q2": "d4", "f": "pauli_f", "b": "q8_c2", "c": "d4_c2",
    }
    for table_name, entry_name in realizations.items():
        entry = catalog.catalog_entry(entry_name)
        assert entry.table == table_name
        table = BracketTable.load(table_name)
        group = catalog.catalog_group(entry_name)
        if entry.roles:
            roles = _roles(group, _assignment(entry, _role_words(entry, table)))
        else:
            match = find_component_match(group, designated=entry.generators)
            assert match is not None and match.table == table_name
            roles = match.roles(table)
        report = verify_bracket_table(group, table, roles)
        assert report.passed, (table_name, [c.check_id for c in report.failures()])

    pauli = catalog.catalog_entry("pauli")
    d_table = BracketTable.load("d")
    b_table = BracketTable.load("b")
    d_assignment = _assignment(pauli, _role_words(pauli, d_table))
    substituted = {}
    for k in range(3):
        substituted[b_table.rotations[k]] = d_assignment[d_table.rotations[k]]
        substituted[b_table.boosts[k]] = d_assignment[d_table.boosts[k]].scale(IMAG)
    pauli_group = catalog.catalog_group("pauli")
    assert verify_bracket_table(pauli_group, b_table, _roles(pauli_group, substituted)).passed

    products_set = RelationSet.load("pauli_products")
    products = _word_roles(pauli, _role_words(pauli, products_set))
    assert verify_relations(pauli_group, products_set, products).passed


def test_04_spin_weights():
    """Rotation weights are +-1/2 for d and pure imaginary for f."""
    pauli = catalog.catalog_entry("pauli")
    d_assignment = _assignment(pauli, _role_words(pauli, BracketTable.load("d")))
    report = spin_weights(d_assignment["a1"])
    assert report.weights == (("-1/2", 1), ("1/2", 1))
    assert report.l0 == Fraction(1, 2)
    assert report.classification == "real-half-integer"

    pauli_f = catalog.catalog_entry("pauli_f")
    f_assignment = _assignment(pauli_f, _role_words(pauli_f, BracketTable.load("f")))
    for label in ("ap2", "ap3"):
        assert spin_weights(f_assignment[label]).classification == "pure-imaginary"


def test_05_dirac_structure():
    """Order 32, order-16 subgroups split d/b, and d is isomorphic to f."""
    group = catalog.catalog_group("gamma_minus")
    assert group.order == 32
    classes = catalog.catalog_profile("gamma_minus").index_two["classes"]
    assert classes == (("b", 5), ("d", 10))

    d_group = catalog.catalog_group("pauli")
    f_group = catalog.catalog_group("pauli_f")
    mapping = d_group.isomorphism_map(f_group)
    assert mapping is not None and sorted(mapping) == list(range(16))
    for a in range(16):
        for b in range(16):
            assert mapping[d_group.mul(a, b)] == f_group.mul(mapping[a], mapping[b])


def test_06_five_invariants():
    """The structural invariant and the form kind on each stable group."""
    for name, expected in STABLE_INVARIANTS.items():
        entry = catalog.catalog_entry(name)
        group = catalog.catalog_group(name)
        for block in entry.blocks:
            assert structural_invariant(group, block) == expected, name
            kind, _ = invariant_bilinear_form(group, block)
            assert kind == FORM_BY_INVARIANT[expected], name


def test_07_search_exhaustive(penta_sweep):
    """The signature sweep finds the five stable groups and nothing else."""
    assert set(penta_sweep) == set(catalog.SWEEP_SIGNATURES)
    identified = set()
    for signature, hits in penta_sweep.items():
        assert len(hits) == 1, signature
        assert hits[0].identified in STABLE_INVARIANTS, signature
        identified.add(hits[0].identified)
    assert identified == set(STABLE_INVARIANTS)


def test_08_delta_structure():
    """Order 64, census, three half-order classes, sixth-generator laws."""
    for name, decomposition in DELTA_DECOMPOSITIONS.items():
        entry = catalog.catalog_entry(name)
        group = catalog.catalog_group(name)
        assert group.order == 64
        assert irrep_census(group) == ((1, 32), (4, 2))
        computed = catalog.decompose_index_two(name)
        assert computed == decomposition
        assert len(computed) == 3
        assert sum(count for _, count in computed) == 31
        for block in entry.blocks:
            assert structural_invariant(group, block) == DELTA_INVARIANTS[name]

        relations = catalog.SignatureSpec.parse(entry.signature).relations()
        assert len(relations.labels) == 5
        assert verify_relations(group, relations, entry.generator_roles(group)).passed
        sixth = functools.reduce(lambda a, b: a * b, entry.generators)
        for g in entry.generators:
            assert sixth * g == g * sixth
        square = (sixth * sixth).scalar_value()
        assert square == GaussianRational(DELTA_SIXTH_SQUARES[name], 0)


def test_09_extensions_exhaustive(extension_sweep):
    """Ten base/square combinations collapse to three order-64 classes."""
    assert len(extension_sweep) == 10
    found = [result for result in extension_sweep if result.found]
    assert {result.base for result in extension_sweep} == set(STABLE_INVARIANTS)
    for result in found:
        assert result.order == 64
        assert result.report is not None and result.report.passed
    identified = {result.identified for result in found}
    assert identified == {"gamma64_minus", "gamma64_plus", "gamma64_null"}


def test_10_real_forms():
    """Symmetric form for gamma64_plus, antisymmetric for minus, none for null."""
    for name, expected_kind in DELTA_FORMS.items():
        entry = catalog.catalog_entry(name)
        group = catalog.catalog_group(name)
        for block in entry.blocks:
            kind, form = invariant_bilinear_form(group, block)
            assert kind == expected_kind, name
            if expected_kind == "none":
                assert form is None
            else:
                form.inverse()  # nonsingular, or this raises


def test_11_property_suites():
    """Axioms, Latin square, class equation, census identity, trichotomy."""
    blocked_entries = 0
    for name in catalog.catalog_names():
        entry = catalog.catalog_entry(name)
        group = catalog.catalog_group(name)
        n = group.order
        table = group.cayley()
        full = set(range(n))
        identity = group.index_of(ExactMatrix.identity(entry.dimension))

        for row in table:
            assert set(row) == full, name
        for col in zip(*table):
            assert set(col) == full, name
        for k in range(n):
            assert table[identity][k] == k == table[k][identity], name
            assert table[k][group.inv(k)] == identity, name
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    assert table[ab][c] == table[a][table[b][c]], name

        classes = group.conjugacy_classes()
        sizes = [len(cls) for cls in classes]
        assert sum(sizes) == n, name
        assert all(n % size == 0 for size in sizes), name
        singletons = {cls[0] for cls in classes if len(cls) == 1}
        assert singletons == set(group.center()), name

        assert sum(count * dim * dim for dim, count in irrep_census(group)) == n, name

        if entry.blocks is not None:
            blocked_entries += 1
            for block in entry.blocks:
                indicator = structural_invariant(group, block)
                kind, _ = invariant_bilinear_form(group, block)
                assert FORM_BY_INVARIANT[indicator] == kind, name
    assert blocked_entries >= 12
