"""Bracket table and relation verification tests."""

import functools
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammagroups import brackets, words
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
from gammagroups.words import RelationSet, commutator, evaluate_word, parse_word
from gammagroups.brackets import _table_holds_on_indices
from gammagroups.catalog import (
    CATALOG_NAMES,
    EXTENSION_NAMES,
    POOL_NAMES,
    catalog_entry,
    catalog_group,
    load_generator_file,
    pool_group,
)
from gammagroups.exact import (
    COUNTERS, ExactMatrix, GaussianRational, block_diag, format_matrix, parse_matrix,
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


class TestTableData:
    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_all_tables_load(self, name):
        table = BracketTable.load(name)
        want = 15 if table.boosts else 3
        assert len(table.pairs()) == want

    def test_unknown_table_name(self):
        with pytest.raises(KeyError):
            BracketTable.load("z")

    def test_boost_signs(self):
        assert BracketTable.load("d").boost_signs() == (-1, -1, -1)
        assert BracketTable.load("f").boost_signs() == (1, -1, -1)
        assert BracketTable.load("b").boost_signs() == (1, 1, 1)
        assert BracketTable.load("c").boost_signs() == (-1, 1, 1)
        assert BracketTable.load("q2").boost_signs() is None

    def test_lookup_is_antisymmetric(self):
        table = BracketTable.load("d")
        for x, y, coeff, z in table.pairs():
            back_coeff, back_z = table.lookup(y, x)
            assert back_z == z
            assert back_coeff == -coeff
        assert table.lookup("a1", "a1")[0].is_zero()

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
        scalar, factors = parse_word("a1 b2 a1")
        assert scalar == GaussianRational(1, 0)
        assert factors == [("a1", 1), ("b2", 1), ("a1", 1)]

    def test_exponents(self):
        _, factors = parse_word("a1^3 b2^-1")
        assert factors == [("a1", 3), ("b2", -1)]

    def test_scalar_prefix(self):
        scalar, factors = parse_word("-1*a2 a1")
        assert scalar == MINUS
        assert factors == [("a2", 1), ("a1", 1)]

    def test_bare_scalar_word(self):
        scalar, factors = parse_word("i")
        assert scalar == IMAG
        assert factors == []
        scalar, factors = parse_word("-2/3")
        assert scalar == GaussianRational(Fraction(-2, 3), 0)
        assert factors == []

    @pytest.mark.parametrize("bad", ["", "a1^", "^2", "a1**b2", "3a1", "a1 ^2"])
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
        report = verify_bracket_table(BracketTable.load("d"), D_ASSIGNMENT)
        assert report.passed
        assert len(report.checks) == 15

    def test_three_label_table(self):
        report = verify_bracket_table(
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
        assert verify_bracket_table(BracketTable.load("f"), assignment).passed

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
        assert verify_bracket_table(BracketTable.load("f"), assignment).passed

    def test_twisted_boosts_satisfy_second_table(self):
        # Scaling each boost by i turns a passing first-table assignment
        # into a passing second-table assignment.
        twisted = dict(D_ASSIGNMENT)
        for label, twist in (("b1", "bpp1"), ("b2", "bpp2"), ("b3", "bpp3")):
            twisted[twist] = twisted.pop(label).scale(IMAG)
        assert verify_bracket_table(BracketTable.load("b"), twisted).passed

    def test_failure_carries_detail(self):
        broken = dict(D_ASSIGNMENT)
        broken["b3"] = SZ.scale(MINUS)
        report = verify_bracket_table(BracketTable.load("d"), broken)
        assert not report.passed
        bad = report.failures()
        assert bad
        assert all(item.detail for item in bad)

    def test_missing_label_raises(self):
        partial = {k: v for k, v in D_ASSIGNMENT.items() if k != "b2"}
        with pytest.raises(ValueError, match="misses"):
            verify_bracket_table(BracketTable.load("d"), partial)

    def test_conjugation_invariance(self):
        group = pauli_group()
        for g in group.elements:
            moved = {k: g * m * g.inverse() for k, m in D_ASSIGNMENT.items()}
            assert verify_bracket_table(BracketTable.load("d"), moved).passed


class TestRelations:
    @pytest.mark.parametrize(
        "name",
        ["pauli_products", "quaternion", "dihedral", "dirac", "delta1", "delta2", "delta3"],
    )
    def test_relation_sets_load(self, name):
        rels = RelationSet.load(name)
        assert rels.relations

    def test_pauli_product_identities(self):
        assignment = dict(D_ASSIGNMENT, c=CENTRAL)
        report = verify_relations(RelationSet.load("pauli_products"), assignment)
        assert report.passed
        assert len(report.checks) == 12

    def test_quaternion_relations(self):
        report = verify_relations(
            RelationSet.load("quaternion"), {"a1": A1, "a2": A2, "a3": A3}
        )
        assert report.passed

    def test_dihedral_relations(self):
        report = verify_relations(
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
        assert verify_relations(RelationSet.load("dirac"), gammas).passed

    def test_failing_relation_reports_detail(self):
        report = verify_relations(
            RelationSet.load("quaternion"), {"a1": A1, "a2": A2, "a3": A3.scale(MINUS)}
        )
        assert not report.passed
        assert any("third-rotation-is-product" in c.check_id for c in report.failures())

    def test_reports_do_not_share_their_check_lists(self):
        relations = RelationSet.load("quaternion")
        assignment = {"a1": A1, "a2": A2, "a3": A3}
        first = verify_relations(relations, assignment)
        second = verify_relations(relations, assignment)
        assert first.checks is not second.checks
        assert first.checks == second.checks

    def test_label_outside_set_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            RelationSet("bad", ["x"], [("r", "x y", "1")])


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
        assignment = match.assignment(group, table)
        assert verify_bracket_table(table, assignment).passed

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
    signs = table.boost_signs()
    for boosts in anticommuting_triples(group) if triples is None else triples:
        rotations, roles = boost_roles(group, table, signs, boosts, neg)
        if not _table_holds_on_indices(group, table, roles, neg):
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
            assert brackets._generating_triples(group, neg) == want
            found |= bool(want)
        assert found == (parent.order >= 16)  # q8 and d4 have order 8

    @pytest.mark.parametrize("source, sample", COMPONENT_SOURCES)
    def test_one_lookup_decides_generation_like_the_closure(self, source, sample):
        # Every scanned triple generates the group exactly when its
        # closure does; the scan takes the lookup in place of the closure.
        verdicts = []
        for group in order16_groups(source, sample):
            neg = neg_index(group)
            for boosts in anticommuting_triples(group):
                whole = len(group.closure_indices(boosts)) == group.order
                assert brackets._scanned_triple_generates(group.cayley(), boosts, neg) == whole
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
                signs = table.boost_signs()
                by_squares: dict[tuple[int, int, int], set[bool]] = {}
                for boosts in anticommuting_triples(group):
                    _, roles = boost_roles(group, table, signs, boosts, neg)
                    squares = tuple(group.mul(s, s) for s in boosts)
                    holds = _table_holds_on_indices(group, table, roles, neg)
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
        for x, y, coeff, z in table.pairs():
            i, j = index[x], index[y]
            if i == j:
                assert z is None
                continue
            mixed = (x in table.boosts) != (y in table.boosts)
            assert z == (table.boosts if mixed else table.rotations)[3 - i - j]
            assert coeff in (GaussianRational(2, 0), GaussianRational(-2, 0))

    @pytest.mark.parametrize("source, sample", COMPONENT_SOURCES)
    def test_index_check_agrees_with_the_matrix_check(self, source, sample, monkeypatch):
        # The Cayley-table row check, with its integer row signs, against
        # verify_bracket_table on the role matrices: every triple of an
        # order-16 catalog entry and a seeded sample of the triples of each
        # subgroup, on every component table. Triples share their role
        # matrices, so each exact commutator, scaling and failure text is
        # computed once.
        monkeypatch.setattr(words, "commutator", functools.cache(commutator))
        monkeypatch.setattr(brackets, "format_matrix", functools.cache(format_matrix))
        monkeypatch.setattr(ExactMatrix, "scale", functools.cache(ExactMatrix.scale))
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
                signs = table.boost_signs()
                for boosts in triples:
                    _, roles = boost_roles(group, table, signs, boosts, neg)
                    matrices = {label: group.elements[i] for label, i in roles.items()}
                    holds = _table_holds_on_indices(group, table, roles, neg)
                    assert holds == verify_bracket_table(table, matrices).passed, (name, boosts)
                    verdicts.add(holds)
        assert verdicts == {True, False}

    def test_index_check_agrees_with_the_matrix_check_off_boost_triples(self, monkeypatch):
        # D16 as signed 4x4 permutations contains -1, and arbitrary
        # designated triples give role pairs that neither commute nor
        # anticommute, whose rows the table check fails without matrices.
        # A seeded sample of ordered triples, and of boost triples so that
        # some pass, against verify_bracket_table and, as designated
        # boosts, against the matrix check of a triple generating D16.
        monkeypatch.setattr(words, "commutator", functools.cache(commutator))
        monkeypatch.setattr(brackets, "format_matrix", functools.cache(format_matrix))
        monkeypatch.setattr(ExactMatrix, "scale", functools.cache(ExactMatrix.scale))
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
            signs = table.boost_signs()
            for boosts in triples:
                _, roles = boost_roles(group, table, signs, boosts, neg)
                matrices = {label: group.elements[i] for label, i in roles.items()}
                holds = _table_holds_on_indices(group, table, roles, neg)
                assert holds == verify_bracket_table(table, matrices).passed, (name, boosts)
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
        for name in TABLE_NAMES:
            table = BracketTable.load(name)
            for x, y, sign, z in table.signed_rows:
                coeff, target = table.lookup(x, y)
                assert target == z
                if z is not None and coeff in (GaussianRational(2, 0), GaussianRational(-2, 0)):
                    assert sign == coeff.re / 2
                else:
                    assert sign == 0

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
