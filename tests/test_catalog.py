"""Catalog data, profile validation, signature search, and extensions."""

import functools
import itertools
import json
import math
import pathlib
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammagroups import catalog, claims, data, forms, groups, paper
from gammagroups.brackets import BracketTable, verify_relations
from gammagroups.catalog import (
    CATALOG_NAMES,
    STABLE_NAMES,
    SWEEP_SIGNATURES,
    SignatureSpec,
    catalog_entry,
    catalog_group,
    component_composition,
    compute_profile,
    decompose_index_two,
    enumerate_extensions,
    find_gamma_models,
    load_generator_file,
    pool_group,
    sweep_extensions,
    sweep_stable_models,
)
from gammagroups.exact import (
    COUNTERS,
    ExactMatrix,
    GaussianRational,
    block_diag,
    format_matrix,
    parse_matrix,
    parse_scalar,
)
from gammagroups.groups import MatrixGroup, Subgroup, certified_map, mask_indices
from gammagroups.words import RelationSet, word_element

MINUS = GaussianRational(-1, 0)
IMAG = GaussianRational(0, 1)


class TestCatalogData:
    def test_catalog_has_fourteen_entries(self):
        assert len(CATALOG_NAMES) == 14

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_entry_loads_with_consistent_dimension(self, name):
        entry = catalog_entry(name)
        assert entry.generators, name
        assert all(g.dim == entry.dimension for g in entry.generators)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            catalog_entry("pauli_typo")

    def test_blocks_cover_the_space_when_declared(self):
        for name in CATALOG_NAMES:
            entry = catalog_entry(name)
            if entry.blocks is None:
                continue
            covered = sum(size for _, size in entry.blocks)
            assert covered == entry.dimension, name

    def test_summaries_are_prose(self):
        for name in CATALOG_NAMES:
            assert catalog._load_payload(name)["summary"].strip(), name

    def test_data_files_are_exactly_the_catalog_names(self):
        # The JSON files are the only definition of the entries, so no file
        # may go missing, linger, or carry another entry's name.
        paths = sorted((pathlib.Path(data.__file__).parent / "catalog").glob("*.json"))
        assert sorted(path.stem for path in paths) == sorted(CATALOG_NAMES)
        for path in paths:
            assert json.loads(path.read_text(encoding="utf-8"))["name"] == path.stem

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_role_map_is_complete_and_has_no_stale_words(self, name):
        # Each role word is written once, in `roles`, and the relation sets
        # and the table read their labels' words from it; a role that
        # neither reads is stale.
        entry = catalog_entry(name)
        used = set()
        for set_name in entry.relations:
            labels = RelationSet.load(set_name).labels
            assert set(labels) <= entry.roles.keys(), (set_name, labels)
            used.update(labels)
        if entry.table is not None:
            labels = BracketTable.load(entry.table).labels
            if entry.roles:
                assert set(labels) <= entry.roles.keys(), (entry.table, labels)
                used.update(labels)
            else:  # the boost search finds the roles on designated generators
                assert len(entry.generators) == 3
        assert entry.roles.keys() <= used, sorted(entry.roles.keys() - used)
        group = catalog_group(name)
        gens = entry.generator_roles(group)
        for word in entry.roles.values():
            word_element(group, word, gens)  # raises for a word outside the group
        extract = catalog._load_payload(name).get("extract")
        assert extract is None or extract.keys() == {"parent", "order"}


@pytest.fixture
def cold_signature_verdicts(monkeypatch):
    """A cache of its own for `paper._signature_verdict`, which keys its
    verdicts by entry name, so that a test that alters an entry's
    signature neither reads a verdict cached before it nor leaves one."""
    verdicts = functools.cache(paper._signature_verdict.__wrapped__)
    monkeypatch.setattr(paper, "_signature_verdict", verdicts)
    return verdicts


class TestValidation:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_entry_validates(self, name):
        for kind in ("checks", "expected"):
            (result,) = claims.run_claims(f"catalog.{name}.{kind}")
            assert result.status == "PASS", (result.claim_id, result.computed)
        assert result.expected == catalog._load_payload(name)["expected"]

    def test_validation_recomputes_rather_than_trusts(self, monkeypatch):
        # A wrong stored number and a stored key with no computation must
        # each fail the entry's expected claim.
        load = catalog._load_payload
        for mutate in (
            lambda expected: expected.update(order=9),
            lambda expected: expected.update(unknown_key=1),
        ):
            def mutated(name, mutate=mutate):
                payload = load(name)
                if name == "q8":
                    mutate(payload["expected"])
                return payload

            monkeypatch.setattr(catalog, "_load_payload", mutated)
            monkeypatch.setattr(claims, "_REGISTRY", None)
            (result,) = claims.run_claims("catalog.q8.expected")
            assert result.status == "FAIL", result.computed
            assert result.computed != result.expected

    def test_flipped_signature_sign_fails_the_checks(self, monkeypatch, cold_signature_verdicts):
        # Each sign of each declared signature, flipped alone, and each
        # commuting fourth generator declared anticommuting, must fail the
        # entry's checks claim at its signature.
        entry_of = catalog.catalog_entry
        declared = {name: entry_of(name).signature for name in CATALOG_NAMES}
        declared = {name: spec for name, spec in declared.items() if spec is not None}
        assert len(declared) == 8
        for name, spec in declared.items():
            flips = [
                spec[:k] + {"+": "-", "-": "+"}[spec[k]] + spec[k + 1:]
                for k in range(len(spec)) if spec[k] != "|"
            ]
            if "|" in spec:
                flips.append(spec.replace("|", ""))
            for wrong in flips:
                monkeypatch.setattr(
                    catalog, "catalog_entry",
                    lambda n, name=name, wrong=wrong: (
                        entry_of(n)._replace(signature=wrong) if n == name else entry_of(n)
                    ),
                )
                cold_signature_verdicts.cache_clear()
                (result,) = claims.run_claims(f"catalog.{name}.checks")
                assert result.status == "FAIL", (name, wrong)
                assert f"signature {wrong}: fail" in result.computed, result.computed

    def test_signature_on_other_than_four_generators_fails_the_checks(
        self, monkeypatch, cold_signature_verdicts
    ):
        entry_of = catalog.catalog_entry
        monkeypatch.setattr(
            catalog, "catalog_entry",
            lambda n: entry_of(n)._replace(signature="++++") if n == "pauli" else entry_of(n),
        )
        (result,) = claims.run_claims("catalog.pauli.checks")
        assert (result.status, result.computed) == ("FAIL", "fail: signature ++++: fail")

    def test_block_form_contradicting_its_indicator_fails_the_checks(self, monkeypatch):
        # The form solver insists on agreeing with the trace indicator; a
        # flipped indicator must surface as a failed checks claim.
        indicator = forms.structural_invariant
        monkeypatch.setattr(forms, "structural_invariant",
                            lambda group, block=None: -indicator(group, block))
        paper._block_forms.cache_clear()
        (result,) = claims.run_claims("catalog.q8.checks")
        assert result.status == "FAIL", result.computed
        assert "contradicts trace indicator" in result.computed, result.computed


class TestProfiles:
    def test_pauli_profile_numbers(self):
        profile = compute_profile(catalog_group("pauli"))
        assert profile.order == 16
        assert profile.class_count == 10
        assert profile.center_order == 4
        assert profile.abelian_invariants == (2, 2, 2)
        assert profile.min_generators == 3
        assert profile.census == ((1, 8), (2, 2))
        assert profile.indicators == (0,)
        assert len(profile.index_two["classes"]) == 3
        assert profile.composition == ("d", "f")

    def test_two_dim_groups_differ_only_in_indicator(self):
        q8 = compute_profile(catalog_group("q8"))
        d4 = compute_profile(catalog_group("d4"))
        assert q8.indicators == (-1,)
        assert d4.indicators == (1,)
        assert (q8.order, q8.class_count, q8.center_order, q8.census) == (
            d4.order, d4.class_count, d4.center_order, d4.census,
        )

    def test_irreducible_order32_compositions(self):
        minus = component_composition(catalog_group("gamma_minus"))
        plus = component_composition(catalog_group("gamma_plus"))
        assert minus == frozenset({"b", "d", "f"})
        assert plus == frozenset({"c", "d", "f"})

    def test_reducible_order32_compositions(self):
        assert component_composition(catalog_group("pauli_c2")) == frozenset("bcdf")
        assert component_composition(catalog_group("q8_v4")) == frozenset({"b"})
        assert component_composition(catalog_group("d4_v4")) == frozenset({"c"})

    def test_index_two_split_of_the_irreducible_pair(self):
        minus = compute_profile(catalog_group("gamma_minus")).index_two["classes"]
        plus = compute_profile(catalog_group("gamma_plus")).index_two["classes"]
        assert minus == (("b", 5), ("d", 10))
        assert plus == (("c", 9), ("d", 6))

    @staticmethod
    def pauli_with_phase_gate():
        """<pauli, diag(1, i)>: order 32 and outside F, built fresh, since
        the trace walks are kept per group object."""
        gens = [*catalog_entry("pauli").generators, parse_matrix("[[1,0],[0,i]]")]
        group = MatrixGroup.from_generators(gens)
        assert (group.order, group.squaring_key()) == (32, None)
        return group

    def test_indicator_reads_the_norm_walk(self, monkeypatch):
        # The irreducibility check and the indicator share one trace walk.
        profile = compute_profile(self.pauli_with_phase_gate())
        reads = 0
        read_form = ExactMatrix.monomial_form

        def counted(m):
            nonlocal reads
            reads += 1
            return read_form(m)

        monkeypatch.setattr(ExactMatrix, "monomial_form", counted)
        assert profile.indicators == (0,)
        assert reads == profile.order

    def test_index_two_builds_each_subgroup_once(self, monkeypatch):
        # Outside F each index-two subgroup is built for `is_isomorphic`;
        # naming its class's component reads that same group.
        profile = compute_profile(self.pauli_with_phase_gate())
        builds = 0
        build = MatrixGroup.__init__

        def counted(group, *args, **kwargs):
            nonlocal builds
            builds += 1
            build(group, *args, **kwargs)

        monkeypatch.setattr(MatrixGroup, "__init__", counted)
        assert profile.index_two == {
            "count": 3, "classes": (("d", 1), (None, 1), (None, 1)),
        }
        assert builds == 3


class TestExtraction:
    def test_extracted_entries_sit_inside_their_parents(self):
        for name, parent in (("q8_c2", "gamma_minus"), ("d4_c2", "gamma_plus")):
            entry = catalog_entry(name)
            assert catalog._load_payload(name)["extract"]["parent"] == parent
            parent_group = catalog_group(parent)
            assert all(g in parent_group for g in entry.generators)

    def test_extraction_is_deterministic(self):
        first = catalog._resolve_extraction(catalog._load_payload("q8_c2"))
        second = catalog._resolve_extraction(catalog._load_payload("q8_c2"))
        assert [g.key() for g in first.generators] == [g.key() for g in second.generators]

    def test_q8_c2_matches_a_direct_product_model(self):
        qi = parse_matrix("[[i, 0], [0, -i]]")
        qj = parse_matrix("[[0, 1], [-1, 0]]")
        two = ExactMatrix.identity(2)
        model = MatrixGroup.from_generators([
            block_diag(qi, qi), block_diag(qj, qj), block_diag(two, two.scale(MINUS)),
        ])
        assert model.is_isomorphic(catalog_group("q8_c2"))

    def test_d4_c2_matches_a_direct_product_model(self):
        rot = parse_matrix("[[0, -i], [-i, 0]]")
        ref = parse_matrix("[[0, -i], [i, 0]]")
        two = ExactMatrix.identity(2)
        model = MatrixGroup.from_generators([
            block_diag(rot, rot), block_diag(ref, ref), block_diag(two, two.scale(MINUS)),
        ])
        assert model.is_isomorphic(catalog_group("d4_c2"))

    def test_extracted_groups_are_not_isomorphic_to_pauli(self):
        pauli = catalog_group("pauli")
        assert not catalog_group("q8_c2").is_isomorphic(pauli)
        assert not catalog_group("d4_c2").is_isomorphic(pauli)


class TestPools:
    def test_pool_orders(self):
        assert pool_group("dirac4").order == 64
        assert pool_group("penta8").order == 128

    def test_pools_contain_the_imaginary_scalar(self):
        for name in ("dirac4", "penta8"):
            pool = pool_group(name)
            scalar = ExactMatrix.identity(pool.elements[0].dim).scale(IMAG)
            assert scalar in pool

    def test_unknown_pool_rejected(self):
        with pytest.raises(KeyError):
            pool_group("octonion16")

    @pytest.mark.parametrize("name", catalog.POOL_NAMES)
    def test_sign_representatives_hold_one_of_each_sign_pair(self, name):
        pool = pool_group(name)
        reps = pool.sign_representatives()
        assert reps.bit_count() == pool.order // 2
        for s in range(pool.order):
            minus_s = pool.index_of(pool.matrix(s).scale(MINUS))
            assert (reps >> s & 1) + (reps >> minus_s & 1) == 1
            assert reps >> min(s, minus_s) & 1

    def test_sign_representatives_need_minus_one(self):
        # <diag(1, -1)> = {1, diag(1, -1)} holds no -1, so no pair {s, -s}.
        group = MatrixGroup.from_generators([parse_matrix("[[1, 0], [0, -1]]")])
        with pytest.raises(ValueError, match="-1"):
            group.sign_representatives()


def signature_matches(group, gens, text):
    """Reference for a signature's relation words: the declared
    square/commutation pattern on generator indices, the squares read off
    the Cayley table's diagonal and which pairs commute or anticommute off
    the group's commutation masks."""
    spec = SignatureSpec.parse(text)
    if spec.fourth_commutes:
        pairs_anticommute = [(0, 1), (0, 2), (1, 2)]
        pairs_commute = [(0, 3), (1, 3), (2, 3)]
    else:
        pairs_anticommute = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        pairs_commute = []
    cay = group.cayley()
    square_index = {1: 0, -1: group.minus_index()}
    if any(cay[g][g] != square_index[want] for g, want in zip(gens, spec.squares)):
        return False
    commute, anticommute = group.commutation_masks()
    return all(anticommute[gens[i]] >> gens[j] & 1 for i, j in pairs_anticommute) and all(
        commute[gens[i]] >> gens[j] & 1 for i, j in pairs_commute
    )


def four_generator_tuples():
    """(label, group, roles g1..g4) of every four-generator catalog entry
    and of every search hit of the sweep signatures in both pools."""
    out = []
    for name in CATALOG_NAMES:
        entry = catalog_entry(name)
        if len(entry.generators) == 4:
            group = catalog_group(name)
            out.append((name, group, entry.generator_roles(group)))
    for pool_name in catalog.POOL_NAMES:
        pool = pool_group(pool_name)
        for text in SWEEP_SIGNATURES:
            for hit in find_gamma_models(text, pool_name):
                roles = {f"g{k}": s for k, s in enumerate(hit.generator_indices, 1)}
                out.append((f"{pool_name} {text} {hit.order}", pool, roles))
    return out


class TestSignatureSpec:
    @pytest.mark.parametrize("text", SWEEP_SIGNATURES)
    def test_round_trip(self, text):
        assert str(SignatureSpec.parse(text)) == text

    def test_anticommuting_spec_shape(self):
        spec = SignatureSpec.parse("++--")
        assert spec.squares == (1, 1, -1, -1)
        assert not spec.fourth_commutes

    def test_commuting_spec_shape(self):
        spec = SignatureSpec.parse("+--|+")
        assert spec.squares == (1, -1, -1, 1)
        assert spec.fourth_commutes

    @pytest.mark.parametrize("text, extra", [
        ("++++", []),
        ("+++++", [
            *((f"product-commutes-{k}", f"g1 g2 g3 g4 g5 g{k}", f"g{k} g1 g2 g3 g4 g5")
              for k in range(1, 6)),
            ("product-squares-to-one", "g1 g2 g3 g4 g5 g1 g2 g3 g4 g5", "1"),
        ]),
    ])
    def test_anticommuting_relations_are_the_dirac_and_delta_sets(self, text, extra):
        # The words the Dirac (four generators) and delta (five, with
        # their central product) relation sets stated, one by one.
        n = len(text)
        relations = SignatureSpec.parse(text).relations()
        assert relations.name == f"signature-{text}"
        assert relations.labels == tuple(f"g{k}" for k in range(1, n + 1))
        assert relations.relations == [
            *((f"square-{k}", f"g{k}^2", "1") for k in range(1, n + 1)),
            *((f"anticommute-{i}{j}", f"g{i} g{j}", f"-1*g{j} g{i}")
              for i in range(1, n + 1) for j in range(i + 1, n + 1)),
            *extra,
        ]

    @pytest.mark.parametrize("text, square", [
        ("+", 1), ("-", -1), ("+++", -1), ("---", 1), ("+++--", 1), ("++++-", -1),
        ("+++++++", -1), ("-------", 1), ("++", None), ("+-+-", None), ("+++|+", None),
    ])
    def test_odd_counts_state_the_central_product(self, text, square):
        # w = g1..gn is central for odd n, with w^2 = (product of the
        # squares) * (-1)^(n(n-1)/2); even counts and the pipe state no w.
        product = [rel for rel in SignatureSpec.parse(text).relations().relations
                   if rel[0].startswith("product-")]
        if square is None:
            assert not product
        else:
            assert len(product) == len(text) + 1
            assert product[-1][2] == str(square)

    def test_the_pauli_matrices_obey_three_plus_signs(self):
        # Three anticommuting involutions whose product i*1 squares to -1.
        group = catalog_group("pauli")
        roles = catalog_entry("pauli").generator_roles(group)
        assert verify_relations(group, SignatureSpec.parse("+++").relations(), roles).passed

    def test_relation_words_agree_with_the_table_reference(self):
        # Every four-generator tuple the catalog and the search know, under
        # the 13 sweep signatures and the 8 commuting ones with the pipe
        # dropped: the words pass exactly where the table reading does.
        texts = SWEEP_SIGNATURES + tuple(t.replace("|", "") for t in SWEEP_SIGNATURES if "|" in t)
        outcomes = []
        for label, group, roles in four_generator_tuples():
            gens = [roles[f"g{k}"] for k in range(1, 5)]
            for text in texts:
                report = verify_relations(group, SignatureSpec.parse(text).relations(), roles)
                assert report.passed == signature_matches(group, gens, text), (label, text)
                outcomes.append(report.passed)
        assert (len(outcomes), sum(outcomes)) == (777, 49)

    @pytest.mark.parametrize("text", ["++|++", "|+++", "+-x-"])
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(ValueError):
            SignatureSpec.parse(text)

    @pytest.mark.parametrize("text", ["+++", "+++++", ""])
    def test_the_search_rejects_other_than_four_signs(self, text):
        # The relations take any count; the search walks four generators.
        with pytest.raises(ValueError, match=f"^signature '{re.escape(text)}' needs four signs$"):
            find_gamma_models(text)
        with pytest.raises(ValueError, match="needs four signs"):
            find_gamma_models(SignatureSpec.parse(text))

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet="+-", min_size=4, max_size=4))
    def test_any_four_sign_string_parses(self, text):
        assert str(SignatureSpec.parse(text)) == text


class TestSearch:
    def test_anticommuting_quadruples_in_the_small_pool(self):
        for text, expect in (
            ("++++", "gamma_minus"),
            ("+++-", "gamma_plus"),
            ("++--", "gamma_plus"),
            ("+---", "gamma_minus"),
            ("----", "gamma_minus"),
        ):
            hits = [h for h in find_gamma_models(text, "dirac4") if h.order == 32]
            assert [h.identified for h in hits] == [expect], text

    def test_twisted_triples_have_no_small_pool_model(self):
        # The two commuting-fourth signatures whose order-32 groups need
        # 6-dim blocks must come up empty in the 4-dim pool.
        for text in ("---|+", "++-|+"):
            hits = [h for h in find_gamma_models(text, "dirac4") if h.order == 32]
            assert hits == [], text

    def test_search_results_are_cached_and_stable(self):
        first = find_gamma_models("++++", "dirac4")
        second = find_gamma_models("++++", "dirac4")
        assert [h.generator_indices for h in first] == [h.generator_indices for h in second]

    def test_full_sweep_identifies_exactly_the_five_stable_groups(self):
        sweep = sweep_stable_models("penta8")
        assert set(sweep) == set(SWEEP_SIGNATURES)
        for text, hits in sweep.items():
            assert len(hits) == 1, f"{text} found {len(hits)} order-32 classes"
            assert hits[0].identified is not None, text
        found = {hits[0].identified for hits in sweep.values()}
        assert found == set(STABLE_NAMES)

    def test_sweep_respects_declared_signatures(self):
        # Wherever a stable entry declares its signature, the sweep must
        # rediscover that entry for that signature.
        sweep = sweep_stable_models("penta8")
        for name in STABLE_NAMES:
            declared = catalog_entry(name).signature
            assert sweep[declared][0].identified == name


def reference_search(text, pool_name):
    """Signature search with one breadth-first closure per tuple.

    The path the coset search replaced: candidates from matrix squares,
    (anti)commutation from table products, every tuple closed from
    scratch, classes split by `is_isomorphic` without hints. Returns
    (order, identified, generator_indices) per class.
    """
    spec = SignatureSpec.parse(text)
    pool = pool_group(pool_name)
    neg = pool.index_of(pool.matrix(0).scale(MINUS))

    def square_sign(i):
        if pool.matrix(i).scalar_value() is not None:
            return None
        sq = pool.matrix(pool.mul(i, i)).scalar_value()
        if sq is None or sq.im != 0 or abs(sq.re) != 1:
            return None
        return 1 if sq.re > 0 else -1

    signs = [square_sign(i) for i in range(pool.order)]

    def candidates(sign):
        return [i for i in range(pool.order) if signs[i] == sign]

    def anti(i, j):
        return pool.mul(i, j) == pool.mul(neg, pool.mul(j, i))

    def comm(i, j):
        return pool.mul(i, j) == pool.mul(j, i)

    sq, fourth = spec.squares[:3], spec.squares[3]
    related = comm if spec.fourth_commutes else anti
    seen, classes = set(), []
    for s1 in candidates(sq[0]):
        for s2 in candidates(sq[1]):
            if (sq[1] == sq[0] and s2 <= s1) or not anti(s1, s2):
                continue
            for s3 in candidates(sq[2]):
                if (sq[2] == sq[1] and s3 <= s2) or (sq[2] == sq[0] != sq[1] and s3 <= s1):
                    continue
                if s3 in (s1, s2) or not (anti(s1, s3) and anti(s2, s3)):
                    continue
                base = pool.closure_indices((s1, s2, s3))
                for s4 in candidates(fourth):
                    if s4 in (s1, s2, s3) or not all(related(s4, s) for s in (s1, s2, s3)):
                        continue
                    if spec.fourth_commutes and s4 in base:
                        continue
                    if not spec.fourth_commutes and fourth == sq[2] and s4 <= s3:
                        continue
                    key = pool.closure_indices((s1, s2, s3, s4))
                    if key in seen:
                        continue
                    seen.add(key)
                    group = Subgroup(pool, sum(1 << x for x in key)).as_group()
                    if any(group.order == rep.order and group.is_isomorphic(rep) for rep, _ in classes):
                        continue
                    identified = reference_identify(group)
                    classes.append((group, (group.order, identified, (s1, s2, s3, s4))))
    return [hit for _, hit in classes]


# Hits of the penta8 sweep as the breadth-first search found them:
# (order, identified, generator_indices) per class, in discovery order.
PENTA8_HITS = {
    "++++": [(32, "gamma_minus", (1, 2, 3, 4))],
    "+++-": [(32, "gamma_plus", (1, 2, 3, 26))],
    "++--": [(32, "gamma_plus", (1, 2, 21, 26))],
    "+---": [(32, "gamma_minus", (1, 7, 8, 9))],
    "----": [(32, "gamma_minus", (7, 8, 9, 10))],
    "+++|+": [(32, "pauli_c2", (1, 2, 3, 73))],
    "+++|-": [(32, "pauli_c2", (1, 2, 3, 25))],
    "++-|+": [(16, None, (1, 2, 7, 67)), (32, "d4_v4", (1, 2, 21, 73))],
    "++-|-": [(16, None, (1, 2, 7, 19)), (32, "pauli_c2", (1, 2, 21, 25))],
    "+--|+": [(32, "pauli_c2", (1, 7, 8, 73))],
    "+--|-": [(32, "pauli_c2", (1, 7, 8, 25))],
    "---|+": [(32, "q8_v4", (7, 8, 9, 5)), (16, None, (7, 8, 13, 4))],
    "---|-": [(32, "pauli_c2", (7, 8, 9, 31)), (16, None, (7, 8, 13, 25))],
}


def hit_rows(hits):
    return [(h.order, h.identified, h.generator_indices) for h in hits]


def reference_coset(pool, members, base, gens, s):
    """Mask of the right coset B*s, after checking <B, s> = B u B*s.

    ``members`` lists the subgroup B, ``base`` is its mask and ``gens``
    generate it. The check is that s^2 lies in B and that s conjugates
    each generator into B: the index-two step the search once had of its
    own.
    """
    cay = pool.cayley()
    s_inv = pool.inv(s)
    if not base >> cay[s][s] & 1 or not all(base >> cay[cay[s_inv][g]][s] & 1 for g in gens):
        raise RuntimeError(f"pool element {s} does not normalize the subgroup it extends")
    return sum(1 << cay[x][s] for x in members)


def reference_triples(pool, squares):
    """Pairwise anticommuting triples over the whole pool, both signs of
    every generator included; equal squares come with increasing index."""
    anti = pool.commutation_masks()[1]
    masks = pool.unit_square_masks()
    for s1 in mask_indices(masks[squares[0]]):
        second = anti[s1] & masks[squares[1]]
        if squares[1] == squares[0]:
            second &= -2 << s1
        for s2 in mask_indices(second):
            third = anti[s1] & anti[s2] & masks[squares[2]]
            if squares[2] == squares[1]:
                third &= -2 << s2
            elif squares[2] == squares[0]:
                third &= -2 << s1
            for s3 in mask_indices(third):
                yield s1, s2, s3


@dataclass
class HintedClass:
    """A class of the reference search: the representative's member mask,
    the pool tuples its tuples map to (the hints), the hit, and the
    representative as a standalone group, built on first need."""

    key: int
    images: list
    hit: catalog.ModelHit
    group: MatrixGroup | None = None


def standalone(pool, key):
    """The pool subgroup with member mask ``key`` as its own group."""
    return Subgroup(pool, key).as_group()


def reference_identify(group):
    """The first stable catalog group ``group`` is isomorphic to, by the
    backtracking `is_isomorphic` alone, apart from the squaring key."""
    return next((name for name in STABLE_NAMES
                 if group.order == 32 and group.is_isomorphic(catalog_group(name))), None)


def reference_coset_search(text, pool_name):
    """The coset search over every sign variant of every generator, with
    every signature enumerating its own triples (`reference_triples`).

    Each pair is closed by breadth-first search once per signature, and
    each triple's group is taken again per signature; every extension is
    the normalizer-checked `reference_coset`. Classes are told apart by
    generator-map hints certified on the pool table (`certified_map`):
    the class's first tuple and the fallback's images of later ones, with
    fingerprint and backtracking on standalone groups as the fallback.
    Returns the hits and the member masks of the subgroups it meets, in
    order.
    """
    spec = SignatureSpec.parse(text)
    pool = pool_group(pool_name)
    cay = pool.cayley()
    commute, anticommute = pool.commutation_masks()
    square_masks = pool.unit_square_masks()
    triple_squares, fourth_sign = spec.squares[:3], spec.squares[3]
    fourth_masks = commute if spec.fourth_commutes else anticommute
    pair_closure = {}
    covered = {}  # triple subgroup mask -> (its members, union of the cosets taken)
    seen_subgroups = set()
    classes = []
    subgroups = []
    for s1, s2, s3 in reference_triples(pool, triple_squares):
        if (s1, s2) not in pair_closure:
            pair = pool.closure_indices((s1, s2))
            pair_closure[s1, s2] = (list(pair), sum(1 << x for x in pair))
        pair_members, pair_mask = pair_closure[s1, s2]
        base = pair_mask | reference_coset(pool, pair_members, pair_mask, (s1, s2), s3)
        if base not in covered:
            covered[base] = (list(mask_indices(base)), 0)
        members, taken = covered[base]
        fourths = (
            fourth_masks[s1] & fourth_masks[s2] & fourth_masks[s3] & square_masks[fourth_sign]
        )
        if spec.fourth_commutes:
            fourths &= ~base
        elif fourth_sign == triple_squares[2]:
            fourths &= -2 << s3
        fresh = fourths & ~taken
        while fresh:
            s4 = (fresh & -fresh).bit_length() - 1
            coset = reference_coset(pool, members, base, (s1, s2, s3), s4)
            taken |= coset
            fresh &= ~coset
            key = base | coset
            if key in seen_subgroups:
                continue
            seen_subgroups.add(key)
            subgroups.append(key)
            gens = (s1, s2, s3, s4)
            order = key.bit_count()
            group = None
            for cls in classes:
                if cls.hit.order != order:
                    continue
                if any(certified_map(cay, cay, gens, images, order) is not None
                       for images in cls.images):
                    break
                group = group or standalone(pool, key)
                cls.group = cls.group or standalone(pool, cls.key)
                mapping = group.isomorphism_map(cls.group)
                if mapping is not None:
                    rep_members = list(mask_indices(cls.key))
                    cls.images.append(tuple(
                        rep_members[mapping[(key & ((1 << s) - 1)).bit_count()]] for s in gens
                    ))
                    break
            else:
                identified = None
                if order == 32:
                    group = group or standalone(pool, key)
                    identified = reference_identify(group)
                hit = catalog.ModelHit(str(spec), pool_name, gens, order, identified)
                classes.append(HintedClass(key, [gens], hit, group))
        covered[base] = (members, taken)
    return [cls.hit for cls in classes], subgroups


def clear_search_caches():
    """Forget every search result, so a search runs cold."""
    catalog._gamma_models.cache_clear()


def met_subgroups(pool, met):
    """The member masks of the new groups <H, s4> met, in order, each
    closed from its tuple apart from the search (`closure_indices`)."""
    return [sum(1 << x for x in pool.closure_indices(gens)) for gens, _ in met]


def triple_groups(pool, triples):
    """The member masks of the triples' groups as the search reads them:
    the 8 words and their negatives."""
    cay = pool.cayley()
    minus_row = cay[pool.minus_index()]
    return [catalog._signed_mask(catalog._words(cay, t), minus_row) for t in triples]


# The triple squares of the 13 sweep signatures.
TRIPLE_SQUARES = ((1, 1, 1), (1, 1, -1), (1, -1, -1), (-1, -1, -1))

FOUR_GENERATOR_SIGNATURES = tuple(
    "".join(signs) for signs in itertools.product("+-", repeat=4)
) + tuple(f"{''.join(signs[:3])}|{signs[3]}" for signs in itertools.product("+-", repeat=4))


def presentation_group(spec):
    """Product of the normal forms z^a s1^b1 .. s4^b4 of P, coded as
    a << 4 | b with b_i the bit i - 1 of b, under the spec's relations."""
    squares = spec.squares
    anticommuting = {(i, j) for j in range(4) for i in range(j)}
    if spec.fourth_commutes:
        anticommuting -= {(0, 3), (1, 3), (2, 3)}

    def mul(x, y):
        a, b, c = (x >> 4) ^ (y >> 4), x & 15, y & 15
        for i in range(4):
            if b >> i & c >> i & 1 and squares[i] < 0:
                a ^= 1  # s_i^2 = z
            for j in range(i):
                # s_j of the right factor passes s_i of the left one
                if b >> i & c >> j & 1 and (j, i) in anticommuting:
                    a ^= 1
        return a << 4 | b ^ c

    return mul


@functools.cache
def brute_force_kernels(spec):
    """The subgroups of P that are normal, avoid z and, with a commuting
    fourth, hold no word in s4: every subgroup is grown from {1} one
    element at a time. Kept per spec, as a tuple."""
    mul = presentation_group(spec)
    table = [[mul(x, y) for y in range(32)] for x in range(32)]
    inverse = [row.index(0) for row in table]

    def grown(gens):
        members, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = table[x][g]
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return frozenset(members)

    subgroups, frontier = {frozenset({0}): ()}, [frozenset({0})]
    while frontier:
        sub = frontier.pop()
        for x in range(32):
            if x not in sub:
                bigger = grown((*subgroups[sub], x))
                if bigger not in subgroups:
                    subgroups[bigger] = (*subgroups[sub], x)
                    frontier.append(bigger)
    z = 1 << 4
    return tuple(
        sub for sub in subgroups
        if z not in sub
        and all(table[table[g][k]][inverse[g]] in sub for g in range(32) for k in sub)
        and (not spec.fourth_commutes or not any(k >> 3 & 1 for k in sub))
    )


def reference_admitted_orders(spec, dimension):
    """The orders 32 / |K| of the quotients Q = P / K, over every kernel of
    `brute_force_kernels`, whose faithful degree bound rank Omega_1(Z(Q)) *
    sqrt|Q : Z(Q)| fits the dimension; Q is worked in as its cosets."""
    mul = presentation_group(spec)
    orders = set()
    for kernel in brute_force_kernels(spec):
        coset = [min(mul(g, k) for k in kernel) for g in range(32)]
        quotient = set(coset)
        center = [
            g for g in quotient if all(coset[mul(g, x)] == coset[mul(x, g)] for x in quotient)
        ]
        omega = [g for g in center if coset[mul(g, g)] == 0]
        rank = len(omega).bit_length() - 1
        if rank * math.isqrt(len(quotient) // len(center)) <= dimension:
            orders.add(len(quotient))
    return orders


class TestCosetSearch:
    @pytest.mark.parametrize("text", SWEEP_SIGNATURES)
    def test_matches_the_closure_search_on_the_small_pool(self, text):
        assert hit_rows(find_gamma_models(text, "dirac4")) == reference_search(text, "dirac4")

    @pytest.mark.parametrize("text", SWEEP_SIGNATURES)
    def test_penta8_hits_are_pinned(self, text):
        assert hit_rows(find_gamma_models(text, "penta8")) == PENTA8_HITS[text]

    @pytest.mark.parametrize("pool_name", catalog.POOL_NAMES)
    @pytest.mark.parametrize("text", FOUR_GENERATOR_SIGNATURES)
    def test_search_matches_the_per_signature_reference(self, text, pool_name, kernel_walk):
        # Hits and first tuples as the reference has them. The walk with no
        # stop meets the reference's subgroups in its order. Each class
        # starts at a visited fourth.
        counters = COUNTERS
        pool = pool_group(pool_name)
        want, want_subgroups = reference_coset_search(text, pool_name)
        clear_search_caches()
        before = dict(counters)
        hits = find_gamma_models(text, pool_name)
        done = {k: counters[k] - before[k] for k in before}
        assert hits == want  # first tuples included
        walk = kernel_walk(text, pool_name)
        assert met_subgroups(pool, walk) == want_subgroups
        assert done["search.tuples"] >= len(hits)

    @pytest.mark.parametrize("text", FOUR_GENERATOR_SIGNATURES)
    def test_admitted_orders_bound_the_walk(self, text, kernel_walk):
        # The closed form matches a bound computed on every brute-force
        # kernel in the quotient itself, at every dimension up to 9: its
        # thresholds fall at 2, 4 and 6. Every order the walk with no stop
        # meets is admitted, penta8 meets every admitted order, and dirac4
        # admits no order 32 exactly where the triple's squares multiply to
        # -1 and the commuting fourth squares to +1: `++-|+`, `---|+` and
        # their reorderings, whose order-32 class has Z = C2^3 and needs
        # degree 6.
        spec = SignatureSpec.parse(text)
        for dimension in range(1, 10):
            admitted = catalog._admitted_orders(spec, dimension)
            assert admitted == reference_admitted_orders(spec, dimension), dimension
        odd_triple = spec.squares[:3].count(-1) % 2 == 1
        twisted = spec.fourth_commutes and spec.squares[3] == 1 and odd_triple
        for pool_name, dimension in (("dirac4", 4), ("penta8", 8)):
            admitted = catalog._admitted_orders(spec, dimension)
            met = {32 // mask.bit_count() for _, mask in kernel_walk(text, pool_name)}
            assert met <= admitted
            if pool_name == "penta8":
                assert met == admitted
            else:
                assert (32 not in admitted) == twisted
        assert sum(
            32 not in catalog._admitted_orders(SignatureSpec.parse(other), 4)
            for other in FOUR_GENERATOR_SIGNATURES
        ) == 4

    @pytest.mark.parametrize("text", [t for t in FOUR_GENERATOR_SIGNATURES if "|" in t])
    def test_the_triple_product_squares_by_the_sign_rule(self, text):
        # The closed form reads w^2 for w = s1 s2 s3 off the spec; the first
        # tuple the search finds in penta8 squares its w to the same sign.
        spec = SignatureSpec.parse(text)
        pool = pool_group("penta8")
        cay = pool.cayley()
        s1, s2, s3, _ = find_gamma_models(spec, "penta8")[0].generator_indices
        w = cay[cay[s1][s2]][s3]
        assert cay[w][w] == {1: 0, -1: pool.minus_index()}[spec.product_square()]

    @pytest.mark.parametrize("pool_name", catalog.POOL_NAMES)
    def test_every_subgroup_the_search_meets_holds_minus_one(self, pool_name, kernel_walk):
        # The premise of taking one of each {s, -s}: -1 lies in every group
        # the search builds, the triple groups and every <H, s4>, all
        # closed from their generators.
        pool = pool_group(pool_name)
        minus = pool.index_of(pool.matrix(0).scale(MINUS))
        subgroups = [
            key for text in SWEEP_SIGNATURES for key in met_subgroups(pool, kernel_walk(text, pool_name))
        ]
        triples = {t for sq in TRIPLE_SQUARES for t in pool.anticommuting_triples(sq)}
        assert len(subgroups) > 0
        assert all(key >> minus & 1 for key in subgroups)
        assert all(minus in pool.closure_indices(t) for t in triples)

    def test_the_triple_enumerator_takes_one_triple_per_sign_class(self):
        pool = pool_group("penta8")
        reps = pool.sign_representatives()
        # (triples, distinct triple groups) per triple-square pattern: one
        # triple per sign class, 5,120 in all, against 40,960 over both signs
        sizes = {(1, 1, 1): (640, 640), (1, 1, -1): (1920, 660),
                 (1, -1, -1): (1920, 640), (-1, -1, -1): (640, 220)}
        total = 0
        for squares in TRIPLE_SQUARES:
            triples = list(pool.anticommuting_triples(squares))
            both_signs = list(reference_triples(pool, squares))
            assert triples == [t for t in both_signs if all(reps >> s & 1 for s in t)]
            assert len(both_signs) == 8 * len(triples)
            assert (len(triples), len(set(triple_groups(pool, triples)))) == sizes[squares]
            total += len(triples)
        assert total == 5120

    @pytest.mark.parametrize("pool_name", catalog.POOL_NAMES)
    @pytest.mark.parametrize("squares", TRIPLE_SQUARES)
    def test_triple_word_masks_are_the_closures_of_their_triples(self, squares, pool_name):
        # The search reads each triple's group off its 8 words and their
        # negatives; the reference closes the triple by `closure_indices`.
        pool = pool_group(pool_name)
        triples = list(pool.anticommuting_triples(squares))
        for triple, key in zip(triples, triple_groups(pool, triples)):
            assert key == sum(1 << x for x in pool.closure_indices(triple)), triple
        assert len(triples) > 0

    @pytest.mark.parametrize("pool_name", catalog.POOL_NAMES)
    def test_equal_kernel_masks_are_exactly_the_certified_maps(self, pool_name, kernel_walk):
        # Over every sweep signature, two tuples of one signature have equal
        # kernel masks exactly when s_i -> s_i' certifies on the pool table.
        # Each tuple of the walk with no stop is certified onto the first
        # tuple with its mask, and the first tuples of distinct masks onto
        # none of each other; maps compose and invert, so that settles
        # every pair. A kernel of k normal forms leaves a group of order
        # 32 / k, and two masks of one size are <w> and <z w>: the first
        # tuple of one certifies onto the other's with s3 negated, so the
        # class is fixed by |K|.
        pool = pool_group(pool_name)
        cay = pool.cayley()
        minus_row = cay[pool.minus_index()]
        swapped = 0
        for text in SWEEP_SIGNATURES:
            walk = kernel_walk(text, pool_name)
            firsts = {}
            for gens, mask in walk:
                order = len(pool.closure_indices(gens))
                assert order * mask.bit_count() == 32, (text, gens)
                first = firsts.setdefault(mask, gens)
                assert certified_map(cay, cay, gens, first, order) is not None, (text, gens)
            for mask, gens in firsts.items():
                order = len(pool.closure_indices(gens))
                for other_mask, other in firsts.items():
                    if other_mask == mask:
                        continue
                    assert certified_map(cay, cay, gens, other, order) is None, (text, gens)
                    if other_mask.bit_count() == mask.bit_count():
                        s1, s2, s3, s4 = other
                        images = (s1, s2, minus_row[s3], s4)
                        assert certified_map(cay, cay, gens, images, order) is not None, text
                        swapped += 1
            assert len(firsts) < len(walk)
        assert swapped > 0

    def test_counters_add_up(self):
        clear_search_caches()
        before = dict(COUNTERS)
        hits = find_gamma_models("++-|-", "dirac4")
        done = {k: COUNTERS[k] - before[k] for k in before}
        # the search names its classes by squaring key and solves no form
        assert done["iso.calls"] == done["form.orbit"] == 0
        # each class starts at a visited fourth
        assert done["search.tuples"] >= len(hits) == 2


class TestExtensions:
    def test_each_irreducible_base_extends_both_ways(self):
        table = {
            ("gamma_minus", 1): "gamma64_minus",
            ("gamma_minus", -1): "gamma64_null",
            ("gamma_plus", 1): "gamma64_null",
            ("gamma_plus", -1): "gamma64_plus",
        }
        for (base, square), expect in table.items():
            result = enumerate_extensions(base, square)
            assert result.found, (base, square)
            assert result.order == 64
            assert result.identified == expect
            assert result.report is not None and result.report.passed

    @pytest.mark.parametrize("base", ["pauli_c2", "q8_v4", "d4_v4"])
    @pytest.mark.parametrize("square", [1, -1])
    def test_reducible_bases_report_failure_without_raising(self, base, square):
        result = enumerate_extensions(base, square)
        assert not result.found
        assert "no phase" in result.reason

    def test_base_without_four_generators_has_no_generators(self):
        result = enumerate_extensions("pauli", 1)
        assert not result.found
        assert result.generators == ()

    def test_extension_sweep_collapses_to_three_classes(self):
        results = sweep_extensions()
        assert len(results) == 10
        found = {r.identified for r in results if r.found}
        assert found == {"gamma64_minus", "gamma64_plus", "gamma64_null"}

    def test_every_found_extension_is_in_f(self):
        # `enumerate_extensions` names its group by squaring key alone.
        found = [r for r in sweep_extensions() if r.found]
        assert found
        for result in found:
            group = MatrixGroup.from_generators(result.generators)
            assert group.squaring_key() is not None, (result.base, result.square)

    def test_invalid_square_rejected(self):
        with pytest.raises(ValueError):
            enumerate_extensions("gamma_minus", 2)

    @pytest.mark.parametrize("name,base,square", [
        ("gamma64_minus", "gamma_minus", 1),
        ("gamma64_null", "gamma_minus", -1),
        ("gamma64_plus", "gamma_plus", -1),
    ])
    def test_stored_order64_generators_are_the_constructed_extension(self, name, base, square):
        result = enumerate_extensions(base, square)
        assert result.identified == name
        assert catalog_entry(name).generators == list(result.generators)

    @pytest.mark.parametrize("name,base,square", [
        ("gamma64_minus", "gamma_minus", 1),
        ("gamma64_null", "gamma_minus", -1),
        ("gamma64_plus", "gamma_plus", -1),
    ])
    def test_the_extension_is_the_catalog_group(self, name, base, square, monkeypatch):
        # The extension closes the stored generator tuple, so it reads the
        # group the catalog already closed and closes nothing itself.
        group = catalog_group(name)
        catalog_group(base)

        def closed(*args, **kwargs):
            raise AssertionError("a generator tuple closed twice")

        monkeypatch.setattr(groups, "generate_closure", closed)
        result = enumerate_extensions(base, square)
        assert result.found and result.order == group.order
        assert catalog.generated_group(tuple(result.generators)) is group


INDEX_TWO_DECOMPOSITIONS = [
    ("gamma64_minus", (("gamma_minus", 16), ("pauli_c2", 10), ("q8_v4", 5))),
    ("gamma64_plus", (("d4_v4", 9), ("gamma_plus", 16), ("pauli_c2", 6))),
    ("gamma64_null", (("gamma_minus", 6), ("gamma_plus", 10), ("pauli_c2", 15))),
]


class TestOrder64Models:
    def test_sixth_generator_blocks(self):
        # Product of all five generators: scalar on each 4-dim block, with
        # opposite signs (or opposite imaginary units for the null model).
        cases = {
            "gamma64_minus": ("1", "-1"),
            "gamma64_plus": ("-1", "1"),
            "gamma64_null": ("i", "-i"),
        }
        four = ExactMatrix.identity(4)
        for name, (top, bottom) in cases.items():
            gens = catalog_entry(name).generators
            product = gens[0]
            for g in gens[1:]:
                product = product * g
            want = block_diag(four.scale(parse_scalar(top)), four.scale(parse_scalar(bottom)))
            assert product == want, name

    @pytest.mark.parametrize("name,expected", INDEX_TWO_DECOMPOSITIONS)
    def test_index_two_decompositions(self, name, expected):
        assert decompose_index_two(name) == expected

    @pytest.mark.parametrize("name,expected", INDEX_TWO_DECOMPOSITIONS)
    def test_index_two_classes_are_named_off_member_masks(self, name, expected, monkeypatch):
        for group_name in (name, *STABLE_NAMES):
            catalog_group(group_name)

        def built(sub):
            raise AssertionError("an index-two subgroup built as a group")

        monkeypatch.setattr(Subgroup, "as_group", built)
        assert decompose_index_two(name) == expected

    @pytest.mark.parametrize("name", ["gamma64_minus", "gamma64_plus", "gamma64_null"])
    def test_exactly_three_subgroup_classes_of_half_order(self, name):
        assert len(decompose_index_two(name)) == 3
        assert sum(count for _, count in decompose_index_two(name)) == 31

    @pytest.mark.parametrize("name", ["gamma64_minus", "gamma64_plus", "gamma64_null"])
    def test_index_two_subgroups_are_in_f(self, name):
        # `decompose_index_two` names each class by its squaring key alone:
        # every index-two subgroup holds -1 and has a key of its own.
        group = catalog_group(name)
        subgroups = group.subgroups_of_order(group.order // 2)
        assert subgroups
        for sub in subgroups:
            assert sub.as_group().squaring_key() is not None, sub.indices

    def test_the_three_models_are_pairwise_nonisomorphic(self):
        names = ["gamma64_minus", "gamma64_plus", "gamma64_null"]
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert not catalog_group(a).is_isomorphic(catalog_group(b))


class TestGeneratorFiles:
    def test_round_trip(self, tmp_path):
        entry = catalog_entry("pauli")
        payload = {
            "name": "custom",
            "dimension": 2,
            "generators": [format_matrix(g) for g in entry.generators],
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(payload))
        name, group = load_generator_file(str(path))
        assert name == "custom"
        assert group.order == 16

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "dimension": 2}))
        with pytest.raises(ValueError):
            load_generator_file(str(path))

    def test_empty_generator_list_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"name": "x", "dimension": 2, "generators": []}))
        with pytest.raises(ValueError):
            load_generator_file(str(path))
