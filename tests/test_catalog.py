"""Catalog data, profile validation, signature search, and extensions."""

import json
from array import array
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammagroups import catalog, claims
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
    ExactMatrix,
    GaussianRational,
    block_diag,
    format_matrix,
    parse_matrix,
    parse_scalar,
)
from gammagroups.groups import MatrixGroup, Subgroup, certified_map, mask_indices

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


class TestExtraction:
    def test_extracted_entries_sit_inside_their_parents(self):
        for name, parent in (("q8_c2", "gamma_minus"), ("d4_c2", "gamma_plus")):
            entry = catalog_entry(name)
            assert entry.extracted_from == parent
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
        reps = catalog._sign_representatives(pool)
        assert reps.bit_count() == pool.order // 2
        for s in range(pool.order):
            minus_s = pool.index_of(pool.matrix(s).scale(MINUS))
            assert (reps >> s & 1) + (reps >> minus_s & 1) == 1
            assert reps >> min(s, minus_s) & 1

    def test_sign_representatives_need_minus_one(self):
        # <diag(1, -1)> = {1, diag(1, -1)} holds no -1, so no pair {s, -s}.
        group = MatrixGroup.from_generators([parse_matrix("[[1, 0], [0, -1]]")])
        with pytest.raises(ValueError, match="-1"):
            catalog._sign_representatives(group)


class TestSignatureSpec:
    @pytest.mark.parametrize("text", SWEEP_SIGNATURES)
    def test_round_trip(self, text):
        assert str(SignatureSpec.parse(text)) == text

    def test_anticommuting_spec_shape(self):
        spec = SignatureSpec.parse("++--")
        assert spec.squares == (1, 1, -1, -1)
        assert spec.commuting_fourth is None

    def test_commuting_spec_shape(self):
        spec = SignatureSpec.parse("+--|+")
        assert spec.squares == (1, -1, -1)
        assert spec.commuting_fourth == 1

    @pytest.mark.parametrize("text", ["+++", "+++++", "++|++", "|+++", "+-x-"])
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(ValueError):
            SignatureSpec.parse(text)

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

    if spec.commuting_fourth is None:
        sq, fourth, related = spec.squares[:3], spec.squares[3], anti
    else:
        sq, fourth, related = spec.squares, spec.commuting_fourth, comm
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
                    if spec.commuting_fourth is not None and s4 in base:
                        continue
                    if spec.commuting_fourth is None and fourth == sq[2] and s4 <= s3:
                        continue
                    key = pool.closure_indices((s1, s2, s3, s4))
                    if key in seen:
                        continue
                    seen.add(key)
                    group = Subgroup(pool, key).as_group()
                    if any(group.order == rep.order and group.is_isomorphic(rep) for rep, _ in classes):
                        continue
                    identified = catalog.identify_stable(group) if group.order == 32 else None
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


def reference_coset_search(text, pool_name):
    """The coset search over every sign variant of every generator, with
    every signature enumerating its own triples (`reference_triples`).

    Each pair is closed by breadth-first search once per signature, and
    each triple's group is taken again per signature; every extension is
    the normalizer-checked `reference_coset`. Classes are told apart by
    generator-map hints certified on the pool table (`certified_map`):
    the class's first tuple and the fallback's images of later ones.
    The rest is the search, counters included. Returns the hits and the
    member masks of the subgroups it meets, in order.
    """
    spec = SignatureSpec.parse(text)
    pool = pool_group(pool_name)
    cay = pool.cayley()
    commute, anticommute = pool.commutation_masks()
    square_masks = pool.unit_square_masks()
    if spec.commuting_fourth is None:
        triple_squares, fourth_sign = spec.squares[:3], spec.squares[3]
        fourth_masks = anticommute
    else:
        triple_squares, fourth_sign = spec.squares, spec.commuting_fourth
        fourth_masks = commute
    counters = catalog.SEARCH_COUNTERS
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
        if spec.commuting_fourth is not None:
            fourths &= ~base
        elif fourth_sign == triple_squares[2]:
            fourths &= -2 << s3
        counters["search.tuples"] += fourths.bit_count()
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
            counters["search.subgroups"] += 1
            gens = (s1, s2, s3, s4)
            order = key.bit_count()
            group = None
            for cls in classes:
                if cls.hit.order != order:
                    continue
                if any(certified_map(cay, cay, gens, images, order) is not None
                       for images in cls.images):
                    counters["search.iso_hint"] += 1
                    break
                counters["search.iso_fallback"] += 1
                group = group or catalog._standalone(pool, key)
                cls.group = cls.group or catalog._standalone(pool, cls.key)
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
                    group = group or catalog._standalone(pool, key)
                    identified = catalog.identify_stable(group)
                hit = catalog.ModelHit(str(spec), pool_name, gens, order, identified)
                classes.append(HintedClass(key, [gens], hit, group))
        covered[base] = (members, taken)
    return [cls.hit for cls in classes], subgroups


def clear_search_caches():
    """Forget every search result and shared triple level, so a search runs cold."""
    catalog._gamma_models.cache_clear()
    catalog._triple_level.cache_clear()


def met_subgroups(pool, kernel_masks):
    """The member masks of the new groups <H, s4> the search met, in
    order, each closed from its tuple apart from the search
    (`closure_indices`)."""
    return [sum(1 << x for x in pool.closure_indices(gens)) for gens, _ in kernel_masks]


# The triple squares of the 13 sweep signatures, one shared level each.
TRIPLE_SQUARES = ((1, 1, 1), (1, 1, -1), (1, -1, -1), (-1, -1, -1))

# Signatures whose sign order differs from the canonical sweep's.
NONCANONICAL_SIGNATURES = ("-+-+", "+-+-", "-++-", "--++", "+-+|-", "-+-|+", "-++|-")


class TestCosetSearch:
    @pytest.mark.parametrize("text", SWEEP_SIGNATURES)
    def test_matches_the_closure_search_on_the_small_pool(self, text):
        assert hit_rows(find_gamma_models(text, "dirac4")) == reference_search(text, "dirac4")

    @pytest.mark.parametrize("text", SWEEP_SIGNATURES)
    def test_penta8_hits_are_pinned(self, text):
        assert hit_rows(find_gamma_models(text, "penta8")) == PENTA8_HITS[text]

    @pytest.mark.parametrize("pool_name", catalog.POOL_NAMES)
    @pytest.mark.parametrize("text", SWEEP_SIGNATURES + NONCANONICAL_SIGNATURES)
    def test_shared_levels_match_the_per_signature_reference(self, text, pool_name, kernel_masks):
        # Hits, first tuples, the subgroups in the order met, and every
        # counter: the sign classes {s, -s} leave all but the tuple count
        # as the search over both signs has them, and divide that by 2^4.
        counters = catalog.SEARCH_COUNTERS
        before = dict(counters)
        want, want_subgroups = reference_coset_search(text, pool_name)
        want_done = {k: counters[k] - before[k] for k in before}
        clear_search_caches()
        before = dict(counters)
        hits = find_gamma_models(text, pool_name)
        done = {k: counters[k] - before[k] for k in before}
        assert hits == want  # first tuples included
        assert met_subgroups(pool_group(pool_name), kernel_masks) == want_subgroups
        assert 16 * done.pop("search.tuples") == want_done.pop("search.tuples")
        assert done == want_done

    @pytest.mark.parametrize("pool_name", catalog.POOL_NAMES)
    def test_every_subgroup_the_search_meets_holds_minus_one(self, pool_name, kernel_masks):
        # The premise of taking one of each {s, -s}: -1 lies in every group
        # the search builds, the triple groups and every <H, s4>.
        pool = pool_group(pool_name)
        minus = pool.index_of(pool.matrix(0).scale(MINUS))
        sweep_stable_models(pool_name)
        subgroups = met_subgroups(pool, kernel_masks)
        levels = [catalog._triple_level(pool_name, sq) for sq in TRIPLE_SQUARES]
        met = subgroups + [key for level in levels for key in level.masks]
        assert len(subgroups) > 0
        assert all(key >> minus & 1 for key in met)

    def test_a_cold_sweep_builds_one_level_per_triple_square_pattern(self):
        clear_search_caches()
        sweep_stable_models("penta8")
        assert catalog._triple_level.cache_info().misses == 4
        pool = pool_group("penta8")
        reps = catalog._sign_representatives(pool)
        # (triples, distinct triple subgroups) per level: one triple per
        # sign class, 5,120 in all, against 40,960 over both signs
        sizes = {(1, 1, 1): (640, 640), (1, 1, -1): (1920, 660),
                 (1, -1, -1): (1920, 640), (-1, -1, -1): (640, 220)}
        for squares in TRIPLE_SQUARES:
            level = catalog._triple_level("penta8", squares)
            assert isinstance(level.ids, array) and isinstance(level.triples, array)
            assert (len(level.ids), len(level.masks)) == sizes[squares]
            assert all(reps >> s & 1 for s in level.triples)
            want = [t for t in reference_triples(pool, squares) if all(reps >> s & 1 for s in t)]
            assert list(level.triples) == [s for t in want for s in t]
            assert len(level.ids) * 3 == len(level.triples)
            assert set(level.ids) == set(range(len(level.masks)))
            assert len(set(level.masks)) == len(level.masks)
        assert sum(len(catalog._triple_level("penta8", sq).ids) for sq in TRIPLE_SQUARES) == 5120
        assert catalog._triple_level.cache_info().misses == 4

    @pytest.mark.parametrize("pool_name", catalog.POOL_NAMES)
    @pytest.mark.parametrize("squares", TRIPLE_SQUARES)
    def test_level_masks_are_the_closures_of_their_triples(self, squares, pool_name):
        # The level reads each triple's group off its 8 words and their
        # negatives; the reference closes the triple by `closure_indices`.
        clear_search_caches()
        pool = pool_group(pool_name)
        level = catalog._triple_level(pool_name, squares)
        it = iter(level.triples)
        for triple, h in zip(zip(it, it, it), level.ids):
            assert level.masks[h] == sum(1 << x for x in pool.closure_indices(triple)), triple
        assert len(level.ids) > 0

    @pytest.mark.parametrize("pool_name", catalog.POOL_NAMES)
    def test_equal_kernel_masks_are_exactly_the_certified_maps(self, pool_name, kernel_masks):
        # Over every sweep signature, two tuples of one signature have equal
        # kernel masks exactly when s_i -> s_i' certifies on the pool table.
        # Each tuple is certified onto the first tuple with its mask, and
        # the first tuples of distinct masks onto none of each other; maps
        # compose and invert, so that settles every pair. A kernel of k
        # normal forms leaves a group of order 32 / k.
        pool = pool_group(pool_name)
        cay = pool.cayley()
        for text in SWEEP_SIGNATURES:
            kernel_masks.clear()
            find_gamma_models(text, pool_name)
            firsts = {}
            for gens, mask in kernel_masks:
                order = len(pool.closure_indices(gens))
                assert order * mask.bit_count() == 32, (text, gens)
                first = firsts.setdefault(mask, gens)
                assert certified_map(cay, cay, gens, first, order) is not None, (text, gens)
            for mask, gens in firsts.items():
                order = len(pool.closure_indices(gens))
                for other_mask, other in firsts.items():
                    if other_mask != mask:
                        assert certified_map(cay, cay, gens, other, order) is None, (text, gens)
            assert len(firsts) < len(kernel_masks)

    def test_counters_add_up(self):
        clear_search_caches()
        before = dict(catalog.SEARCH_COUNTERS)
        hits = find_gamma_models("++-|-", "dirac4")
        done = {k: catalog.SEARCH_COUNTERS[k] - before[k] for k in before}
        assert done["search.tuples"] >= done["search.subgroups"] > 0
        # every subgroup is either a new class or matched by one test that ends the scan
        assert done["search.iso_hint"] + done["search.iso_fallback"] >= (
            done["search.subgroups"] - len(hits)
        )
        # standalone groups only for new classes and each side of a fallback
        assert done["search.groups_built"] <= len(hits) + 2 * done["search.iso_fallback"]


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

    def test_extension_sweep_collapses_to_three_classes(self):
        results = sweep_extensions()
        assert len(results) == 10
        found = {r.identified for r in results if r.found}
        assert found == {"gamma64_minus", "gamma64_plus", "gamma64_null"}

    def test_invalid_square_rejected(self):
        with pytest.raises(ValueError):
            enumerate_extensions("gamma_minus", 2)


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

    @pytest.mark.parametrize("name,expected", [
        ("gamma64_minus", (("gamma_minus", 16), ("pauli_c2", 10), ("q8_v4", 5))),
        ("gamma64_plus", (("d4_v4", 9), ("gamma_plus", 16), ("pauli_c2", 6))),
        ("gamma64_null", (("gamma_minus", 6), ("gamma_plus", 10), ("pauli_c2", 15))),
    ])
    def test_index_two_decompositions(self, name, expected):
        assert decompose_index_two(name) == expected

    @pytest.mark.parametrize("name", ["gamma64_minus", "gamma64_plus", "gamma64_null"])
    def test_exactly_three_subgroup_classes_of_half_order(self, name):
        assert len(decompose_index_two(name)) == 3
        assert sum(count for _, count in decompose_index_two(name)) == 31

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
