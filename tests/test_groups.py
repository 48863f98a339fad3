"""Group engine tests against small groups with independent brute-force oracles."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammagroups import catalog
from gammagroups.exact import PRODUCT_COUNTERS, ExactMatrix, GaussianRational, parse_matrix
from gammagroups.groups import (
    DEFAULT_CAP,
    ISO_COUNTERS,
    MatrixGroup,
    Subgroup,
    certified_map,
    generate_closure,
    mask_indices,
)

SX = parse_matrix("[[0,1],[1,0]]")
SY = parse_matrix("[[0,-i],[i,0]]")
SZ = parse_matrix("[[1,0],[0,-1]]")
A1 = SZ * SY
A2 = SX * SZ
MINUS = GaussianRational(-1, 0)

GAMMA1 = parse_matrix("[[0,0,0,-i],[0,0,-i,0],[0,i,0,0],[i,0,0,0]]")
GAMMA2 = parse_matrix("[[0,0,0,-1],[0,0,1,0],[0,1,0,0],[-1,0,0,0]]")
GAMMA3 = parse_matrix("[[0,0,-i,0],[0,0,0,i],[i,0,0,0],[0,-i,0,0]]")
GAMMA4 = parse_matrix("[[1,0,0,0],[0,1,0,0],[0,0,-1,0],[0,0,0,-1]]")

# Permutation matrices: a 3-cycle and a transposition make S3; a 4-cycle
# and a transposition make S4.
S3_GENS = [
    parse_matrix("[[0,1,0],[0,0,1],[1,0,0]]"),
    parse_matrix("[[0,1,0],[1,0,0],[0,0,1]]"),
]
S4_GENS = [
    parse_matrix("[[0,1,0,0],[0,0,1,0],[0,0,0,1],[1,0,0,0]]"),
    parse_matrix("[[0,1,0,0],[1,0,0,0],[0,0,1,0],[0,0,0,1]]"),
]
# The binary tetrahedral group 2T in SU(2): the quaternion i and
# (1 + i + j + k)/2, whose entries are dense.
BINARY_TETRAHEDRAL_GENS = [
    parse_matrix("[[i,0],[0,-i]]"),
    parse_matrix("[[1/2+1/2i,1/2+1/2i],[-1/2+1/2i,1/2-1/2i]]"),
]


# S5 as 5x5 permutation matrices: a 5-cycle and a transposition. It is
# not solvable: A5 and its perfect subgroups lie in no chain of normal
# prime-index steps.
S5_GENS = [
    parse_matrix("[[0,1,0,0,0],[0,0,1,0,0],[0,0,0,1,0],[0,0,0,0,1],[1,0,0,0,0]]"),
    parse_matrix("[[0,1,0,0,0],[1,0,0,0,0],[0,0,1,0,0],[0,0,0,1,0],[0,0,0,0,1]]"),
]
# An order-768 group of 4x4 monomial matrices.
F768_GENS = [
    parse_matrix("[[i,0,0,0],[0,i,0,0],[0,0,0,-1],[0,0,-i,0]]"),
    parse_matrix("[[0,0,-1,0],[0,-1,0,0],[i,0,0,0],[0,0,0,1]]"),
]
SMALL_GENS = {"S3": S3_GENS, "S4": S4_GENS, "2T": BINARY_TETRAHEDRAL_GENS, "S5": S5_GENS}


@functools.cache
def named_group(name):
    """A catalog group, a pool, or one of the small groups above, by name."""
    if name in SMALL_GENS:
        return MatrixGroup.from_generators(SMALL_GENS[name])
    if name in catalog.POOL_NAMES:
        return catalog.pool_group(name)
    return catalog.catalog_group(name)


def bfs_closure(group, seed, limit=None):
    """Breadth-first closure of ``seed`` on the table, or None once it
    would pass ``limit`` elements."""
    cay = group.cayley()
    gens = [s for s in dict.fromkeys(seed) if s != 0]
    members = {0}
    queue = [0]
    for x in queue:
        for g in gens:
            y = cay[x][g]
            if y in members:
                continue
            if limit is not None and len(members) >= limit:
                return None
            members.add(y)
            queue.append(y)
    return frozenset(members)


def reference_subgroup_sets(group, limit):
    """Every subgroup of at most ``limit`` elements, as frozensets.

    The walk grows every known subgroup by every element outside it, one
    limited breadth-first closure each.
    """
    trivial = frozenset({0})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        next_frontier = []
        for current in frontier:
            for g in range(1, group.order):
                if g in current:
                    continue
                grown = bfs_closure(group, tuple(current) + (g,), limit)
                if grown is None or grown in found:
                    continue
                found.add(grown)
                next_frontier.append(grown)
        frontier = next_frontier
    return found


@pytest.fixture(scope="module")
def q8():
    return MatrixGroup.from_generators([A1, A2])


@pytest.fixture(scope="module")
def d4():
    return MatrixGroup.from_generators([A1, SY])


@pytest.fixture(scope="module")
def pauli():
    return MatrixGroup.from_generators([SX, SY, SZ])


@pytest.fixture(scope="module")
def dirac():
    return MatrixGroup.from_generators([GAMMA1, GAMMA2, GAMMA3, GAMMA4])


def brute_center(group):
    """Center by definition, straight off the matrices."""
    out = []
    for i in range(group.order):
        a = group.elements[i]
        if all((a * b) == (b * a) for b in group.elements):
            out.append(i)
    return set(out)


def brute_is_normal(sub):
    """Closed under conjugation by every parent element, on the matrices."""
    parent = sub.parent
    return all(
        g.inverse() * parent.matrix(h) * g in sub for g in parent.elements for h in sub.indices
    )


@pytest.fixture(scope="module")
def s3():
    return MatrixGroup.from_generators(S3_GENS)


def brute_derived(group):
    """Closure of all matrix commutators aba^-1 b^-1."""
    comms = []
    for a in group.elements:
        for b in group.elements:
            comms.append(a * b * a.inverse() * b.inverse())
    closed, _ = generate_closure(comms)
    return {m.key() for m in closed}


def brute_frattini(group):
    """Intersection of the maximal subgroups (index 2 in a 2-group)."""
    half = group.order // 2
    common = set(range(group.order))
    for sub in group.subgroups_of_order(half):
        common &= sub.indices
    return common


class TestClosure:
    def test_q8_order_and_histogram(self, q8):
        assert q8.order == 8
        assert q8.order_histogram() == {1: 1, 2: 1, 4: 6}

    def test_identity_comes_first(self, q8):
        assert q8.elements[0].is_identity()

    def test_closure_is_idempotent(self, q8):
        again, _ = generate_closure(list(q8.elements))
        assert len(again) == q8.order
        assert {m.key() for m in again} == {m.key() for m in q8.elements}

    def test_cap_is_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            generate_closure([SX, SY, SZ], cap=7)

    def test_default_cap_accepts_pauli(self):
        elements, _ = generate_closure([SX, SY, SZ], cap=DEFAULT_CAP)
        assert len(elements) == 16

    def test_singular_generator_rejected(self):
        bad = parse_matrix("[[1,0],[0,0]]")
        with pytest.raises(ValueError):
            generate_closure([bad])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            generate_closure([SX, ExactMatrix.identity(3)])

    def test_no_generators_rejected(self):
        with pytest.raises(ValueError):
            generate_closure([])


class TestCayleyStructure:
    def test_latin_square_rows_and_columns(self, q8):
        n = q8.order
        for i in range(n):
            row = [q8.mul(i, j) for j in range(n)]
            col = [q8.mul(j, i) for j in range(n)]
            assert sorted(row) == list(range(n))
            assert sorted(col) == list(range(n))

    def test_inverses_round_trip(self, pauli):
        for i in range(pauli.order):
            assert pauli.mul(i, pauli.inv(i)) == 0
            assert pauli.mul(pauli.inv(i), i) == 0

    def test_element_order_matches_matrix_power(self, pauli):
        for i in range(pauli.order):
            k = pauli.element_order(i)
            m = pauli.elements[i]
            assert (m ** k).is_identity()
            assert all(not (m ** j).is_identity() for j in range(1, k))

    def test_exponent(self, pauli, q8):
        assert pauli.exponent() == 4
        assert q8.exponent() == 4

    def test_constructor_requires_identity_first(self, q8):
        shuffled = [q8.elements[1], q8.elements[0]] + list(q8.elements[2:])
        with pytest.raises(ValueError, match="identity"):
            MatrixGroup(shuffled, cayley=q8.cayley())

    def test_constructor_requires_a_table(self, q8):
        with pytest.raises(TypeError):
            MatrixGroup(q8.elements)


def reference_cayley(group):
    """The n^2 table straight from exact matrix products."""
    return [[group.index_of(a * b) for b in group.elements] for a in group.elements]


class TestCayleyMatchesProducts:
    """The closure-built table equals the table of all n^2 exact products."""

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_catalog_group(self, name):
        group = catalog.catalog_group(name)
        assert group.cayley() == reference_cayley(group)

    @pytest.mark.parametrize("name", ["dirac4", "penta8"])
    def test_pool(self, name):
        group = catalog.pool_group(name)
        assert group.cayley() == reference_cayley(group)

    def test_extension_group(self):
        result = catalog.enumerate_extensions("gamma_minus", 1)
        group = MatrixGroup.from_generators(result.generators)
        assert group.cayley() == reference_cayley(group)

    @pytest.mark.parametrize("name", list(SMALL_GENS))
    def test_small_group(self, name):
        group = named_group(name)
        assert group.cayley() == reference_cayley(group)

    def test_repeated_and_identity_generators(self):
        gens = [A1, ExactMatrix.identity(2), A1, SY, A1 * SY, SY]
        group = MatrixGroup.from_generators(gens)
        index = {m.key(): i for i, m in enumerate(group.elements)}
        assert group.generator_indices == tuple(dict.fromkeys(index[g.key()] for g in gens))
        assert group.cayley() == reference_cayley(group)

    def test_generated_group_comes_with_its_table(self):
        group = MatrixGroup.from_generators(BINARY_TETRAHEDRAL_GENS)
        before = dict(PRODUCT_COUNTERS)
        table = group.cayley()
        assert dict(PRODUCT_COUNTERS) == before
        assert table == reference_cayley(group)


class TestSubgroupTablesMatchProducts:
    """`Subgroup.as_group` restricts the parent's table to the subgroup;
    that table equals the table of the subgroup's exact products."""

    # The order-32 entries, whose order-16 subgroups have index two and
    # are read off sign characters, and an order-64 one, whose order-16
    # subgroups come from the subgroup walk.
    @pytest.mark.parametrize(
        "name", ["gamma_minus", "gamma_plus", "pauli_c2", "q8_v4", "d4_v4", "gamma64_minus"]
    )
    def test_order_16_subgroups(self, name):
        subs = catalog.catalog_group(name).subgroups_of_order(16)
        assert len(subs) == (155 if name == "gamma64_minus" else 15)
        for sub in subs:
            standalone = sub.as_group()
            assert standalone.cayley() == reference_cayley(standalone)

    def test_penta8_search_standalone_groups(self, monkeypatch):
        # Every group the `---|+` search over penta8 builds for its classes
        # and its fallback isomorphism tests.
        built = []
        standalone = catalog._standalone

        def recording(pool, key):
            group = standalone(pool, key)
            built.append(group)
            return group

        monkeypatch.setattr(catalog, "_standalone", recording)
        hits = catalog._gamma_models.__wrapped__("---|+", "penta8")
        assert [hit.order for hit in hits] == [32, 16]
        assert {group.order for group in built} == {32, 16}
        for group in built:
            assert group.cayley() == reference_cayley(group)


class TestClassesAndCenter:
    def test_class_equation(self, pauli):
        classes = pauli.conjugacy_classes()
        assert sum(len(c) for c in classes) == pauli.order
        seen = [i for c in classes for i in c]
        assert sorted(seen) == list(range(pauli.order))

    def test_class_count_pauli(self, pauli):
        assert len(pauli.conjugacy_classes()) == 10

    def test_class_ordering_is_deterministic(self, pauli):
        classes = pauli.conjugacy_classes()
        key = [(len(c), c[0]) for c in classes]
        assert key == sorted(key)
        assert classes[0] == (0,)

    def test_singleton_classes_are_the_center(self, q8, d4, pauli):
        for g in (q8, d4, pauli):
            singles = {c[0] for c in g.conjugacy_classes() if len(c) == 1}
            assert singles == set(g.center())

    @pytest.mark.parametrize("name", ["q8", "d4", "pauli", "dirac"])
    def test_center_matches_brute_force(self, name, request):
        g = request.getfixturevalue(name)
        assert set(g.center()) == brute_center(g)

    def test_center_sizes(self, q8, d4, pauli, dirac):
        assert len(q8.center()) == 2
        assert len(d4.center()) == 2
        assert len(pauli.center()) == 4
        assert len(dirac.center()) == 2


def reference_derived(group):
    """[G, G] as the closure of all n^2 commutators on the Cayley table."""
    n = group.order
    return group.closure_indices({group._commutator(a, b) for a in range(n) for b in range(n)})


def derived_cases():
    """The groups the normal-closure derived subgroup is checked on."""
    cases = [(name, lambda name=name: catalog.catalog_group(name)) for name in catalog.catalog_names()]
    cases += [(f"pool:{name}", lambda name=name: catalog.pool_group(name)) for name in ("dirac4", "penta8")]
    cases += [
        (name, lambda gens=gens: MatrixGroup.from_generators(gens))
        for name, gens in (("s3", S3_GENS), ("s4", S4_GENS), ("2t", BINARY_TETRAHEDRAL_GENS))
    ]
    return cases


class TestDerivedAndQuotients:
    @pytest.mark.parametrize("name", ["q8", "d4", "pauli", "s3"])
    def test_derived_matches_brute_force(self, name, request):
        g = request.getfixturevalue(name)
        sub = g.derived_subgroup()
        assert {g.elements[i].key() for i in sub.indices} == brute_derived(g)

    @pytest.mark.parametrize("name, build", derived_cases(), ids=[name for name, _ in derived_cases()])
    def test_normal_closure_matches_all_commutators(self, name, build):
        group = build()
        assert group.derived_subgroup().indices == reference_derived(group)

    def test_normal_closure_on_gamma_minus_subgroups(self):
        parent = catalog.catalog_group("gamma_minus")
        subs = parent.subgroups_of_order(16) + parent.subgroups_of_order(32)
        assert len(subs) > 1
        for sub in subs:
            group = sub.as_group()
            assert group.derived_subgroup().indices == reference_derived(group)

    def test_derived_subgroup_is_normal(self, pauli, dirac):
        assert brute_is_normal(pauli.derived_subgroup())
        assert brute_is_normal(dirac.derived_subgroup())

    def test_abelian_invariants(self, q8, d4, pauli, dirac):
        assert q8.abelian_invariants() == (2, 2)
        assert d4.abelian_invariants() == (2, 2)
        assert pauli.abelian_invariants() == (2, 2, 2)
        assert dirac.abelian_invariants() == (2, 2, 2, 2)

    def test_cyclic_group_invariants(self):
        c4 = MatrixGroup.from_generators([A1])
        assert c4.abelian_invariants() == (4,)
        assert brute_center(c4) == set(range(c4.order))

    @pytest.mark.parametrize("name", ["q8", "d4", "pauli"])
    def test_frattini_matches_maximal_intersection(self, name, request):
        g = request.getfixturevalue(name)
        assert g.frattini_subgroup().indices == brute_frattini(g)

    def test_minimal_generator_counts(self, q8, d4, pauli, dirac):
        assert q8.minimal_generator_count() == 2
        assert d4.minimal_generator_count() == 2
        assert pauli.minimal_generator_count() == 3
        assert dirac.minimal_generator_count() == 4


class TestSubgroups:
    def test_lagrange(self, pauli):
        for k in range(1, 17):
            subs = pauli.subgroups_of_order(k)
            if 16 % k != 0:
                assert subs == []
            for s in subs:
                assert s.order == k

    def test_pauli_order8_census(self, pauli):
        subs = pauli.subgroups_of_order(8)
        assert len(subs) == 7
        hists = [tuple(sorted(s.as_group().order_histogram().items())) for s in subs]
        # one quaternion, three dihedral, three abelian
        assert hists.count(((1, 1), (2, 1), (4, 6))) == 1
        assert hists.count(((1, 1), (2, 5), (4, 2))) == 3
        assert hists.count(((1, 1), (2, 3), (4, 4))) == 3

    def test_index_two_subgroups_are_normal(self, pauli):
        for s in pauli.subgroups_of_order(8):
            assert brute_is_normal(s)

    def test_trivial_and_full_subgroup(self, q8):
        whole = q8.subgroups_of_order(8)
        assert len(whole) == 1
        assert whole[0].indices == frozenset(range(8))
        assert q8.subgroups_of_order(1)[0].indices == frozenset({0})

    def test_as_group_round_trip(self, pauli):
        sub = pauli.subgroups_of_order(8)[0]
        g = sub.as_group()
        assert g.order == 8
        hist = {}
        for i in sub.sorted_indices():
            hist[pauli.element_order(i)] = hist.get(pauli.element_order(i), 0) + 1
        assert g.order_histogram() == hist

    def test_dirac_sixteen_census(self, dirac):
        subs = dirac.subgroups_of_order(16)
        assert len(subs) == 15
        reps, counts = [], []
        for s in subs:
            g = s.as_group()
            for i, rep in enumerate(reps):
                if g.is_isomorphic(rep):
                    counts[i] += 1
                    break
            else:
                reps.append(g)
                counts.append(1)
        assert sorted(counts) == [5, 10]
        assert len(reps) == 2

    def test_subgroup_membership_uses_matrices(self, pauli):
        sub = pauli.subgroups_of_order(4)[0]
        for i in range(pauli.order):
            assert (pauli.elements[i] in sub) == (i in sub.indices)


class TestSubgroupWalk:
    """`subgroups_of_order` and `closure_indices` against the frozenset
    walk and breadth-first closures."""

    # Every order but the index-two one (read off sign characters) and the
    # trivial ones; pools up to order 8. S5 is not solvable.
    @pytest.mark.parametrize(
        "name", [*catalog.catalog_names(), *catalog.POOL_NAMES, "S3", "S4", "2T", "S5"]
    )
    def test_walk_matches_the_frozenset_reference(self, name):
        group = named_group(name)
        n = group.order
        top = 8 if name in catalog.POOL_NAMES else n - 1
        orders = [k for k in range(2, top + 1) if n % k == 0 and 2 * k != n]
        reference = reference_subgroup_sets(group, max(orders))
        for k in orders:
            want = sorted(tuple(sorted(s)) for s in reference if len(s) == k)
            assert [sub.sorted_indices() for sub in group.subgroups_of_order(k)] == want, k

    @pytest.mark.parametrize("name, k, count", [("penta8", 16, 1395), ("S5", 12, 15)])
    def test_pinned_subgroup_counts(self, name, k, count):
        assert len(named_group(name).subgroups_of_order(k)) == count

    def test_order_768_file_has_403_subgroups_of_order_8(self):
        group = MatrixGroup.from_generators(F768_GENS)
        assert group.order == 768
        assert len(group.subgroups_of_order(8)) == 403

    @pytest.mark.parametrize("name", [*catalog.catalog_names(), *catalog.POOL_NAMES, "2T"])
    def test_closure_matches_breadth_first(self, name):
        group = named_group(name)
        rng = random.Random(f"closure-{name}")
        for _ in range(25):
            seed = [rng.randrange(group.order) for _ in range(rng.randint(1, 4))]
            assert group.closure_indices(seed) == bfs_closure(group, seed)

    @pytest.mark.parametrize("name", ["q8", "S4", "2T", "S5", "gamma_minus", "dirac4"])
    def test_extend_is_none_exactly_past_the_limit(self, name):
        group = named_group(name)
        rng = random.Random(f"extend-{name}")
        for _ in range(25):
            gens = [rng.randrange(group.order) for _ in range(rng.randint(0, 2))]
            members = sorted(bfs_closure(group, gens))
            mask = sum(1 << x for x in members)
            s = rng.randrange(group.order)
            whole = bfs_closure(group, [*gens, s])
            want = sum(1 << x for x in whole)
            assert group.extend(members, mask, gens, s) == want
            for limit in range(len(members), len(whole) + 2):
                grown = group.extend(members, mask, gens, s, limit)
                assert grown == (None if len(whole) > limit else want), limit


def reference_greedy(group):
    """Greedy generators and prefix orders, each prefix closed from {1}."""
    gens, sizes = [], []
    closure = frozenset({0})
    for a in range(group.order):
        if len(closure) == group.order:
            break
        if a not in closure:
            gens.append(a)
            closure = group.closure_indices(gens)
            sizes.append(len(closure))
    return tuple(gens), tuple(sizes)


class TestGreedyGenerators:
    @pytest.mark.parametrize(
        "name", [*catalog.catalog_names(), *catalog.POOL_NAMES, *SMALL_GENS]
    )
    def test_prefix_extensions_match_per_prefix_closures(self, name):
        group = named_group(name)
        assert group._greedy_generators() == reference_greedy(group)


class TestCommutationMasks:
    @pytest.mark.parametrize("name", ["q8", "d4", "pauli", "dirac"])
    def test_masks_match_matrix_products(self, request, name):
        group = request.getfixturevalue(name)
        commute, anticommute = group.commutation_masks()
        for i, a in enumerate(group.elements):
            for j, b in enumerate(group.elements):
                assert (commute[i] >> j & 1) == (a * b == b * a)
                assert (anticommute[i] >> j & 1) == (a * b == (b * a).scale(MINUS))

    def test_no_anticommuting_pair_without_minus_one(self):
        group = MatrixGroup.from_generators([SX])  # {1, SX}
        assert group.commutation_masks()[1] == [0] * group.order

    # The masks come off the Cayley diagonal; the reference is exact
    # matrix squares and scalars, on every catalog group, both pools and
    # the dense 2T.
    @pytest.mark.parametrize(
        "name", ["dirac", *catalog.catalog_names(), *catalog.POOL_NAMES, "2T"]
    )
    def test_unit_square_masks_match_matrix_squares(self, request, name):
        if name == "dirac":
            group = request.getfixturevalue(name)
        elif name in catalog.POOL_NAMES:
            group = catalog.pool_group(name)
        elif name == "2T":
            group = MatrixGroup.from_generators(BINARY_TETRAHEDRAL_GENS)
        else:
            group = catalog.catalog_group(name)
        identity = group.elements[0]
        masks = group.unit_square_masks()
        for i, a in enumerate(group.elements):
            non_scalar = a.scalar_value() is None
            assert (masks[1] >> i & 1) == (non_scalar and a * a == identity)
            assert (masks[-1] >> i & 1) == (non_scalar and a * a == identity.scale(MINUS))

    @pytest.mark.parametrize("name", catalog.POOL_NAMES)
    def test_minus_index_finds_minus_one_in_a_pool(self, name):
        pool = catalog.pool_group(name)
        neg = pool.minus_index()
        assert neg is not None
        assert pool.matrix(neg) == pool.elements[0].scale(MINUS)

    def test_minus_index_is_none_without_minus_one(self):
        group = MatrixGroup.from_generators(S3_GENS[:1])  # the 3-cycle's <c>
        assert group.order == 3
        assert group.minus_index() is None

    def test_mask_indices_are_increasing(self):
        assert list(mask_indices(0)) == []
        assert list(mask_indices(0b101001 | 1 << 130)) == [0, 3, 5, 130]


def settled_by_kernel(met):
    """(tuple, first tuple met with the same kernel mask) for each tuple of
    ``met`` that the search settles by its mask: each whose mask an
    earlier tuple had."""
    first, settled = {}, []
    for gens, mask in met:
        if mask in first:
            settled.append((gens, first[mask]))
        else:
            first[mask] = gens
    return settled


def is_isomorphism(group, other, phi):
    """Reference certificate: a bijection that respects all n^2 products."""
    n = group.order
    if sorted(phi) != list(range(n)) or other.order != n:
        return False
    cay, cay_other = group.cayley(), other.cayley()
    return all(
        phi[cay[a][b]] == cay_other[phi[a]][phi[b]] for a in range(n) for b in range(n)
    )


def table_certificate(group, other, gens, images):
    """`certified_map` on two standalone groups' tables, as an image list."""
    if other.order != group.order:
        return None
    phi = certified_map(group.cayley(), other.cayley(), gens, images, group.order)
    return None if phi is None else [phi[a] for a in range(group.order)]


def reference_isomorphism_map(group, other):
    """The backtracking pruned on closure size alone.

    A choice of images is kept when they generate a subgroup of
    ``other`` as large as the prefix subgroup, and only the complete
    generator map is certified. Elements are matched on order, class
    size and centrality.
    """
    if group.fingerprint() != other.fingerprint():
        return None
    n = group.order
    if n == 1:
        return [0]
    gens = group._greedy_generators()[0]
    prefix_sizes = [len(group.closure_indices(gens[: j + 1])) for j in range(len(gens))]

    def profile(g, a):
        class_size = next(len(c) for c in g.conjugacy_classes() if a in c)
        return g.element_order(a), class_size, a in g.center()

    candidates = [
        [b for b in range(1, n) if profile(other, b) == profile(group, g)] for g in gens
    ]

    def extend(depth, images):
        if depth == len(gens):
            return table_certificate(group, other, gens, images)
        for b in candidates[depth]:
            if b in images:
                continue
            grown = bfs_closure(other, images + [b], prefix_sizes[depth] + 1)
            if grown is None or len(grown) != prefix_sizes[depth]:
                continue
            result = extend(depth + 1, images + [b])
            if result is not None:
                return result
        return None

    return extend(0, [])


def conjugated(group, seed):
    """The group regenerated from its generators conjugated by a random
    signed permutation matrix, with a random word appended, in shuffled order."""
    rng = random.Random(seed)
    dim = group.dim
    perm = list(range(dim))
    rng.shuffle(perm)
    units = ["1", "-1", "i", "-i"]
    rows = [["0"] * dim for _ in range(dim)]
    for r, c in enumerate(perm):
        rows[r][c] = rng.choice(units)
    m = parse_matrix("[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]")
    gens = [group.elements[i] for i in group.generator_indices]
    moved = [m * g * m.inverse() for g in gens]
    word = moved[0]
    for _ in range(rng.randint(2, 5)):
        word = word * rng.choice(moved)
    moved.append(word)
    rng.shuffle(moved)
    return MatrixGroup.from_generators(moved)


def relabeled(group, seed):
    """The same matrices as a group whose elements come in a shuffled order,
    with the source table permuted to match."""
    order = list(range(1, group.order))
    random.Random(seed).shuffle(order)
    order.insert(0, 0)
    position = {a: i for i, a in enumerate(order)}
    cay = group.cayley()
    table = [[position[cay[a][b]] for b in order] for a in order]
    other = MatrixGroup([group.elements[a] for a in order], cayley=table)
    assert table == reference_cayley(other)
    return other


class TestIsomorphism:
    def test_reflexive_under_relabeling(self, pauli):
        other = MatrixGroup.from_generators([SZ, SX, SY])
        assert pauli.is_isomorphic(other)

    def test_q8_not_isomorphic_to_d4(self, q8, d4):
        assert not q8.is_isomorphic(d4)
        assert not d4.is_isomorphic(q8)

    def test_d4_realizations_agree(self, d4):
        other = MatrixGroup.from_generators([SX, SZ])
        assert d4.is_isomorphic(other)

    def test_certificate_is_a_homomorphism(self, q8):
        other = MatrixGroup.from_generators([A2, A1])
        phi = q8.isomorphism_map(other)
        assert phi is not None
        assert sorted(phi) == list(range(8))
        for i in range(8):
            for j in range(8):
                assert phi[q8.mul(i, j)] == other.mul(phi[i], phi[j])

    def test_size_mismatch_fails_fast(self, q8, pauli):
        assert q8.isomorphism_map(pauli) is None

    def test_hint_map_is_returned_when_it_is_an_isomorphism(self, q8):
        other = MatrixGroup.from_generators([A2, A1])
        gens = [q8.index_of(A1), q8.index_of(A2)]
        images = (other.index_of(A2), other.index_of(A1))
        phi = certified_map(q8.cayley(), other.cayley(), gens, images, q8.order)
        assert [phi[g] for g in gens] == list(images)
        assert is_isomorphism(q8, other, [phi[a] for a in range(q8.order)])

    def test_later_hint_candidates_are_tried(self, q8):
        # The search scans a class's hints in order until one certifies.
        other = MatrixGroup.from_generators([A2, A1])
        gens = [q8.index_of(A1), q8.index_of(A2)]
        wrong = (other.index_of(A2), other.index_of(A2))
        right = (other.index_of(A1), other.index_of(A1 * A2))
        accepted = [
            images
            for images in (wrong, right)
            if certified_map(q8.cayley(), other.cayley(), gens, images, q8.order) is not None
        ]
        assert accepted == [right]

    def test_failed_hint_falls_back_to_a_certified_search(self, q8):
        other = MatrixGroup.from_generators([A2, A1])
        gens = [q8.index_of(A1), q8.index_of(A2)]
        minus = other.index_of(A1 * A1)
        assert certified_map(q8.cayley(), other.cayley(), gens, (minus, minus), 8) is None
        phi = q8.isomorphism_map(other)
        assert phi is not None
        assert is_isomorphism(q8, other, phi)

    def test_hint_cannot_make_non_isomorphic_groups_match(self, q8, d4):
        gens = [q8.index_of(A1), q8.index_of(A2)]
        images = (d4.index_of(A1), d4.index_of(SY))
        assert certified_map(q8.cayley(), d4.cayley(), gens, images, 8) is None
        assert q8.isomorphism_map(d4) is None

    def test_hint_that_breaks_a_relation_is_rejected(self, q8, d4):
        # A1 -> A1 and A2 -> SY reach all of D4 along the generator edges,
        # but A2^2 = -1 in Q8 while SY^2 = +1: only a non-tree edge sees it.
        gens = [q8.index_of(A1), q8.index_of(A2)]
        images = (d4.index_of(A1), d4.index_of(SY))
        assert table_certificate(q8, d4, gens, images) is None

    def test_maps_between_subgroups_of_one_table(self, q8):
        # <A1> and <A2> are two cyclic subgroups of order 4 in Q8.
        cay = q8.cayley()
        a1, a2, minus = q8.index_of(A1), q8.index_of(A2), q8.index_of(A1 * A1)
        phi = certified_map(cay, cay, [a1], [a2], 4)
        assert phi is not None
        assert set(phi) == q8.closure_indices([a1])
        assert set(phi.values()) == q8.closure_indices([a2])
        assert all(phi[cay[a][b]] == cay[phi[a]][phi[b]] for a in phi for b in phi)
        # A1 -> -1 respects every edge but folds <A1> onto {1, -1}.
        assert certified_map(cay, cay, [a1], [minus], 4) is None
        # The size names the order of <gens>; any other size is refused.
        assert certified_map(cay, cay, [a1], [a2], 8) is None

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_catalog_maps_pass_the_full_table_check(self, name):
        group = catalog.catalog_group(name)
        other = relabeled(group, seed=len(name))
        phi = group.isomorphism_map(other)
        assert phi is not None
        assert is_isomorphism(group, other, phi)
        for rival in catalog.catalog_names():
            target = catalog.catalog_group(rival)
            if rival != name and target.order == group.order:
                psi = group.isomorphism_map(target)
                assert psi is None or is_isomorphism(group, target, psi)

    @pytest.mark.parametrize("pool", ["dirac4", "penta8"])
    @pytest.mark.parametrize("signature", ["+++-", "+++|+", "++-|-"])
    def test_hinted_search_maps_pass_the_full_table_check(
        self, signature, pool, monkeypatch, kernel_masks
    ):
        # Every tuple the kernel mask settles maps onto the first tuple
        # met with that mask by a certified map on the pool table that
        # respects all n^2 products; every fallback map does too.
        ambient = catalog.pool_group(pool)
        cay = ambient.cayley()
        searched = MatrixGroup.isomorphism_map

        def checking_search(group, other):
            phi = searched(group, other)
            assert phi is None or is_isomorphism(group, other, phi)
            return phi

        monkeypatch.setattr(MatrixGroup, "isomorphism_map", checking_search)
        catalog.find_gamma_models(signature, pool)
        settled = settled_by_kernel(kernel_masks)
        assert settled
        for gens, images in settled:
            phi = certified_map(cay, cay, gens, images, len(ambient.closure_indices(gens)))
            assert phi is not None
            assert sorted(phi.values()) == sorted(ambient.closure_indices(images))
            assert all(phi[cay[a][b]] == cay[phi[a]][phi[b]] for a in phi for b in phi)

    @pytest.mark.parametrize(
        "signature, pool",
        [(text, "dirac4") for text in catalog.SWEEP_SIGNATURES]
        + [(text, "penta8") for text in ("+++-", "+++|+", "++-|-")],
    )
    def test_pool_certificates_agree_with_the_standalone_reference(
        self, signature, pool, kernel_masks
    ):
        # Each tuple the kernel mask settles certifies onto the first tuple
        # met with that mask on the pool table, and again on the two
        # as_group tables, whose element order is the sorted member list.
        # A tuple with a new mask certifies onto no earlier mask's first
        # tuple, on either table. Settled tuples are the search's iso_hint.
        ambient = catalog.pool_group(pool)
        cay = ambient.cayley()
        standalone = {}

        def as_group(members):
            if members not in standalone:
                standalone[members] = (sorted(members), Subgroup(ambient, members).as_group())
            return standalone[members]

        def both_certificates(gens, images):
            order, group = as_group(ambient.closure_indices(gens))
            image_order, rep = as_group(ambient.closure_indices(images))
            phi = certified_map(cay, cay, gens, images, group.order)
            reference = table_certificate(
                group, rep, [order.index(g) for g in gens], [image_order.index(x) for x in images]
            )
            assert (phi is None) == (reference is None)
            if reference is not None:
                assert is_isomorphism(group, rep, reference)
                assert {order[j]: image_order[reference[j]] for j in range(group.order)} == phi
            return phi

        before = dict(catalog.SEARCH_COUNTERS)
        catalog.find_gamma_models(signature, pool)
        done = {k: catalog.SEARCH_COUNTERS[k] - before[k] for k in before}
        settled = settled_by_kernel(kernel_masks)
        for gens, images in settled:
            assert both_certificates(gens, images) is not None
        firsts = {}
        for gens, mask in kernel_masks:
            if mask not in firsts:
                assert all(both_certificates(gens, first) is None for first in firsts.values())
                firsts[mask] = gens
        assert len(settled) == done["search.iso_hint"]

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_backtracking_matches_the_size_pruned_reference(self, name, monkeypatch):
        # The same image list for every pair that `_index_two_classes`
        # compares, on the catalog group and on two conjugated regenerations.
        compared = []
        search = MatrixGroup.isomorphism_map

        def recording(group, other):
            phi = search(group, other)
            compared.append((group, other, phi))
            return phi

        monkeypatch.setattr(MatrixGroup, "isomorphism_map", recording)
        group = catalog.catalog_group(name)
        for source in (group, conjugated(group, seed=1), conjugated(group, seed=2)):
            catalog._index_two_classes(source)
        for group, other, phi in compared:
            assert phi == reference_isomorphism_map(group, other)
            assert phi is None or is_isomorphism(group, other, phi)
        assert any(phi is not None for _, _, phi in compared)

    def test_backtracking_alone_decides_catalog_pairs(self, monkeypatch):
        # With fingerprints blinded, the search itself must tell the
        # groups of one order apart (Q8 against D4, for instance).
        names = [n for n in catalog.catalog_names() if catalog.catalog_group(n).order in (8, 16)]
        monkeypatch.setattr(MatrixGroup, "fingerprint", lambda group: ())
        verdicts = set()
        for a in names:
            for b in names:
                group, other = catalog.catalog_group(a), catalog.catalog_group(b)
                if group.order != other.order:
                    continue
                phi = group.isomorphism_map(other)
                assert (phi is None) == (reference_isomorphism_map(group, other) is None), (a, b)
                assert phi is None or is_isomorphism(group, other, phi)
                verdicts.add(phi is not None)
        assert verdicts == {True, False}

    def test_iso_counters_count_calls_rejects_and_nodes(self, q8, pauli):
        before = dict(ISO_COUNTERS)
        assert q8.isomorphism_map(pauli) is None
        assert q8.isomorphism_map(MatrixGroup.from_generators([A2, A1])) is not None
        done = {k: ISO_COUNTERS[k] - before[k] for k in before}
        assert done["iso.calls"] == 2
        assert done["iso.fingerprint_rejects"] == 1
        assert done["iso.nodes"] >= 2  # one certificate per generator at least

    def test_same_order_histogram_but_not_isomorphic(self):
        # C4 x C2 and C8 both abelian of order 8 with different histograms;
        # use D4 vs C2^3 instead: same exponent story, different commutativity.
        c2cubed = MatrixGroup.from_generators(
            [
                parse_matrix("[[-1,0,0],[0,1,0],[0,0,1]]"),
                parse_matrix("[[1,0,0],[0,-1,0],[0,0,1]]"),
                parse_matrix("[[1,0,0],[0,1,0],[0,0,-1]]"),
            ]
        )
        d4 = MatrixGroup.from_generators([A1, SY])
        assert c2cubed.order == 8
        assert not d4.is_isomorphic(c2cubed)


@settings(max_examples=30, deadline=None)
@given(seeds=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=4))
def test_generated_subgroup_order_divides_group_order(seeds):
    pauli = MatrixGroup.from_generators([SX, SY, SZ])
    mats = [pauli.elements[i] for i in seeds]
    closed, _ = generate_closure(mats)
    assert 16 % len(closed) == 0


@settings(max_examples=20, deadline=None)
@given(
    i=st.integers(min_value=0, max_value=7),
    j=st.integers(min_value=0, max_value=7),
    k=st.integers(min_value=0, max_value=7),
)
def test_cayley_associativity(i, j, k):
    q8 = MatrixGroup.from_generators([A1, A2])
    assert q8.mul(q8.mul(i, j), k) == q8.mul(i, q8.mul(j, k))
