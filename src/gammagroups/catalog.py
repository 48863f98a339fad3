"""Catalog of concrete gamma-matrix groups plus signature-driven search.

Catalog entries are JSON data files holding explicit generator matrices (or
an extraction recipe), the relation sets and bracket table each model must
satisfy, and frozen expected numbers. `GroupProfile` recomputes a group's
profile numbers from scratch; `analyze` prints one, and the `catalog.*`
claims in `gammagroups.claims` check the frozen numbers against the
entry's profile and verify the relation sets and tables. A `CatalogEntry`
holds only what computation reads; the frozen numbers and prose stay in
the stored payload, which `catalog list` and the claims read directly.
The search half enumerates generator tuples inside a fixed pool of
monomial matrices, closes them, and identifies the resulting groups
against the catalog by exact isomorphism.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Iterable, Mapping, Sequence

from .brackets import (
    BracketTable,
    RelationSet,
    VerificationReport,
    component_composition,
    evaluate_word,
    find_component_match,
    verify_relations,
)
from .exact import ExactMatrix, GaussianRational, block_diag, parse_matrix
from .groups import DEFAULT_CAP, MatrixGroup, Subgroup, mask_indices
from .reps import format_census, irreducibility_norm, irrep_census, structural_invariant

CATALOG_NAMES = (
    "pauli",
    "pauli_f",
    "q8",
    "d4",
    "gamma_minus",
    "gamma_plus",
    "pauli_c2",
    "q8_v4",
    "d4_v4",
    "q8_c2",
    "d4_c2",
    "gamma64_minus",
    "gamma64_plus",
    "gamma64_null",
)

# The five order-32 groups a four-generator signature can stabilize on.
STABLE_NAMES = ("gamma_minus", "gamma_plus", "pauli_c2", "q8_v4", "d4_v4")

# The three order-64 groups a fifth anticommuting generator leads to.
EXTENSION_NAMES = ("gamma64_minus", "gamma64_plus", "gamma64_null")

POOL_NAMES = ("dirac4", "penta8")

_MINUS = GaussianRational(-1, 0)
_IMAG = GaussianRational(0, 1)
_PHASES = (
    ("1", GaussianRational(1, 0)),
    ("-1", _MINUS),
    ("i", _IMAG),
    ("-i", GaussianRational(0, -1)),
)


@dataclass
class CatalogEntry:
    name: str
    dimension: int
    generators: list[ExactMatrix]
    blocks: tuple[tuple[int, int], ...] | None
    relations: dict[str, dict[str, str]]
    table: str | None
    table_assignment: dict[str, str] | None  # None means search
    signature: str | None
    extracted_from: str | None = None

    def generator_assignment(self) -> dict[str, ExactMatrix]:
        return {f"g{k + 1}": m for k, m in enumerate(self.generators)}


def _load_payload(name: str) -> dict:
    path = resources.files("gammagroups.data").joinpath("catalog", f"{name}.json")
    return json.loads(path.read_text())


def catalog_names() -> tuple[str, ...]:
    return CATALOG_NAMES


@functools.cache
def catalog_entry(name: str) -> CatalogEntry:
    if name not in CATALOG_NAMES:
        raise KeyError(f"unknown catalog entry {name!r}; have {CATALOG_NAMES}")
    payload = _load_payload(name)
    if "extract" in payload:
        return _resolve_extraction(payload)
    dimension = payload["dimension"]
    generators = [parse_matrix(text, expect_dim=dimension) for text in payload["generators"]]
    return _entry(payload, generators)


def _entry(
    payload: Mapping, generators: list[ExactMatrix], extracted_from: str | None = None
) -> CatalogEntry:
    table = payload.get("table") or {}
    return CatalogEntry(
        name=payload["name"],
        dimension=generators[0].dim,
        generators=generators,
        blocks=_parse_blocks(payload.get("blocks")),
        relations=payload.get("relations", {}),
        table=table.get("name"),
        table_assignment=table.get("assignment"),
        signature=payload.get("signature"),
        extracted_from=extracted_from,
    )


def _parse_blocks(raw) -> tuple[tuple[int, int], ...] | None:
    if raw is None:
        return None
    return tuple((int(start), int(size)) for start, size in raw)


def _resolve_extraction(payload: Mapping) -> CatalogEntry:
    """Pick the first index-two subgroup of the parent realizing a component.

    The subgroup scan is deterministic (sorted index sets), so the chosen
    generators are stable across runs.
    """
    recipe = payload["extract"]
    parent = catalog_group(recipe["parent"])
    component = recipe["component"]
    order = int(recipe["order"])
    for sub in parent.subgroups_of_order(order):
        group = sub.as_group()
        match = find_component_match(group)
        if match is not None and match.table == component:
            boosts = [group.elements[i] for i in match.boosts]
            return _entry(payload, boosts, recipe["parent"])
    raise LookupError(
        f"no order-{order} subgroup of {recipe['parent']!r} realizes component {component!r}"
    )


def table_roles(
    group: MatrixGroup, entry: CatalogEntry | None, table: BracketTable
) -> dict[str, ExactMatrix] | None:
    """The matrices that play the table's roles in the group, if any.

    When the entry names this table, its stored words over the generators
    give the roles, or else its three generators are the designated boost
    triple. Otherwise the roles come from the first boost triple a scan of
    the group finds for the table. Raises ValueError where the component
    scan does (a group not of order 16, a bad designated triple).
    """
    designated = None
    if entry is not None and entry.table == table.name:
        if entry.table_assignment:
            genmap = entry.generator_assignment()
            return {
                label: evaluate_word(word, genmap) for label, word in entry.table_assignment.items()
            }
        if len(entry.generators) == 3:
            designated = entry.generators
    match = find_component_match(group, designated=designated, tables=(table.name,))
    return match.assignment(group, table) if match is not None else None


@functools.cache
def catalog_group(name: str) -> MatrixGroup:
    return MatrixGroup.from_generators(catalog_entry(name).generators)


def load_generator_file(path: str, *, cap: int = DEFAULT_CAP) -> tuple[str, MatrixGroup]:
    """Read an external {"name", "dimension", "generators"} JSON file."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("generator file must hold a JSON object")
    for key in ("name", "dimension", "generators"):
        if key not in payload:
            raise ValueError(f"generator file misses required key {key!r}")
    dim = payload["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError("generator file 'dimension' must be a positive integer")
    texts = payload["generators"]
    if not isinstance(texts, list) or not all(isinstance(text, str) for text in texts):
        raise ValueError("generator file 'generators' must be a list of matrix texts")
    gens = [parse_matrix(text, expect_dim=dim) for text in texts]
    if not gens:
        raise ValueError("generator file lists no generators")
    return str(payload["name"]), MatrixGroup.from_generators(gens, cap=cap)


# The keys every `analyze` profile reports; `GroupProfile.keys` adds the rest.
_BASE_KEYS = (
    "order", "class_count", "center_order", "abelian_invariants", "min_generators",
    "census", "indicators", "composition", "blocks",
)


class GroupProfile:
    """The `analyze` profile of one concrete matrix group.

    Each key is computed on first read and kept. `keys` is the one place
    that decides which keys a group reports: the base numbers, `blocks`
    and `composition` (null outside orders 16 to 32) always, `component`
    at order 16 and `index_two` at orders 2 to 64. ``entry`` is the
    catalog entry the group comes from, if any: its three designated
    boosts, when it has them, fix `component`, and at order 64 its
    index-two classes are named by the stable catalog groups they match.
    """

    def __init__(self, group: MatrixGroup, blocks: Sequence[tuple[int, int]] | None = None,
                 *, entry: CatalogEntry | None = None):
        self.group = group
        self.order = group.order
        self.blocks = blocks
        self.entry = entry

    def keys(self) -> tuple[str, ...]:
        keys = _BASE_KEYS
        if self.order == 16:
            keys += ("component",)
        if 2 <= self.order <= 64:
            keys += ("index_two",)
        return keys

    def value(self, key: str):
        """One reported key in its JSON form; any other key raises LookupError."""
        if key not in self.keys():
            raise LookupError(f"an order-{self.order} profile reports no {key!r}")
        if key == "census":
            return format_census(self.census)
        return json.loads(json.dumps(getattr(self, key)))  # tuples as lists

    def to_dict(self) -> dict:
        return {key: self.value(key) for key in self.keys()}

    @cached_property
    def class_count(self) -> int:
        return len(self.group.conjugacy_classes())

    @cached_property
    def center_order(self) -> int:
        return len(self.group.center())

    @cached_property
    def abelian_invariants(self) -> tuple[int, ...]:
        return self.group.abelian_invariants()

    @cached_property
    def min_generators(self) -> int | None:
        # The Burnside basis theorem behind the generator count needs a 2-group.
        if self.order & (self.order - 1):
            return None
        return self.group.minimal_generator_count()

    @cached_property
    def census(self) -> tuple[tuple[int, int], ...]:
        return irrep_census(self.group)

    @cached_property
    def indicators(self) -> tuple[int, ...] | None:
        if self.blocks is not None:
            return tuple(structural_invariant(self.group, block) for block in self.blocks)
        if irreducibility_norm(self.group) == 1:
            return (structural_invariant(self.group),)
        return None

    @cached_property
    def component(self) -> str | None:
        designated = None
        if self.entry is not None and len(self.entry.generators) == 3:
            designated = self.entry.generators
        match = find_component_match(self.group, designated=designated)
        return match.table if match is not None else None

    @cached_property
    def composition(self) -> tuple[str, ...] | None:
        if not 16 <= self.order <= 32:
            return None
        return tuple(sorted(component_composition(self.group)))

    @cached_property
    def index_two(self) -> dict:
        if self.entry is not None and self.order == 64:
            classes = decompose_index_two(self.entry.name)
        else:
            labelled = []
            for rep, count in _index_two_classes(self.group):
                match = find_component_match(rep) if rep.order == 16 else None
                labelled.append((match.table if match is not None else None, count))
            classes = tuple(sorted(labelled, key=lambda item: (item[0] or "~", -item[1])))
        return {"count": sum(count for _, count in classes), "classes": classes}


def compute_profile(
    group: MatrixGroup, blocks: Sequence[tuple[int, int]] | None = None
) -> GroupProfile:
    """The profile of a group outside the catalog; keys are computed on read."""
    return GroupProfile(group, blocks)


@functools.cache
def catalog_profile(name: str) -> GroupProfile:
    """The one profile of a catalog entry, shared by `analyze` and the claims."""
    entry = catalog_entry(name)
    return GroupProfile(catalog_group(name), entry.blocks, entry=entry)


def _index_two_classes(group: MatrixGroup) -> list[tuple[MatrixGroup, int]]:
    """Index-two subgroups grouped by abstract isomorphism: (rep, count)."""
    classes: list[tuple[MatrixGroup, int]] = []
    if group.order % 2:
        return classes
    for sub in group.subgroups_of_order(group.order // 2):
        candidate = sub.as_group()
        for k, (rep, count) in enumerate(classes):
            if candidate.is_isomorphic(rep):
                classes[k] = (rep, count + 1)
                break
        else:
            classes.append((candidate, 1))
    return classes


def _identify(group: MatrixGroup, names: Sequence[str]) -> str | None:
    """The first of the named catalog groups this one is isomorphic to, if any."""
    for name in names:
        if group.order == catalog_group(name).order and group.is_isomorphic(catalog_group(name)):
            return name
    return None


def identify_stable(group: MatrixGroup) -> str | None:
    """Name of the order-32 catalog group this one is isomorphic to, if any."""
    return _identify(group, STABLE_NAMES)


@functools.cache
def decompose_index_two(name: str) -> tuple[tuple[str, int], ...]:
    """Index-two subgroups of a catalog group, identified and counted.

    Returns sorted (identified catalog name, count) pairs; raises if some
    subgroup matches none of the stable groups.
    """
    tally: dict[str, int] = {}
    for rep, count in _index_two_classes(catalog_group(name)):
        identified = identify_stable(rep)
        if identified is None:
            raise LookupError(
                f"an index-two subgroup of {name!r} matches no stable catalog group"
            )
        tally[identified] = tally.get(identified, 0) + count
    return tuple(sorted(tally.items()))


# ---------------------------------------------------------------------------
# Pools and signature search


@functools.cache
def pool_group(name: str) -> MatrixGroup:
    """Monomial pool as a closed ambient group (includes the i-scalars)."""
    if name not in POOL_NAMES:
        raise KeyError(f"unknown pool {name!r}; have {POOL_NAMES}")
    base = "gamma_minus" if name == "dirac4" else "gamma64_minus"
    gens = list(catalog_entry(base).generators)
    scalar_i = ExactMatrix.identity(gens[0].dim).scale(_IMAG)
    return MatrixGroup.from_generators(gens + [scalar_i])


@dataclass(frozen=True)
class SignatureSpec:
    """Square pattern for a generator tuple.

    Text form: one +/- per generator; all generators pairwise anticommute.
    With a pipe, the part before it is the anticommuting triple and the
    single sign after it is a fourth generator that commutes instead.
    """

    squares: tuple[int, ...]
    commuting_fourth: int | None = None

    @classmethod
    def parse(cls, text: str) -> "SignatureSpec":
        text = text.strip()
        if "|" in text:
            head, _, tail = text.partition("|")
            squares = tuple(cls._sign(ch) for ch in head.strip())
            fourth = tuple(cls._sign(ch) for ch in tail.strip())
            if len(squares) != 3 or len(fourth) != 1:
                raise ValueError(f"signature {text!r} needs three signs, a pipe, one sign")
            return cls(squares, fourth[0])
        squares = tuple(cls._sign(ch) for ch in text)
        if len(squares) != 4:
            raise ValueError(f"signature {text!r} needs four signs")
        return cls(squares, None)

    @staticmethod
    def _sign(ch: str) -> int:
        if ch == "+":
            return 1
        if ch == "-":
            return -1
        raise ValueError(f"signature signs must be + or -, got {ch!r}")

    def __str__(self) -> str:
        head = "".join("+" if s > 0 else "-" for s in self.squares)
        if self.commuting_fourth is None:
            return head
        return f"{head}|{'+' if self.commuting_fourth > 0 else '-'}"


# Canonical sweep order: the five all-anticommuting square patterns, then
# the commuting-fourth patterns.
SWEEP_SIGNATURES = (
    "++++",
    "+++-",
    "++--",
    "+---",
    "----",
    "+++|+",
    "+++|-",
    "++-|+",
    "++-|-",
    "+--|+",
    "+--|-",
    "---|+",
    "---|-",
)


@dataclass(frozen=True)
class ModelHit:
    """One isomorphism class found for a signature in a pool."""

    signature: str
    pool: str
    generator_indices: tuple[int, ...]
    order: int
    identified: str | None


@functools.cache
def _sign_representatives(pool: MatrixGroup) -> int:
    """Mask of one element of each pair {s, -s}: bit s is set when s is the
    lower pool index of the two, read off the row of -1 in the Cayley table.

    Raises ValueError for a group without -1, where the pairs do not exist.
    """
    neg = pool.minus_index()
    if neg is None:
        raise ValueError("sign representatives need -1 in the group")
    row = pool.cayley()[neg]
    return sum(1 << s for s in range(pool.order) if s <= row[s])


def _triples(
    pool: MatrixGroup, squares: tuple[int, int, int]
) -> Iterable[tuple[int, int, int]]:
    """Pairwise anticommuting triples of the pool, one representative per set.

    Generators with equal squares are enumerated with increasing pool
    index, which visits every unordered combination exactly once. Only the
    lower index of each pair {s, -s} is taken (`_sign_representatives`).
    This is exact: anticommuting s1, s2 give -1 = s1*s2*s1^-1*s2^-1, so
    -s has the square, the commutation pattern and the generated group of
    s, and a tuple of representatives, re-sorted within equal squares, is
    elementwise no larger, so every subgroup keeps its first tuple.
    """
    anti = pool.commutation_masks()[1]
    reps = _sign_representatives(pool)
    masks = {sign: mask & reps for sign, mask in pool.unit_square_masks().items()}
    for s1 in mask_indices(masks[squares[0]]):
        second = anti[s1] & masks[squares[1]]
        if squares[1] == squares[0]:
            second &= -2 << s1  # only indices above s1
        for s2 in mask_indices(second):
            third = anti[s1] & anti[s2] & masks[squares[2]]
            if squares[2] == squares[1]:
                third &= -2 << s2
            elif squares[2] == squares[0]:
                third &= -2 << s1
            for s3 in mask_indices(third):
                yield s1, s2, s3


def _words(cay: Sequence[Sequence[int]], gens: Sequence[int]) -> list[int]:
    """The 2^k words s1^b1 .. sk^bk of a generator tuple, as table indices.

    Word j has b_i the bit i - 1 of j, so word 1 << (i - 1) is s_i. The
    words are evaluated prefix by prefix, one lookup each (2^k - 1 in all).
    """
    words = [0]
    for s in gens:
        words += [cay[w][s] for w in words]
    return words


def _signed_mask(words: Iterable[int], minus_row: Sequence[int]) -> int:
    """Member mask of the words and their negatives, by the row of -1."""
    mask = 0
    for w in words:
        mask |= 1 << w | 1 << minus_row[w]
    return mask


@dataclass(frozen=True)
class _TripleLevel:
    """The triples of one (pool, triple squares) and their subgroups, compact.

    ``triples`` holds the triples of `_triples`, flat, three
    entries each; ``masks`` the distinct member masks of <s1, s2, s3> in
    order of first appearance; ``ids[k]`` the index in ``masks`` of the
    k-th triple's. Two bytes per entry keep the level small.
    """

    triples: array
    masks: tuple[int, ...]
    ids: array


@functools.cache
def _triple_level(pool_name: str, squares: tuple[int, int, int]) -> _TripleLevel:
    """The triple subgroups for every signature whose first three squares
    are ``squares``; the 13 sweep signatures share four such levels.

    Each triple's group is read off its 8 words (`_words`): a pairwise
    anticommuting triple whose squares are +-1 generates exactly the
    words and their negatives (`_signed_mask`).
    """
    pool = pool_group(pool_name)
    cay = pool.cayley()
    minus_row = cay[pool.minus_index()]
    index: dict[int, int] = {}
    triples, ids = array("H"), array("H")
    for triple in _triples(pool, squares):
        base = _signed_mask(_words(cay, triple), minus_row)
        triples.extend(triple)
        ids.append(index.setdefault(base, len(index)))
    return _TripleLevel(triples, tuple(index), ids)


# Work done by uncached find_gamma_models calls in this process: generator
# tuples matching a signature, distinct subgroups they generate, isomorphism
# tests settled by the kernel mask of the signature's presentation or sent
# on to the fingerprint-and-backtracking fallback, and the standalone
# MatrixGroups built for new classes and for that fallback. Reports carry
# them under `timings.counters`.
SEARCH_COUNTERS: Counter[str] = Counter(dict.fromkeys((
    "search.tuples", "search.subgroups", "search.iso_hint", "search.iso_fallback",
    "search.groups_built",
), 0))


@dataclass
class _ModelClass:
    """One isomorphism class met by a search, held on pool indices.

    ``key`` is the member mask of the representative subgroup and
    ``group`` the representative as a standalone MatrixGroup, built on
    first need.
    """

    key: int
    hit: ModelHit
    group: MatrixGroup | None = None


def _standalone(pool: MatrixGroup, key: int) -> MatrixGroup:
    """The pool subgroup with member mask ``key`` as its own group.

    `as_group` orders it [0] + the other members sorted, so its element j
    is the j-th set bit of ``key``.
    """
    SEARCH_COUNTERS["search.groups_built"] += 1
    return Subgroup(pool, frozenset(mask_indices(key))).as_group()


def _kernel_mask(words: Sequence[int], neg: int) -> int:
    """The normal forms a generator tuple sends to 1, as a 32-bit mask.

    ``words`` are the tuple's 16 words (`_words`); bit j is set when word
    j is 1 and bit 16 + j when it is -1 (index ``neg``), that is when -1
    times the word is 1.
    """
    mask = 0
    for j, w in enumerate(words):
        if w == 0:
            mask |= 1 << j
        elif w == neg:
            mask |= 1 << 16 + j
    return mask


def find_gamma_models(
    spec: SignatureSpec | str, pool_name: str = "dirac4"
) -> list[ModelHit]:
    """All isomorphism classes of groups generated by tuples matching a spec.

    Candidate generators are found by intersecting the pool's commutation
    and unit-square bitmasks (bit i stands for pool element i; built once
    per pool from its integer Cayley table), never by matrix products.
    Only one of each pair {s, -s} is a candidate, the lower pool index:
    every tuple holds an anticommuting pair, so -1 lies in the group it
    generates and -s gives the same group as s. The hits, their first
    tuples and the order the subgroups are met in stay those of the
    search over both signs.
    Tuples are enumerated deterministically, and their groups are read
    off the pool's Cayley table as words: the triples and their groups H
    come from the level shared per (pool, triple squares)
    (`_triple_level`). Each s4 commutes or anticommutes with every s_i and
    squares to +-1, so it normalizes H and <H, s4> = H u H*s4, whose new
    members are +- the 8 words that end in s4 (`_words`). A fourth
    generator inside a right coset H*s4 already taken for the same H
    gives the same group and is skipped. Groups are deduplicated first by
    the generated subgroup and then by abstract isomorphism, keyed by the
    kernel of the signature's presentation.
    Every tuple obeys the relations of one group P: a central z with
    z^2 = 1, each s_i^2 equal to 1 or z by its sign, and commutator z for
    anticommuting pairs, 1 for commuting ones. With z = -1 the tuple maps
    P onto its group (von Dyck), every element of P is a normal form
    z^a s1^b1..s4^b4, and the group is P/K for the kernel K of the normal
    forms sent to 1 (`_kernel_mask`, read off the same 16 words). So two
    tuples have equal kernels exactly when s_i -> s_i' extends to an
    isomorphism of their groups. A new group whose kernel an earlier
    tuple had joins that tuple's class with no certificate; a kernel not
    met before falls back to fingerprint and backtracking on standalone
    groups against the classes of its order, and is kept for the tuples
    that come after. So a subgroup gets a standalone group of its own
    only for that fallback or when it starts a class, which
    `identify_stable` needs. Each class reports the first generator tuple
    that produced it. An empty list means the pool has no model for the
    spec.
    """
    if isinstance(spec, str):
        spec = SignatureSpec.parse(spec)
    return list(_gamma_models(str(spec), pool_name))


@functools.cache
def _gamma_models(spec_text: str, pool_name: str) -> tuple[ModelHit, ...]:
    """The search behind `find_gamma_models`, kept per (signature, pool)."""
    spec = SignatureSpec.parse(spec_text)
    pool = pool_group(pool_name)
    cay = pool.cayley()
    commute, anticommute = pool.commutation_masks()
    if spec.commuting_fourth is None:
        triple_squares = spec.squares[:3]
        fourth_sign = spec.squares[3]
        fourth_masks = anticommute
    else:
        triple_squares = spec.squares
        fourth_sign = spec.commuting_fourth
        fourth_masks = commute
    candidates = pool.unit_square_masks()[fourth_sign] & _sign_representatives(pool)
    neg = pool.minus_index()
    minus_row = cay[neg]

    counters = SEARCH_COUNTERS
    level = _triple_level(pool_name, triple_squares)
    taken = [0] * len(level.masks)  # per triple subgroup: union of the groups <H, s4> taken
    seen_subgroups: set[int] = set()
    classes: list[_ModelClass] = []
    kernels: set[int] = set()  # met so far: an equal mask means an isomorphic group

    it = iter(level.triples)
    for s1, s2, s3, h in zip(it, it, it, level.ids):
        base = level.masks[h]
        fourths = fourth_masks[s1] & fourth_masks[s2] & fourth_masks[s3] & candidates
        if spec.commuting_fourth is not None:
            # A commuting fourth already inside the triple's span adds
            # nothing; skip the degenerate tuple.
            fourths &= ~base
        elif fourth_sign == triple_squares[2]:
            fourths &= -2 << s3
        counters["search.tuples"] += fourths.bit_count()
        fresh = fourths & ~taken[h]
        while fresh:
            s4 = (fresh & -fresh).bit_length() - 1
            gens = (s1, s2, s3, s4)
            words = _words(cay, gens)
            key = base | _signed_mask(words[8:], minus_row)  # H u H*s4
            taken[h] |= key
            fresh &= ~key  # the coset H*s4 holds s4 itself
            if key in seen_subgroups:
                continue
            seen_subgroups.add(key)
            counters["search.subgroups"] += 1
            kernel = _kernel_mask(words, neg)
            if kernel in kernels:
                counters["search.iso_hint"] += 1
                continue
            kernels.add(kernel)
            order = key.bit_count()
            group = None  # this subgroup as a standalone group, on first need
            for cls in classes:
                if cls.hit.order != order:
                    continue
                counters["search.iso_fallback"] += 1
                group = group or _standalone(pool, key)
                cls.group = cls.group or _standalone(pool, cls.key)
                if group.is_isomorphic(cls.group):
                    break
            else:
                identified = None
                if order == 32:
                    group = group or _standalone(pool, key)
                    identified = identify_stable(group)
                hit = ModelHit(
                    signature=str(spec),
                    pool=pool_name,
                    generator_indices=gens,
                    order=order,
                    identified=identified,
                )
                classes.append(_ModelClass(key, hit, group))
    return tuple(cls.hit for cls in classes)


def sweep_stable_models(pool_name: str = "penta8") -> dict[str, list[ModelHit]]:
    """Run every canonical signature over a pool.

    Returns the order-32 hits per signature; callers check that exactly the
    five stable groups show up across all signatures.
    """
    out: dict[str, list[ModelHit]] = {}
    for text in SWEEP_SIGNATURES:
        hits = find_gamma_models(text, pool_name)
        out[text] = [hit for hit in hits if hit.order == 32]
    return out


# ---------------------------------------------------------------------------
# Extensions by a fifth anticommuting generator


@dataclass
class ExtensionResult:
    base: str
    square: int
    found: bool
    reason: str = ""
    phase: str = ""
    generators: list[ExactMatrix] = field(default_factory=list)
    order: int = 0
    identified: str | None = None
    report: VerificationReport | None = None


def enumerate_extensions(base_name: str, square: int) -> ExtensionResult:
    """Extend a four-generator model by a fifth anticommuting generator.

    The fifth generator is sought among phase multiples of the product of
    the four base generators; the doubled model puts the base in both
    diagonal blocks and the fifth with opposite signs, which keeps the
    sixth-generator product central but not scalar. The result carries a
    relation check of the whole construction.
    """
    if square not in (1, -1):
        raise ValueError("the fifth generator square must be 1 or -1")
    entry = catalog_entry(base_name)
    gens = entry.generators
    if len(gens) != 4:
        return ExtensionResult(
            base=base_name,
            square=square,
            found=False,
            reason=f"{base_name} has {len(gens)} generators, need exactly 4",
        )
    product = gens[0] * gens[1] * gens[2] * gens[3]
    witness = None
    phase_name = ""
    for name, phase in _PHASES:
        candidate = product.scale(phase)
        sq = (candidate * candidate).scalar_value()
        if sq is None or sq != GaussianRational(square, 0):
            continue
        if all(candidate * g == (g * candidate).scale(_MINUS) for g in gens):
            witness = candidate
            phase_name = name
            break
    if witness is None:
        return ExtensionResult(
            base=base_name,
            square=square,
            found=False,
            reason="no phase of the generator product anticommutes with the base "
            f"and squares to {square}",
        )
    doubled = [block_diag(g, g) for g in gens]
    fifth = block_diag(witness, witness.scale(_MINUS))
    group = MatrixGroup.from_generators(doubled + [fifth])
    labels = ["G1", "G2", "G3", "G4", "G5", "G6"]
    assignment = dict(zip(labels, doubled + [fifth]))
    assignment["G6"] = assignment["G1"] * assignment["G2"] * assignment["G3"] * assignment[
        "G4"
    ] * assignment["G5"]
    relations = _extension_relations(entry, gens, square, assignment["G6"])
    report = verify_relations(relations, assignment)
    return ExtensionResult(
        base=base_name,
        square=square,
        found=True,
        phase=phase_name,
        generators=doubled + [fifth],
        order=group.order,
        identified=_identify(group, EXTENSION_NAMES),
        report=report,
    )


def _extension_relations(
    entry: CatalogEntry, gens: list[ExactMatrix], square: int, sixth: ExactMatrix
) -> RelationSet:
    labels = ["G1", "G2", "G3", "G4", "G5", "G6"]
    rels: list[tuple[str, str, str]] = []
    for k, g in enumerate(gens, start=1):
        sq = (g * g).scalar_value()
        rels.append((f"square-{k}", f"G{k}^2", "1" if sq.re > 0 else "-1"))
    rels.append(("square-5", "G5^2", "1" if square > 0 else "-1"))
    for i in range(1, 6):
        for j in range(i + 1, 6):
            rels.append((f"anticommute-{i}{j}", f"G{i} G{j}", f"-1*G{j} G{i}"))
    rels.append(("sixth-is-total-product", "G6", "G1 G2 G3 G4 G5"))
    for k in range(1, 6):
        rels.append((f"sixth-commutes-{k}", f"G6 G{k}", f"G{k} G6"))
    sixth_sq = (sixth * sixth).scalar_value()
    rels.append(
        (
            "sixth-squares-to-one" if sixth_sq.re > 0 else "sixth-squares-to-minus-one",
            "G6^2",
            "1" if sixth_sq.re > 0 else "-1",
        )
    )
    return RelationSet(f"extension-{entry.name}", labels, rels)


def sweep_extensions() -> list[ExtensionResult]:
    """Both square choices over every stable base, in catalog order."""
    out = []
    for base in STABLE_NAMES:
        for square in (1, -1):
            out.append(enumerate_extensions(base, square))
    return out
