"""Catalog of concrete gamma-matrix groups and their profiles.

Catalog entries are JSON data files holding explicit generator matrices (or
an extraction recipe), the relation sets and bracket table each model must
satisfy, and frozen expected numbers. `GroupProfile` recomputes a group's
profile numbers from scratch; `analyze` prints one, and the `catalog.*`
claims in `gammagroups.paper` check the frozen numbers against the
entry's profile and verify the relation sets and tables. A `CatalogEntry`
holds only what computation reads; the frozen numbers and prose stay in
the stored payload, which `catalog list` and the claims read directly.
The signature search and the extensions live in `gammagroups.search`;
`__getattr__` below forwards their names and loads it on first use.
"""

from __future__ import annotations

import functools
import json
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from .brackets import component_composition, find_component_match
from .data import load_json
from .exact import ExactMatrix, parse_matrix
from .groups import DEFAULT_CAP, MatrixGroup, Subgroup
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


class CatalogEntry(NamedTuple):
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
    return load_json("catalog", f"{name}.json")


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


@functools.cache
def catalog_group(name: str) -> MatrixGroup:
    return MatrixGroup.from_generators(catalog_entry(name).generators)


def load_generator_file(path: str, *, cap: int = DEFAULT_CAP) -> tuple[str, MatrixGroup]:
    """Read an external {"name", "dimension", "generators"} JSON file."""
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except RecursionError:
            raise ValueError("JSON nesting too deep") from None
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
    """Index-two subgroups grouped by abstract isomorphism: (rep, count), in
    the order each class is first met.

    In a group in F (`MatrixGroup.squaring_key`) each subgroup is classed
    by its squaring key, read off the group's own tables, and only each
    class's first subgroup is built as a group. Elsewhere each subgroup is
    built and tested against the classes so far by `is_isomorphic`.
    """
    if group.order % 2:
        return []
    subgroups = group.subgroups_of_order(group.order // 2)
    if group.squaring_key() is not None:
        keyed: dict[tuple[int, int, int], tuple[Subgroup, int]] = {}
        for sub in subgroups:
            key = group.squaring_key(sum(1 << i for i in sub.indices))
            first, count = keyed.get(key, (sub, 0))
            keyed[key] = (first, count + 1)
        return [(sub.as_group(), count) for sub, count in keyed.values()]
    classes: list[tuple[MatrixGroup, int]] = []
    for sub in subgroups:
        candidate = sub.as_group()
        for k, (rep, count) in enumerate(classes):
            if candidate.is_isomorphic(rep):
                classes[k] = (rep, count + 1)
                break
        else:
            classes.append((candidate, 1))
    return classes


def _named_by_key(key: tuple[int, int, int] | None, names: Sequence[str]) -> str | None:
    """The first of the named catalog groups with this squaring key, if any.

    The named groups are all in F, where equal keys mean isomorphic groups;
    None, the key of a group outside F, matches none of them.
    """
    return next((name for name in names if catalog_group(name).squaring_key() == key), None)


def _identify(group: MatrixGroup, names: Sequence[str]) -> str | None:
    """The first of the named catalog groups this one is isomorphic to, if any:
    by squaring key for a group in F, by `is_isomorphic` otherwise."""
    key = group.squaring_key()
    if key is not None:
        return _named_by_key(key, names)
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
    subgroup matches none of the stable groups. Each class is named by its
    squaring key (`_identify`), so no isomorphism search runs for a group
    in F.
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


def __getattr__(name: str):
    """Any other name is one of `gammagroups.search`'s, loaded on first use.

    Dunder names are refused: `from .catalog import x` probes `__path__`,
    and forwarding that probe would load the search with every import of
    this module.
    """
    if name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import search
    return getattr(search, name)
