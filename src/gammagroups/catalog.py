"""Catalog of concrete gamma-matrix groups plus signature-driven search.

Catalog entries are JSON data files holding explicit generator matrices (or
an extraction recipe), the relation sets and bracket table each model must
satisfy, and frozen expected numbers. The `catalog.*` claims in
`gammagroups.claims` recompute those numbers from scratch and verify the
relation sets and tables; this module only loads them. The search half
enumerates generator tuples inside a fixed pool of monomial matrices,
closes them, and identifies the resulting groups against the catalog by
exact isomorphism.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Mapping, Sequence

from .brackets import (
    RelationSet,
    VerificationReport,
    admitted_components,
    find_component_match,
    verify_relations,
)
from .exact import ExactMatrix, GaussianRational, block_diag, format_matrix, parse_matrix
from .groups import DEFAULT_CAP, MatrixGroup, Subgroup, generate_closure
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

POOL_NAMES = ("dirac4", "penta8")

_MINUS = GaussianRational(-1, 0)
_IMAG = GaussianRational(0, 1)
_PHASES = (
    ("1", GaussianRational(1, 0)),
    ("-1", _MINUS),
    ("i", _IMAG),
    ("-i", GaussianRational(0, -1)),
)


@dataclass(frozen=True)
class GroupProfile:
    """Isomorphism-grade summary of one concrete matrix group."""

    order: int
    class_count: int
    center_order: int
    abelian_invariants: tuple[int, ...]
    min_generators: int | None  # None unless the order is a power of two
    census: tuple[tuple[int, int], ...]
    indicators: tuple[int, ...] | None
    index_two_class_count: int | None = None
    composition: tuple[str, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "class_count": self.class_count,
            "center_order": self.center_order,
            "abelian_invariants": list(self.abelian_invariants),
            "min_generators": self.min_generators,
            "census": format_census(self.census),
            "indicators": list(self.indicators) if self.indicators is not None else None,
            "index_two_class_count": self.index_two_class_count,
            "composition": list(self.composition) if self.composition is not None else None,
        }


@dataclass
class CatalogEntry:
    name: str
    summary: str
    dimension: int
    generators: list[ExactMatrix]
    blocks: tuple[tuple[int, int], ...] | None
    relations: dict[str, dict[str, str]]
    table: str | None
    table_assignment: dict[str, str] | None  # None means search
    signature: str | None
    expected: dict
    notes: str
    extracted_from: str | None = None

    def generator_assignment(self) -> dict[str, ExactMatrix]:
        return {f"g{k + 1}": m for k, m in enumerate(self.generators)}


_ENTRY_CACHE: dict[str, CatalogEntry] = {}
_GROUP_CACHE: dict[str, MatrixGroup] = {}
_POOL_CACHE: dict[str, MatrixGroup] = {}
_DECOMPOSITION_CACHE: dict[str, tuple[tuple[str, int], ...]] = {}
_INDEX_TWO_CACHE: dict[str, list[dict]] = {}
_SEARCH_CACHE: dict[tuple[str, str], list] = {}


def _load_payload(name: str) -> dict:
    path = resources.files("gammagroups.data").joinpath("catalog", f"{name}.json")
    return json.loads(path.read_text())


def catalog_names() -> tuple[str, ...]:
    return CATALOG_NAMES


def catalog_entry(name: str) -> CatalogEntry:
    if name not in CATALOG_NAMES:
        raise KeyError(f"unknown catalog entry {name!r}; have {CATALOG_NAMES}")
    if name in _ENTRY_CACHE:
        return _ENTRY_CACHE[name]
    payload = _load_payload(name)
    if "extract" in payload:
        entry = _resolve_extraction(payload)
    else:
        dimension = payload["dimension"]
        generators = [parse_matrix(text, expect_dim=dimension) for text in payload["generators"]]
        entry = CatalogEntry(
            name=payload["name"],
            summary=payload.get("summary", ""),
            dimension=dimension,
            generators=generators,
            blocks=_parse_blocks(payload.get("blocks")),
            relations=payload.get("relations", {}),
            table=(payload.get("table") or {}).get("name"),
            table_assignment=(payload.get("table") or {}).get("assignment"),
            signature=payload.get("signature"),
            expected=payload["expected"],
            notes=payload.get("notes", ""),
        )
    _ENTRY_CACHE[name] = entry
    return entry


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
            return CatalogEntry(
                name=payload["name"],
                summary=payload.get("summary", ""),
                dimension=boosts[0].dim,
                generators=boosts,
                blocks=None,
                relations=payload.get("relations", {}),
                table=(payload.get("table") or {}).get("name"),
                table_assignment=(payload.get("table") or {}).get("assignment"),
                signature=payload.get("signature"),
                expected=payload["expected"],
                notes=payload.get("notes", ""),
                extracted_from=recipe["parent"],
            )
    raise LookupError(
        f"no order-{order} subgroup of {recipe['parent']!r} realizes component {component!r}"
    )


def catalog_group(name: str) -> MatrixGroup:
    if name not in _GROUP_CACHE:
        entry = catalog_entry(name)
        _GROUP_CACHE[name] = MatrixGroup.from_generators(entry.generators)
    return _GROUP_CACHE[name]


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


def compute_profile(
    group: MatrixGroup,
    blocks: Sequence[tuple[int, int]] | None = None,
    *,
    deep: bool = False,
) -> GroupProfile:
    """Recompute every profile number from the group itself."""
    indicators = None
    if blocks is not None:
        indicators = tuple(structural_invariant(group, block) for block in blocks)
    elif irreducibility_norm(group) == 1:
        indicators = (structural_invariant(group),)
    index_two_classes = None
    composition = None
    if deep:
        index_two_classes = len(_index_two_classes(group))
        if group.order <= 32:
            composition = tuple(sorted(component_composition(group)))
    # The Burnside basis theorem behind the generator count needs a 2-group.
    two_group = group.order & (group.order - 1) == 0
    return GroupProfile(
        order=group.order,
        class_count=len(group.conjugacy_classes()),
        center_order=len(group.center()),
        abelian_invariants=group.abelian_invariants(),
        min_generators=group.minimal_generator_count() if two_group else None,
        census=irrep_census(group),
        indicators=indicators,
        index_two_class_count=index_two_classes,
        composition=composition,
    )


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


def component_composition(group: MatrixGroup) -> frozenset[str]:
    """Union of admitted component tables over all order-16 subgroups."""
    found: set[str] = set()
    for sub in group.subgroups_of_order(16):
        found |= admitted_components(sub.as_group())
    return frozenset(found)


def index_two_component_summary(group: MatrixGroup) -> list[dict]:
    """Isomorphism classes of index-two subgroups with component labels."""
    out = []
    for rep, count in _index_two_classes(group):
        label = None
        if rep.order == 16:
            match = find_component_match(rep)
            label = match.table if match is not None else None
        out.append({"count": count, "component": label, "order": rep.order})
    return sorted(out, key=lambda item: (item["component"] or "~", -item["count"]))


def index_two_summary_for(name: str) -> list[dict]:
    """Cached index-two summary of a catalog group."""
    if name not in _INDEX_TWO_CACHE:
        _INDEX_TWO_CACHE[name] = index_two_component_summary(catalog_group(name))
    return _INDEX_TWO_CACHE[name]


def identify_stable(group: MatrixGroup) -> str | None:
    """Name of the order-32 catalog group this one is isomorphic to, if any."""
    for name in STABLE_NAMES:
        if group.order == catalog_group(name).order and group.is_isomorphic(catalog_group(name)):
            return name
    return None


def decompose_index_two(name: str) -> tuple[tuple[str, int], ...]:
    """Index-two subgroups of a catalog group, identified and counted.

    Returns sorted (identified catalog name, count) pairs; raises if some
    subgroup matches none of the stable groups.
    """
    if name not in _DECOMPOSITION_CACHE:
        group = catalog_group(name)
        tally: dict[str, int] = {}
        for rep, count in _index_two_classes(group):
            identified = identify_stable(rep)
            if identified is None:
                raise LookupError(
                    f"an index-two subgroup of {name!r} matches no stable catalog group"
                )
            tally[identified] = tally.get(identified, 0) + count
        _DECOMPOSITION_CACHE[name] = tuple(sorted(tally.items()))
    return _DECOMPOSITION_CACHE[name]


# ---------------------------------------------------------------------------
# Pools and signature search


def pool_group(name: str) -> MatrixGroup:
    """Monomial pool as a closed ambient group (includes the i-scalars)."""
    if name not in POOL_NAMES:
        raise KeyError(f"unknown pool {name!r}; have {POOL_NAMES}")
    if name not in _POOL_CACHE:
        base = "gamma_minus" if name == "dirac4" else "gamma64_minus"
        gens = list(catalog_entry(base).generators)
        scalar_i = ExactMatrix.identity(gens[0].dim).scale(_IMAG)
        _POOL_CACHE[name] = MatrixGroup.from_generators(gens + [scalar_i])
    return _POOL_CACHE[name]


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


class _PoolSearcher:
    """Precomputed square/anticommute structure over a closed pool."""

    def __init__(self, pool: MatrixGroup):
        self.pool = pool
        minus = pool.elements[0].scale(_MINUS)
        self.neg = pool.index_of(minus)
        self.plus_candidates: list[int] = []
        self.minus_candidates: list[int] = []
        square_sign: dict[int, int] = {}
        for i in range(pool.order):
            if pool.elements[i].scalar_value() is not None:
                continue
            sq = pool.elements[pool.mul(i, i)].scalar_value()
            if sq is None or sq.im != 0 or abs(sq.re) != 1:
                continue
            sign = 1 if sq.re > 0 else -1
            square_sign[i] = sign
            (self.plus_candidates if sign > 0 else self.minus_candidates).append(i)
        self.square_sign = square_sign
        self._anti: dict[tuple[int, int], bool] = {}
        self._comm: dict[tuple[int, int], bool] = {}

    def candidates(self, sign: int) -> list[int]:
        return self.plus_candidates if sign > 0 else self.minus_candidates

    def anticommute(self, i: int, j: int) -> bool:
        key = (i, j) if i <= j else (j, i)
        if key not in self._anti:
            self._anti[key] = self.pool.mul(i, j) == self.pool.mul(
                self.neg, self.pool.mul(j, i)
            )
        return self._anti[key]

    def commute(self, i: int, j: int) -> bool:
        key = (i, j) if i <= j else (j, i)
        if key not in self._comm:
            self._comm[key] = self.pool.mul(i, j) == self.pool.mul(j, i)
        return self._comm[key]

    def triples(self, squares: tuple[int, int, int]) -> Iterable[tuple[int, int, int]]:
        """Pairwise anticommuting triples, one representative per set.

        Generators with equal squares are enumerated with increasing pool
        index, which visits every unordered combination exactly once.
        """
        c1 = self.candidates(squares[0])
        for s1 in c1:
            for s2 in self.candidates(squares[1]):
                if squares[1] == squares[0] and s2 <= s1:
                    continue
                if not self.anticommute(s1, s2):
                    continue
                for s3 in self.candidates(squares[2]):
                    if squares[2] == squares[1] and s3 <= s2:
                        continue
                    if squares[2] == squares[0] and s3 <= s1 and squares[1] != squares[0]:
                        continue
                    if s3 in (s1, s2):
                        continue
                    if self.anticommute(s1, s3) and self.anticommute(s2, s3):
                        yield (s1, s2, s3)


def find_gamma_models(
    spec: SignatureSpec | str, pool_name: str = "dirac4"
) -> list[ModelHit]:
    """All isomorphism classes of groups generated by tuples matching a spec.

    Tuples are enumerated deterministically, closed inside the pool's
    Cayley table, deduplicated first by generated subgroup and then by
    abstract isomorphism. Each class reports the first generator tuple that
    produced it. An empty list means the pool has no model for the spec.
    """
    if isinstance(spec, str):
        spec = SignatureSpec.parse(spec)
    cache_key = (str(spec), pool_name)
    if cache_key in _SEARCH_CACHE:
        return list(_SEARCH_CACHE[cache_key])
    pool = pool_group(pool_name)
    searcher = _PoolSearcher(pool)

    if spec.commuting_fourth is None:
        triple_squares = spec.squares[:3]
        fourth_sign = spec.squares[3]
        fourth_commutes = False
    else:
        triple_squares = spec.squares
        fourth_sign = spec.commuting_fourth
        fourth_commutes = True

    seen_subgroups: set[frozenset[int]] = set()
    classes: list[tuple[MatrixGroup, ModelHit]] = []
    triple_closure: dict[frozenset[int], frozenset[int]] = {}

    for s1, s2, s3 in searcher.triples(triple_squares):
        triple_key = frozenset((s1, s2, s3))
        if triple_key not in triple_closure:
            triple_closure[triple_key] = pool.closure_indices((s1, s2, s3))
        base = triple_closure[triple_key]
        for s4 in searcher.candidates(fourth_sign):
            if s4 in (s1, s2, s3):
                continue
            if fourth_commutes:
                if not all(searcher.commute(s4, s) for s in (s1, s2, s3)):
                    continue
                # A commuting fourth already inside the triple's span adds
                # nothing; skip the degenerate tuple.
                if s4 in base:
                    continue
            else:
                if not all(searcher.anticommute(s4, s) for s in (s1, s2, s3)):
                    continue
                if fourth_sign == triple_squares[2] and s4 <= s3:
                    continue
            closure = pool.closure_indices((s1, s2, s3, s4))
            key = frozenset(closure)
            if key in seen_subgroups:
                continue
            seen_subgroups.add(key)
            group = Subgroup(pool, key).as_group()
            for rep, _ in classes:
                if group.order == rep.order and group.is_isomorphic(rep):
                    break
            else:
                hit = ModelHit(
                    signature=str(spec),
                    pool=pool_name,
                    generator_indices=(s1, s2, s3, s4),
                    order=group.order,
                    identified=identify_stable(group) if group.order == 32 else None,
                )
                classes.append((group, hit))
    _SEARCH_CACHE[cache_key] = [hit for _, hit in classes]
    return list(_SEARCH_CACHE[cache_key])


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
        identified=_identify_extension(group),
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


def _identify_extension(group: MatrixGroup) -> str | None:
    for name in ("gamma64_minus", "gamma64_plus", "gamma64_null"):
        if group.order == catalog_group(name).order and group.is_isomorphic(
            catalog_group(name)
        ):
            return name
    return None


def sweep_extensions() -> list[ExtensionResult]:
    """Both square choices over every stable base, in catalog order."""
    out = []
    for base in STABLE_NAMES:
        for square in (1, -1):
            out.append(enumerate_extensions(base, square))
    return out
