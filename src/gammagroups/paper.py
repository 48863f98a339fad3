"""The paper's claims: every check `gammagroups verify` runs.

Every number the catalog freezes lives in one place, the `expected` block
of the entry's JSON file, and this registry is the only code that checks
it. Each entry gets two generated claims: `catalog.<name>.expected`
reads the whole block, in its stored form, from the entry's `analyze`
profile (`catalog.catalog_profile`), and `catalog.<name>.checks`
verifies the entry's relation sets, bracket table, declared signature
and block forms. The hand-written claims read their catalog numbers from
the same blocks; only facts outside them (centers, weights, forms, the
sweep, the extensions) are literals here. `claims.registry()` imports
this module on its first call.
"""

from __future__ import annotations

import functools

from . import catalog
from .brackets import BracketTable, verify_bracket_table, verify_relations
from .claims import Claim
from .exact import ExactMatrix, GaussianRational, format_scalar
from .reps import format_census, structural_invariant
from .words import RelationSet, evaluate_word, table_roles


def _report_verdict(report) -> str:
    if report.passed:
        return "pass"
    return "fail: " + ", ".join(c.check_id for c in report.failures())


# Cached: the catalog claims and the hand-written ones check the same
# tables and relation sets.
@functools.cache
def _table_verdict(entry_name: str) -> str:
    """Verify an entry's bracket table row by row on explicit matrices."""
    entry = catalog.catalog_entry(entry_name)
    table = BracketTable.load(entry.table)
    assignment = table_roles(catalog.catalog_group(entry_name), entry, table)
    if assignment is None:
        return f"fail: no {entry.table} match"
    return _report_verdict(verify_bracket_table(table, assignment))


@functools.cache
def _relations_verdict(entry_name: str, relation_set: str) -> str:
    entry = catalog.catalog_entry(entry_name)
    genmap = entry.generator_assignment()
    mapping = entry.relations[relation_set]
    assignment = {label: evaluate_word(word, genmap) for label, word in mapping.items()}
    return _report_verdict(verify_relations(RelationSet.load(relation_set), assignment))


def _substituted_table_verdict() -> str:
    """Scaling the involution boosts by i turns a d-table pass into b."""
    entry = catalog.catalog_entry("pauli")
    genmap = entry.generator_assignment()
    d_table = BracketTable.load("d")
    b_table = BracketTable.load("b")
    imag = GaussianRational(0, 1)
    d_assignment = {
        label: evaluate_word(word, genmap)
        for label, word in entry.table_assignment.items()
    }
    assignment = {}
    for k in range(3):
        assignment[b_table.rotations[k]] = d_assignment[d_table.rotations[k]]
        assignment[b_table.boosts[k]] = d_assignment[d_table.boosts[k]].scale(imag)
    return _report_verdict(verify_bracket_table(b_table, assignment))


def _center_scalars(name: str) -> list[str]:
    group = catalog.catalog_group(name)
    out = []
    for idx in group.center():
        value = group.elements[idx].scalar_value()
        out.append(format_scalar(value) if value is not None else "nonscalar")
    return sorted(out)


def _weight_summary(name: str, word: str) -> dict:
    # The `forms` names come through `reps`, so a wrapper set on `reps`
    # (perfbench) binds here, and only the claims that read them load `forms`.
    from .reps import spin_weights

    entry = catalog.catalog_entry(name)
    report = spin_weights(evaluate_word(word, entry.generator_assignment()))
    return {
        "weights": [[v, m] for v, m in report.weights],
        "l0": str(report.l0) if report.l0 is not None else None,
        "classification": report.classification,
    }


def _generator_orders(name: str) -> list[int]:
    group = catalog.catalog_group(name)
    return [group.element_order(i) for i in group.generator_indices]


@functools.cache
def _block_forms(name: str) -> tuple[tuple[str, ExactMatrix | None], ...]:
    """Invariant bilinear form (kind, matrix) on each declared block of an entry."""
    from .reps import invariant_bilinear_form  # through `reps`, as in `_weight_summary`

    group = catalog.catalog_group(name)
    return tuple(
        invariant_bilinear_form(group, block) for block in catalog.catalog_entry(name).blocks or ()
    )


def _indicator_and_form(name: str) -> dict:
    indicators = catalog.catalog_profile(name).indicators
    kinds = {kind for kind, _ in _block_forms(name)}
    return {"indicators": sorted(set(indicators)), "forms": sorted(kinds)}


def _realform(name: str) -> dict:
    kinds = set()
    nonsingular = True
    for kind, form in _block_forms(name):
        kinds.add(kind)
        if form is None:
            nonsingular = False
        else:
            form.inverse()  # raises if singular
    if kinds == {"none"}:
        return {"kind": "none"}
    (kind,) = kinds
    return {"kind": kind, "nonsingular": nonsingular}


def _delta_profile(name: str) -> dict:
    profile = catalog.catalog_profile(name)
    return {
        "order": profile.order,
        "census": profile.value("census"),
        "half_order_classes": len(profile.index_two["classes"]),
    }


def _sweep_value() -> dict:
    sweep = catalog.sweep_stable_models("penta8")
    out = {}
    for spec, hits in sweep.items():
        out[spec] = hits[0].identified if len(hits) == 1 else sorted(
            h.identified or "?" for h in hits
        )
    return out


def _small_pool_gap() -> dict:
    out = {}
    for spec in ("---|+", "++-|+"):
        hits = [h for h in catalog.find_gamma_models(spec, "dirac4") if h.order == 32]
        out[spec] = sorted(h.identified or "?" for h in hits)
    return out


def _extension_value() -> dict:
    results = catalog.sweep_extensions()
    return {
        "attempted": len(results),
        "found": sum(1 for r in results if r.found),
        "classes": sorted({r.identified for r in results if r.found}),
    }


def _isomorphic(a: str, b: str) -> bool:
    return catalog.catalog_group(a).is_isomorphic(catalog.catalog_group(b))


def _expected_block_value(name: str, keys: tuple[str, ...]) -> dict:
    """Keys of an entry's `expected` block, read from its `analyze` profile.

    The stored form is the profile's JSON form except for two keys:
    `census` is stored as [dim, count] pairs and `decomposition` as a
    {name: count} dict of the profile's `index_two` classes. A key the
    profile does not report raises, so the claim fails instead of
    skipping a frozen number.
    """
    profile = catalog.catalog_profile(name)
    stored = {
        "census": lambda: [list(pair) for pair in profile.census],
        "decomposition": lambda: dict(profile.value("index_two")["classes"]),
    }
    return {key: stored[key]() if key in stored else profile.value(key) for key in keys}


def _signature_matches(entry: catalog.CatalogEntry) -> bool:
    """Check the declared square/commutation pattern on the generators."""
    spec = catalog.SignatureSpec.parse(entry.signature)
    gens = entry.generators
    if len(gens) != 4:
        return False
    if spec.commuting_fourth is None:
        squares = spec.squares
        pairs_anticommute = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        pairs_commute = []
    else:
        squares = spec.squares + (spec.commuting_fourth,)
        pairs_anticommute = [(0, 1), (0, 2), (1, 2)]
        pairs_commute = [(0, 3), (1, 3), (2, 3)]
    for g, want in zip(gens, squares):
        sq = (g * g).scalar_value()
        if sq is None or sq != GaussianRational(want, 0):
            return False
    minus = GaussianRational(-1, 0)
    for i, j in pairs_anticommute:
        if gens[i] * gens[j] != (gens[j] * gens[i]).scale(minus):
            return False
    for i, j in pairs_commute:
        if gens[i] * gens[j] != gens[j] * gens[i]:
            return False
    return True


_FORM_OF_INDICATOR = {1: "symmetric", -1: "antisymmetric", 0: "none"}


def _checks_verdict(name: str) -> str:
    """Relation sets, bracket table, signature and block forms of an entry."""
    entry = catalog.catalog_entry(name)
    group = catalog.catalog_group(name)
    verdicts = [(f"relations {rels}", _relations_verdict(name, rels)) for rels in entry.relations]
    if entry.table is not None:
        verdicts.append((f"table {entry.table}", _table_verdict(name)))
    if entry.signature is not None:
        verdicts.append((f"signature {entry.signature}",
                         "pass" if _signature_matches(entry) else "fail"))
    for block, (kind, _) in zip(entry.blocks or (), _block_forms(name)):
        indicator = structural_invariant(group, block)
        verdicts.append((f"form on block {list(block)}",
                         "pass" if kind == _FORM_OF_INDICATOR[indicator]
                         else f"fail: {kind} with indicator {indicator}"))
    failures = [f"{label}: {verdict}" for label, verdict in verdicts if verdict != "pass"]
    return "fail: " + "; ".join(failures) if failures else "pass"


_EXPECTED_SWEEP = {
    "++++": "gamma_minus",
    "+++-": "gamma_plus",
    "++--": "gamma_plus",
    "+---": "gamma_minus",
    "----": "gamma_minus",
    "+++|+": "pauli_c2",
    "+++|-": "pauli_c2",
    "++-|+": "d4_v4",
    "++-|-": "pauli_c2",
    "+--|+": "pauli_c2",
    "+--|-": "pauli_c2",
    "---|+": "q8_v4",
    "---|-": "pauli_c2",
}


def build_registry() -> list[Claim]:
    # The stored `expected` blocks, read as raw JSON (no extraction runs).
    frozen = {name: catalog._load_payload(name)["expected"] for name in catalog.catalog_names()}
    claims = [
        Claim(
            "pauli.order", "Closure of the three involution generators has order 16.",
            frozen["pauli"]["order"], lambda: catalog.catalog_group("pauli").order,
        ),
        Claim(
            "pauli.classes", "The order-16 phase group has ten conjugacy classes.",
            frozen["pauli"]["class_count"],
            lambda: len(catalog.catalog_group("pauli").conjugacy_classes()),
        ),
        Claim(
            "pauli.center", "The center consists of the four scalar phases.",
            ["-1", "-i", "1", "i"], lambda: _center_scalars("pauli"),
        ),
        Claim(
            "pauli.census", "Irreducible dimensions: eight linear, two of dimension 2.",
            format_census(frozen["pauli"]["census"]),
            lambda: catalog.catalog_profile("pauli").value("census"),
        ),
        Claim(
            "pauli.rank", "Minimal generator count is three.",
            frozen["pauli"]["min_generators"],
            lambda: catalog.catalog_group("pauli").minimal_generator_count(),
        ),
        Claim(
            "pauli.weights", "The rotation g3*g2 carries weights +-1/2 with top weight 1/2.",
            {
                "weights": [["-1/2", 1], ["1/2", 1]],
                "l0": "1/2",
                "classification": "real-half-integer",
            },
            lambda: _weight_summary("pauli", "g3 g2"),
        ),
        Claim(
            "quaternion.order", "The two order-4 generators close into a group of order 8.",
            frozen["q8"]["order"], lambda: catalog.catalog_group("q8").order,
        ),
        Claim(
            "quaternion.relations", "The quaternion relation set verifies exactly.",
            "pass", lambda: _relations_verdict("q8", "quaternion"),
        ),
        Claim(
            "quaternion.second_kind",
            "Replacing one generator by an order-2 element keeps order 8 with orders (4, 2).",
            {"order": frozen["d4"]["order"], "generator_orders": [4, 2]},
            lambda: {
                "order": catalog.catalog_group("d4").order,
                "generator_orders": _generator_orders("d4"),
            },
        ),
        Claim(
            "quaternion.nonisomorphic",
            "The two order-8 groups are not isomorphic (full backtracking check).",
            False, lambda: _isomorphic("q8", "d4"),
        ),
        Claim(
            "brackets.table_d", "Table d verifies row by row on the pauli realization.",
            "pass", lambda: _table_verdict("pauli"),
        ),
        Claim(
            "brackets.table_q2", "Table q2 verifies on the order-8 dihedral rotations.",
            "pass", lambda: _table_verdict("d4"),
        ),
        Claim(
            "brackets.table_f", "Table f verifies on the mixed-square boost triple.",
            "pass", lambda: _table_verdict("pauli_f"),
        ),
        Claim(
            "brackets.table_b", "Table b verifies on the component extracted from gamma_minus.",
            "pass", lambda: _table_verdict("q8_c2"),
        ),
        Claim(
            "brackets.table_c", "Table c verifies on the component extracted from gamma_plus.",
            "pass", lambda: _table_verdict("d4_c2"),
        ),
        Claim(
            "brackets.substitution",
            "Scaling the d-table boosts by i satisfies table b row by row.",
            "pass", _substituted_table_verdict,
        ),
        Claim(
            "brackets.products", "The generator product identities verify exactly.",
            "pass", lambda: _relations_verdict("pauli", "pauli_products"),
        ),
        Claim(
            "weights.imaginary_second",
            "The second rotation of the f realization has pure imaginary weights.",
            "pure-imaginary",
            lambda: _weight_summary("pauli_f", "-i*g2")["classification"],
        ),
        Claim(
            "weights.imaginary_third",
            "The third rotation of the f realization has pure imaginary weights.",
            "pure-imaginary",
            lambda: _weight_summary("pauli_f", "-i*g3")["classification"],
        ),
        Claim(
            "dirac.order", "Four anticommuting involutions close into a group of order 32.",
            frozen["gamma_minus"]["order"], lambda: catalog.catalog_group("gamma_minus").order,
        ),
        Claim(
            "dirac.subgroup_classes",
            "The 15 index-two subgroups split into classes b (5) and d (10).",
            frozen["gamma_minus"]["index_two"],
            lambda: catalog.catalog_profile("gamma_minus").value("index_two"),
        ),
        Claim(
            "dirac.iso_df",
            "The d and f realizations are the same abstract group (verified certificate).",
            True, lambda: _isomorphic("pauli", "pauli_f"),
        ),
        Claim(
            "search.exhaustive",
            "The 13-signature sweep finds one order-32 class per signature, "
            "five distinct groups overall.",
            dict(_EXPECTED_SWEEP), _sweep_value,
        ),
        Claim(
            "search.small_pool_gap",
            "The twisted-triple signatures have no order-32 model in the 4-dim pool.",
            {"---|+": [], "++-|+": []}, _small_pool_gap,
        ),
        Claim(
            "extensions.exhaustive",
            "Ten base/square extension attempts land on exactly three order-64 groups.",
            {
                "attempted": 10,
                "found": 4,
                "classes": ["gamma64_minus", "gamma64_null", "gamma64_plus"],
            },
            _extension_value,
        ),
    ]
    for name, description, form in (
        ("gamma_minus", "Indicator -1 with antisymmetric block form.", "antisymmetric"),
        ("gamma_plus", "Indicator +1 with symmetric block form.", "symmetric"),
        ("pauli_c2", "Indicator 0 with no invariant bilinear form.", "none"),
        ("q8_v4", "Indicator -1 on every 2-dim block.", "antisymmetric"),
        ("d4_v4", "Indicator +1 on every 2-dim block.", "symmetric"),
    ):
        claims.append(Claim(
            f"invariants.{name}", description,
            {"indicators": sorted(set(frozen[name]["indicators"])), "forms": [form]},
            lambda name=name: _indicator_and_form(name),
        ))
    # Each prefix also names the entry's sixth-generator relation set.
    delta_rows = [
        ("delta1", "gamma64_minus", {"kind": "antisymmetric", "nonsingular": True}),
        ("delta2", "gamma64_plus", {"kind": "symmetric", "nonsingular": True}),
        ("delta3", "gamma64_null", {"kind": "none"}),
    ]
    for prefix, name, realform in delta_rows:
        stored = frozen[name]
        claims.extend([
            Claim(
                f"{prefix}.profile",
                f"{name} has order 64, census 32x1 + 2x4, three half-order classes.",
                {
                    "order": stored["order"],
                    "census": format_census(stored["census"]),
                    "half_order_classes": len(stored["decomposition"]),
                },
                lambda name=name: _delta_profile(name),
            ),
            Claim(
                f"{prefix}.decomposition",
                f"Index-two subgroups of {name} split by isomorphism type.",
                stored["decomposition"],
                lambda name=name: _expected_block_value(name, ("decomposition",))["decomposition"],
            ),
            Claim(
                f"{prefix}.sixth",
                f"The sixth-generator relations of {name} verify (centrality and square).",
                "pass", lambda name=name, rels=prefix: _relations_verdict(name, rels),
            ),
            Claim(
                f"{prefix}.invariants",
                f"Block indicators of {name}.",
                stored["indicators"],
                lambda name=name: catalog.catalog_profile(name).value("indicators"),
            ),
            Claim(
                f"{prefix}.realform",
                f"Invariant bilinear form kind on the 4-dim blocks of {name}.",
                realform, lambda name=name: _realform(name),
            ),
        ])
    for name, stored in frozen.items():
        claims.extend([
            Claim(
                f"catalog.{name}.expected",
                f"The stored expected profile of {name} recomputes exactly.",
                stored, lambda name=name, keys=tuple(stored): _expected_block_value(name, keys),
            ),
            Claim(
                f"catalog.{name}.checks",
                f"The relation sets, bracket table, signature and block forms of {name} verify.",
                "pass", lambda name=name: _checks_verdict(name),
            ),
        ])
    claims.sort(key=lambda c: c.claim_id)
    ids = [c.claim_id for c in claims]
    if len(ids) != len(set(ids)):
        raise RuntimeError("duplicate claim ids in registry")
    return claims
