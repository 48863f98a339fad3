"""Regenerate the catalog data files from exact constructions.

Every generator matrix is built programmatically (products included), so
the stored strings always parse back to the intended matrices. Expected
profile numbers are frozen here. After writing the files, the script runs
the `catalog.*` claims, which recompute every stored `expected` block and
verify each entry's relation sets, bracket table, signature and block
forms; it exits nonzero if any of them fails.

Run from the repository root:

    python3 tools/build_catalog.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from gammagroups.exact import ExactMatrix, GaussianRational, block_diag, format_matrix, parse_matrix

OUT_DIR = pathlib.Path(__file__).resolve().parents[1] / "src/gammagroups/data/catalog"

I = GaussianRational(0, 1)
MINUS = GaussianRational(-1, 0)


def m(text: str) -> ExactMatrix:
    return parse_matrix(text)


SX = m("[[0, 1], [1, 0]]")
SY = m("[[0, -i], [i, 0]]")
SZ = m("[[1, 0], [0, -1]]")
ID2 = ExactMatrix.identity(2)

# Quaternion unit pair and the reflection pair used by the order-8 models.
QI = SZ.scale(I)          # squares to -1
QJ = m("[[0, 1], [-1, 0]]")
QK = QI * QJ
ROT = SX.scale(GaussianRational(0, -1))   # -i*sx, order four
REF = SY                                   # order two

G1 = m("[[0, 0, 0, -i], [0, 0, -i, 0], [0, i, 0, 0], [i, 0, 0, 0]]")
G2 = m("[[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]")
G3 = m("[[0, 0, -i, 0], [0, 0, 0, i], [i, 0, 0, 0], [0, -i, 0, 0]]")
G4 = m("[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]")
G5 = G1 * G2 * G3 * G4

GAMMA_MINUS = [G1, G2, G3, G4]
GAMMA_PLUS = [G1, G2, G3, G4.scale(I)]


def doubled_model(base: list[ExactMatrix], fifth: ExactMatrix) -> list[ExactMatrix]:
    out = [block_diag(g, g) for g in base]
    out.append(block_diag(fifth, fifth.scale(MINUS)))
    return out


def entry(name: str, payload: dict) -> None:
    payload = {"name": name, **payload}
    if "generators" in payload:
        payload["generators"] = [format_matrix(g) for g in payload["generators"]]
    path = OUT_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path.name}")


def main() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    entry("pauli", {
        "summary": "Three anticommuting involutions on C^2; the order-16 phase group.",
        "dimension": 2,
        "generators": [SX, SY, SZ],
        "blocks": [[0, 2]],
        "relations": {
            "pauli_products": {
                "a1": "g3 g2", "a2": "g1 g3", "a3": "g2 g1",
                "b1": "g1", "b2": "g2", "b3": "g3", "c": "g1 g2 g3",
            },
            "quaternion": {"a1": "g3 g2", "a2": "g1 g3", "a3": "g2 g1"},
        },
        "table": {
            "name": "d",
            "assignment": {
                "a1": "g3 g2", "a2": "g1 g3", "a3": "g2 g1",
                "b1": "g1", "b2": "g2", "b3": "g3",
            },
        },
        "signature": None,
        "expected": {
            "order": 16, "class_count": 10, "center_order": 4,
            "abelian_invariants": [2, 2, 2], "min_generators": 3,
            "census": [[1, 8], [2, 2]], "indicators": [0],
            "component": "d",
        },
        "notes": "Designated boosts square to +1, so the d table is the first match.",
    })

    entry("pauli_f", {
        "summary": "The order-16 phase group with boosts (x, iy, iz); realizes table f.",
        "dimension": 2,
        "generators": [SX, SY.scale(I), SZ.scale(I)],
        "blocks": [[0, 2]],
        "relations": {
            "dihedral": {"a1": "-i*g1", "ap2": "-i*g2", "ap3": "-i*g3"},
        },
        "table": {
            "name": "f",
            "assignment": {
                "a1": "-i*g1", "ap2": "-i*g2", "ap3": "-i*g3",
                "bp1": "g1", "bp2": "g2", "bp3": "g3",
            },
        },
        "signature": None,
        "expected": {
            "order": 16, "class_count": 10, "center_order": 4,
            "abelian_invariants": [2, 2, 2], "min_generators": 3,
            "census": [[1, 8], [2, 2]], "indicators": [0],
            "component": "f",
        },
        "notes": "Same matrix set as the pauli entry; only the designated boost "
                 "triple differs, which moves the match from table d to table f.",
    })

    entry("q8", {
        "summary": "Quaternion unit group on C^2.",
        "dimension": 2,
        "generators": [SX.scale(GaussianRational(0, -1)), SY.scale(GaussianRational(0, -1))],
        "blocks": [[0, 2]],
        "relations": {"quaternion": {"a1": "g1", "a2": "g2", "a3": "g1 g2"}},
        "table": None,
        "signature": None,
        "expected": {
            "order": 8, "class_count": 5, "center_order": 2,
            "abelian_invariants": [2, 2], "min_generators": 2,
            "census": [[1, 4], [2, 1]], "indicators": [-1],
        },
        "notes": "The invariant bilinear form of the 2-dim block is antisymmetric.",
    })

    entry("d4", {
        "summary": "Order-8 dihedral group: a rotation of order four and a reflection.",
        "dimension": 2,
        "generators": [ROT, REF],
        "blocks": [[0, 2]],
        "relations": {"dihedral": {"a1": "g1", "ap2": "g2", "ap3": "g1 g2"}},
        "table": {
            "name": "q2",
            "assignment": {"a1": "g1", "ap2": "g2", "ap3": "g1 g2"},
        },
        "signature": None,
        "expected": {
            "order": 8, "class_count": 5, "center_order": 2,
            "abelian_invariants": [2, 2], "min_generators": 2,
            "census": [[1, 4], [2, 1]], "indicators": [1],
        },
        "notes": "Same order data as q8 but the block form is symmetric.",
    })

    entry("gamma_minus", {
        "summary": "Four anticommuting involutions on C^4 with antisymmetric block form.",
        "dimension": 4,
        "generators": GAMMA_MINUS,
        "blocks": [[0, 4]],
        "relations": {"dirac": {"g1": "g1", "g2": "g2", "g3": "g3", "g4": "g4"}},
        "table": None,
        "signature": "++++",
        "expected": {
            "order": 32, "class_count": 17, "center_order": 2,
            "abelian_invariants": [2, 2, 2, 2], "min_generators": 4,
            "census": [[1, 16], [4, 1]], "indicators": [-1],
            "composition": ["b", "d", "f"],
            "index_two": {"count": 15, "classes": [["b", 5], ["d", 10]]},
        },
        "notes": "Its fifteen index-two subgroups split into two isomorphism "
                 "classes, carrying tables d and b.",
    })

    entry("gamma_plus", {
        "summary": "Anticommuting quadruple on C^4 with one square -1; symmetric form.",
        "dimension": 4,
        "generators": GAMMA_PLUS,
        "blocks": [[0, 4]],
        "relations": {"dirac_plus": {"g1": "g1", "g2": "g2", "g3": "g3", "g4": "g4"}},
        "table": None,
        "signature": "+++-",
        "expected": {
            "order": 32, "class_count": 17, "center_order": 2,
            "abelian_invariants": [2, 2, 2, 2], "min_generators": 4,
            "census": [[1, 16], [4, 1]], "indicators": [1],
            "composition": ["c", "d", "f"],
            "index_two": {"count": 15, "classes": [["c", 9], ["d", 6]]},
        },
        "notes": "Differs from gamma_minus only in the square of the fourth "
                 "generator, which flips the block form to symmetric.",
    })

    entry("pauli_c2", {
        "summary": "Doubled phase group: conjugate 2-dim blocks plus a block-sign flip.",
        "dimension": 4,
        "generators": [
            block_diag(SX, SX.conjugate()),
            block_diag(SY, SY.conjugate()),
            block_diag(SZ, SZ.conjugate()),
            block_diag(ID2, ID2.scale(MINUS)),
        ],
        "blocks": [[0, 2], [2, 2]],
        "relations": {"quaternion": {"a1": "g3 g2", "a2": "g1 g3", "a3": "g2 g1"}},
        "table": None,
        "signature": "+++|+",
        "expected": {
            "order": 32, "class_count": 20, "center_order": 8,
            "abelian_invariants": [2, 2, 2, 2], "min_generators": 4,
            "census": [[1, 16], [2, 4]], "indicators": [0, 0],
            "composition": ["b", "c", "d", "f"],
        },
        "notes": "Both blocks have indicator zero; the group admits every "
                 "component table on one or another order-16 subgroup.",
    })

    entry("q8_v4", {
        "summary": "Quaternion units tripled with block-sign twists; indicator -1 blocks.",
        "dimension": 6,
        "generators": [
            block_diag(QI, QI, QI),
            block_diag(QJ, QJ, QJ),
            block_diag(QK, QK.scale(MINUS), QK.scale(MINUS)),
            block_diag(ID2.scale(MINUS), ID2, ID2.scale(MINUS)),
        ],
        "blocks": [[0, 2], [2, 2], [4, 2]],
        "relations": {"quaternion": {"a1": "g1", "a2": "g2", "a3": "g1 g2"}},
        "table": None,
        "signature": "---|+",
        "expected": {
            "order": 32, "class_count": 20, "center_order": 8,
            "abelian_invariants": [2, 2, 2, 2], "min_generators": 4,
            "census": [[1, 16], [2, 4]], "indicators": [-1, -1, -1],
            "composition": ["b"],
        },
        "notes": "No 4-dim faithful model with irreducible blocks exists: the "
                 "2-dim irreducible occurs with multiplicity, so three twisted "
                 "copies are needed to separate the sign characters.",
    })

    entry("d4_v4", {
        "summary": "Dihedral blocks tripled with block-sign twists; indicator +1 blocks.",
        "dimension": 6,
        "generators": [
            block_diag(REF, REF, REF),
            block_diag(ROT * REF, ROT * REF, ROT * REF),
            block_diag(ROT, ROT.scale(MINUS), ROT.scale(MINUS)),
            block_diag(ID2.scale(MINUS), ID2, ID2.scale(MINUS)),
        ],
        "blocks": [[0, 2], [2, 2], [4, 2]],
        "relations": {"dihedral": {"a1": "g3", "ap2": "g1", "ap3": "g3 g1"}},
        "table": None,
        "signature": "++-|+",
        "expected": {
            "order": 32, "class_count": 20, "center_order": 8,
            "abelian_invariants": [2, 2, 2, 2], "min_generators": 4,
            "census": [[1, 16], [2, 4]], "indicators": [1, 1, 1],
            "composition": ["c"],
        },
        "notes": "The dihedral counterpart of q8_v4; every block form is symmetric.",
    })

    entry("q8_c2", {
        "summary": "Order-16 component realizing table b, cut out of gamma_minus.",
        "extract": {"parent": "gamma_minus", "order": 16, "component": "b"},
        "blocks": None,
        "relations": {},
        "table": {"name": "b", "assignment": None},
        "signature": None,
        "expected": {
            "order": 16, "class_count": 10, "center_order": 4,
            "abelian_invariants": [2, 2, 2], "min_generators": 3,
            "census": [[1, 8], [2, 2]], "indicators": None,
            "component": "b",
        },
        "notes": "Extracted as the first index-two subgroup of gamma_minus whose "
                 "boost search lands on table b. The inherited 4-dim action is "
                 "reducible, so no block form is recorded.",
    })

    entry("d4_c2", {
        "summary": "Order-16 component realizing table c, cut out of gamma_plus.",
        "extract": {"parent": "gamma_plus", "order": 16, "component": "c"},
        "blocks": None,
        "relations": {},
        "table": {"name": "c", "assignment": None},
        "signature": None,
        "expected": {
            "order": 16, "class_count": 10, "center_order": 4,
            "abelian_invariants": [2, 2, 2], "min_generators": 3,
            "census": [[1, 8], [2, 2]], "indicators": None,
            "component": "c",
        },
        "notes": "Extraction mirror of q8_c2 on the symmetric-form side.",
    })

    entry("gamma64_minus", {
        "summary": "gamma_minus doubled with a fifth generator from the total product.",
        "dimension": 8,
        "generators": doubled_model(GAMMA_MINUS, G5),
        "blocks": [[0, 4], [4, 4]],
        "relations": {"delta1": {
            "G1": "g1", "G2": "g2", "G3": "g3", "G4": "g4", "G5": "g5",
            "G6": "g1 g2 g3 g4 g5",
        }},
        "table": None,
        "signature": None,
        "expected": {
            "order": 64, "class_count": 34, "center_order": 4,
            "abelian_invariants": [2, 2, 2, 2, 2], "min_generators": 5,
            "census": [[1, 32], [4, 2]], "indicators": [-1, -1],
            "decomposition": {"gamma_minus": 16, "pauli_c2": 10, "q8_v4": 5},
        },
        "notes": "The sixth-generator product is diag(+1, -1) on the two blocks.",
    })

    entry("gamma64_plus", {
        "summary": "gamma_plus doubled; the fifth generator squares to -1.",
        "dimension": 8,
        "generators": doubled_model(GAMMA_PLUS, G5.scale(I)),
        "blocks": [[0, 4], [4, 4]],
        "relations": {"delta2": {
            "G1": "g1", "G2": "g2", "G3": "g3", "G4": "g4", "G5": "g5",
            "G6": "g1 g2 g3 g4 g5",
        }},
        "table": None,
        "signature": None,
        "expected": {
            "order": 64, "class_count": 34, "center_order": 4,
            "abelian_invariants": [2, 2, 2, 2, 2], "min_generators": 5,
            "census": [[1, 32], [4, 2]], "indicators": [1, 1],
            "decomposition": {"gamma_plus": 16, "pauli_c2": 6, "d4_v4": 9},
        },
        "notes": "Both 4-dim blocks carry a symmetric invariant form.",
    })

    entry("gamma64_null", {
        "summary": "gamma_minus doubled with an imaginary fifth generator.",
        "dimension": 8,
        "generators": doubled_model(GAMMA_MINUS, G5.scale(I)),
        "blocks": [[0, 4], [4, 4]],
        "relations": {"delta3": {
            "G1": "g1", "G2": "g2", "G3": "g3", "G4": "g4", "G5": "g5",
            "G6": "g1 g2 g3 g4 g5",
        }},
        "table": None,
        "signature": None,
        "expected": {
            "order": 64, "class_count": 34, "center_order": 4,
            "abelian_invariants": [2, 2, 2, 2, 2], "min_generators": 5,
            "census": [[1, 32], [4, 2]], "indicators": [0, 0],
            "decomposition": {"gamma_minus": 6, "gamma_plus": 10, "pauli_c2": 15},
        },
        "notes": "The sixth-generator product has order four, enlarging the "
                 "center to a cyclic group of order four on each block.",
    })

    print("validating...")
    from gammagroups.claims import run_claims

    results = run_claims("catalog.*")
    failures = 0
    for result in results:
        print(f"  {result.claim_id}: {result.status}")
        if result.status != "PASS":
            print(f"    expected {result.expected}, computed {result.computed}")
            failures += 1
    if failures:
        sys.exit(f"{failures} of {len(results)} catalog claims failed")
    print("all entries validate")


if __name__ == "__main__":
    main()
