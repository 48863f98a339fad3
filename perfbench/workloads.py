"""Seeded operation streams for each workload, and the reference checker.

Every reference here is read from the catalog JSON files or written down
from the paper; nothing goes through the gammagroups package, so a defect
in the package cannot vouch for its own output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("verify", "analyze", "search")

# The paper's 13-signature sweep over the penta8 pool: the one order-32
# group each signature stabilizes on.
SWEEP_TABLE = {
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
# The twisted-triple signatures with no order-32 model in the dirac4 pool.
DIRAC4_GAPS = ("---|+", "++-|+")

# The penta8 signatures split at the median of their cold call time at the
# seed commit (6.9-7.9 s against 9.0-12.1 s on 2 CPUs). A search stream
# draws one signature from each half, so its total work varies little with
# the seed while every signature stays reachable.
PENTA8_STRATA = (
    ("++++", "+++-", "----", "+++|+", "+++|-", "---|+", "---|-"),
    ("++--", "+---", "++-|+", "++-|-", "+--|+", "+--|-"),
)

# Groups whose order is not a power of two, as permutation matrices. The
# seed commit's `analyze` crashes on them; they are only added to the
# analyze stream by the `--odd-files` probe.
ODD_GROUPS = {
    "c3": {"generators": [[[0, 1, 0], [0, 0, 1], [1, 0, 0]]],
           "expected": {"order": 3, "class_count": 3, "center_order": 3,
                        "abelian_invariants": [3], "census": [[1, 3]]}},
    "s3": {"generators": [[[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                          [[0, 1, 0], [1, 0, 0], [0, 0, 1]]],
           "expected": {"order": 6, "class_count": 3, "center_order": 1,
                        "abelian_invariants": [2], "census": [[1, 2], [2, 1]]}},
}
ODD_FILES_PER_ROUND = 4

# Profile fields a conjugated generator file must reproduce from its source.
ABSTRACT_FIELDS = ("order", "class_count", "center_order", "abelian_invariants",
                   "min_generators", "census")


@dataclass
class Op:
    """One CLI call: its arguments (without --format) and how to check it."""

    args: list[str]
    kind: str
    reference: dict = field(default_factory=dict)


def load_catalog(root: Path) -> dict[str, dict]:
    folder = root / "src" / "gammagroups" / "data" / "catalog"
    return {path.stem: json.loads(path.read_text()) for path in sorted(folder.glob("*.json"))}


# ---------------------------------------------------------------------------
# Generator files: catalog generators conjugated by a random monomial matrix,
# plus a redundant generator that is a random word in them.


def _matmul(a: list[list[complex]], b: list[list[complex]]) -> list[list[complex]]:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _parse_entry(text: str) -> complex:
    return {"0": 0, "1": 1, "-1": -1, "i": 1j, "-i": -1j}[text.strip()]


def _format_entry(value: complex) -> str:
    names = {0: "0", 1: "1", -1: "-1", 1j: "i", -1j: "-i"}
    if value not in names:
        raise ValueError(f"entry {value} is not 0 or a unit phase")
    return names[value]


def _random_monomial(rng: random.Random, dim: int) -> tuple[list[list[complex]], list[list[complex]]]:
    """A random monomial matrix and its inverse (entries in {0, +-1, +-i})."""
    perm = list(range(dim))
    rng.shuffle(perm)
    phases = [rng.choice((1, -1, 1j, -1j)) for _ in range(dim)]
    m = [[0j] * dim for _ in range(dim)]
    m_inv = [[0j] * dim for _ in range(dim)]
    for i, j in enumerate(perm):
        m[i][j] = phases[i]
        m_inv[j][i] = phases[i].conjugate()
    return m, m_inv


def conjugated_generators(rng: random.Random, matrices: list[list[list[complex]]]) -> list[str]:
    dim = len(matrices[0])
    m, m_inv = _random_monomial(rng, dim)
    gens = [_matmul(_matmul(m, g), m_inv) for g in matrices]
    word = gens[rng.randrange(len(gens))]
    for _ in range(rng.randint(2, 5)):
        word = _matmul(word, gens[rng.randrange(len(gens))])
    gens.append(word)
    rng.shuffle(gens)
    return [json.dumps([[_format_entry(x) for x in row] for row in g]) for g in gens]


def _write_generator_file(path: Path, name: str, generators: list[str]) -> None:
    dim = len(json.loads(generators[0]))
    path.write_text(json.dumps({"name": name, "dimension": dim, "generators": generators}))


def _abstract_reference(expected: dict) -> dict:
    ref = {k: expected[k] for k in ABSTRACT_FIELDS if k in expected}
    if "min_generators" in ref:
        # A 2-group with d generators has 2^d - 1 index-two subgroups.
        ref["index_two_count"] = 2 ** ref["min_generators"] - 1
    return ref


# ---------------------------------------------------------------------------
# Streams


def plan(workload: str, seed: int, rounds: int, workdir: Path, root: Path,
         odd_files: bool = False) -> list[Op]:
    """The seeded operation stream of one run; writes any generator files."""
    rng = random.Random(f"{workload}:{seed}")
    catalog = load_catalog(root)
    ops: list[Op] = []
    for r in range(rounds):
        if workload == "verify":
            ops.append(Op(["verify"], "verify"))
        elif workload == "analyze":
            ops.extend(_analyze_round(rng, r, workdir, catalog, odd_files))
        elif workload == "search":
            ops.extend(_search_round(rng))
        else:
            raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    return ops


def _analyze_round(rng: random.Random, r: int, workdir: Path, catalog: dict,
                   odd_files: bool) -> list[Op]:
    ops = []
    for name, payload in catalog.items():
        ref = _abstract_reference(payload["expected"])
        ops.append(Op(["analyze", name], "analyze", {"entry": payload["expected"], **ref}))
        if "generators" not in payload:
            continue  # extracted entries have no stored matrices to conjugate
        matrices = [[[_parse_entry(x) for x in row] for row in json.loads(text)]
                    for text in payload["generators"]]
        path = workdir / f"r{r}_{name}.json"
        _write_generator_file(path, f"{name}_conj", conjugated_generators(rng, matrices))
        ops.append(Op(["analyze", path.name], "analyze", ref))
    if odd_files:
        for k in range(ODD_FILES_PER_ROUND):
            name = sorted(ODD_GROUPS)[k % len(ODD_GROUPS)]
            matrices = [[[complex(x) for x in row] for row in g]
                        for g in ODD_GROUPS[name]["generators"]]
            path = workdir / f"r{r}_odd{k}_{name}.json"
            _write_generator_file(path, f"{name}_conj", conjugated_generators(rng, matrices))
            ops.append(Op(["analyze", path.name], "analyze-odd", ODD_GROUPS[name]["expected"]))
    rng.shuffle(ops)
    # Two cheap catalog targets run again at the end of the round: their
    # outputs must repeat exactly.
    small = [op for op in ops if op.kind == "analyze" and op.args[1] in catalog
             and catalog[op.args[1]]["expected"]["order"] <= 16]
    ops.extend(rng.sample(small, 2))
    return ops


def _search_round(rng: random.Random) -> list[Op]:
    ops = [Op([f"--signature={s}", "--pool", "dirac4"], "search") for s in SWEEP_TABLE]
    for stratum in PENTA8_STRATA:
        ops.append(Op([f"--signature={rng.choice(stratum)}", "--pool", "penta8"], "search"))
    rng.shuffle(ops)
    ops.append(rng.choice([op for op in ops if "dirac4" in op.args]))
    return [Op(["search", *op.args], op.kind) for op in ops]


# ---------------------------------------------------------------------------
# Reference checks. Each returns a list of failure reasons (empty = correct).


def normalized(doc: dict) -> dict:
    """The report without the fields that may differ between repeats."""
    doc = {k: v for k, v in doc.items() if k != "timings"}
    if isinstance(doc.get("claims"), list):
        doc["claims"] = [{k: v for k, v in c.items() if k != "ms"} for c in doc["claims"]]
    return doc


def _census_pairs(text) -> list[list[int]]:
    """'16x1 + 4x2' -> [[1, 16], [2, 4]] (dimension, count)."""
    pairs = []
    for part in str(text).split("+"):
        count, _, dim = part.strip().partition("x")
        pairs.append([int(dim), int(count)])
    return sorted(pairs)


def check_catalog_list(doc: dict, catalog: dict) -> list[str]:
    rows = {row["name"]: row for row in doc["profile"]["entries"]}
    problems = []
    if sorted(rows) != sorted(catalog):
        problems.append(f"catalog list names {sorted(rows)} != {sorted(catalog)}")
    for name, payload in catalog.items():
        if name in rows and rows[name]["order"] != payload["expected"]["order"]:
            problems.append(f"catalog list order of {name}: {rows[name]['order']}")
    return problems


def check_analyze(doc: dict, ref: dict) -> list[str]:
    profile = doc["profile"]
    problems = []
    for key in ("order", "class_count", "center_order", "abelian_invariants", "min_generators"):
        if key in ref and profile.get(key) != ref[key]:
            problems.append(f"{key}: {profile.get(key)!r} != {ref[key]!r}")
    if "census" in ref and _census_pairs(profile.get("census")) != sorted(ref["census"]):
        problems.append(f"census: {profile.get('census')!r} != {ref['census']!r}")
    index_two = profile.get("index_two") or {}
    if "index_two_count" in ref and index_two.get("count") != ref["index_two_count"]:
        problems.append(f"index-two count: {index_two.get('count')!r} != {ref['index_two_count']}")
    entry = ref.get("entry", {})
    for key in ("indicators", "component", "composition", "index_two"):
        if key in entry and profile.get(key) != entry[key]:
            problems.append(f"{key}: {profile.get(key)!r} != {entry[key]!r}")
    if "decomposition" in entry:
        found = {label: count for label, count in index_two.get("classes", [])}
        if found != entry["decomposition"]:
            problems.append(f"decomposition: {found!r} != {entry['decomposition']!r}")
    return problems


def check_search(doc: dict) -> list[str]:
    profile = doc["profile"]
    signature, pool = profile["signature"], profile["pool"]
    found = [h["identified"] for h in profile["hits"] if h["order"] == 32]
    expected = SWEEP_TABLE[signature]
    if pool == "penta8" and found != [expected]:
        return [f"penta8 {signature}: order-32 hits {found} != [{expected!r}]"]
    if pool == "dirac4" and signature in DIRAC4_GAPS and found:
        return [f"dirac4 {signature}: order-32 hits {found}, the paper has none"]
    if pool == "dirac4" and found not in ([], [expected]):
        return [f"dirac4 {signature}: order-32 hits {found} disagree with the sweep table"]
    return []


def check_verify(doc: dict) -> tuple[int, list[str]]:
    """(claims attempted, failure reasons), one reason per failed claim."""
    paper = {"search.exhaustive": SWEEP_TABLE,
             "search.small_pool_gap": {s: [] for s in DIRAC4_GAPS}}
    problems = []
    for claim in doc["claims"]:
        cid = claim["claim_id"]
        if claim["status"] != "PASS" or claim["computed"] != claim["expected"]:
            problems.append(f"claim {cid}: {claim['status']}")
        elif cid in paper and claim["computed"] != paper[cid]:
            problems.append(f"claim {cid} disagrees with the paper")
    return len(doc["claims"]), problems
