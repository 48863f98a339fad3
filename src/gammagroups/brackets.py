"""Commutator bracket tables and word relations, verified exactly.

A bracket table records the commutators [x, y] = xy - yx of a six-element
basis split into three "rotation" labels and three "boost" labels (the
three-label tables have no boost half). Tables live as JSON data files and
are verified against explicit matrix assignments. The component classifier
searches a concrete order-16 group for a boost triple whose derived
rotations satisfy one of the known tables.
"""

from __future__ import annotations

import functools
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Mapping, Sequence

from .exact import ExactMatrix, GaussianRational, format_matrix, parse_scalar
from .groups import MatrixGroup, mask_indices

TABLE_NAMES = ("d", "q2", "f", "b", "c")

# Tables eligible for component classification, tried in this order.
COMPONENT_TABLES = ("d", "f", "b", "c")

_TWO = GaussianRational(2, 0)
_MINUS_ONE = GaussianRational(-1, 0)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"id": self.check_id, "passed": self.passed, "detail": self.detail}


@dataclass
class VerificationReport:
    name: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check_id: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(check_id, passed, detail))

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _data_text(subdir: str, filename: str) -> str:
    return resources.files("gammagroups.data").joinpath(subdir, filename).read_text()


class BracketTable:
    """Antisymmetric commutator table over named rotation and boost labels."""

    def __init__(
        self,
        name: str,
        rotations: Sequence[str],
        boosts: Sequence[str],
        brackets: Iterable[tuple[str, str, GaussianRational, str | None]],
    ):
        if len(rotations) != 3:
            raise ValueError("a bracket table needs exactly three rotation labels")
        if boosts and len(boosts) != 3:
            raise ValueError("boost labels come in threes or not at all")
        self.name = name
        self.rotations = tuple(rotations)
        self.boosts = tuple(boosts)
        self.labels = self.rotations + self.boosts
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in table {name!r}")
        self._entries: dict[tuple[str, str], tuple[GaussianRational, str | None]] = {}
        for x, y, coeff, z in brackets:
            for lab in (x, y) + ((z,) if z is not None else ()):
                if lab not in self.labels:
                    raise ValueError(f"unknown label {lab!r} in table {name!r}")
            if x == y:
                raise ValueError(f"bracket [{x},{x}] is identically zero; drop it")
            if (x, y) in self._entries or (y, x) in self._entries:
                raise ValueError(f"pair ({x},{y}) listed twice in table {name!r}")
            if coeff.is_zero() != (z is None):
                raise ValueError(f"entry [{x},{y}]: zero coefficient must drop the target")
            self._entries[(x, y)] = (coeff, z)
        want = len(self.labels) * (len(self.labels) - 1) // 2
        if len(self._entries) != want:
            raise ValueError(
                f"table {name!r} lists {len(self._entries)} pairs, expected {want}"
            )
        # Each stored row as (x, y, sign, coeff, z): sign is +-1 for a real
        # +-2 coefficient with a target and 0 otherwise, so that a row of an
        # anticommuting pair is checked on the Cayley table alone.
        self.signed_rows = tuple(
            (x, y, _row_sign(coeff, z), coeff, z) for (x, y), (coeff, z) in self._entries.items()
        )

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BracketTable":
        brackets = []
        for row in payload["brackets"]:
            coeff = parse_scalar(row["coeff"])
            brackets.append((row["x"], row["y"], coeff, row.get("z")))
        return cls(payload["name"], payload["rotations"], payload.get("boosts", []), brackets)

    @classmethod
    @functools.cache
    def load(cls, name: str) -> "BracketTable":
        """The named data-file table, parsed once per process and shared."""
        if name not in TABLE_NAMES:
            raise KeyError(f"unknown bracket table {name!r}; have {TABLE_NAMES}")
        return cls.from_dict(json.loads(_data_text("tables", f"{name}.json")))

    def pairs(self) -> list[tuple[str, str, GaussianRational, str | None]]:
        return [(x, y, c, z) for (x, y), (c, z) in self._entries.items()]

    def lookup(self, x: str, y: str) -> tuple[GaussianRational, str | None]:
        """Commutator [x, y]; antisymmetry fills in the unstored order."""
        if x == y:
            return GaussianRational(0, 0), None
        if (x, y) in self._entries:
            return self._entries[(x, y)]
        coeff, z = self._entries[(y, x)]
        return -coeff, z

    def boost_signs(self) -> tuple[int, int, int] | None:
        """Signs e_k with r_k = e_k * s_i * s_j for cyclic (i, j, k).

        Read off the boost-boost rows: with anticommuting boosts,
        [s_i, s_j] = 2 s_i s_j, so an entry [s_i, s_j] = 2e * r_k pins
        r_k = e * s_i * s_j. Returns None for tables without boosts.
        """
        if not self.boosts:
            return None
        s1, s2, s3 = self.boosts
        out = []
        for (x, y), rot in (((s2, s3), self.rotations[0]),
                            ((s3, s1), self.rotations[1]),
                            ((s1, s2), self.rotations[2])):
            coeff, z = self.lookup(x, y)
            if z != rot or coeff.im != 0 or abs(coeff.re) != 2:
                raise ValueError(
                    f"table {self.name!r}: row [{x},{y}] does not have the 2*{rot} shape"
                )
            out.append(1 if coeff.re > 0 else -1)
        return tuple(out)


def _row_sign(coeff: GaussianRational, z: str | None) -> int:
    if z is None or coeff.im != 0 or abs(coeff.re) != 2:
        return 0
    return 1 if coeff.re > 0 else -1


_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")


def parse_word(text: str) -> tuple[GaussianRational, list[tuple[str, int]]]:
    """Split a relation word into a scalar prefix and (label, exponent) factors.

    Grammar: an optional scalar glued to the first factor with '*', then
    whitespace-separated factors `label` or `label^k`. A bare scalar literal
    is a valid word with no factors and wins over a label of the same
    spelling, so "i" always means the imaginary unit.
    """
    parts = text.split()
    if not parts:
        raise ValueError("empty word")
    scalar = GaussianRational(1, 0)
    factors: list[tuple[str, int]] = []
    first = parts[0]
    if "*" in first:
        head, _, rest = first.partition("*")
        scalar = parse_scalar(head)
        parts[0] = rest
    elif len(parts) == 1:
        try:
            return parse_scalar(first), []
        except ValueError:
            pass
    for part in parts:
        m = _FACTOR.match(part)
        if m is None:
            raise ValueError(f"bad factor {part!r} in word {text!r}")
        label, exp = m.group(1), m.group(2)
        factors.append((label, int(exp) if exp is not None else 1))
    return scalar, factors


def evaluate_word(
    text: str, assignment: Mapping[str, ExactMatrix], *, dim: int | None = None
) -> ExactMatrix:
    scalar, factors = parse_word(text)
    if dim is None:
        if not assignment:
            raise ValueError("cannot size a scalar word without an assignment or dim")
        dim = next(iter(assignment.values())).dim
    acc = ExactMatrix.identity(dim)
    for label, exp in factors:
        if label not in assignment:
            raise ValueError(f"word {text!r} uses unassigned label {label!r}")
        acc = acc * (assignment[label] ** exp)
    return acc.scale(scalar)


class RelationSet:
    """Named list of word equations over a fixed label set."""

    def __init__(self, name: str, labels: Sequence[str], relations: Iterable[tuple[str, str, str]]):
        self.name = name
        self.labels = tuple(labels)
        self.relations = []
        for rel_id, lhs, rhs in relations:
            for side in (lhs, rhs):
                _, factors = parse_word(side)
                for label, _ in factors:
                    if label not in self.labels:
                        raise ValueError(
                            f"relation {rel_id!r} uses label {label!r} outside {self.labels}"
                        )
            self.relations.append((rel_id, lhs, rhs))

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RelationSet":
        rels = [(r["id"], r["lhs"], r["rhs"]) for r in payload["relations"]]
        return cls(payload["name"], payload["labels"], rels)

    @classmethod
    def load(cls, name: str) -> "RelationSet":
        return cls.from_dict(json.loads(_data_text("relations", f"{name}.json")))


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a * b - b * a


def verify_bracket_table(
    table: BracketTable, assignment: Mapping[str, ExactMatrix]
) -> VerificationReport:
    """Check every stored bracket row against an explicit matrix assignment."""
    missing = [lab for lab in table.labels if lab not in assignment]
    if missing:
        raise ValueError(f"assignment misses labels {missing} of table {table.name!r}")
    report = VerificationReport(f"bracket-table-{table.name}")
    dim = assignment[table.labels[0]].dim
    zero = ExactMatrix.identity(dim).scale(GaussianRational(0, 0))
    for x, y, coeff, z in table.pairs():
        got = commutator(assignment[x], assignment[y])
        want = zero if z is None else assignment[z].scale(coeff)
        ok = got == want
        detail = ""
        if not ok:
            detail = f"[{x},{y}] = {format_matrix(got, bare=True)}, expected {format_matrix(want, bare=True)}"
        report.add(f"{table.name}:[{x},{y}]", ok, detail)
    return report


def verify_relations(
    relations: RelationSet, assignment: Mapping[str, ExactMatrix]
) -> VerificationReport:
    report = VerificationReport(f"relations-{relations.name}")
    for rel_id, lhs, rhs in relations.relations:
        left = evaluate_word(lhs, assignment)
        right = evaluate_word(rhs, assignment, dim=left.dim)
        ok = left == right
        detail = ""
        if not ok:
            detail = f"{lhs} = {format_matrix(left, bare=True)} but {rhs} = {format_matrix(right, bare=True)}"
        report.add(f"{relations.name}:{rel_id}", ok, detail)
    return report


@dataclass(frozen=True)
class ComponentMatch:
    """A successful table fit: which table, and who plays which role."""

    table: str
    boosts: tuple[int, int, int]
    rotations: tuple[int, int, int]

    def assignment(self, group: MatrixGroup, table: BracketTable) -> dict[str, ExactMatrix]:
        out = {}
        for lab, idx in zip(table.rotations, self.rotations):
            out[lab] = group.elements[idx]
        for lab, idx in zip(table.boosts, self.boosts):
            out[lab] = group.elements[idx]
        return out


def _neg_index(group: MatrixGroup) -> int | None:
    minus = group.elements[0].scale(_MINUS_ONE)
    if minus in group:
        return group.index_of(minus)
    return None


def _table_holds_on_indices(
    group: MatrixGroup, table: BracketTable, roles: Mapping[str, int], neg: int
) -> bool:
    """Integer-table check of all bracket rows, with a matrix fallback.

    Inside the group, [X, Y] is 0 when the pair commutes and 2XY when it
    anticommutes. So a commuting pair's row holds when it has no target,
    and an anticommuting pair's row holds when the table's row sign is
    +-1 (a real +-2 coefficient) and XY is +Z or -Z by that sign: both
    are Cayley-row lookups. Rows of pairs that do neither (which valid
    assignments never produce) fall back to matrices.
    """
    cay = group.cayley()
    neg_row = cay[neg]
    for x, y, sign, coeff, z in table.signed_rows:
        ix, iy = roles[x], roles[y]
        ixy = cay[ix][iy]
        iyx = cay[iy][ix]
        if ixy == iyx:
            if z is not None:
                return False
            continue
        if iyx == neg_row[ixy]:
            if not sign or ixy != (roles[z] if sign > 0 else neg_row[roles[z]]):
                return False
            continue
        got = commutator(group.elements[ix], group.elements[iy])
        want_zero = z is None
        if want_zero:
            if not all(got[i, j].is_zero() for i in range(got.dim) for j in range(got.dim)):
                return False
        elif got != group.elements[roles[z]].scale(coeff):
            return False
    return True


# Work done by the component search in this process: boost triples
# scanned, full bracket-row checks run, and closures taken to see that a
# triple generates the whole group. Triples minus row checks is what the
# square-signature memo skipped. Reports carry them under `timings.counters`.
COMPONENT_COUNTERS: Counter[str] = Counter(
    dict.fromkeys(("component.triples", "component.row_checks", "component.closures"), 0)
)


def _match_for_table(
    group: MatrixGroup, table: BracketTable, triples: Iterable[tuple[int, int, int]], neg: int
) -> ComponentMatch | None:
    """First triple, in scan order, that realizes the table on the whole group.

    The row check is decided once per square signature. Let the boosts
    s1, s2, s3 pairwise anticommute with s_i^2 = eps_i in {+1, -1}, and let
    r_k = e_k s_i s_j with the table's `boost_signs`. Then every pair of
    roles commutes or anticommutes, and each bracket is 0 or +-2 times the
    role with the remaining cyclic index, with the sign fixed by (e, eps):
    e.g. [r1, s2] = -2 e1 eps2 s3. The component tables name exactly
    those targets, so on one group the rows hold for every triple with the
    same (s1^2, s2^2, s3^2) or for none. A signature whose rows failed
    once is skipped for the rest of the scan. Only whether the triple
    generates the whole group still differs between such triples, and
    every returned triple passed both checks itself.
    """
    signs = table.boost_signs()
    if signs is None:
        return None
    e1, e2, e3 = signs
    cay = group.cayley()
    counters = COMPONENT_COUNTERS
    refuted: set[tuple[int, int, int]] = set()
    for s1, s2, s3 in triples:
        counters["component.triples"] += 1
        squares = (cay[s1][s1], cay[s2][s2], cay[s3][s3])
        if squares in refuted:
            continue
        r1 = cay[s2][s3] if e1 > 0 else cay[neg][cay[s2][s3]]
        r2 = cay[s3][s1] if e2 > 0 else cay[neg][cay[s3][s1]]
        r3 = cay[s1][s2] if e3 > 0 else cay[neg][cay[s1][s2]]
        roles = dict(zip(table.rotations, (r1, r2, r3)))
        roles.update(zip(table.boosts, (s1, s2, s3)))
        counters["component.row_checks"] += 1
        if not _table_holds_on_indices(group, table, roles, neg):
            refuted.add(squares)
            continue
        # The table must be realized on the whole group, not on a proper
        # subgroup: a triple like i times the rotations satisfies the rows
        # but generates only half the elements.
        counters["component.closures"] += 1
        if len(group.closure_indices((s1, s2, s3))) != group.order:
            continue
        return ComponentMatch(table.name, (s1, s2, s3), (r1, r2, r3))
    return None


def _anticommuting_triples(group: MatrixGroup):
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


def find_component_match(
    group: MatrixGroup,
    *,
    designated: Sequence[ExactMatrix] | None = None,
    tables: Sequence[str] = COMPONENT_TABLES,
) -> ComponentMatch | None:
    """First (table, boost triple) fit in deterministic search order.

    With three designated generators, only that triple is tried as boosts;
    otherwise all ordered anticommuting triples of square-scalar elements
    are swept, table by table. Within one table the bracket rows are
    decided once per square signature (s1^2, s2^2, s3^2) and only the
    closure check runs per triple (see `_match_for_table`), so the first
    triple found is the one a full per-triple scan would find. A
    designated triple is a scan of one, so nothing is skipped there.
    """
    if group.order != 16:
        raise ValueError(f"component tables describe order-16 groups, got order {group.order}")
    neg = _neg_index(group)
    if neg is None:
        return None
    if designated is not None:
        if len(designated) != 3:
            raise ValueError("a designated boost triple needs exactly three matrices")
        if any(m not in group for m in designated):
            raise ValueError("designated boosts must belong to the group")
        triples = [tuple(group.index_of(m) for m in designated)]
    else:
        triples = list(_anticommuting_triples(group))
    for name in tables:
        table = BracketTable.load(name)
        match = _match_for_table(group, table, triples, neg)
        if match is not None:
            return match
    return None


def classify_component(
    group: MatrixGroup, *, designated: Sequence[ExactMatrix] | None = None
) -> str:
    """Name the bracket table an order-16 matrix group realizes."""
    match = find_component_match(group, designated=designated)
    if match is None:
        raise LookupError("no bracket table matches this group")
    return match.table


def admitted_components(group: MatrixGroup) -> frozenset[str]:
    """Every table the group can realize, searched independently per table.

    Each table's scan checks the bracket rows once per square signature of
    the boost triple, the only thing they depend on (see `_match_for_table`).
    """
    if group.order != 16:
        raise ValueError(f"component tables describe order-16 groups, got order {group.order}")
    neg = _neg_index(group)
    if neg is None:
        return frozenset()
    triples = list(_anticommuting_triples(group))
    found = set()
    for name in COMPONENT_TABLES:
        table = BracketTable.load(name)
        if _match_for_table(group, table, triples, neg) is not None:
            found.add(name)
    return frozenset(found)
