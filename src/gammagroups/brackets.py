"""Commutator bracket tables and word relations, verified exactly.

A bracket table records the commutators [x, y] = xy - yx of a six-element
basis split into three "rotation" labels and three "boost" labels (the
three-label tables have no boost half). Tables live as JSON data files and
are verified against explicit matrix assignments. The component classifier
searches a concrete order-16 group for a boost triple whose derived
rotations satisfy one of the known tables, in one scan that checks the
rows once per table and square signature of the triple.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Iterator, Mapping, Sequence

from .exact import ExactMatrix, GaussianRational, format_matrix, parse_scalar
from .groups import MatrixGroup, mask_indices

TABLE_NAMES = ("d", "q2", "f", "b", "c")

# Tables eligible for component classification, tried in this order.
COMPONENT_TABLES = ("d", "f", "b", "c")

_TWO = GaussianRational(2, 0)


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


# Work done by the component scan in this process: boost triples visited,
# bracket-row checks (one per table and boost-square signature, plus one
# per match) and triples tested for generating the whole group (by one
# Cayley lookup, or a closure for a designated triple). Reports carry them
# under `timings.counters`.
COMPONENT_COUNTERS: Counter[str] = Counter(
    dict.fromkeys(("component.triples", "component.row_checks", "component.closures"), 0)
)


def _rotations_if_rows_hold(
    group: MatrixGroup, table: BracketTable, signs: Sequence[int], boosts: tuple, neg: int
) -> tuple[int, int, int] | None:
    """The rotations r_k = e_k s_i s_j of a boost triple, if every row holds."""
    COMPONENT_COUNTERS["component.row_checks"] += 1
    cay = group.cayley()
    s1, s2, s3 = boosts
    rotations = tuple(
        cay[a][b] if e > 0 else cay[neg][cay[a][b]]
        for e, (a, b) in zip(signs, ((s2, s3), (s3, s1), (s1, s2)))
    )
    roles = dict(zip(table.rotations, rotations))
    roles.update(zip(table.boosts, boosts))
    return rotations if _table_holds_on_indices(group, table, roles, neg) else None


def _scanned_triple_generates(cay: Sequence[Sequence[int]], boosts: tuple, neg: int) -> bool:
    """Whether a scanned boost triple generates a group of order 16.

    The premises, which the scan guarantees: s1, s2, s3 pairwise
    anticommute, each squares to +1 or -1, and -1 (index ``neg``) lies in
    the scanned group. Then <s1, s2, s3> has order 16 exactly when
    s1*s2*s3 is neither 1 nor -1. Proof: P = <s1, s2> = +-{1, s1, s2,
    s1s2} has order 8. s3 conjugates s1 and s2 to -s1 and -s2 and squares
    into P, so it normalizes P and <P, s3> = P u P*s3, of order 16 unless
    s3 lies in P. The elements of P that anticommute with both s1 and s2
    are +-s1s2 alone (+-1 commute with both, +-s1 with s1, +-s2 with s2),
    so s3 lies in P exactly when s3 = +-s1s2, that is when s1*s2*s3 =
    +-s1s2s1s2 = -+s1^2 s2^2 is 1 or -1.
    """
    s1, s2, s3 = boosts
    return cay[cay[s1][s2]][s3] not in (0, neg)


# The square signatures (s1^2, s2^2, s3^2) of a boost triple, in scan order.
_SQUARE_SIGNATURES = tuple(itertools.product((1, -1), repeat=3))


def _signature_triples(group: MatrixGroup, signs: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """The boost triples of one square signature, in increasing (s1, s2, s3).

    A boost triple is an ordered triple of pairwise anticommuting
    non-scalar elements whose squares are +1 or -1, here ``signs``.
    """
    squares = group.unit_square_masks()
    anti = group.commutation_masks()[1]
    e1, e2, e3 = signs
    for s1 in mask_indices(squares[e1]):
        for s2 in mask_indices(anti[s1] & squares[e2]):
            for s3 in mask_indices(anti[s1] & anti[s2] & squares[e3]):
                yield s1, s2, s3


def _component_scan(
    group: MatrixGroup, tables: Sequence[str], designated: Sequence[ExactMatrix] | None
) -> Iterator[ComponentMatch]:
    """Each table's first boost triple, in scan order, realizing it on the group.

    Matches are yielded in table order, and tables the group does not
    realize are left out. The triples are the designated one, or else
    every boost triple in increasing (s1, s2, s3): the scan order. They
    are enumerated per square signature (`_signature_triples`), and
    merged back into scan order per table.

    The bracket rows depend only on the square signature (s1^2, s2^2,
    s3^2): with s_i^2 = eps_i and r_k = e_k s_i s_j by the table's
    `boost_signs`, every pair of roles commutes or anticommutes, and each
    bracket is 0 or +-2 times the role with the remaining cyclic index,
    with the sign fixed by (e, eps): e.g. [r1, s2] = -2 e1 eps2 s3. The
    component tables name exactly those targets. So the rows are checked
    once per (table, signature), on the signature's first triple. A
    table's match is then the first triple of its admitted signatures
    that generates the whole group (a triple like i times the rotations
    satisfies the rows but generates only half of it), and its rows are
    checked again on that triple. A scanned triple is tested by one
    Cayley lookup (`_scanned_triple_generates`); a designated one, which
    need not meet that test's premises, is closed.
    """
    if group.order != 16:
        raise ValueError(f"component tables describe order-16 groups, got order {group.order}")
    neg = group.minus_index()
    if neg is None:
        return
    if designated is not None:
        if len(designated) != 3:
            raise ValueError("a designated boost triple needs exactly three matrices")
        if any(m not in group for m in designated):
            raise ValueError("designated boosts must belong to the group")
        by_signature = [[tuple(group.index_of(m) for m in designated)]]
    else:
        by_signature = [list(_signature_triples(group, signs)) for signs in _SQUARE_SIGNATURES]
    COMPONENT_COUNTERS["component.triples"] += sum(map(len, by_signature))
    cay = group.cayley()
    for table in map(BracketTable.load, tables):
        if not table.boosts:
            continue
        signs = table.boost_signs()
        admitted = [
            listed for listed in by_signature
            if listed and _rotations_if_rows_hold(group, table, signs, listed[0], neg) is not None
        ]
        for boosts in heapq.merge(*admitted):
            COMPONENT_COUNTERS["component.closures"] += 1
            if (
                _scanned_triple_generates(cay, boosts, neg) if designated is None
                else len(group.closure_indices(boosts)) == group.order
            ):
                rotations = _rotations_if_rows_hold(group, table, signs, boosts, neg)
                if rotations is None:
                    raise RuntimeError(
                        f"table {table.name!r}: rows differ between triples of one square signature"
                    )
                yield ComponentMatch(table.name, boosts, rotations)
                break


def find_component_match(
    group: MatrixGroup,
    *,
    designated: Sequence[ExactMatrix] | None = None,
    tables: Sequence[str] = COMPONENT_TABLES,
) -> ComponentMatch | None:
    """The first of the tables, in order, that the group realizes, with its
    first boost triple in scan order (see `_component_scan`).

    With three designated generators, only that triple is tried as boosts.
    """
    return next(_component_scan(group, tables, designated), None)


def admitted_components(group: MatrixGroup) -> frozenset[str]:
    """Every component table the group realizes, from one scan."""
    return frozenset(match.table for match in _component_scan(group, COMPONENT_TABLES, None))


def component_composition(group: MatrixGroup) -> frozenset[str]:
    """Every component table that some order-16 subgroup of the group
    realizes: the union of `admitted_components` over
    `subgroups_of_order(16)`, from one scan of the group's own table.

    A boost triple that passes `_scanned_triple_generates` generates an
    order-16 subgroup, the three-generator presentation group with
    trivial kernel (von Dyck), so any two such triples of one square
    signature are swapped by an isomorphism of their groups, and a
    table's rows hold on all of them or on none. Within one order-16
    group the rows of a signature agree on every triple, generating or
    not (`_component_scan`). So a table is in the composition exactly when
    its rows hold on the first generating triple of some signature, and
    each signature's rows are checked once, on that triple.
    """
    neg = group.minus_index()
    if neg is None:
        return frozenset()
    cay = group.cayley()
    tables = [(table, table.boost_signs()) for table in map(BracketTable.load, COMPONENT_TABLES)]
    found: set[str] = set()
    for signature in _SQUARE_SIGNATURES:
        for boosts in _signature_triples(group, signature):
            COMPONENT_COUNTERS["component.triples"] += 1
            COMPONENT_COUNTERS["component.closures"] += 1
            if _scanned_triple_generates(cay, boosts, neg):
                found.update(
                    table.name for table, signs in tables
                    if _rotations_if_rows_hold(group, table, signs, boosts, neg) is not None
                )
                break
    return frozenset(found)
