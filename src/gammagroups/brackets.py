"""Commutator bracket tables and word relations, verified exactly.

A bracket table records the commutators [x, y] = xy - yx of a six-element
basis split into three "rotation" labels and three "boost" labels (the
three-label tables have no boost half). Tables live as JSON data files and
are verified against explicit matrix assignments. The component classifier
searches a concrete order-16 group for a boost triple whose derived
rotations satisfy one of the known tables. One scan takes each boost-square
signature's first triple that generates an order-16 subgroup and checks
the rows on those triples alone; it classifies an order-16 group and gives
the component composition of a larger one. The triples come from
`MatrixGroup.anticommuting_triples`, the enumerator the signature search
uses too: one triple per sign class {s, -s} and per set of generators
with equal squares.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .data import load_json
from .exact import COUNTERS, ExactMatrix, GaussianRational, format_matrix, parse_scalar
from .groups import MatrixGroup

TABLE_NAMES = ("d", "q2", "f", "b", "c")

# Tables eligible for component classification, tried in this order.
COMPONENT_TABLES = ("d", "f", "b", "c")


class CheckResult(NamedTuple):
    check_id: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"id": self.check_id, "passed": self.passed, "detail": self.detail}


class VerificationReport(NamedTuple):
    name: str
    checks: list[CheckResult]

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
        # Each stored row as (x, y, sign, z): sign is +-1 for a real +-2
        # coefficient with a target and 0 otherwise, so that a row of an
        # anticommuting pair is checked on the Cayley table alone.
        self.signed_rows = tuple(
            (x, y, _row_sign(coeff, z), z) for (x, y), (coeff, z) in self._entries.items()
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
        return cls.from_dict(load_json("tables", f"{name}.json"))

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
        return cls.from_dict(load_json("relations", f"{name}.json"))


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a * b - b * a


def verify_bracket_table(
    table: BracketTable, assignment: Mapping[str, ExactMatrix]
) -> VerificationReport:
    """Check every stored bracket row against an explicit matrix assignment."""
    missing = [lab for lab in table.labels if lab not in assignment]
    if missing:
        raise ValueError(f"assignment misses labels {missing} of table {table.name!r}")
    report = VerificationReport(f"bracket-table-{table.name}", [])
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
    report = VerificationReport(f"relations-{relations.name}", [])
    for rel_id, lhs, rhs in relations.relations:
        left = evaluate_word(lhs, assignment)
        right = evaluate_word(rhs, assignment, dim=left.dim)
        ok = left == right
        detail = ""
        if not ok:
            detail = f"{lhs} = {format_matrix(left, bare=True)} but {rhs} = {format_matrix(right, bare=True)}"
        report.add(f"{relations.name}:{rel_id}", ok, detail)
    return report


class ComponentMatch(NamedTuple):
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
    """Integer-table check of all bracket rows of a component table.

    Inside the group, [X, Y] is 0 when the pair commutes and 2XY when it
    anticommutes. So a commuting pair's row holds when it has no target,
    and an anticommuting pair's row holds when the table's row sign is
    +-1 (a real +-2 coefficient) and XY is +Z or -Z by that sign: both
    are Cayley-row lookups. A pair that does neither fails its row: every
    component row is 0 or +-2 Z with Z in the group, and the finite group
    is conjugate to a unitary one, where XY - YX = +-2Z (three unitaries)
    forces XY = -YX.
    """
    cay = group.cayley()
    neg_row = cay[neg]
    for x, y, sign, z in table.signed_rows:
        ix, iy = roles[x], roles[y]
        ixy = cay[ix][iy]
        iyx = cay[iy][ix]
        if ixy == iyx:
            if z is not None:
                return False
        elif iyx != neg_row[ixy] or not sign:
            return False
        elif ixy != (roles[z] if sign > 0 else neg_row[roles[z]]):
            return False
    return True


def _rotations_if_rows_hold(
    group: MatrixGroup, table: BracketTable, signs: Sequence[int], boosts: tuple, neg: int
) -> tuple[int, int, int] | None:
    """The rotations r_k = e_k s_i s_j of a boost triple, if every row holds."""
    COUNTERS["component.row_checks"] += 1
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


def _generating_triples(group: MatrixGroup, neg: int) -> list[tuple[int, int, int]]:
    """Each square signature's first boost triple, in increasing (s1, s2,
    s3), that generates an order-16 subgroup; sorted into that scan order.

    A boost triple is an ordered triple of pairwise anticommuting
    non-scalar elements whose squares are +1 or -1. Only the canonical
    ones are walked (`MatrixGroup.anticommuting_triples`), and the first
    that generates is the full ordered scan's: negating a generator, or
    swapping two with equal squares, keeps the squares, the
    anticommutation and the group, and makes a non-canonical triple
    smaller. Each visited triple is tested by one Cayley lookup
    (`_scanned_triple_generates`). The presentation group of a signature
    (s_i^2 = eps_i, s_i s_j = -s_j s_i, -1 central of order two) has at
    most 16 elements, so a triple that generates 16 generates it with
    trivial kernel (von Dyck). Any two such triples of one signature are
    then swapped by an isomorphism of their groups that fixes -1 and
    carries the rotations r_k = e_k s_i s_j along, so a table's rows hold
    on all of them or on none. A triple that generates fewer elements may
    pass rows that no order-16 subgroup realizes on it (i times the Pauli
    matrices, of order 8, pass table b in the Pauli group, which realizes
    d and f), so it is never checked.
    """
    cay = group.cayley()
    found = []
    for signs in _SQUARE_SIGNATURES:
        for boosts in group.anticommuting_triples(signs):
            COUNTERS["component.triples"] += 1
            if _scanned_triple_generates(cay, boosts, neg):
                found.append(boosts)
                break
    return sorted(found)


def _component_scan(
    group: MatrixGroup, tables: Sequence[str], designated: Sequence[ExactMatrix] | None
) -> Iterator[ComponentMatch]:
    """Each table's first boost triple, in scan order, realizing it on an
    order-16 subgroup of the group.

    Matches are yielded in table order, and tables no such subgroup
    realizes are left out. The triples are the designated one, if it
    generates the whole group (by closure: it need not meet the premises
    of `_scanned_triple_generates`), or else `_generating_triples`; each
    table's match is the first of them whose rows hold.
    """
    neg = group.minus_index()
    if neg is None:
        return
    if designated is not None:
        if len(designated) != 3:
            raise ValueError("a designated boost triple needs exactly three matrices")
        if any(m not in group for m in designated):
            raise ValueError("designated boosts must belong to the group")
        boosts = tuple(group.index_of(m) for m in designated)
        COUNTERS["component.triples"] += 1
        triples = [boosts] if len(group.closure_indices(boosts)) == group.order else []
    else:
        triples = _generating_triples(group, neg)
    for table in map(BracketTable.load, tables):
        if not table.boosts:
            continue
        signs = table.boost_signs()
        for boosts in triples:
            rotations = _rotations_if_rows_hold(group, table, signs, boosts, neg)
            if rotations is not None:
                yield ComponentMatch(table.name, boosts, rotations)
                break


def find_component_match(
    group: MatrixGroup,
    *,
    designated: Sequence[ExactMatrix] | None = None,
    tables: Sequence[str] = COMPONENT_TABLES,
) -> ComponentMatch | None:
    """The first of the tables, in order, that the order-16 group realizes,
    with its first boost triple in scan order (see `_component_scan`).

    With three designated generators, only that triple is tried as boosts.
    """
    if group.order != 16:
        raise ValueError(f"component tables describe order-16 groups, got order {group.order}")
    return next(_component_scan(group, tables, designated), None)


def component_composition(group: MatrixGroup) -> frozenset[str]:
    """Every component table that some order-16 subgroup of the group
    realizes, from one scan of the group's own table (`_component_scan`).

    On an order-16 group, these are the tables it realizes.
    """
    return frozenset(match.table for match in _component_scan(group, COMPONENT_TABLES, None))
