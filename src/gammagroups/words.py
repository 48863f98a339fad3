"""Relation words, verification reports and the table roles of a group.

A relation word is an optional scalar times a product of labelled factors;
a `RelationSet` is a named list of word equations. The checks in
`gammagroups.brackets` return a `VerificationReport`. Only the commands
that evaluate words (`verify`, `brackets`, `search`, `extensions`) import
this module, so `analyze` and `catalog list` do not compile it.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, NamedTuple, Sequence

from .brackets import BracketTable, find_component_match
from .catalog import CatalogEntry
from .data import load_json
from .exact import ExactMatrix, GaussianRational, parse_scalar
from .groups import MatrixGroup


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
