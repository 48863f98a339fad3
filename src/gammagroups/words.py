"""Relation words, verification reports and the table roles of a group.

A relation word is an optional unit scalar i^p times a product of labelled
factors; a `RelationSet` is a named list of word equations. A word over
element indices reads as (p, index) off the Cayley table (`word_index`),
and the element it names is one more lookup, in the row of i^p
(`word_element`). The checks in `gammagroups.brackets` return a
`VerificationReport`. Only the commands that check words (`verify`,
`brackets`, `search`, `extensions`) import this module, so `analyze` and
`catalog list` do not compile it.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Iterable, Mapping, NamedTuple, Sequence

from .brackets import BracketTable, _failed_rows, find_component_match
from .catalog import CatalogEntry
from .data import load_json
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


_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")

# The unit scalars i^p a word may carry, by phase p; `scalar_indices` order.
UNIT_NAMES = ("1", "i", "-1", "-i")
_PHASES = {name: p for p, name in enumerate(UNIT_NAMES)}


@functools.cache
def parse_word(text: str) -> tuple[int, tuple[tuple[str, int], ...]]:
    """Split a relation word into the phase p of its scalar i^p and
    (label, exponent) factors.

    Grammar: an optional scalar 1, i, -1 or -i glued to the first factor
    with '*', then whitespace-separated factors `label` or `label^k`. A
    bare scalar is a valid word with no factors and wins over a label of
    the same spelling, so "i" always means the imaginary unit. Cached:
    every check reads the same few words, and the result is immutable.
    """
    parts = text.split()
    if not parts:
        raise ValueError("empty word")
    phase = 0
    first = parts[0]
    if "*" in first:
        head, _, parts[0] = first.partition("*")
        if head not in _PHASES:
            raise ValueError(f"scalar {head!r} in word {text!r} is not 1, i, -1 or -i")
        phase = _PHASES[head]
    elif len(parts) == 1 and first in _PHASES:
        return _PHASES[first], ()
    factors = []
    for part in parts:
        m = _FACTOR.match(part)
        if m is None:
            raise ValueError(f"bad factor {part!r} in word {text!r}")
        label, exp = m.group(1), m.group(2)
        factors.append((label, int(exp) if exp is not None else 1))
    return phase, tuple(factors)


def word_index(group: MatrixGroup, text: str, roles: Mapping[str, int]) -> tuple[int, int]:
    """(p, k) with the word equal to i^p times element k of the group, read
    off the Cayley table: ``roles`` maps each label to its element's index,
    and a power g^e takes e mod ord(g) lookups."""
    phase, factors = parse_word(text)
    cay = group.cayley()
    acc = 0
    for label, exp in factors:
        if label not in roles:
            raise ValueError(f"word {text!r} uses unassigned label {label!r}")
        for _ in range(exp % group.element_order(roles[label])):
            acc = cay[acc][roles[label]]
    return phase, acc


def word_element(group: MatrixGroup, text: str, roles: Mapping[str, int]) -> int:
    """The index of the element a word names, i^p * k: a lookup in the row
    of the scalar i^p. Raises ValueError when the group lacks that scalar,
    since then i^p * k lies outside the group too."""
    phase, k = word_index(group, text, roles)
    scalar = group.scalar_indices()[phase]
    if scalar is None:
        raise ValueError(f"word {text!r} is not an element of this group")
    return group.cayley()[scalar][k]


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


def entry_roles(group: MatrixGroup, entry: CatalogEntry, labels: Sequence[str]) -> dict[str, int]:
    """Each label's element index, from its word in the entry's `roles` map."""
    gens = entry.generator_roles(group)
    return {label: word_element(group, entry.roles[label], gens) for label in labels}


def table_roles(
    group: MatrixGroup, entry: CatalogEntry | None, table: BracketTable
) -> dict[str, int] | None:
    """The index of the element playing each of the table's roles in the group, if any.

    When the entry names this table, its `roles` words give the roles, or, if it has
    none, its three generators are the designated boost triple. Otherwise the roles of
    a table without boosts come from the first pair in index order that starts a
    realization (`_rotation_roles`), and those of a table with boosts from the first
    boost triple a scan of the group finds for the table. Raises ValueError where the
    component scan does (a group not of order 16, a bad designated triple), and when a
    word leaves the group.
    """
    named = entry is not None and entry.table == table.name
    if named and entry.roles:
        return entry_roles(group, entry, table.labels)
    if not table.boosts:
        return _rotation_roles(group, table)
    designated = entry.generators if named and len(entry.generators) == 3 else None
    match = find_component_match(group, designated=designated, tables=(table.name,))
    return match.roles(table) if match is not None else None


def _rotation_roles(group: MatrixGroup, table: BracketTable) -> dict[str, int] | None:
    """The roles of a table without boosts (q2) on the first ordered pair (x, y),
    in index order, on which every row holds.

    Every stored row of such a table has a target, and a row [x, y] = 2e*z holds
    only on an anticommuting pair, where [x, y] = 2xy: so the first row fixes
    z = e*x*y, and one walk over the ordered pairs meets every realization once.
    """
    neg = group.minus_index()
    if neg is None:  # then no two elements anticommute
        return None
    cay = group.cayley()
    x, y, sign, z = table.signed_rows[0]
    for ix, iy in itertools.product(range(group.order), repeat=2):
        ixy = cay[ix][iy]
        roles = {x: ix, y: iy, z: ixy if sign > 0 else cay[neg][ixy]}
        if next(_failed_rows(group, table, roles), None) is None:
            return roles
    return None
