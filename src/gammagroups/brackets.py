"""Commutator bracket tables and word relations, verified exactly.

A bracket table records the commutators [x, y] = xy - yx of a six-element
basis split into three "rotation" labels and three "boost" labels (the
three-label tables have no boost half). Tables live as JSON data files.
Every row is 0 or +-2 times a label, so one check on the Cayley table of
a group that holds the roles (`_failed_rows`) serves both
`verify_bracket_table` and the component classifier, which searches a
concrete order-16 group for a boost triple whose derived rotations
satisfy one of the known tables. One scan takes each boost-square
signature's first triple that generates an order-16 subgroup and checks
the rows on those triples alone; it classifies an order-16 group and gives
the component composition of a larger one. The triples come from
`MatrixGroup.anticommuting_triples`, the enumerator the signature search
uses too: one triple per sign class {s, -s} and per set of generators
with equal squares. Relation words are checked on the Cayley table too;
they and the reports the two checks return live in `gammagroups.words`,
which the checks import when called.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .data import load_json
from .exact import COUNTERS, UNITS, ExactMatrix, GaussianRational, format_matrix, parse_scalar
from .groups import MatrixGroup

if TYPE_CHECKING:
    from .words import RelationSet, VerificationReport

TABLE_NAMES = ("d", "q2", "f", "b", "c")

# Tables eligible for component classification, tried in this order.
COMPONENT_TABLES = ("d", "f", "b", "c")


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
        rows, seen = [], set()
        for x, y, coeff, z in brackets:
            for lab in (x, y) + ((z,) if z is not None else ()):
                if lab not in self.labels:
                    raise ValueError(f"unknown label {lab!r} in table {name!r}")
            if x == y:
                raise ValueError(f"bracket [{x},{x}] is identically zero; drop it")
            if frozenset((x, y)) in seen:
                raise ValueError(f"pair ({x},{y}) listed twice in table {name!r}")
            if coeff.is_zero() != (z is None):
                raise ValueError(f"entry [{x},{y}]: zero coefficient must drop the target")
            if coeff.im or abs(coeff.re) not in (0, 2):  # the rows `_failed_rows` decides
                raise ValueError(f"entry [{x},{y}]: coefficient {coeff} is not 0, 2 or -2")
            seen.add(frozenset((x, y)))
            rows.append((x, y, int(coeff.re) // 2, z))
        want = len(self.labels) * (len(self.labels) - 1) // 2
        if len(rows) != want:
            raise ValueError(f"table {name!r} lists {len(rows)} pairs, expected {want}")
        # Each stored row as (x, y, sign, z): [x, y] = 2 * sign * z.
        self.signed_rows = tuple(rows)
        self._boost_signs = self._read_boost_signs() if self.boosts else None

    def _read_boost_signs(self) -> tuple[int, int, int]:
        """The signs `boost_signs` returns, from the boost-boost rows."""
        signed = {}
        for x, y, sign, z in self.signed_rows:
            signed[(x, y)] = (sign, z)
            signed[(y, x)] = (-sign, z)
        s1, s2, s3 = self.boosts
        out = []
        for (x, y), rot in zip(((s2, s3), (s3, s1), (s1, s2)), self.rotations):
            sign, z = signed[(x, y)]
            if z != rot:  # so sign is 1 or -1
                raise ValueError(
                    f"table {self.name!r}: row [{x},{y}] does not have the 2*{rot} shape"
                )
            out.append(sign)
        return tuple(out)

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

    def boost_signs(self) -> tuple[int, int, int] | None:
        """Signs e_k with r_k = e_k * s_i * s_j for cyclic (i, j, k).

        Read off the boost-boost rows: with anticommuting boosts,
        [s_i, s_j] = 2 s_i s_j, so an entry [s_i, s_j] = 2e * r_k pins
        r_k = e * s_i * s_j. Returns None for tables without boosts. A
        table whose boost-boost rows lack that shape does not build.
        """
        return self._boost_signs


def verify_bracket_table(
    group: MatrixGroup, table: BracketTable, roles: Mapping[str, int]
) -> VerificationReport:
    """Check every stored bracket row on the group's Cayley table.

    ``roles`` maps each label of the table to the index of its element.
    A failing row's detail says whether the pair commutes, anticommutes
    or does neither, with the matrix of their product.
    """
    from .words import VerificationReport

    missing = [lab for lab in table.labels if lab not in roles]
    if missing:
        raise ValueError(f"the role map misses labels {missing} of table {table.name!r}")
    rows = _failed_rows(group, table, roles)
    failed = {(x, y): found for x, y, found in rows}
    report = VerificationReport(f"bracket-table-{table.name}", [])
    for x, y, sign, z in table.signed_rows:
        found = failed.get((x, y))
        detail = ""
        if found is not None:
            want = "0" if z is None else f"{2 * sign}*{z}"
            product = group.elements[group.mul(roles[x], roles[y])]
            detail = (
                f"{x} and {y} {found}, with {x} {y} = {format_matrix(product, bare=True)};"
                f" expected [{x},{y}] = {want}"
            )
        report.add(f"{table.name}:[{x},{y}]", found is None, detail)
    return report


def verify_relations(
    group: MatrixGroup, relations: RelationSet, roles: Mapping[str, int]
) -> VerificationReport:
    """Check each word equation on the Cayley table, ``roles`` mapping each
    label to its element's index. A side reads as i^p times an element
    (`words.word_index`), and i^l A = i^r B exactly when i^(r-l) B is A:
    one lookup in the row of that scalar. A group that lacks the scalar
    (i beside Q8) fails the relation, as no two of its elements differ by
    it. Matrices are formed only for a failure's detail."""
    from .words import VerificationReport, word_index

    cay, scalars, elements = group.cayley(), group.scalar_indices(), group.elements
    report = VerificationReport(f"relations-{relations.name}", [])
    for rel_id, lhs, rhs in relations.relations:
        (lp, li), (rp, ri) = word_index(group, lhs, roles), word_index(group, rhs, roles)
        ratio = scalars[(rp - lp) % 4]
        ok = ratio is not None and cay[ratio][ri] == li
        detail = ""
        if not ok:
            left, right = elements[li].scale(UNITS[lp]), elements[ri].scale(UNITS[rp])
            detail = f"{lhs} = {format_matrix(left, bare=True)} but {rhs} = {format_matrix(right, bare=True)}"
        report.add(f"{relations.name}:{rel_id}", ok, detail)
    return report


class ComponentMatch(NamedTuple):
    """A successful table fit: which table, and who plays which role."""

    table: str
    boosts: tuple[int, int, int]
    rotations: tuple[int, int, int]

    def roles(self, table: BracketTable) -> dict[str, int]:
        """The element index that plays each label of the table."""
        roles = dict(zip(table.rotations, self.rotations))
        roles.update(zip(table.boosts, self.boosts))
        return roles


def _failed_rows(
    group: MatrixGroup, table: BracketTable, roles: Mapping[str, int]
) -> Iterator[tuple[str, str, str]]:
    """(x, y, found) of each stored row that fails, in table order, read off
    the Cayley table; ``found`` says whether the pair commutes, anticommutes
    or does neither.

    Inside the group, [X, Y] is 0 when the pair commutes and 2XY when it
    anticommutes. So a commuting pair's row holds when it has no target,
    and an anticommuting pair's row holds when it has one and XY is +Z or
    -Z by the row's sign: both are Cayley-row lookups. A pair that does
    neither fails its row: every row is 0 or +-2 Z with Z in the group
    (`BracketTable` takes no other coefficient), and the finite group is
    conjugate to a unitary one, where XY - YX = +-2Z (three unitaries)
    forces XY = -YX.
    """
    cay, neg = group.cayley(), group.minus_index()
    neg_row = cay[neg] if neg is not None else None
    for x, y, sign, z in table.signed_rows:
        ix, iy = roles[x], roles[y]
        ixy = cay[ix][iy]
        iyx = cay[iy][ix]
        if ixy == iyx:
            if z is not None:
                yield x, y, "commute"
        elif neg_row is None or iyx != neg_row[ixy]:
            yield x, y, "neither commute nor anticommute"
        elif z is None or ixy != (roles[z] if sign > 0 else neg_row[roles[z]]):
            yield x, y, "anticommute"


def _match_if_rows_hold(
    group: MatrixGroup, table: BracketTable, signs: Sequence[int], boosts: tuple
) -> ComponentMatch | None:
    """The match of a boost triple, rotations r_k = e_k s_i s_j, if every row holds."""
    COUNTERS["component.row_checks"] += 1
    cay, neg = group.cayley(), group.minus_index()
    s1, s2, s3 = boosts
    rotations = tuple(
        cay[a][b] if e > 0 else cay[neg][cay[a][b]]
        for e, (a, b) in zip(signs, ((s2, s3), (s3, s1), (s1, s2)))
    )
    match = ComponentMatch(table.name, boosts, rotations)
    failed = next(_failed_rows(group, table, match.roles(table)), None)
    return match if failed is None else None


def _scanned_triple_generates(group: MatrixGroup, boosts: tuple) -> bool:
    """Whether a scanned boost triple generates a group of order 16.

    The premises, which the scan guarantees: s1, s2, s3 pairwise
    anticommute, each squares to +1 or -1, and -1 lies in the scanned
    group. Then <s1, s2, s3> has order 16 exactly when
    s1*s2*s3 is neither 1 nor -1. Proof: P = <s1, s2> = +-{1, s1, s2,
    s1s2} has order 8. s3 conjugates s1 and s2 to -s1 and -s2 and squares
    into P, so it normalizes P and <P, s3> = P u P*s3, of order 16 unless
    s3 lies in P. The elements of P that anticommute with both s1 and s2
    are +-s1s2 alone (+-1 commute with both, +-s1 with s1, +-s2 with s2),
    so s3 lies in P exactly when s3 = +-s1s2, that is when s1*s2*s3 =
    +-s1s2s1s2 = -+s1^2 s2^2 is 1 or -1.
    """
    cay, (s1, s2, s3) = group.cayley(), boosts
    return cay[cay[s1][s2]][s3] not in (0, group.minus_index())


# The square signatures (s1^2, s2^2, s3^2) of a boost triple, in scan order.
_SQUARE_SIGNATURES = tuple(itertools.product((1, -1), repeat=3))


def _generating_triples(group: MatrixGroup) -> list[tuple[int, int, int]]:
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
    found = []
    for signs in _SQUARE_SIGNATURES:
        for boosts in group.anticommuting_triples(signs):
            COUNTERS["component.triples"] += 1
            if _scanned_triple_generates(group, boosts):
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
    if group.minus_index() is None:
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
        triples = _generating_triples(group)
    for table in map(BracketTable.load, tables):
        if not table.boosts:
            continue
        signs = table.boost_signs()
        for boosts in triples:
            match = _match_if_rows_hold(group, table, signs, boosts)
            if match is not None:
                yield match
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
