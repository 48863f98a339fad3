"""Exact Gaussian-rational scalars and square matrices, plus a compact text form.

Scalars are complex numbers whose real and imaginary parts are rational.
Matrices are immutable and square, and hash by their entries, so they
serve directly as dictionary keys during group enumeration. A matrix with
one unit entry (1, i, -1 or -i) per row, in distinct columns, is held as a
(permutation, phase mod 4) form, the monomial group Z4 wr S_d: its
products, hashes and unit scalings are integer work, and its dense rows
are built only when read. Every other matrix is held as dense rows of
Gaussian rationals.
"""

from __future__ import annotations

import functools
import json
import re
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalarish = Union["GaussianRational", Fraction, int]


class ParseError(ValueError):
    """Raised when scalar or matrix text does not match the expected grammar."""

    def __init__(self, message: str, *, row: int | None = None, col: int | None = None):
        if row is not None and col is not None:
            message = f"{message} (entry row {row}, column {col})"
        super().__init__(message)
        self.row = row
        self.col = col


class GaussianRational:
    """Complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __add__(self, other: Scalarish) -> "GaussianRational":
        rhs = _coerce(other)
        if rhs is None:
            return NotImplemented
        return GaussianRational(self.re + rhs.re, self.im + rhs.im)

    __radd__ = __add__

    def __sub__(self, other: Scalarish) -> "GaussianRational":
        rhs = _coerce(other)
        if rhs is None:
            return NotImplemented
        return GaussianRational(self.re - rhs.re, self.im - rhs.im)

    def __rsub__(self, other: Scalarish) -> "GaussianRational":
        lhs = _coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs - self

    def __mul__(self, other: Scalarish) -> "GaussianRational":
        rhs = _coerce(other)
        if rhs is None:
            return NotImplemented
        return GaussianRational(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "GaussianRational":
        rhs = _coerce(other)
        if rhs is None:
            return NotImplemented
        norm = rhs.norm2()
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return GaussianRational(
            (self.re * rhs.re + self.im * rhs.im) / norm,
            (self.im * rhs.re - self.re * rhs.im) / norm,
        )

    def __rtruediv__(self, other: Scalarish) -> "GaussianRational":
        lhs = _coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs / self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({format_scalar(self)!r})"


def _coerce(value: object) -> GaussianRational | None:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
IMAG_UNIT = GaussianRational(0, 1)


# Work done in this process, one count per key. `cli.main` reports each
# command's share under `timings.counters`.
COUNTERS: Counter[str] = Counter({
    "product.monomial": 0,  # products of two unit-monomial matrices, on the (perm, phase) form
    "product.dense": 0,  # products of Gaussian-rational entries
    "iso.calls": 0,  # isomorphism tests
    "iso.fingerprint_rejects": 0,  # tests ended because the fingerprints differ
    "iso.nodes": 0,  # partial certificates tried by the backtracking
    "component.triples": 0,  # boost triples a component scan tests for generating order 16
    "component.row_checks": 0,  # bracket-row checks, at most one per table and generating triple
    "form.orbit": 0,  # invariant-form systems solved by phase propagation over index-pair orbits
    "search.tuples": 0,  # fourths the signature search visits, one per triple walked
})


class ExactMatrix:
    """Immutable square matrix over Gaussian rationals.

    A unit-monomial matrix (one nonzero entry per row, each a power of i,
    in distinct columns) carries the form (perm, phase): row r has its
    entry i^phase[r] in column perm[r]. The form is detected once, when
    the matrix is built from rows, and products, hashes, equality, scaling
    by a unit, inverse, transpose, conjugate, trace and scalar tests of
    such matrices work on it alone. Matrices made from the form build
    their dense rows only when something reads them through ``rows()``.
    Every other matrix is dense: it hashes by its rows, and its products
    walk only the nonzero entries of each row.
    """

    __slots__ = ("dim", "_rows", "_mono", "_hash")

    def __init__(self, rows: Iterable[Sequence[Scalarish]]):
        normalized: list[tuple[GaussianRational, ...]] = []
        for row in rows:
            entries = []
            for value in row:
                scalar = _coerce(value)
                if scalar is None:
                    raise TypeError(f"matrix entry {value!r} is not a scalar")
                entries.append(scalar)
            normalized.append(tuple(entries))
        n = len(normalized)
        if n == 0:
            raise ValueError("matrix must have at least one row")
        for row in normalized:
            if len(row) != n:
                raise ValueError(f"matrix must be square, got row of length {len(row)} in a {n}-row matrix")
        self.dim = n
        self._rows: tuple[tuple[GaussianRational, ...], ...] | None = tuple(normalized)
        self._mono = _monomial_form(normalized)
        self._hash: int | None = None

    @classmethod
    def identity(cls, dim: int) -> "ExactMatrix":
        if dim < 1:
            raise ValueError("matrix must have at least one row")
        return _from_form(*_identity_form(dim))

    def __getitem__(self, index: tuple[int, int]) -> GaussianRational:
        i, j = index
        if self._rows is None:
            perm, phase = self._mono
            # range() indexes like the rows would: negative j counts from
            # the end, and a column outside the matrix raises IndexError.
            return UNITS[phase[i]] if perm[i] == range(self.dim)[j] else ZERO
        return self._rows[i][j]

    def rows(self) -> tuple[tuple[GaussianRational, ...], ...]:
        if self._rows is None:
            zeros = (ZERO,) * self.dim
            self._rows = tuple(
                zeros[:col] + (UNITS[p],) + zeros[col + 1 :] for col, p in zip(*self._mono)
            )
        return self._rows

    def monomial_form(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """(perm, phase) of a unit-monomial matrix, None for a dense one.

        Row r holds i**phase[r] in column perm[r] and zeros elsewhere.
        """
        return self._mono

    def __mul__(self, other: object) -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self._mono is not None and other._mono is not None:
            COUNTERS["product.monomial"] += 1
            perm_a, phase_a = self._mono
            perm_b, phase_b = other._mono
            return _from_form(
                tuple([perm_b[k] for k in perm_a]),
                tuple([(p + phase_b[k]) & 3 for p, k in zip(phase_a, perm_a)]),
            )
        COUNTERS["product.dense"] += 1
        rows_b = [
            [(j, b) for j, b in enumerate(row) if not b.is_zero()] for row in other.rows()
        ]
        out: list[list[GaussianRational]] = [[ZERO] * self.dim for _ in range(self.dim)]
        for acc, row in zip(out, self.rows()):
            for k, a in enumerate(row):
                if a.is_zero():
                    continue
                for j, b in rows_b[k]:
                    acc[j] = acc[j] + a * b
        return ExactMatrix(out)

    def scale(self, scalar: Scalarish) -> "ExactMatrix":
        value = _coerce(scalar)
        if value is None:
            raise TypeError(f"{scalar!r} is not a scalar")
        if self._mono is not None:
            shift = _unit_phase(value)
            if shift is not None:
                perm, phase = self._mono
                return _from_form(perm, tuple([(p + shift) & 3 for p in phase]))
        return ExactMatrix([[value * entry for entry in row] for row in self.rows()])

    def __neg__(self) -> "ExactMatrix":
        return self.scale(MINUS_ONE)

    def __add__(self, other: object) -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return ExactMatrix(
            [
                [a + b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(self.rows(), other.rows())
            ]
        )

    def __sub__(self, other: object) -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self + (-other)

    def __pow__(self, exponent: int) -> "ExactMatrix":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ExactMatrix.identity(self.dim)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _flipped(self, conjugate: bool) -> "ExactMatrix":
        """Transpose of the monomial form, conjugated on request: entry
        (r, perm[r]) moves to (perm[r], r)."""
        perm, phase = self._mono
        new_perm = [0] * self.dim
        new_phase = [0] * self.dim
        for r, (col, p) in enumerate(zip(perm, phase)):
            new_perm[col] = r
            new_phase[col] = -p & 3 if conjugate else p
        return _from_form(tuple(new_perm), tuple(new_phase))

    def transpose(self) -> "ExactMatrix":
        if self._mono is not None:
            return self._flipped(conjugate=False)
        rows = self._rows
        return ExactMatrix([[rows[j][i] for j in range(self.dim)] for i in range(self.dim)])

    def conjugate(self) -> "ExactMatrix":
        if self._mono is not None:
            perm, phase = self._mono
            return _from_form(perm, tuple([-p & 3 for p in phase]))
        return ExactMatrix([[entry.conjugate() for entry in row] for row in self._rows])

    def trace(self) -> GaussianRational:
        if self._mono is not None:
            counts = [0, 0, 0, 0]  # diagonal entries 1, i, -1, -i
            for r, (col, p) in enumerate(zip(*self._mono)):
                if col == r:
                    counts[p] += 1
            return GaussianRational(counts[0] - counts[2], counts[1] - counts[3])
        total = ZERO
        for i in range(self.dim):
            total = total + self._rows[i][i]
        return total

    def inverse(self) -> "ExactMatrix":
        """Exact inverse: the conjugate transpose of a unit-monomial matrix,
        otherwise the right half of `row_reduce` on [A | I].

        Raises ValueError for singular matrices.
        """
        if self._mono is not None:
            return self._flipped(conjugate=True)
        n = self.dim
        augmented = [row + unit for row, unit in zip(self._rows, ExactMatrix.identity(n).rows())]
        reduced, pivots = row_reduce(augmented, n)
        if len(pivots) < n:
            raise ValueError("singular matrix")
        return ExactMatrix([row[n:] for row in reduced])

    def scalar_value(self) -> GaussianRational | None:
        """The scalar c when the matrix equals c times the identity, else None."""
        if self._mono is not None:
            perm, phase = self._mono
            if perm != _identity_form(self.dim)[0] or phase.count(phase[0]) != self.dim:
                return None
            return UNITS[phase[0]]
        diagonal = self._rows[0][0]
        for i in range(self.dim):
            for j in range(self.dim):
                entry = self._rows[i][j]
                if i == j:
                    if entry != diagonal:
                        return None
                elif not entry.is_zero():
                    return None
        return diagonal

    def is_identity(self) -> bool:
        return self._mono == _identity_form(self.dim)

    def key(self) -> str:
        """Canonical bare-form text of the matrix."""
        return format_matrix(self, bare=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if self._mono is not None or other._mono is not None:
            # The form is a function of the entries, so a monomial matrix
            # never equals a dense one.
            return self._mono == other._mono
        return self._rows == other._rows

    def __hash__(self) -> int:
        if self._hash is None:
            # `__eq__` compares forms whenever either side has one, and a
            # unit-monomial matrix always gets one, so equal matrices hash alike.
            self._hash = hash(self._mono if self._mono is not None else self._rows)
        return self._hash

    def __str__(self) -> str:
        return self.key()

    def __repr__(self) -> str:
        return f"ExactMatrix({self.key()!r})"


# The unit phases: i**p for p = 0..3.
UNITS = (ONE, IMAG_UNIT, MINUS_ONE, GaussianRational(0, -1))


def _unit_phase(value: GaussianRational) -> int | None:
    """p with value == i**p, or None when value is not a unit."""
    re, im = value.re, value.im
    if im == 0:
        return 0 if re == 1 else 2 if re == -1 else None
    if re == 0:
        return 1 if im == 1 else 3 if im == -1 else None
    return None


def _monomial_form(
    rows: Sequence[Sequence[GaussianRational]],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """(perm, phase) of a unit-monomial matrix, or None for any other."""
    perm = []
    phase = []
    for row in rows:
        found = None
        for j, value in enumerate(row):
            if value.is_zero():
                continue
            p = _unit_phase(value)
            if found is not None or p is None:
                return None
            found = (j, p)
        if found is None:
            return None
        perm.append(found[0])
        phase.append(found[1])
    if len(set(perm)) != len(perm):
        return None
    return tuple(perm), tuple(phase)


def _from_form(perm: tuple[int, ...], phase: tuple[int, ...]) -> ExactMatrix:
    """The unit-monomial matrix of a (perm, phase) form, without dense rows."""
    matrix = ExactMatrix.__new__(ExactMatrix)
    matrix.dim = len(perm)
    matrix._rows = None
    matrix._mono = (perm, phase)
    matrix._hash = None
    return matrix


@functools.cache
def _identity_form(dim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(range(dim)), (0,) * dim


def row_reduce(
    rows: Iterable[Sequence[GaussianRational]], width: int
) -> tuple[list[list[GaussianRational]], list[int]]:
    """Reduced row echelon form of ``rows`` on their first ``width`` columns.

    Gauss-Jordan elimination: each pivot row is scaled to a leading 1 and
    its column cleared in every other row; columns past ``width`` ride
    along. Returns the reduced rows and the pivot columns, the pivot of
    row r being ``pivots[r]``; the rows past the last pivot are zero on
    the first ``width`` columns.
    """
    matrix = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(matrix)) if not matrix[i][col].is_zero()), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = ONE / matrix[r][col]
        matrix[r] = [inv * v for v in matrix[r]]
        for i, row in enumerate(matrix):
            if i != r and not row[col].is_zero():
                factor = row[col]
                matrix[i] = [a - factor * b for a, b in zip(row, matrix[r])]
        pivots.append(col)
        if len(pivots) == len(matrix):
            break
    return matrix, pivots


def block_diag(*blocks: ExactMatrix) -> ExactMatrix:
    """Block-diagonal matrix assembled from square blocks."""
    if not blocks:
        raise ValueError("need at least one block")
    total = sum(block.dim for block in blocks)
    rows = [[ZERO] * total for _ in range(total)]
    offset = 0
    for block in blocks:
        for i in range(block.dim):
            for j in range(block.dim):
                rows[offset + i][offset + j] = block[i, j]
        offset += block.dim
    return ExactMatrix(rows)


_REAL = re.compile(r"-?\d+(?:/\d+)?")
_IMAG = re.compile(r"(-?)(\d+(?:/\d+)?)?i")
_COMBINED = re.compile(r"(-?\d+(?:/\d+)?)([+-])((?:\d+(?:/\d+)?)?)i")


def _fraction(token: str, original: str) -> Fraction:
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {original!r}") from None


# The unit tokens stored matrices are made of, read without a regex; the
# shared values are safe to hand out, as nothing changes a scalar after
# __init__.
_UNIT_TOKENS = dict(zip(("0", "1", "i", "-1", "-i"), (ZERO, *UNITS)))


def parse_scalar(text: str) -> GaussianRational:
    """Parse one scalar token.

    Accepted forms: a rational ("-3/4"), a rational multiple of i ("i",
    "-i", "3/4i"), or a sum of both with the sign between the parts
    ("1-i", "-1/2+3/4i"). No interior whitespace.
    """
    token = text.strip()
    unit = _UNIT_TOKENS.get(token)
    if unit is not None:
        return unit
    if not token:
        raise ParseError("empty scalar")
    if _REAL.fullmatch(token):
        return GaussianRational(_fraction(token, text))
    match = _IMAG.fullmatch(token)
    if match:
        magnitude = _fraction(match.group(2), text) if match.group(2) else Fraction(1)
        return GaussianRational(0, -magnitude if match.group(1) else magnitude)
    match = _COMBINED.fullmatch(token)
    if match:
        real = _fraction(match.group(1), text)
        magnitude = _fraction(match.group(3), text) if match.group(3) else Fraction(1)
        imag = -magnitude if match.group(2) == "-" else magnitude
        return GaussianRational(real, imag)
    raise ParseError(f"invalid scalar {text!r}")


def format_scalar(value: GaussianRational) -> str:
    """Canonical text for a scalar: lowest terms, no spaces, zero parts omitted."""
    if value.im == 0:
        return str(value.re)
    magnitude = abs(value.im)
    imag = "i" if magnitude == 1 else f"{magnitude}i"
    if value.re == 0:
        return ("-" + imag) if value.im < 0 else imag
    sign = "-" if value.im < 0 else "+"
    return f"{value.re}{sign}{imag}"


def parse_matrix(text: str, *, expect_dim: int | None = None) -> ExactMatrix:
    """Parse a square matrix from nested-list text.

    Both JSON documents with quoted entries ([["0","-i"],["-i","0"]]) and
    the bare form without quotes ([[0,-i],[-i,0]]) are accepted.
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty matrix text")
    rows = _rows_from_json(stripped)
    if rows is None:
        rows = _rows_from_bare(stripped)
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ParseError(
                f"matrix is not square: {n} rows but row {i} has {len(row)} entries"
            )
    if expect_dim is not None and n != expect_dim:
        raise ParseError(f"expected a {expect_dim}x{expect_dim} matrix, got {n}x{n}")
    entries: list[list[GaussianRational]] = []
    for i, row in enumerate(rows):
        out_row: list[GaussianRational] = []
        for j, token in enumerate(row):
            if isinstance(token, bool):
                raise ParseError("matrix entries must be strings or integers", row=i, col=j)
            if isinstance(token, int):
                out_row.append(GaussianRational(token))
                continue
            if not isinstance(token, str):
                raise ParseError("matrix entries must be strings or integers", row=i, col=j)
            try:
                out_row.append(parse_scalar(token))
            except ParseError as exc:
                raise ParseError(str(exc), row=i, col=j) from None
        entries.append(out_row)
    return ExactMatrix(entries)


def _rows_from_json(text: str) -> list | None:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return None
    except RecursionError:
        raise ParseError("JSON nesting too deep") from None
    if not isinstance(doc, list) or not all(isinstance(row, list) for row in doc):
        raise ParseError("matrix text must be a list of rows")
    return doc


def _rows_from_bare(text: str) -> list[list[str]]:
    if not text.startswith("[") or not text.endswith("]"):
        raise ParseError("matrix text must be wrapped in brackets")
    inner = text[1:-1].strip()
    rows: list[list[str]] = []
    pos = 0
    while pos < len(inner):
        char = inner[pos]
        if char == "[":
            end = inner.find("]", pos)
            if end < 0:
                raise ParseError("unterminated row in matrix text")
            rows.append([token.strip() for token in inner[pos + 1 : end].split(",")])
            pos = end + 1
            while pos < len(inner) and inner[pos] in ", \t\r\n":
                pos += 1
        else:
            raise ParseError(f"unexpected character {char!r} in matrix text")
    if not rows:
        raise ParseError("matrix text has no rows")
    return rows


def format_matrix(matrix: ExactMatrix, *, bare: bool = False) -> str:
    """Canonical text for a matrix, JSON style by default."""
    rows = [
        [format_scalar(matrix[i, j]) for j in range(matrix.dim)]
        for i in range(matrix.dim)
    ]
    if bare:
        return "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"
    return json.dumps(rows, separators=(",", ":"))
