"""Tests for the exact scalar/matrix layer and its text grammar."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gammagroups import catalog, exact
from gammagroups.exact import (
    COUNTERS,
    ExactMatrix,
    GaussianRational,
    IMAG_UNIT,
    ONE,
    ParseError,
    ZERO,
    block_diag,
    format_matrix,
    format_scalar,
    parse_matrix,
    parse_scalar,
)
from gammagroups.groups import generate_closure

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)


def _square_rows(n: int):
    return st.lists(st.lists(gaussians, min_size=n, max_size=n), min_size=n, max_size=n)


square_matrices = st.integers(min_value=1, max_value=4).flatmap(_square_rows).map(ExactMatrix)


def _matrix_triples(n: int):
    one = st.lists(st.lists(gaussians, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.tuples(one, one, one)


matrix_triples = (
    st.integers(min_value=1, max_value=4)
    .flatmap(_matrix_triples)
    .map(lambda t: tuple(ExactMatrix(rows) for rows in t))
)


@settings(max_examples=40, deadline=None)
@given(matrix_triples)
def test_matrix_multiplication_associates(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(matrix_triples)
def test_matrix_distributivity(triple):
    a, b, c = triple
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(gaussians, gaussians, gaussians)
def test_scalar_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians)
def test_scalar_additive_inverse(a):
    assert a + (-a) == ZERO


@given(gaussians)
def test_scalar_multiplicative_inverse(a):
    assume(not a.is_zero())
    assert a * (ONE / a) == ONE


@given(gaussians)
def test_scalar_conjugate_norm(a):
    assert (a * a.conjugate()).re == a.norm2()
    assert (a * a.conjugate()).im == 0


def test_scalar_small_facts():
    assert GaussianRational(1, 1) * GaussianRational(1, -1) == GaussianRational(2)
    i2 = IMAG_UNIT * IMAG_UNIT
    assert i2 == GaussianRational(-1)
    assert i2 * i2 == ONE


@given(gaussians)
def test_scalar_text_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


def test_scalar_canonical_text():
    assert format_scalar(ZERO) == "0"
    assert format_scalar(GaussianRational(Fraction(-3, 4))) == "-3/4"
    assert format_scalar(GaussianRational(0, -1)) == "-i"
    assert format_scalar(GaussianRational(1, -1)) == "1-i"
    assert format_scalar(GaussianRational(Fraction(-1, 2), Fraction(3, 4))) == "-1/2+3/4i"
    assert format_scalar(parse_scalar("2/4i")) == "1/2i"


@pytest.mark.parametrize("token", ["0", "1", "-1", "i", "-i"])
@pytest.mark.parametrize("padding", ["", " ", "\t", " \n "])
def test_unit_tokens_match_the_regex_path(token, padding, monkeypatch):
    text = f"{padding}{token}{padding}"
    looked_up = parse_scalar(text)
    monkeypatch.setattr(exact, "_UNIT_TOKENS", {})
    assert looked_up == parse_scalar(text)
    assert format_scalar(looked_up) == token


@pytest.mark.parametrize("bad", ["", "+1", "1++i", "i1", "1 + i", "2/0", "1/0i", "x"])
def test_scalar_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


def test_readme_scalar_spellings_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listing = readme[readme.index("scalars accept forms like"):]
    spellings = re.findall(r"`([^`]+)`", listing[:listing.index(":")])
    assert len(spellings) >= 5, spellings
    for text in spellings:
        assert format_scalar(parse_scalar(text)) == text


@given(square_matrices)
def test_matrix_text_round_trip(m):
    assert parse_matrix(format_matrix(m)) == m
    assert parse_matrix(format_matrix(m, bare=True)) == m


def test_matrix_known_product():
    diag = parse_matrix("[[1,0],[0,-1]]")
    anti = parse_matrix("[[0,-i],[i,0]]")
    assert format_matrix(diag * anti, bare=True) == "[[0,-i],[-i,0]]"
    assert format_matrix(anti * diag, bare=True) == "[[0,i],[i,0]]"


def test_matrix_adjoint_and_trace():
    m = parse_matrix('[["0","-i"],["-i","0"]]')
    assert m.transpose().conjugate() == parse_matrix("[[0,i],[i,0]]")
    assert m.trace() == ZERO
    assert (m * m.transpose().conjugate()).is_identity()


def test_matrix_powers():
    m = parse_matrix("[[0,1],[i,0]]")
    assert (m * m).scalar_value() == IMAG_UNIT
    assert (m ** 8).is_identity()
    assert m ** 0 == ExactMatrix.identity(2)
    assert m ** -1 == m.inverse()


@given(square_matrices)
def test_matrix_inverse_property(m):
    try:
        inv = m.inverse()
    except ValueError:
        assume(False)
    assert (m * inv).is_identity()
    assert (inv * m).is_identity()


def test_matrix_inverse_singular():
    with pytest.raises(ValueError):
        parse_matrix("[[1,1],[1,1]]").inverse()


def scalars(*texts):
    return [parse_scalar(text) for text in texts]


def test_row_reduce_gives_the_reduced_echelon_form():
    # Rank 2 over four columns: the third row is the sum of the first two,
    # and the first pivot sits in the second row.
    rows = [
        scalars("0", "1", "i", "1"),
        scalars("2", "0", "4", "2i"),
        scalars("2", "1", "4+i", "1+2i"),
    ]
    reduced, pivots = exact.row_reduce(rows, 4)
    assert pivots == [0, 1]
    assert reduced == [scalars("1", "0", "2", "i"), scalars("0", "1", "i", "1"), [ZERO] * 4]
    # A swap of rows: the columns past the width ride along.
    reduced, pivots = exact.row_reduce([scalars("0", "i", "1", "0"), scalars("2", "0", "0", "1")], 2)
    assert pivots == [0, 1]
    assert reduced == [scalars("1", "0", "0", "1/2"), scalars("0", "1", "-i", "0")]


def test_matrix_scalar_value():
    assert parse_matrix("[[0,1],[1,0]]").scalar_value() is None
    assert parse_matrix("[[-i,0],[0,-i]]").scalar_value() == GaussianRational(0, -1)
    assert ExactMatrix.identity(3).is_identity()
    with pytest.raises(ValueError):
        ExactMatrix.identity(0)


def test_matrix_accepts_integer_json():
    m = parse_matrix("[[0,1],[1,0]]")
    assert m[0, 1] == ONE


def test_matrix_parse_reports_entry_position():
    with pytest.raises(ParseError) as excinfo:
        parse_matrix('[["1","oops"],["0","1"]]')
    assert excinfo.value.row == 0
    assert excinfo.value.col == 1
    assert "row 0" in str(excinfo.value)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "[[1,0],[1]]",
        "[[1,0],[0,1]",
        "[[0.5,0],[0,1]]",
        '{"a":1}',
        "[1,0]",
    ],
)
def test_matrix_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_matrix(bad)


def test_matrix_expected_dimension():
    with pytest.raises(ParseError):
        parse_matrix("[[1,0],[0,1]]", expect_dim=4)


def test_block_diag():
    a = parse_matrix("[[0,1],[1,0]]")
    b = parse_matrix("[[i]]")
    stacked = block_diag(a, b)
    assert stacked.dim == 3
    assert stacked[0, 1] == ONE
    assert stacked[2, 2] == IMAG_UNIT
    assert stacked[0, 2] == ZERO


def test_matrix_is_hashable():
    a = parse_matrix("[[0,-i],[-i,0]]")
    b = parse_matrix('[["0","-i"],["-i","0"]]')
    assert a == b
    assert len({a, b}) == 1


# ---------------------------------------------------------------------------
# The unit-monomial form against the dense arithmetic it replaces.

UNITS = (ONE, IMAG_UNIT, GaussianRational(-1), GaussianRational(0, -1))

# The binary tetrahedral group 2T: quaternion i, j and (1+i+j+k)/2, whose
# entries (+-1+-i)/2 keep it off the monomial form.
TWO_T = [
    parse_matrix("[[i,0],[0,-i]]"),
    parse_matrix("[[0,1],[-1,0]]"),
    parse_matrix("[[1/2+1/2i,1/2+1/2i],[-1/2+1/2i,1/2-1/2i]]"),
]


def random_monomial(rng, dim):
    perm = list(range(dim))
    rng.shuffle(perm)
    return ExactMatrix(
        [[UNITS[rng.randrange(4)] if j == perm[i] else ZERO for j in range(dim)] for i in range(dim)]
    )


def dense_product(a, b):
    """Rows of a*b summed entry by entry (zero terms skipped)."""
    n = a.dim
    rows_a, rows_b = a.rows(), b.rows()
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if rows_a[i][k].is_zero():
                continue
            for j in range(n):
                if not rows_b[k][j].is_zero():
                    rows[i][j] = rows[i][j] + rows_a[i][k] * rows_b[k][j]
    return tuple(tuple(row) for row in rows)


def bare_text(rows):
    return "[" + ",".join("[" + ",".join(format_scalar(v) for v in row) + "]" for row in rows) + "]"


def product_path(a, b):
    """Which product counter a*b moves."""
    before = dict(COUNTERS)
    a * b
    moved = [name for name, count in COUNTERS.items() if count != before[name]]
    assert len(moved) == 1
    return moved[0]


def random_pairs(dims=range(1, 9), per_dim=12):
    rng = random.Random(20070)
    return [
        (random_monomial(rng, dim), random_monomial(rng, dim)) for dim in dims for _ in range(per_dim)
    ]


class TestMonomialForm:
    @pytest.mark.parametrize("a,b", random_pairs())
    def test_product_matches_the_dense_product(self, a, b):
        assert product_path(a, b) == "product.monomial"
        c = a * b
        assert c.rows() == dense_product(a, b)
        assert c == ExactMatrix(dense_product(a, b))
        assert c.key() == bare_text(dense_product(a, b))

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_catalog_products_match_the_dense_product(self, name):
        group = catalog.catalog_group(name)
        for g in catalog.catalog_entry(name).generators:
            for x in group.elements:
                right = dense_product(x, g)
                assert (x * g).rows() == right
                assert (x * g).key() == bare_text(right)
                assert (g * x).rows() == dense_product(g, x)

    @pytest.mark.parametrize("a,b", random_pairs(per_dim=4))
    def test_key_is_the_text_of_the_materialized_rows(self, a, b):
        for m in (a, a * b, a.inverse(), ExactMatrix.identity(a.dim)):
            assert m.key() == format_matrix(ExactMatrix(m.rows()), bare=True)
            assert m.key() == bare_text(m.rows())
            assert hash(m) == hash(ExactMatrix(m.rows()))

    @pytest.mark.parametrize("a,b", random_pairs(per_dim=2))
    def test_entries_read_like_the_materialized_rows(self, a, b):
        m = a * b
        rows = (a * b).rows()  # materialized on another copy, so m reads its form
        n = m.dim
        for i in range(-n, n):
            for j in range(-n, n):
                assert m[i, j] == rows[i][j]
        for index in ((0, n), (n, 0), (0, -n - 1)):
            with pytest.raises(IndexError):
                m[index]

    @pytest.mark.parametrize("a,_", random_pairs(per_dim=4))
    def test_unary_operations_match_their_dense_results(self, a, _):
        n = a.dim
        rows = a.rows()
        transposed = tuple(tuple(rows[j][i] for j in range(n)) for i in range(n))
        assert a.transpose().rows() == transposed
        assert a.conjugate().rows() == tuple(tuple(v.conjugate() for v in row) for row in rows)
        identity = tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        assert dense_product(a, a.inverse()) == identity
        assert dense_product(a.inverse(), a) == identity
        total = ZERO
        for i in range(n):
            total = total + rows[i][i]
        assert a.trace() == total
        for unit in UNITS:
            assert a.scale(unit).rows() == tuple(tuple(unit * v for v in row) for row in rows)
            assert product_path(a.scale(unit), a) == "product.monomial"

    @pytest.mark.parametrize("dim", range(1, 6))
    def test_scalar_value_on_the_form(self, dim):
        rng = random.Random(dim)
        for unit in UNITS:
            assert ExactMatrix.identity(dim).scale(unit).scalar_value() == unit
        for _ in range(20):
            m = random_monomial(rng, dim)
            rows = m.rows()
            scalar = all(
                rows[i][j] == (rows[0][0] if i == j else ZERO) for i in range(dim) for j in range(dim)
            )
            assert m.scalar_value() == (rows[0][0] if scalar else None)
            assert m.is_identity() == (rows == ExactMatrix.identity(dim).rows())

    def test_mixed_products_match_the_dense_product(self):
        rng = random.Random(24)
        monomials = [random_monomial(rng, 2) for _ in range(8)] + TWO_T[:2]
        for t in TWO_T[2:] + [TWO_T[2] * TWO_T[0]]:
            for m in monomials:
                assert product_path(m, t) == "product.dense"
                assert product_path(t, m) == "product.dense"
                assert (m * t).rows() == dense_product(m, t)
                assert (t * m).rows() == dense_product(t, m)
                assert (m * t).key() == bare_text(dense_product(m, t))
        elements, _ = generate_closure(TWO_T)
        assert len(elements) == 24
        # Block-diagonal factors 2T + monomial hold zero entries, which the
        # dense product skips: both orders with a monomial, and the squares.
        for dim in range(3, 6):
            m = random_monomial(rng, dim)
            factors = [
                block_diag(TWO_T[2], random_monomial(rng, dim - 2)),
                block_diag(random_monomial(rng, dim - 2), TWO_T[2] * TWO_T[0]),
                m,
            ]
            for a in factors:
                for b in factors:
                    if a is b is m:
                        continue
                    assert product_path(a, b) == "product.dense"
                    assert (a * b).rows() == dense_product(a, b)

    def test_dense_products_that_land_on_the_form_join_it(self):
        t = TWO_T[2]
        cube = t * t * t  # (1+i+j+k)/2 has order 6, so its cube is -1
        assert cube == ExactMatrix.identity(2).scale(GaussianRational(-1))
        assert product_path(cube, cube) == "product.monomial"

    def test_repeated_column_stays_dense_and_is_not_invertible(self):
        m = parse_matrix("[[1,0],[1,0]]")
        assert product_path(m, m) == "product.dense"
        with pytest.raises(ValueError, match="invertible"):
            generate_closure([m])

    @pytest.mark.parametrize("text", ["[[2,0],[0,2]]", "[[0,1/2],[2,0]]", "[[0,0],[0,1]]"])
    def test_non_unit_entries_stay_dense(self, text):
        m = parse_matrix(text)
        assert product_path(m, m) == "product.dense"
        assert m.key() == bare_text(m.rows())
