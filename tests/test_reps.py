"""Representation analysis tests: census, indicators, forms, weights."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammagroups import catalog, forms, reps
from gammagroups.exact import (
    COUNTERS, ONE, ExactMatrix, GaussianRational, block_diag, parse_matrix, row_reduce,
)
from gammagroups.groups import MatrixGroup
from gammagroups.reps import (
    WeightReport,
    _form_by_orbits,
    format_census,
    invariant_bilinear_form,
    irreducibility_norm,
    irrep_census,
    spin_weights,
    structural_invariant,
)

MINUS = GaussianRational(-1, 0)
IMAG = GaussianRational(0, 1)

SX = parse_matrix("[[0,1],[1,0]]")
SY = parse_matrix("[[0,-i],[i,0]]")
SZ = parse_matrix("[[1,0],[0,-1]]")
A1 = SZ * SY
A2 = SX * SZ

GAMMA1 = parse_matrix("[[0,0,0,-i],[0,0,-i,0],[0,i,0,0],[i,0,0,0]]")
GAMMA2 = parse_matrix("[[0,0,0,-1],[0,0,1,0],[0,1,0,0],[-1,0,0,0]]")
GAMMA3 = parse_matrix("[[0,0,-i,0],[0,0,0,i],[i,0,0,0],[0,-i,0,0]]")
GAMMA4 = parse_matrix("[[1,0,0,0],[0,1,0,0],[0,0,-1,0],[0,0,0,-1]]")


@pytest.fixture(scope="module")
def pauli():
    return MatrixGroup.from_generators([SX, SY, SZ])


@pytest.fixture(scope="module")
def q8():
    return MatrixGroup.from_generators([A1, A2])


@pytest.fixture(scope="module")
def d4():
    return MatrixGroup.from_generators([A1, SY])


@pytest.fixture(scope="module")
def dirac():
    return MatrixGroup.from_generators([GAMMA1, GAMMA2, GAMMA3, GAMMA4])


@pytest.fixture(scope="module")
def doubled():
    """Order-32 group in two 2x2 blocks, the second complex conjugated."""
    blocks = [block_diag(m, m.conjugate()) for m in (SX, SY, SZ)]
    extra = block_diag(
        parse_matrix("[[1,0],[0,1]]"), parse_matrix("[[-1,0],[0,-1]]")
    )
    return MatrixGroup.from_generators(blocks + [extra])


class TestCensus:
    def test_pauli(self, pauli):
        assert irrep_census(pauli) == ((1, 8), (2, 2))
        assert format_census(irrep_census(pauli)) == "8x1 + 2x2"

    def test_quaternion_and_dihedral(self, q8, d4):
        assert irrep_census(q8) == ((1, 4), (2, 1))
        assert irrep_census(d4) == ((1, 4), (2, 1))

    def test_dirac(self, dirac):
        assert irrep_census(dirac) == ((1, 16), (4, 1))

    def test_doubled(self, doubled):
        assert irrep_census(doubled) == ((1, 16), (2, 4))

    def test_abelian(self):
        c4 = MatrixGroup.from_generators([A1])
        assert irrep_census(c4) == ((1, 4),)

    def test_census_squares_sum_to_order(self, pauli, dirac, doubled):
        for group in (pauli, dirac, doubled):
            census = irrep_census(group)
            assert sum(count * dim * dim for dim, count in census) == group.order
            assert sum(count for _, count in census) == len(group.conjugacy_classes())


class TestNormAndIndicator:
    def test_irreducible_defining_reps(self, pauli, q8, d4, dirac):
        for group in (pauli, q8, d4, dirac):
            assert irreducibility_norm(group) == 1

    def test_reducible_block_model(self, doubled):
        assert irreducibility_norm(doubled) == 2
        assert irreducibility_norm(doubled, (0, 2)) == 1
        assert irreducibility_norm(doubled, (2, 2)) == 1

    def test_indicator_values(self, pauli, q8, d4, dirac):
        assert structural_invariant(pauli) == 0
        assert structural_invariant(q8) == -1
        assert structural_invariant(d4) == 1
        assert structural_invariant(dirac) == -1

    def test_indicator_of_plus_type_variant(self):
        plus = MatrixGroup.from_generators([GAMMA1, GAMMA2, GAMMA3, GAMMA4.scale(IMAG)])
        assert structural_invariant(plus) == 1

    def test_indicator_per_block(self, doubled):
        assert structural_invariant(doubled, (0, 2)) == 0
        assert structural_invariant(doubled, (2, 2)) == 0

    def test_indicator_is_computed_once_per_block(self, monkeypatch):
        # The catalog profile and the form solver both ask for each block's
        # indicator; the second ask reads the first answer.
        group = MatrixGroup.from_generators([block_diag(m, m) for m in (A1, SY)])
        assert structural_invariant(group, (2, 2)) == 1

        def recomputed(*args):
            raise AssertionError("indicator computed twice")

        monkeypatch.setattr(reps, "_block_traces", recomputed)
        assert structural_invariant(group, (2, 2)) == 1
        assert invariant_bilinear_form(group, (2, 2))[0] == "symmetric"
        with pytest.raises(AssertionError, match="computed twice"):
            structural_invariant(group, (0, 2))

    def test_indicator_requires_irreducible(self, doubled):
        with pytest.raises(ValueError, match="reducible"):
            structural_invariant(doubled)

    def test_block_bounds_checked(self, pauli):
        with pytest.raises(ValueError, match="does not fit"):
            irreducibility_norm(pauli, (1, 2))

    def test_coupled_block_rejected(self, doubled):
        with pytest.raises(ValueError, match="coupled"):
            irreducibility_norm(doubled, (1, 2))


class TestBilinearForm:
    def test_quaternion_form_is_antisymmetric(self, q8):
        kind, form = invariant_bilinear_form(q8)
        assert kind == "antisymmetric"
        assert form.transpose() == form.scale(MINUS)
        for g in q8.elements:
            assert g.transpose() * form * g == form

    def test_dihedral_form_is_symmetric(self, d4):
        kind, form = invariant_bilinear_form(d4)
        assert kind == "symmetric"
        assert form.transpose() == form
        for g in d4.elements:
            assert g.transpose() * form * g == form

    def test_pauli_has_no_form(self, pauli):
        assert invariant_bilinear_form(pauli) == ("none", None)

    def test_dirac_form_is_antisymmetric(self, dirac):
        kind, form = invariant_bilinear_form(dirac)
        assert kind == "antisymmetric"
        for g in dirac.elements:
            assert g.transpose() * form * g == form

    def test_plus_type_form_is_symmetric(self):
        plus = MatrixGroup.from_generators([GAMMA1, GAMMA2, GAMMA3, GAMMA4.scale(IMAG)])
        kind, form = invariant_bilinear_form(plus)
        assert kind == "symmetric"
        for g in plus.elements:
            assert g.transpose() * form * g == form

    def test_block_form(self, doubled):
        assert invariant_bilinear_form(doubled, (0, 2))[0] == "none"


BINARY_TETRAHEDRAL = [
    parse_matrix("[[i,0],[0,-i]]"),
    parse_matrix("[[1/2+1/2i,1/2+1/2i],[-1/2+1/2i,1/2-1/2i]]"),
]


class TestDenseGroups:
    """2T mixes its monomial Q8 with dense elements of entries (+-1+-i)/2."""

    def test_binary_tetrahedral_is_quaternionic(self):
        group = MatrixGroup.from_generators(BINARY_TETRAHEDRAL)
        assert group.order == 24
        assert sum(m.monomial_form() is None for m in group.elements) == 16
        assert irreducibility_norm(group) == 1
        assert structural_invariant(group) == -1
        gens = [group.elements[i] for i in group.generator_indices]
        assert _form_by_elimination(gens, 2, symmetric=True) is None
        form = _form_by_elimination(gens, 2, symmetric=False)
        for g in group.elements:
            assert g.transpose() * form * g == form
        with pytest.raises(ValueError, match="need unit-monomial generators"):
            invariant_bilinear_form(group)

    def test_dense_block_check_names_the_first_coupled_entry(self):
        group = MatrixGroup.from_generators(
            [block_diag(m, parse_matrix("[[1]]")) for m in BINARY_TETRAHEDRAL]
        )
        assert irreducibility_norm(group, (0, 2)) == 1
        assert irreducibility_norm(group, (2, 1)) == 1
        with pytest.raises(ValueError) as err:
            irreducibility_norm(group, (1, 2))
        assert str(err.value) == "block (1, 2) is coupled to the rest at entry (0,1)"


# The dense reads the monomial fast paths replace: a row-major scan of every
# entry, and traces summed entry by entry in Gaussian rationals.

def _dense_coupling(group: MatrixGroup, start: int, size: int) -> tuple[int, int] | None:
    dim = group.elements[0].dim
    inside = range(start, start + size)
    for m in group.elements:
        for i in range(dim):
            for j in range(dim):
                if (i in inside) != (j in inside) and not m[i, j].is_zero():
                    return (i, j)
    return None


def _dense_trace(m: ExactMatrix, start: int, size: int) -> GaussianRational:
    total = GaussianRational(0, 0)
    for i in range(start, start + size):
        total = total + m[i, i]
    return total


def assert_block_queries_match_dense_reads(group: MatrixGroup) -> None:
    dim = group.elements[0].dim
    for start in range(dim):
        for size in range(1, dim - start + 1):
            block = (start, size)
            coupled = _dense_coupling(group, start, size)
            if coupled is not None:
                with pytest.raises(ValueError) as err:
                    irreducibility_norm(group, block)
                i, j = coupled
                assert str(err.value) == f"block {block} is coupled to the rest at entry ({i},{j})"
                continue
            norm = sum(_dense_trace(m, start, size).norm2() for m in group.elements) / group.order
            assert irreducibility_norm(group, block) == norm
            if norm != 1:
                continue
            squares = GaussianRational(0, 0)
            for i in range(group.order):
                squares = squares + _dense_trace(group.elements[group.mul(i, i)], start, size)
            assert structural_invariant(group, block) == squares.re / group.order


# The invariant-form solver `forms._form_by_orbits` replaces: Gaussian
# elimination over the basis pairs of B, for generators of any shape.

def _submatrix(m: ExactMatrix, start: int, size: int) -> ExactMatrix:
    return ExactMatrix(
        [[m[i, j] for j in range(start, start + size)] for i in range(start, start + size)]
    )


def _form_by_elimination(
    gens: list[ExactMatrix], size: int, symmetric: bool
) -> ExactMatrix | None:
    """g^T B g = B by Gaussian elimination over the basis pairs of B."""
    if symmetric:
        basis = [(i, j) for i in range(size) for j in range(i, size)]
    else:
        basis = [(i, j) for i in range(size) for j in range(i + 1, size)]
    if not basis:
        return None
    index = {pair: k for k, pair in enumerate(basis)}
    sign = GaussianRational(1 if symmetric else -1, 0)

    def coeff_of(i: int, j: int) -> tuple[int, GaussianRational] | None:
        if (i, j) in index:
            return index[(i, j)], GaussianRational(1, 0)
        if (j, i) in index:
            return index[(j, i)], sign
        return None  # diagonal of an antisymmetric form: identically zero

    rows = []
    zero = GaussianRational(0, 0)
    for g in gens:
        gt = g.transpose()
        for p in range(size):
            for q in range(size):
                row = [zero] * len(basis)
                # (g^T B g)[p][q] = sum_{i,j} g[i,p] B[i,j] g[j,q]
                for i in range(size):
                    if gt[p, i].is_zero():
                        continue
                    for j in range(size):
                        if g[j, q].is_zero():
                            continue
                        hit = coeff_of(i, j)
                        if hit is None:
                            continue
                        k, s = hit
                        row[k] = row[k] + gt[p, i] * g[j, q] * s
                # minus B[p][q]
                hit = coeff_of(p, q)
                if hit is not None:
                    k, s = hit
                    row[k] = row[k] - s
                rows.append(row)
    reduced, pivots = row_reduce(rows, len(basis))
    free = next((k for k in range(len(basis)) if k not in pivots), None)
    if free is None:
        return None
    # The first free unknown is 1 and the others 0, so each pivot unknown
    # is minus its reduced row's entry in the free column.
    solution = [zero] * len(basis)
    solution[free] = ONE
    for row, k in zip(reduced, pivots):
        solution[k] = -row[free]
    entries = [[zero for _ in range(size)] for _ in range(size)]
    for (i, j), k in index.items():
        entries[i][j] = solution[k]
        if i != j:
            entries[j][i] = solution[k] * sign
    return ExactMatrix(entries)


def assert_forms_agree(gens: list[ExactMatrix], size: int) -> None:
    """The orbit solution against the elimination, as the same matrix."""
    forms = [g.monomial_form() for g in gens]
    assert None not in forms
    for symmetric in (True, False):
        reference = _form_by_elimination(gens, size, symmetric)
        solved = _form_by_orbits(forms, size, symmetric)
        assert (solved is None) == (reference is None), (symmetric, [g.key() for g in gens])
        if reference is not None:
            assert solved.key() == reference.key(), (symmetric, [g.key() for g in gens])
            for g in gens:
                assert g.transpose() * solved * g == solved


def _monomial(perm: list[int], phase: list[int]) -> ExactMatrix:
    """Row r holds i**phase[r] in column perm[r]."""
    units = ("1", "i", "-1", "-i")
    rows = [["0"] * len(perm) for _ in perm]
    for r, col in enumerate(perm):
        rows[r][col] = units[phase[r]]
    return parse_matrix("[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]")


def _random_monomial(rng: random.Random, dim: int, phases: tuple[int, ...]) -> ExactMatrix:
    perm = list(range(dim))
    rng.shuffle(perm)
    return _monomial(perm, [rng.choice(phases) for _ in range(dim)])


def _random_monomial_gens(rng: random.Random, dim: int) -> list[ExactMatrix]:
    # Signed permutations keep a symmetric form, unit multiples of them
    # often an antisymmetric one; free phases mostly leave none.
    phases = rng.choice(((0, 2), (1, 3), (0, 1, 2, 3)))
    return [_random_monomial(rng, dim, phases) for _ in range(rng.randint(1, 3))]


def _entry_blocks(name: str) -> list[tuple[int, int]]:
    group = catalog.catalog_group(name)
    whole = (0, group.elements[0].dim)
    return list(dict.fromkeys([*(catalog.catalog_entry(name).blocks or ()), whole]))


class TestFormsByOrbits:
    """Phase propagation over index-pair orbits against the elimination."""

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_catalog_blocks_and_groups(self, name):
        group = catalog.catalog_group(name)
        for start, size in _entry_blocks(name):
            gens = [_submatrix(group.elements[i], start, size) for i in group.generator_indices]
            assert_forms_agree(gens, size)

    @pytest.mark.parametrize("name", ["gamma64_minus", "gamma64_plus", "gamma64_null"])
    def test_order_16_subgroups_of_order_64_entries(self, name):
        group = catalog.catalog_group(name)
        rng = random.Random(f"forms:{name}")
        for sub in rng.sample(group.subgroups_of_order(16), 2):
            gens: list[int] = []
            for i in sub.sorted_indices():
                if i not in group.closure_indices(gens or [0]):
                    gens.append(i)
            for start, size in _entry_blocks(name):
                assert_forms_agree([_submatrix(group.elements[i], start, size) for i in gens], size)

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_random_monomial_generators(self, dim):
        rng = random.Random(f"forms:{dim}")
        for _ in range(12):
            assert_forms_agree(_random_monomial_gens(rng, dim), dim)

    def test_antisymmetric_diagonal_is_forced_to_zero(self):
        # A diagonal +-1 matrix fixes every pair's orbit; only the diagonal
        # pairs are consistent, and an antisymmetric form has no diagonal.
        diag = parse_matrix("[[1,0],[0,-1]]")
        assert _form_by_orbits([diag.monomial_form()], 2, symmetric=False) is None
        assert _form_by_orbits([diag.monomial_form()], 2, symmetric=True) == parse_matrix(
            "[[1,0],[0,0]]"
        )

    def test_cold_solutions_are_counted(self, q8):
        before = dict(COUNTERS)
        invariant_bilinear_form(q8)
        assert COUNTERS["form.orbit"] == before["form.orbit"] + 2


class TestBlockQueriesOnTheForm:
    """Block checks, norms and indicators against dense entry reads."""

    @pytest.mark.parametrize("name", ["pauli", "q8_v4", "pauli_c2", "gamma64_null"])
    def test_catalog_groups(self, name):
        assert_block_queries_match_dense_reads(catalog.catalog_group(name))

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_random_monomial_groups(self, dim):
        rng = random.Random(f"blocks:{dim}")
        groups = 0
        while groups < 4:
            try:
                group = MatrixGroup.from_generators(_random_monomial_gens(rng, dim), cap=128)
            except ValueError:
                continue  # closure past the cap: draw again
            assert_block_queries_match_dense_reads(group)
            groups += 1

    @pytest.mark.parametrize(
        "extra,order", [(None, 24), ("[[1]]", 24), ("[[0,1],[1,0]]", 48)],
        ids=["2T", "2T+[1]", "2T+sx"],
    )
    def test_dense_groups(self, extra, order):
        gens = BINARY_TETRAHEDRAL
        if extra is not None:
            gens = [block_diag(m, parse_matrix(extra)) for m in gens]
        group = MatrixGroup.from_generators(gens)
        assert group.order == order
        assert_block_queries_match_dense_reads(group)

    def test_each_element_is_read_once_per_walk(self, monkeypatch):
        # A fresh group: `structural_invariant` caches by group object.
        group = MatrixGroup.from_generators(catalog.catalog_entry("gamma64_minus").generators)
        reads = 0
        read_form = ExactMatrix.monomial_form

        def counted(m):
            nonlocal reads
            reads += 1
            return read_form(m)

        monkeypatch.setattr(ExactMatrix, "monomial_form", counted)
        assert irreducibility_norm(group, (0, 4)) == 1
        assert reads == group.order == 64
        reads = 0
        assert structural_invariant(group, (4, 4)) == -1
        assert reads == group.order  # the norm is read off the indicator's walk


# The weights `forms.spin_weights` reads off the monomial form's cycles, by
# the engine it replaces: an exact discrete Fourier transform of the power
# traces of g in Q(zeta_8), for matrices of any shape.

class Cyc8:
    """Exact arithmetic in Q(zeta_8): c0 + c1 z + c2 z^2 + c3 z^3, z^4 = -1."""

    __slots__ = ("coeffs",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        self.coeffs = (Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3))

    @classmethod
    def zeta_power(cls, k: int) -> "Cyc8":
        k %= 8
        sign = 1 if k < 4 else -1
        coeffs = [0, 0, 0, 0]
        coeffs[k % 4] = sign
        return cls(*coeffs)

    @classmethod
    def from_gaussian(cls, value: GaussianRational) -> "Cyc8":
        return cls(value.re, 0, value.im, 0)

    def __add__(self, other: "Cyc8") -> "Cyc8":
        return Cyc8(*(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "Cyc8") -> "Cyc8":
        out = [Fraction(0)] * 4
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                k = i + j
                if k < 4:
                    out[k] += a * b
                else:
                    out[k - 4] -= a * b
        return Cyc8(*out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cyc8):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Cyc8{self.coeffs}"

    def scale(self, factor: Fraction) -> "Cyc8":
        return Cyc8(*(c * factor for c in self.coeffs))

    def real_parts(self) -> tuple[Fraction, Fraction]:
        """Real value as (rational, coefficient of sqrt(2))."""
        c0, c1, c2, c3 = self.coeffs
        return (c0, (c1 - c3) / 2)

    def imag_parts(self) -> tuple[Fraction, Fraction]:
        c0, c1, c2, c3 = self.coeffs
        return (c2, (c1 + c3) / 2)

    @property
    def is_real(self) -> bool:
        return self.imag_parts() == (0, 0)

    @property
    def is_imaginary(self) -> bool:
        return self.real_parts() == (0, 0) and not self.is_zero

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def rational_value(self) -> Fraction:
        rat, root = self.real_parts()
        if not self.is_real or root != 0:
            raise ValueError(f"{self!r} is not rational")
        return rat


def _fmt_part(rat: Fraction, root: Fraction) -> str:
    """One real quantity rat + root*sqrt(2) in the `a+b*r2` spelling."""
    if root == 0:
        return str(rat)
    if root == 1:
        root_str = "r2"
    elif root == -1:
        root_str = "-r2"
    else:
        root_str = f"{root}*r2"
    if rat == 0:
        return root_str
    joiner = "+" if root > 0 else ""
    return f"{rat}{joiner}{root_str}"


def format_cyc8(value: Cyc8) -> str:
    """Render with rationals, `r2` for sqrt(2), and a trailing `i` part."""
    re_rat, re_root = value.real_parts()
    im_rat, im_root = value.imag_parts()
    real_str = _fmt_part(re_rat, re_root)
    if (im_rat, im_root) == (0, 0):
        return real_str
    imag_str = _fmt_part(im_rat, im_root) + "i"
    if (re_rat, re_root) == (0, 0):
        return imag_str
    return f"{real_str}{'' if imag_str.startswith('-') else '+'}{imag_str}"


def _weights_by_power_traces(matrix: ExactMatrix) -> WeightReport:
    """Diagonalize (i/2) g by Fourier analysis over the power traces of g.

    Works for elements of order 1, 2, 4, or 8: the eigenvalues of g are
    n-th roots of unity, and their multiplicities come out of an exact
    discrete Fourier transform of tr(g^j) in the eighth-root field.
    """
    order = None
    power = ExactMatrix.identity(matrix.dim)
    for j in range(1, 9):
        power = power * matrix
        if power.is_identity():
            order = j
            break
    if order is None or order not in (1, 2, 4, 8):
        raise ValueError("element order must be 1, 2, 4, or 8 for weight analysis")

    step = 8 // order
    power = ExactMatrix.identity(matrix.dim)
    traces = [Cyc8.from_gaussian(power.trace())]
    for _ in range(order - 1):
        power = power * matrix
        traces.append(Cyc8.from_gaussian(power.trace()))

    multiplicities = []
    for k in range(order):
        total = Cyc8()
        for j, tr in enumerate(traces):
            total = total + tr * Cyc8.zeta_power(-j * k * step)
        value = total.scale(Fraction(1, order)).rational_value()
        if value.denominator != 1 or value < 0:
            raise ValueError(f"multiplicity of root {k} came out as {value}")
        multiplicities.append(int(value))
    if sum(multiplicities) != matrix.dim:
        raise ValueError("eigenvalue multiplicities do not fill the dimension")
    recon = Cyc8()
    for k, m in enumerate(multiplicities):
        recon = recon + Cyc8.zeta_power(k * step).scale(Fraction(m))
    if recon != traces[1 % order]:
        raise ValueError("eigenvalue multiplicities do not reproduce the trace")

    half_i = Cyc8(0, 0, Fraction(1, 2), 0)
    weights = []
    reals: list[Fraction] = []
    all_real = True
    all_imag = True
    for k, m in enumerate(multiplicities):
        if m == 0:
            continue
        w = half_i * Cyc8.zeta_power(k * step)
        weights.append((format_cyc8(w), m))
        if w.is_real:
            all_imag = False
            reals.append(w.rational_value())
        elif w.is_imaginary:
            all_real = False
        else:
            all_real = False
            all_imag = False
    if all_real:
        classification = "real-half-integer"
        l0 = max(reals)
    elif all_imag:
        classification = "pure-imaginary"
        l0 = None
    else:
        classification = "mixed"
        l0 = None
    return WeightReport(
        order=order,
        multiplicities=tuple(multiplicities),
        weights=tuple(weights),
        classification=classification,
        l0=l0,
    )


def assert_weights_match_power_traces(matrix: ExactMatrix) -> None:
    """The cycle reading against the Fourier transform: the same report,
    or the same ValueError."""
    try:
        reference = _weights_by_power_traces(matrix)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            spin_weights(matrix)
        assert str(err.value) == str(exc), matrix.key()
        return
    assert spin_weights(matrix) == reference, matrix.key()


class TestCyc8:
    def test_powers_cycle(self):
        z = Cyc8.zeta_power(1)
        acc = Cyc8(1)
        for _ in range(8):
            acc = acc * z
        assert acc == Cyc8(1)

    def test_fourth_power_is_minus_one(self):
        assert Cyc8.zeta_power(4) == Cyc8(-1)

    @pytest.mark.parametrize("a", range(-8, 9))
    @pytest.mark.parametrize("b", range(0, 8))
    def test_power_addition(self, a, b):
        assert Cyc8.zeta_power(a) * Cyc8.zeta_power(b) == Cyc8.zeta_power(a + b)

    def test_real_sqrt2_combination(self):
        value = Cyc8.zeta_power(1) + Cyc8.zeta_power(-1)
        assert value.is_real
        assert value.real_parts() == (0, 1)
        assert format_cyc8(value) == "r2"

    def test_rational_value_guards(self):
        with pytest.raises(ValueError):
            Cyc8.zeta_power(1).rational_value()
        assert Cyc8(Fraction(3, 2)).rational_value() == Fraction(3, 2)

    def test_formatting(self):
        assert format_cyc8(Cyc8()) == "0"
        assert format_cyc8(Cyc8(0, 0, Fraction(1, 2), 0)) == "1/2i"
        assert format_cyc8(Cyc8(1, 0, Fraction(-1, 2), 0)) == "1-1/2i"
        half_i_zeta = Cyc8(0, 0, Fraction(1, 2), 0) * Cyc8.zeta_power(1)
        assert format_cyc8(half_i_zeta) == "-1/4*r2+1/4*r2i"


class TestSpinWeights:
    def test_rotation_weights_are_half_integers(self):
        report = spin_weights(A1)
        assert report.classification == "real-half-integer"
        assert report.l0 == Fraction(1, 2)
        assert sorted(report.weights) == [("-1/2", 1), ("1/2", 1)]

    def test_reflection_weights_are_imaginary(self):
        for m in (SY, SZ):
            report = spin_weights(m)
            assert report.classification == "pure-imaginary"
            assert report.l0 is None
            assert sorted(report.weights) == [("-1/2i", 1), ("1/2i", 1)]

    def test_order_eight_element_is_mixed(self):
        report = spin_weights(parse_matrix("[[0,1],[i,0]]"))
        assert report.order == 8
        assert report.classification == "mixed"
        assert ("-1/4*r2+1/4*r2i", 1) in report.weights

    def test_multiplicities_fill_dimension(self, dirac):
        for m in dirac.elements:
            report = spin_weights(m)
            assert sum(report.multiplicities) == 4

    def test_identity_and_negative_identity(self):
        eye = parse_matrix("[[1,0],[0,1]]")
        report = spin_weights(eye)
        assert report.order == 1
        assert report.weights == (("1/2i", 2),)
        report = spin_weights(eye.scale(MINUS))
        assert report.order == 2
        assert report.weights == (("-1/2i", 2),)

    def test_unsupported_order_rejected(self):
        sixteenth = parse_matrix("[[0,0,0,i],[1,0,0,0],[0,1,0,0],[0,0,1,0]]")
        with pytest.raises(ValueError, match="order"):
            spin_weights(sixteenth)

    def test_non_invertible_matrix_rejected(self):
        with pytest.raises(ValueError):
            spin_weights(parse_matrix("[[1,0],[0,0]]"))

    def test_report_fields(self):
        report = spin_weights(A1)
        assert report.classification == "real-half-integer"
        assert report.l0 == Fraction(1, 2)
        assert report.order == 4


class TestWeightsByCycles:
    """The cycle reading against the power-trace Fourier transform."""

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_catalog_group_elements(self, name):
        for m in catalog.catalog_group(name).elements:
            assert_weights_match_power_traces(m)

    @pytest.mark.parametrize("name", catalog.POOL_NAMES)
    def test_pool_elements(self, name):
        for m in catalog.pool_group(name).elements:
            assert_weights_match_power_traces(m)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=8).flatmap(
        lambda dim: st.tuples(
            st.permutations(range(dim)),
            st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
        )
    ))
    def test_unit_monomial_matrices(self, form):
        assert_weights_match_power_traces(_monomial(*form))

    def test_weight_spellings(self):
        half_i = Cyc8(0, 0, Fraction(1, 2), 0)
        assert forms._WEIGHTS == tuple(format_cyc8(half_i * Cyc8.zeta_power(e)) for e in range(8))

    def test_dense_matrix_rejected(self):
        dense = parse_matrix("[[1/2+1/2i,1/2+1/2i],[-1/2+1/2i,1/2-1/2i]]")
        with pytest.raises(ValueError, match="unit-monomial"):
            spin_weights(dense)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=15))
def test_weights_match_trace(index):
    pauli = MatrixGroup.from_generators([SX, SY, SZ])
    m = pauli.elements[index]
    report = spin_weights(m)
    step = 8 // report.order
    total = Cyc8()
    for k, mult in enumerate(report.multiplicities):
        total = total + Cyc8.zeta_power(k * step).scale(Fraction(mult))
    assert total == Cyc8.from_gaussian(m.trace())
