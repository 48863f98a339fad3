"""Invariant bilinear forms and eigenvalue weights of exact matrix groups.

A block's invariant form is solved exactly on the unit-monomial
(permutation, phase) form of its generators, by phase propagation over
orbits of index pairs, and checked against the trace indicator of
`gammagroups.reps`; a block with any other generator raises. The
eigenvalue weights of one element are computed in the ring of eighth
roots of unity. `gammagroups.reps` forwards every name here and loads
this module on the first such lookup.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import COUNTERS, IMAG_UNIT, MINUS_ONE, ONE, ZERO, ExactMatrix, GaussianRational
from .groups import MatrixGroup
from .reps import structural_invariant


def _form_by_orbits(
    forms: list[tuple[tuple[int, ...], tuple[int, ...]]], size: int, symmetric: bool
) -> ExactMatrix | None:
    """g^T B g = B for monomial generators, by phase propagation.

    For g = (perm, phase) the equation reads B[perm a, perm b] =
    i^(phase[a] + phase[b]) B[a, b], so each entry of B is a power of i
    times the entry it is moved from, and B[j, i] is B[i, j] times the
    transpose sign. The pairs i <= j fall into orbits. An orbit carries a
    one-dimensional solution unless two paths give one pair different
    phases, or it holds a diagonal pair of an antisymmetric form, which is
    forced to zero. The tests' reference, a Gaussian elimination over the
    pairs (`tests/test_reps.py`), sets its first free unknown to 1: that
    is the last pair of the consistent orbit whose last pair comes first,
    so that orbit is returned, 1 there, and the two give the same matrix.
    """
    COUNTERS["form.orbit"] += 1
    flip = 0 if symmetric else 2  # B[j, i] = i**flip * B[i, j]
    phase_of: dict[tuple[int, int], int] = {}
    best: list[tuple[int, int]] | None = None
    for root in ((i, j) for i in range(size) for j in range(i, size)):
        if root in phase_of:
            continue
        phase_of[root] = 0
        orbit = [root]
        consistent = True
        for a, b in orbit:  # grows while it is walked
            value = phase_of[(a, b)]
            for perm, phase in forms:
                p, q = perm[a], perm[b]
                moved = value + phase[a] + phase[b]
                if p > q:
                    p, q = q, p
                    moved += flip
                known = phase_of.get((p, q))
                if known is None:
                    phase_of[(p, q)] = moved & 3
                    orbit.append((p, q))
                elif known != moved & 3:
                    consistent = False
        if not symmetric and any(a == b for a, b in orbit):
            consistent = False
        if consistent and (best is None or max(orbit) < max(best)):
            best = orbit
    if best is None:
        return None
    shift = phase_of[max(best)]
    units = (ONE, IMAG_UNIT, MINUS_ONE, -IMAG_UNIT)
    entries = [[ZERO] * size for _ in range(size)]
    for i, j in best:
        p = phase_of[(i, j)] - shift
        entries[j][i] = units[(p + flip) & 3]
        entries[i][j] = units[p & 3]
    return ExactMatrix(entries)


def invariant_bilinear_form(
    group: MatrixGroup, block: tuple[int, int] | None = None
) -> tuple[str, ExactMatrix | None]:
    """Invariant bilinear form of an irreducible block, found exactly.

    Returns ("symmetric", B), ("antisymmetric", B), or ("none", None), and
    insists the answer agree with the trace indicator; a mismatch means the
    arithmetic is broken and raises rather than reporting either value.
    Every generator (every element, for a group without generators) must
    be unit-monomial, or this raises ValueError. The indicator has already
    refused a block coupled to the rest, so each generator's form
    restricts to the block by slicing.
    """
    indicator = structural_invariant(group, block)  # checks the block
    start, size = block or (0, group.dim)
    forms = []
    for g in [group.elements[i] for i in group.generator_indices] or group.elements:
        form = g.monomial_form()
        if form is None:
            raise ValueError(f"invariant forms need unit-monomial generators, not {g}")
        perm, phase = form
        forms.append((
            tuple(p - start for p in perm[start:start + size]), phase[start:start + size]
        ))
    sym = _form_by_orbits(forms, size, symmetric=True)
    anti = _form_by_orbits(forms, size, symmetric=False)
    if sym is not None and anti is not None:
        raise ValueError("both a symmetric and an antisymmetric invariant form exist")
    if sym is not None:
        kind, form = "symmetric", sym
    elif anti is not None:
        kind, form = "antisymmetric", anti
    else:
        kind, form = "none", None
    expected = {1: "symmetric", -1: "antisymmetric", 0: "none"}[indicator]
    if kind != expected:
        raise ValueError(
            f"invariant form kind {kind!r} contradicts trace indicator {indicator}"
        )
    return kind, form


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

    def __sub__(self, other: "Cyc8") -> "Cyc8":
        return Cyc8(*(a - b for a, b in zip(self.coeffs, other.coeffs)))

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


class WeightReport(NamedTuple):
    """Eigenvalue weights of one group element g: the spectrum of (i/2) g."""

    order: int
    multiplicities: tuple[int, ...]
    weights: tuple[tuple[str, int], ...]
    classification: str
    l0: Fraction | None

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "multiplicities": list(self.multiplicities),
            "weights": [{"value": v, "multiplicity": m} for v, m in self.weights],
            "classification": self.classification,
            "l0": str(self.l0) if self.l0 is not None else None,
        }


def spin_weights(matrix: ExactMatrix) -> WeightReport:
    """Diagonalize (i/2) g by Fourier analysis over the power traces of g.

    Works for elements of order 1, 2, 4, or 8: the eigenvalues of g are
    n-th roots of unity, and their multiplicities come out of an exact
    discrete Fourier transform of tr(g^j) in the eighth-root field.
    """
    order = None
    power = ExactMatrix.identity(matrix.dim)
    traces = []
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
        scaled = total.scale(Fraction(1, order))
        value = scaled.rational_value()
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
