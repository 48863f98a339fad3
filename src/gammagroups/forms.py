"""Invariant bilinear forms and eigenvalue weights of exact matrix groups.

A block's invariant form is solved exactly on the unit-monomial
(permutation, phase) form of its generators, by phase propagation over
orbits of index pairs, and checked against the trace indicator of
`gammagroups.reps`; a block with any other generator raises. The
eigenvalue weights of one unit-monomial element are read off the cycles
of its form. `gammagroups.reps` forwards every name here and loads
this module on the first such lookup.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import COUNTERS, UNITS, ZERO, ExactMatrix
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
    entries = [[ZERO] * size for _ in range(size)]
    for i, j in best:
        p = phase_of[(i, j)] - shift
        entries[j][i] = UNITS[(p + flip) & 3]
        entries[i][j] = UNITS[p & 3]
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


class WeightReport(NamedTuple):
    """Eigenvalue weights of one group element g: the spectrum of (i/2) g."""

    order: int
    multiplicities: tuple[int, ...]
    weights: tuple[tuple[str, int], ...]
    classification: str
    l0: Fraction | None


# (i/2) z**e for z = exp(i pi/4), spelled with rationals, `r2` for sqrt(2)
# and a trailing `i` part, as the Q(zeta_8) reference in `tests/test_reps.py`
# formats it.
_WEIGHTS = (
    "1/2i", "-1/4*r2+1/4*r2i", "-1/2", "-1/4*r2-1/4*r2i",
    "-1/2i", "1/4*r2-1/4*r2i", "1/2", "1/4*r2+1/4*r2i",
)


def spin_weights(matrix: ExactMatrix) -> WeightReport:
    """Eigenvalues of a unit-monomial g read off its cycles, weighed as (i/2) g.

    A cycle of length L whose phases sum to s has characteristic polynomial
    x^L - i^s, so its eigenvalues are the z**e, z = exp(i pi/4), with
    e L = 2s (mod 8). For an element of order 1, 2, 4 or 8 every cycle has
    L such e; any other order leaves some cycle fewer and raises
    ValueError, as does a matrix without a monomial form.
    """
    form = matrix.monomial_form()
    if form is None:
        raise ValueError(f"weights need a unit-monomial matrix, not {matrix}")
    perm, phase = form
    counts = [0] * 8  # multiplicity of the eigenvalue z**e, by e
    seen = [False] * matrix.dim
    for start in range(matrix.dim):
        if seen[start]:
            continue
        r, length, total = start, 0, 0
        while not seen[r]:
            seen[r] = True
            length += 1
            total += phase[r]
            r = perm[r]
        roots = [e for e in range(8) if (e * length - 2 * total) % 8 == 0]
        if len(roots) != length:
            raise ValueError("element order must be 1, 2, 4, or 8 for weight analysis")
        for e in roots:
            counts[e] += 1
    present = {e for e in range(8) if counts[e]}
    order = next(n for n in (1, 2, 4, 8) if all(e * n % 8 == 0 for e in present))
    step = 8 // order
    if present <= {2, 6}:  # weights -1/2 and 1/2
        classification = "real-half-integer"
        l0 = Fraction(1 if 6 in present else -1, 2)
    elif present <= {0, 4}:  # weights 1/2i and -1/2i
        classification, l0 = "pure-imaginary", None
    else:
        classification, l0 = "mixed", None
    return WeightReport(
        order=order,
        multiplicities=tuple(counts[e] for e in range(0, 8, step)),
        weights=tuple((_WEIGHTS[e], counts[e]) for e in range(0, 8, step) if counts[e]),
        classification=classification,
        l0=l0,
    )
