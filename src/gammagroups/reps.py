"""Character-level analysis of exact matrix groups.

Everything here works from traces and exact arithmetic: the irreducible
dimension census from counting arguments, and the norm and indicator sums
of the defining representation (optionally restricted to a diagonal
block). Invariant bilinear forms of unit-monomial blocks and the
eigenvalue weights of unit-monomial elements live in `gammagroups.forms`;
`__getattr__` below forwards their names and loads it on first use.

A block query walks each element once, checking the block and taking its
trace in the same walk. Unit-monomial matrices are walked on their
(permutation, phase) form, the trace counting diagonal phases in integers;
dense matrices on their rows.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from .exact import GaussianRational, format_scalar
from .groups import MatrixGroup


class AmbiguousCensus(ValueError):
    """More than one multiset of irreducible dimensions fits the counts."""


def irrep_census(group: MatrixGroup) -> tuple[tuple[int, int], ...]:
    """Multiset of irreducible dimensions as sorted (dimension, count) pairs.

    Counting pins it down: the class count gives the number of irreducibles,
    the abelianization size gives the one-dimensional ones, and the higher
    dimensions must divide the order and have squares summing to the rest.
    Raises AmbiguousCensus if more than one multiset satisfies the
    constraints.
    """
    order = group.order
    classes = len(group.conjugacy_classes())
    onedim = order // group.derived_subgroup().order
    need = classes - onedim
    rest = order - onedim
    if need == 0:
        if rest != 0:
            raise ValueError("class count and abelianization disagree")
        return ((1, onedim),)

    divisors = [d for d in range(2, order + 1) if order % d == 0]
    solutions: list[tuple[int, ...]] = []

    def extend(prefix: list[int], start: int, count: int, budget: int) -> None:
        if len(solutions) > 1:
            return
        if count == 0:
            if budget == 0:
                solutions.append(tuple(prefix))
            return
        for d in divisors:
            if d < start or d * d > budget:
                continue
            prefix.append(d)
            extend(prefix, d, count - 1, budget - d * d)
            prefix.pop()

    extend([], 2, need, rest)
    if not solutions:
        raise ValueError("no irreducible dimension multiset fits the counts")
    if len(solutions) > 1:
        raise AmbiguousCensus("ambiguous irreducible dimension census")
    out: dict[int, int] = {1: onedim}
    for d in solutions[0]:
        out[d] = out.get(d, 0) + 1
    return tuple(sorted(out.items()))


def format_census(census: Sequence[tuple[int, int]]) -> str:
    return " + ".join(f"{count}x{dim}" for dim, count in census)


def _block_traces(
    group: MatrixGroup, block: tuple[int, int] | None
) -> list[tuple[Fraction | int, Fraction | int]]:
    """(real, imaginary) part of each element's block trace, in element order.

    One walk per element takes the trace (integer counts of the diagonal
    phases on the monomial form, an exact sum of entries otherwise) and
    checks, row by row, that no entry couples the block to the rest.
    """
    dim = group.dim
    start, size = block or (0, dim)
    if start < 0 or size <= 0 or start + size > dim:
        raise ValueError(f"block {block} does not fit in dimension {dim}")
    stop = start + size
    inside = [start <= i < stop for i in range(dim)]
    traces: list[tuple[Fraction | int, Fraction | int]] = []
    for m in group.elements:
        form = m.monomial_form()
        if form is not None:
            perm, phase = form
            # Row i holds its one entry at (i, perm[i]): the dense scan's order.
            entries = enumerate(perm)
            counts = [0, 0, 0, 0]  # diagonal entries 1, i, -1, -i
            for r in range(start, stop):
                if perm[r] == r:
                    counts[phase[r]] += 1
            traces.append((counts[0] - counts[2], counts[1] - counts[3]))
        else:
            rows = m.rows()
            entries = (
                (i, j) for i, row in enumerate(rows) for j, value in enumerate(row)
                if not value.is_zero()
            )
            total = GaussianRational(0, 0)
            for r in range(start, stop):
                total = total + rows[r][r]
            traces.append((total.re, total.im))
        for i, j in entries:
            if inside[i] != inside[j]:
                raise ValueError(f"block {block} is coupled to the rest at entry ({i},{j})")
    return traces


def _norm(traces: list[tuple[Fraction | int, Fraction | int]]) -> Fraction:
    return Fraction(sum(re * re + im * im for re, im in traces), len(traces))


def irreducibility_norm(group: MatrixGroup, block: tuple[int, int] | None = None) -> Fraction:
    """Average of |trace|^2; exactly 1 for an irreducible representation."""
    return _norm(_block_traces(group, block))


@functools.cache
def structural_invariant(group: MatrixGroup, block: tuple[int, int] | None = None) -> int:
    """Average trace of the squares: +1, 0, or -1 for an irreducible block.

    The sign separates representations with a symmetric invariant form,
    no invariant form, and an antisymmetric one. Computed once per (group,
    block): a catalog profile and the form solver both ask for it.
    """
    traces = _block_traces(group, block)
    norm = _norm(traces)
    if norm != 1:
        raise ValueError(f"representation is reducible (norm {norm}); indicator undefined")
    total_re = total_im = 0
    for i in range(group.order):
        re, im = traces[group.mul(i, i)]
        total_re += re
        total_im += im
    if total_im != 0 or total_re % group.order != 0:
        total = format_scalar(GaussianRational(total_re, total_im))
        raise ValueError(f"indicator sum {total} is not an integer multiple")
    value = int(total_re // group.order)
    if value not in (-1, 0, 1):
        raise ValueError(f"indicator {value} outside the expected range")
    return value


def __getattr__(name: str):
    """Any other name is one of `gammagroups.forms`'s, loaded on first use.

    Dunder names are refused: `from .reps import x` probes `__path__`, and
    forwarding that probe would load the forms with every import of this
    module.
    """
    if name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import forms
    return getattr(forms, name)
